"""End-to-end CLI coverage over the JSON interfaces."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from modules import borel_root_datum
from reference_engines import reference_dumps

from whittak import cli, serialize
from whittak.cli import main
from whittak.exactlin import Scalar
from whittak.superalg import ODD, build_gl, weyl_vector
from whittak.takiff import build_takiff

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def gl21_file(tmp_path):
    out = tmp_path / "gl21.json"
    assert run(["build", "gl", "--m", 2, "--n", 1, "--out", out]) == 0
    return out


@pytest.fixture
def gl21_tak(tmp_path, gl21_file):
    out = tmp_path / "gl21tak.json"
    assert run(["build", "takiff", "--of", gl21_file, "--out", out]) == 0
    return out


@pytest.fixture
def gl11_tak(tmp_path):
    alg = tmp_path / "gl11.json"
    tak = tmp_path / "gl11tak.json"
    assert run(["build", "gl", "--m", 1, "--n", 1, "--out", alg]) == 0
    assert run(["build", "takiff", "--of", alg, "--out", tak]) == 0
    return tak


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write(path, obj):
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture
def gl12_tak(tmp_path):
    alg = tmp_path / "gl12.json"
    tak = tmp_path / "gl12tak.json"
    assert run(["build", "gl", "--m", 1, "--n", 2, "--out", alg]) == 0
    assert run(["build", "takiff", "--of", alg, "--out", tak]) == 0
    return alg, tak


class TestBuild:
    def test_gl_file(self, gl21_file):
        d = load(gl21_file)
        assert d["name"] == "gl(2|1)"
        assert d["dim"] == 9
        assert len(d["labels"]) == 9
        assert "root_datum" in d

    def test_takiff_dimension_contract(self, gl21_tak, gl21_file):
        d = load(gl21_tak)
        base = load(gl21_file)
        assert d["dim"] == 2 * base["dim"] + 1
        assert d["layout"]["z"] == 18

    def test_span_closure(self, tmp_path, gl12_tak):
        alg, _ = gl12_tak
        gens = tmp_path / "gens.json"
        gens.write_text(
            json.dumps(
                {
                    "vectors": [
                        {"coords": {"E_21": "1", "E_32": "1"}},
                        {"coords": {"E_12": "-1", "E_23": "1"}},
                    ]
                }
            )
        )
        out = tmp_path / "osp.json"
        assert run(["build", "span", "--in", alg, "--gens", gens, "--name", "osp(1|2)", "--out", out]) == 0
        d = load(out)
        assert d["dim"] == 5
        assert d["name"] == "osp(1|2)"

    def test_invalid_params(self, tmp_path):
        assert run(["build", "gl", "--m", 0, "--n", 0, "--out", tmp_path / "x.json"]) == 2

    def test_takiff_needs_a_root_datum(self, tmp_path, capsys):
        alg = copy.deepcopy(_valid_file(1, 1, "algebra"))
        del alg["root_datum"]
        capsys.readouterr()
        assert run(["build", "takiff", "--of", write(tmp_path / "alg.json", alg), "--out", tmp_path / "x.json"]) == 2
        assert capsys.readouterr().err == "error: the input file carries no root datum\n"

    def test_span_of_one_element_file(self, tmp_path, gl12_tak):
        # a gens file without a vectors list is one element; [x, x] = 2 E_31 for x = E_21 + E_32
        alg, _ = gl12_tak
        x = {"coords": {"E_21": "1", "E_32": "1"}}
        one, listed = tmp_path / "one.json", tmp_path / "listed.json"
        assert run(["build", "span", "--in", alg, "--gens", write(tmp_path / "x.json", x), "--out", one]) == 0
        assert run(["build", "span", "--in", alg, "--gens", write(tmp_path / "xs.json", {"vectors": [x]}),
                    "--out", listed]) == 0
        assert load(one)["dim"] == 2 and one.read_bytes() == listed.read_bytes()


class TestVerify:
    def test_algebra_pass(self, gl21_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["verify", "algebra", "--alg", gl21_file, "--out", rep]) == 0
        assert load(rep)["pass"] is True

    def test_algebra_corrupted(self, gl21_file, tmp_path):
        d = load(gl21_file)
        d["brackets"] = [b for b in d["brackets"] if not (b["i"] == 1 and b["j"] == 3)]
        bad = tmp_path / "corrupted.json"
        bad.write_text(json.dumps(d))
        rep = tmp_path / "rep.json"
        assert run(["verify", "algebra", "--alg", bad, "--out", rep]) == 1
        out = load(rep)
        assert out["pass"] is False
        assert any("witness" in c for c in out["checks"])

    def test_takiff_suite(self, gl21_tak, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["verify", "takiff", "--alg", gl21_tak, "--out", rep]) == 0

    def test_fock_lift(self, tmp_path):
        alg = tmp_path / "gl11.json"
        tak = tmp_path / "gl11tak.json"
        run(["build", "gl", "--m", 1, "--n", 1, "--out", alg])
        run(["build", "takiff", "--of", alg, "--out", tak])
        rep = tmp_path / "rep.json"
        assert run(["verify", "fock-lift", "--alg", tak, "--c", "1", "--deg", 3, "--out", rep]) == 0

    def test_fock_lift_twisted(self, tmp_path):
        alg = tmp_path / "gl11.json"
        tak = tmp_path / "gl11tak.json"
        run(["build", "gl", "--m", 1, "--n", 1, "--out", alg])
        run(["build", "takiff", "--of", alg, "--out", tak])
        d = load(tak)
        base = load(alg)
        bar = d["layout"]["theta"][base["labels"].index("E_12")]
        eta = tmp_path / "eta.json"
        eta.write_text(
            json.dumps({"algebra": d["name"], "domain": [bar], "values": {str(bar): "2+1*i"}})
        )
        assert run(["verify", "fock-lift", "--alg", tak, "--c", "1", "--deg", 2, "--eta", eta]) == 0

    def test_highest_weight(self, gl21_tak, tmp_path):
        assert run(["verify", "highest-weight", "--alg", gl21_tak, "--c", "2"]) == 0

    def test_factorization(self, gl21_tak, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(
            ["verify", "factorization", "--alg", gl21_tak, "--c", "2", "--trunc", 4, "--out", rep]
        ) == 0

    def test_skryabin_and_regularity(self, tmp_path, gl12_tak):
        _, tak = gl12_tak
        e = tmp_path / "e.json"
        e.write_text(json.dumps({"coords": {"E_21": "1", "E_32": "1"}}))
        assert run(["verify", "skryabin", "--alg", tak, "--e", e]) == 0
        assert run(["verify", "regularity", "--alg", tak, "--e", e, "--c", "1"]) == 0

    def test_regularity_rejects_a_root_outside_the_simple_span(self, tmp_path, gl12_tak, capsys):
        # one simple root of gl(1|2) dropped: the other positive roots are no simple combinations
        _, tak = gl12_tak
        d = load(tak)
        d["root_datum"]["simple"] = d["root_datum"]["simple"][:1]
        bad = write(tmp_path / "bad.json", d)
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1", "E_32": "1"}})
        capsys.readouterr()
        assert run(["verify", "regularity", "--alg", bad, "--e", e, "--c", "1"]) == 2
        assert capsys.readouterr().err == "error: positive root (1, 0, -1) is not a simple combination\n"

    @pytest.mark.parametrize(
        "mn, want",
        [
            ((1, 2), "error: positive root (1, 0, -1) is not a simple combination"),
            ((2, 1), "error: root datum: [E_11,E_13] != root value"),
        ],
        ids=["simple-set-cut", "covectors-doubled"],
    )
    def test_root_datum_is_checked_at_load(self, tmp_path, capsys, mn, want):
        # gl(1|2) with its simple set cut from [0, 3] to [0], or gl(2|1) with the E_13 and E_31
        # covectors doubled (their offsets stay integral): each passed these suites before
        ext = copy.deepcopy(_valid_file(*mn, "extension"))
        rd, labels = ext["root_datum"], ext["base_algebra"]["labels"]
        if mn == (1, 2):
            assert rd["simple"] == [0, 3]
            rd["simple"] = [0]
        else:
            for r in rd["roots"]:
                if labels[r["space"][0]] in ("E_13", "E_31"):
                    r["covector"] = [str(Scalar.parse(v) * Scalar(2)) for v in r["covector"]]
        bad = write(tmp_path / "bad.json", ext)
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1", "E_32": "1"}})
        argvs = [["takiff"], ["highest-weight"], ["factorization", "--c", "1"]]
        argvs += [["skryabin", "--e", e]] if mn == (1, 2) else []
        for argv in argvs:
            capsys.readouterr()
            assert run(["verify", *argv, "--alg", bad, "--out", tmp_path / "out"]) == 2, argv
            assert capsys.readouterr().err.splitlines() == [want], argv

    @staticmethod
    def _corrupted_root_datum(case, rd):
        """Edit a root datum of `_valid_file` in place: E_31's root deleted on gl(2|1) (the span
        check's case), the roots of gl(3|0) over the Cartan [E_11] with two root vectors each (the
        one-vector check's), or every root of gl(1|1) made non-positive (the negatives check's)."""
        if case == "root-deleted":
            gone = next(n for n, r in enumerate(rd["roots"]) if r["space"] == [6])  # E_31 of gl(2|1)
            del rd["roots"][gone]
            for key in ("positive", "simple"):
                rd[key] = [k - (k > gone) for k in rd[key]]
        elif case == "two-vector-roots":
            rd.update(cartan=[0], positive=[0], simple=[0], roots=[
                {"covector": ["1"], "space": [1, 2], "parity": 0},
                {"covector": ["-1"], "space": [3, 6], "parity": 0},
            ])
        else:
            rd.update(positive=[], simple=[])

    @pytest.mark.parametrize(
        "case, mn, want",
        [
            ("root-deleted", (2, 1), "error: root datum: E_31 is in no root space and not in the Cartan"),
            ("two-vector-roots", (3, 0), "error: root 0 has 2 root vectors, not one"),
            ("no-positive-roots", (1, 1), "error: root datum: not exactly one of ±(1, -1) is positive"),
        ],
        ids=["root-deleted", "two-vector-roots", "no-positive-roots"],
    )
    def test_root_datum_rules_at_load(self, tmp_path, capsys, case, mn, want):
        # the first two passed build takiff, the characters and the factorization before the loader
        # applied verify_root_datum's rules and the one-vector rule; each case fails one rule only
        alg, ext = copy.deepcopy(_valid_file(*mn, "algebra")), copy.deepcopy(_valid_file(*mn, "extension"))
        for d in (alg, ext):
            self._corrupted_root_datum(case, d["root_datum"])
        alg, ext = write(tmp_path / "alg.json", alg), write(tmp_path / "ext.json", ext)
        chi = write(tmp_path / "chi.json", {"domain": [], "values": {}})
        argvs = [
            ["build", "takiff", "--of", alg],
            ["character", "--kind", "fock", "--alg", ext],
            ["character", "--kind", "verma", "--alg", ext],
            ["verify", "factorization", "--alg", ext, "--c", "2"],
            ["verify", "regularity", "--alg", ext, "--chi", chi],
            ["verify", "highest-weight", "--alg", ext],
        ]
        for argv in argvs:
            capsys.readouterr()
            assert run(argv + ["--out", tmp_path / "out"]) == 2, argv
            assert capsys.readouterr().err.splitlines() == [want], argv

    def test_failure_branches_are_one_error_line(self, tmp_path, capsys, gl21_file, gl12_tak):
        # an algebra file given as an extension, an e with no Cartan grading element, an h that does
        # not grade e in degree 1, and an algebra file with one parity entry dropped
        _, tak = gl12_tak
        e11 = write(tmp_path / "e11.json", {"coords": {"E_11": "1"}})
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1", "E_32": "1"}})
        short = load(gl21_file)
        short["parity"].pop()
        cases = [
            (["takiff", "--alg", gl21_file], "error: not an extension file: missing takiff_of"),
            (["skryabin", "--alg", tak, "--e", e11], "error: no Cartan grading element h with [h, e] = e"),
            (["skryabin", "--alg", tak, "--e", e, "--h", e11], "error: e must be homogeneous of ad-h degree 1"),
            (["algebra", "--alg", write(tmp_path / "short.json", short)], "error: labels and parity lengths differ"),
        ]
        for argv, want in cases:
            capsys.readouterr()
            assert run(["verify", *argv]) == 2, argv
            assert capsys.readouterr().err == want + "\n", argv

    @pytest.mark.parametrize("mn, order", [((2, 1), (2, 0, 1)), ((1, 2), (1, 2, 0)), ((2, 2), (3, 1, 0, 2))])
    def test_another_borel_loads(self, tmp_path, mn, order):
        # another positive system of gl(m|n) over the same Cartan obeys every load rule: its simples
        # are a base of its positive roots and its covectors are the eigenvalues
        a, rd = borel_root_datum(*mn, order)
        assert rd != build_gl(*mn)[1]
        alg = {**serialize.algebra_to_dict(a), "root_datum": serialize.root_datum_to_dict(rd)}
        alg = write(tmp_path / "alg.json", alg)
        ext, out = tmp_path / "ext.json", tmp_path / "rep.json"
        assert run(["build", "takiff", "--of", alg, "--out", ext]) == 0
        assert load(ext)["root_datum"] == serialize.root_datum_to_dict(rd)
        for argv in (["takiff"], ["factorization", "--c", "2"], ["highest-weight", "--c", "2"]):
            assert run(["verify", *argv, "--alg", ext, "--out", out]) == 0, argv

    def test_zero_level_usage_error(self, gl21_tak):
        assert run(["verify", "highest-weight", "--alg", gl21_tak, "--c", "0"]) == 2

    def test_zero_denominator_is_one_error_line(self, gl21_tak, tmp_path, capsys):
        assert run(["verify", "highest-weight", "--alg", gl21_tak, "--c", "1/0"]) == 2
        d = load(gl21_tak)
        d["brackets"][0]["coeff"] = "1/0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert run(["verify", "takiff", "--alg", bad]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("error: zero denominator") for line in lines)

    def test_malformed_field_types_are_one_error_line(self, tmp_path, capsys):
        alg = tmp_path / "gl11.json"
        assert run(["build", "gl", "--m", 1, "--n", 1, "--out", alg]) == 0
        for field, value in (("i", "0"), ("coeff", 1)):
            d = load(alg)
            d["brackets"][0][field] = value
            bad = tmp_path / f"bad-{field}.json"
            bad.write_text(json.dumps(d))
            capsys.readouterr()
            assert run(["verify", "algebra", "--alg", bad]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")

    def test_out_of_range_indices_are_one_error_line(self, tmp_path, capsys):
        alg = tmp_path / "gl11.json"
        assert run(["build", "gl", "--m", 1, "--n", 1, "--out", alg]) == 0
        d = load(alg)
        d["brackets"][0]["k"] = 99
        bad_k = tmp_path / "bad-k.json"
        bad_k.write_text(json.dumps(d))
        d = load(alg)
        d["dim"] = 7
        bad_dim = tmp_path / "bad-dim.json"
        bad_dim.write_text(json.dumps(d))
        for bad, want in ((bad_k, "k = 99"), (bad_dim, "dim 7")):
            capsys.readouterr()
            assert run(["verify", "algebra", "--alg", bad]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and want in lines[0]

    @pytest.mark.parametrize("value", [2, -1, "x", None, True, 1.0])
    @pytest.mark.parametrize("field", ["algebra", "root"])
    def test_parity_outside_0_1_is_one_error_line(self, tmp_path, capsys, field, value):
        alg, ext = copy.deepcopy(_valid_file(1, 1, "algebra")), copy.deepcopy(_valid_file(1, 1, "extension"))
        if field == "algebra":
            alg["parity"][1] = ext["base_algebra"]["parity"][1] = value
            want = f"parity entry 1 is {value!r}"
        else:
            alg["root_datum"]["roots"][0]["parity"] = ext["root_datum"]["roots"][0]["parity"] = value
            want = f"root 0 has parity {value!r}"
        alg, ext = write(tmp_path / "alg.json", alg), write(tmp_path / "ext.json", ext)
        argvs = [
            ["build", "takiff", "--of", alg],
            ["verify", "takiff", "--alg", ext],
            ["verify", "highest-weight", "--alg", ext],
        ] + ([["verify", "algebra", "--alg", alg]] if field == "algebra" else [])
        for argv in argvs:
            capsys.readouterr()
            assert run(argv + ["--out", tmp_path / "out"]) == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and want in lines[0], lines

    def test_root_parity_must_match_its_root_vector(self, tmp_path, capsys):
        # root 0 of gl(2|1) is spanned by the odd E_12; a file that calls it even is one error line
        alg, ext = copy.deepcopy(_valid_file(2, 1, "algebra")), copy.deepcopy(_valid_file(2, 1, "extension"))
        assert alg["labels"][alg["root_datum"]["roots"][0]["space"][0]] == "E_12"
        alg["root_datum"]["roots"][0]["parity"] = ext["root_datum"]["roots"][0]["parity"] = 0
        alg, ext = write(tmp_path / "alg.json", alg), write(tmp_path / "ext.json", ext)
        for argv in (
            ["build", "takiff", "--of", alg],
            ["verify", "takiff", "--alg", ext],
            ["verify", "highest-weight", "--alg", ext],
            ["verify", "factorization", "--alg", ext],
            ["character", "--kind", "fock", "--alg", ext],
        ):
            capsys.readouterr()
            assert run(argv + ["--out", tmp_path / "out"]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: root 0 has parity 0, but its root vector E_12 has parity 1"
            ], argv

    def test_extension_disagreeing_with_its_base_is_rejected(self, gl21_tak, tmp_path, capsys):
        d = load(gl21_tak)
        entry = next(b for b in d["brackets"] if b["k"] == d["layout"]["z"])
        entry["coeff"] = str(Scalar.parse(entry["coeff"]) + Scalar(1))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        capsys.readouterr()
        for argv in (
            ["verify", "takiff"],
            ["verify", "highest-weight", "--c", "2"],
            ["verify", "factorization", "--c", "2"],
            ["character"],
        ):
            assert run(argv + ["--alg", bad]) == 2
        lines = capsys.readouterr().err.splitlines()
        want = f"error: stored bracket ({entry['i']}, {entry['j']}) differs"
        assert len(lines) == 4 and all(line.startswith(want) for line in lines)

    @pytest.mark.parametrize(
        "field, value",
        [("base", [99, "x"]), ("theta", "nonsense"), ("theta", list(range(5, 9))), ("base", [0, True, 2, 3]),
         ("base", None)],
    )
    def test_malformed_layout_is_one_error_line(self, tmp_path, capsys, field, value):
        ext = copy.deepcopy(_valid_file(1, 1, "extension"))
        assert ext["layout"][field] == list(range(4) if field == "base" else range(4, 8))
        if value is None:
            del ext["layout"][field]
        else:
            ext["layout"][field] = value
        capsys.readouterr()
        assert run(["verify", "takiff", "--alg", write(tmp_path / "ext.json", ext)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: the stored extension's basis or layout differs from its base algebra's"]

    @pytest.mark.parametrize(
        "edit, want",
        [
            (lambda d: d.update(layout=[1]), "error: layout must be a JSON object, not [1]"),
            (lambda d: d.pop("layout"), "error: layout must be a JSON object, not None"),
            (lambda d: d["layout"].pop("z"), "error: the stored extension's basis or layout differs"),
            (lambda d: d.update(takiff_of="gl(2|1)"), "error: takiff_of 'gl(2|1)' differs from the base"),
            (lambda d: d.update(form=d["base_algebra"]["form"]), "error: an extension file's total algebra"),
            (lambda d: d.pop("base_algebra"), "error: base_algebra must be a JSON object, not None"),
            (lambda d: d.pop("root_datum"), "error: root_datum must be a JSON object, not None"),
            (lambda d: d.pop("brackets"), "error: brackets must be a JSON list, not None"),
            (lambda d: d["base_algebra"].pop("labels"), "error: base_algebra.labels must be a JSON list, not None"),
            (lambda d: d["root_datum"].update(roots=5), "error: root_datum.roots must be a JSON list, not 5"),
            (lambda d: d["root_datum"]["roots"][1].pop("covector"), "error: root_datum.roots[1].covector is missing"),
            (
                lambda d: d["root_datum"]["roots"].insert(0, ["1", "-1"]),
                "error: root_datum.roots[0] must be a JSON object, not ['1', '-1']",
            ),
            (
                lambda d: d["root_datum"]["roots"][0].update(space=3),
                "error: root_datum.roots[0].space must be a JSON list, not 3",
            ),
            (lambda d: d["brackets"][2].pop("k"), "error: brackets[2].k is missing"),
            (lambda d: d["brackets"][0].pop("coeff"), "error: brackets[0].coeff is missing"),
            (lambda d: d["base_algebra"]["form"][1].pop("j"), "error: base_algebra.form[1].j is missing"),
            (
                lambda d: d["root_datum"]["roots"][0].update(covector="10"),
                "error: root_datum.roots[0].covector must be a JSON list, not '10'",
            ),
            (
                lambda d: d["root_datum"]["roots"][0].update(space="1"),
                "error: root_datum.roots[0].space must be a JSON list, not '1'",
            ),
            (
                lambda d: d["root_datum"]["roots"][0].update(space="01"),
                "error: root_datum.roots[0].space must be a JSON list, not '01'",
            ),
            (
                lambda d: d["root_datum"]["roots"][0]["covector"].__setitem__(1, 1),
                "error: root_datum.roots[0].covector[1] must be a JSON string, not 1",
            ),
            (
                lambda d: d["brackets"][0].update(coeff=1),
                "error: brackets[0].coeff must be a JSON string, not 1",
            ),
            (
                lambda d: d["base_algebra"]["form"][1].update(coeff=None),
                "error: base_algebra.form[1].coeff must be a JSON string, not None",
            ),
            (
                lambda d: d["base_algebra"]["brackets"][0].update(coeff=[1]),
                "error: base_algebra.brackets[0].coeff must be a JSON string, not [1]",
            ),
            # a coefficient text that does not parse, or an index out of range, keeps its own error
            (lambda d: d["brackets"][0].update(coeff="1/"), "error: cannot parse scalar '1/'"),
            (
                lambda d: d["root_datum"]["roots"][0]["covector"].__setitem__(0, "x"),
                "error: cannot parse scalar 'x'",
            ),
            (lambda d: d["brackets"][0].update(k=99), "error: bracket entry"),
            (
                lambda d: d["root_datum"]["roots"][0].update(space=[]),
                "error: root 0 needs a root space and one value per Cartan element",
            ),
            (
                lambda d: d["root_datum"]["roots"][1]["covector"].pop(),
                "error: root 1 needs a root space and one value per Cartan element",
            ),
        ],
        ids=[
            "layout-list", "layout-missing", "z-missing", "takiff_of", "total-form",
            "base-missing", "root-datum-missing", "brackets-missing", "base-labels-missing", "roots-int",
            "root-no-covector", "root-list", "root-space-int", "bracket-no-k", "bracket-no-coeff", "form-no-j",
            "covector-string", "space-string", "space-string-two", "covector-int-entry", "bracket-int-coeff", "form-null-coeff",
            "base-bracket-list-coeff", "bracket-bad-text", "covector-bad-text", "bracket-k-outside",
            "root-space-empty", "covector-short",
        ],
    )
    def test_malformed_extension_names_its_field(self, tmp_path, capsys, edit, want):
        ext = copy.deepcopy(_valid_file(1, 1, "extension"))
        edit(ext)
        capsys.readouterr()
        assert run(["verify", "takiff", "--alg", write(tmp_path / "ext.json", ext)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(want), lines

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["fock-lift", "--deg=-1"], "--deg must be nonnegative"),
            (["appendix", "--weight-bound=-1"], "--weight-bound must be nonnegative"),
        ],
    )
    def test_negative_size_flags_are_one_error_line(self, gl11_tak, tmp_path, capsys, argv, want):
        # a negative bound would check nothing and pass
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1"}})
        eta = write(tmp_path / "eta.json", _GL11_ETA)
        capsys.readouterr()
        assert run(["verify", *argv, "--alg", gl11_tak, "--e", e, "--eta", eta]) == 2
        assert capsys.readouterr().err == f"error: {want}\n"

    def test_missing_file(self):
        assert run(["verify", "algebra", "--alg", "/nonexistent.json"]) == 2

    def test_missing_inputs_are_usage_errors(self, gl21_tak):
        assert run(["verify", "skryabin", "--alg", gl21_tak]) == 2
        assert run(["verify", "whittaker-covariance", "--alg", gl21_tak, "--c", "1"]) == 2
        assert run(["verify", "regularity", "--alg", gl21_tak, "--c", "1"]) == 2


class TestWhittaker:
    def test_zero_character_contains_vacuum(self, tmp_path):
        alg = tmp_path / "gl11.json"
        tak = tmp_path / "gl11tak.json"
        run(["build", "gl", "--m", 1, "--n", 1, "--out", alg])
        run(["build", "takiff", "--of", alg, "--out", tak])
        d = load(tak)
        theta = d["layout"]["theta"]
        base = load(alg)
        # barred positive root vector: E_12 (x) theta
        bar = theta[base["labels"].index("E_12")]
        chi = tmp_path / "chi.json"
        chi.write_text(json.dumps({"algebra": d["name"], "domain": [bar], "values": {}}))
        out = tmp_path / "wh.json"
        assert run(["whittaker", "--alg", tak, "--chi", chi, "--c", "1", "--trunc", 2, "--out", out]) == 0
        got = load(out)
        assert got["dimension"] >= 1
        assert any(
            term["poly"] == {} and term["grass"] == [] and term["cliff"] == []
            for vec in got["vectors"]
            for term in vec
        )

    def test_inconsistent_character_empty(self, tmp_path):
        alg = tmp_path / "gl11.json"
        tak = tmp_path / "gl11tak.json"
        run(["build", "gl", "--m", 1, "--n", 1, "--out", alg])
        run(["build", "takiff", "--of", alg, "--out", tak])
        d = load(tak)
        base = load(alg)
        bar = d["layout"]["theta"][base["labels"].index("E_12")]
        chi = tmp_path / "chi.json"
        # untwisted module but a nonzero eigenvalue requested
        chi.write_text(
            json.dumps({"algebra": d["name"], "domain": [bar], "values": {str(bar): "5"}})
        )
        out = tmp_path / "wh.json"
        assert run(["whittaker", "--alg", tak, "--chi", chi, "--c", "1", "--trunc", 2, "--out", out]) == 0
        assert load(out)["dimension"] == 0


class TestCharacter:
    def test_fock_json_and_bytes_stable(self, gl21_tak, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        argv = ["character", "--kind", "fock", "--alg", gl21_tak, "--c", "1", "--trunc", 3]
        assert run(argv + ["--out", out1]) == 0
        assert run(argv + ["--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        d = load(out1)
        assert d["terms"][0]["mult"] == 4  # Clifford factor of gl(2|1)

    def test_tsv(self, gl21_tak, tmp_path):
        out = tmp_path / "c.tsv"
        assert run(
            ["character", "--kind", "verma", "--alg", gl21_tak, "--c", "1", "--trunc", 2, "--format", "tsv", "--out", out]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "offset\tmult"
        assert len(lines) > 1

    def test_truncation_cap(self, gl21_tak, monkeypatch):
        monkeypatch.setenv("STL_MAX_TRUNC", "2")
        assert run(["character", "--alg", gl21_tak, "--c", "1", "--trunc", 5]) == 2


# bar E_12 = E_12 (x) theta is index 5 of the gl(1|1) extension
_GL11_ETA = {"algebra": "takiff(gl(1|1))", "domain": [5], "values": {"5": "2+1*i"}}


class TestInputIndices:
    """Character, element and weight files are checked against their algebra."""

    def _one_error(self, capsys, argv, want):
        capsys.readouterr()
        assert run(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and want in lines[0], lines

    @pytest.mark.parametrize("domain", [[99], [-1], [True], [5.0]])
    def test_character_domain_outside_the_algebra(self, gl11_tak, tmp_path, capsys, domain):
        chi = write(tmp_path / "chi.json", {"algebra": "x", "domain": domain, "values": {}})
        for argv in (
            ["whittaker", "--chi", chi, "--trunc", 1],
            ["verify", "regularity", "--chi", chi],
            ["verify", "whittaker-covariance", "--eta", chi],
        ):
            self._one_error(capsys, argv + ["--alg", gl11_tak], f"character index {domain[0]}")

    def test_character_value_outside_the_algebra(self, gl11_tak, tmp_path, capsys):
        chi = write(tmp_path / "chi.json", {"algebra": "x", "domain": [5], "values": {"-1": "1"}})
        self._one_error(capsys, ["whittaker", "--alg", gl11_tak, "--chi", chi], "character index -1")

    def test_element_coordinate_outside_the_algebra(self, gl11_tak, tmp_path, capsys):
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1"}})
        bad = write(tmp_path / "bad.json", {"coords": {"-1": "1"}})
        for argv in (["--e", bad], ["--e", e, "--h", bad]):
            self._one_error(capsys, ["verify", "skryabin", "--alg", gl11_tak] + argv, "coordinate '-1'")

    def test_weight_needs_one_value_per_cartan_element(self, gl11_tak, tmp_path, capsys):
        lam = write(tmp_path / "w.json", {"values": ["1"], "level": "1"})
        for argv in (
            ["character", "--kind", "verma"],
            ["character", "--kind", "verma-plain"],
            ["verify", "factorization"],
        ):
            self._one_error(capsys, argv + ["--alg", gl11_tak, "--weight", lam], "the weight has 1 values")

    @pytest.mark.parametrize(
        "argv, doc, want",
        [
            (["verify", "factorization", "--weight"], {"values": ["1", "0"]},
             "level must be a JSON string, not None"),
            (["whittaker", "--trunc", 1, "--chi"], {"values": {}},
             "character domain must be a JSON list, not None"),
            (["verify", "skryabin", "--e"], {"coords": {"E_99": "1"}},
             "element coordinate 'E_99' is not a basis label of gl(1|1)"),
            (["verify", "skryabin", "--e"], {"coords": {"\u00b2": "1"}},
             "element coordinate '\u00b2' is not a basis label of gl(1|1)"),
            (["whittaker", "--chi"], {"domain": [5], "values": {"E_12": "1"}},
             "character value key 'E_12' is not a basis index"),
            (["build", "span", "--gens"], {"vectors": 5}, "vectors must be a JSON list, not 5"),
            (["build", "span", "--gens"], 5, "a vectors file must be a JSON object, not 5"),
        ],
        ids=["weight-level-missing", "character-domain-missing", "element-label-unknown",
             "element-label-superscript-digit",
             "character-value-key-label", "vectors-not-a-list", "vectors-file-not-an-object"],
    )
    def test_input_file_errors_name_the_field(self, gl11_tak, tmp_path, capsys, argv, doc, want):
        path = write(tmp_path / "in.json", doc)
        # build span reads its algebra from --in
        alg = "--in" if argv[0] == "build" else "--alg"
        self._one_error(capsys, argv + [path, alg, gl11_tak], f"error: {want}")


class TestCliPaths:
    """Suites and options that no other test runs, pinned to the bytes they emit."""

    def test_whittaker_covariance(self, gl11_tak, tmp_path):
        eta = write(tmp_path / "eta.json", _GL11_ETA)
        out = tmp_path / "rep.json"
        assert run(["verify", "whittaker-covariance", "--alg", gl11_tak, "--eta", eta, "--out", out]) == 0
        assert sha(out) == "c7b14f2d83a42271931f914792a37b0969d45b61b9075166b2481ecfd485dfdd"

    def test_regularity_from_a_character_file(self, gl11_tak, tmp_path):
        chi = write(tmp_path / "chi.json", _GL11_ETA)
        out = tmp_path / "rep.json"
        assert run(["verify", "regularity", "--alg", gl11_tak, "--chi", chi, "--out", out]) == 0
        assert sha(out) == "7c4f19b12e03ad01318a53f5bdb533ea4653547e24627e329a1dd6f55b6212c8"

    def test_appendix(self, gl11_tak, gl12_tak, tmp_path, capsys):
        e11 = write(tmp_path / "e11.json", {"coords": {"E_21": "1"}})
        out = tmp_path / "rep.json"
        assert run(["verify", "appendix", "--alg", gl11_tak, "--e", e11, "--out", out]) == 0
        assert sha(out) == "0e246388d655b6ae18d8c5765f29dc1c1089ddee39cd24ebb54a83f442dfe589"
        # principal gl(1|2) has zeta != 0, so its twisted Fock module has no
        # Whittaker vector to pair words on
        e12 = write(tmp_path / "e12.json", {"coords": {"E_21": "1", "E_32": "1"}})
        capsys.readouterr()
        assert run(["verify", "appendix", "--alg", gl12_tak[1], "--e", e12]) == 2
        assert capsys.readouterr().err == "error: no Whittaker vector available\n"

    def test_grading_element_file(self, gl12_tak, tmp_path):
        e = write(tmp_path / "e.json", {"coords": {"E_21": "1", "E_32": "1"}})
        h = write(tmp_path / "h.json", {"coords": {"E_33": "1", "E_11": "-1"}})
        out, solved = tmp_path / "rep.json", tmp_path / "solved.json"
        assert run(["verify", "skryabin", "--alg", gl12_tak[1], "--e", e, "--h", h, "--out", out]) == 0
        assert run(["verify", "skryabin", "--alg", gl12_tak[1], "--e", e, "--out", solved]) == 0
        # the supplied h and the solved one grade the extension alike
        assert out.read_bytes() == solved.read_bytes()
        assert sha(out) == "95b779bcf5d838b42a86699ecda6a57e57e45f42b40b5416d8d7fa605002ad3e"

    def test_whittaker_vectors(self, gl21_tak, tmp_path):
        # bar E_12 is index 10 of the gl(2|1) extension; the 20 vectors use
        # polynomial, Grassmann, b1 and w letters
        eta = write(tmp_path / "eta.json", {"domain": [10], "values": {"10": "1"}})
        out = tmp_path / "wh.json"
        argv = ["whittaker", "--alg", gl21_tak, "--chi", eta, "--eta", eta, "--c", "1/2", "--trunc", 3]
        assert run(argv + ["--out", out]) == 0
        assert load(out)["dimension"] == 20
        assert sha(out) == "41733f8d5128c1729f94b6c0c4083972f0f846e1069b89c60c39ca54025a2f8c"

    def test_plain_verma_character(self, gl21_tak, tmp_path):
        out = tmp_path / "c.json"
        assert run(["character", "--kind", "verma-plain", "--alg", gl21_tak, "--trunc", 3, "--out", out]) == 0
        assert sha(out) == "ab5a2f23e7ff2ba8434ac19569982c543635758e47cb52a2cacaaf6b4dc402be"

    @pytest.mark.parametrize(
        "mn, argv, want",
        [
            ((2, 3), ["character", "--kind", "fock", "--c=-2/3", "--trunc", 8],
             "5bf258bb11fc826dd7b7981a32c4d725b98d47bada713d2b726f5988d13ee1c9"),
            ((2, 3), ["character", "--kind", "verma", "--c=1+1*i", "--trunc", 8, "--format", "tsv"],
             "e0a14295a480b0f81eb7aebbd54d64606e5c45258bfccd8ec8df948df2d1441e"),
            ((2, 2), ["verify", "factorization", "--c=2/3", "--trunc", 6],
             "2e013f80e2b7c4335cfe910da28ea63bbece57328721f807166d4f7be86bf7f9"),
        ],
    )
    def test_character_bytes(self, tmp_path, mn, argv, want):
        ext, out = write(tmp_path / "ext.json", _valid_file(*mn, "extension")), tmp_path / "out"
        assert run(argv + ["--alg", ext, "--out", out]) == 0
        assert sha(out) == want

    @pytest.mark.parametrize(
        "mn, c, want",
        [
            ((1, 2), "--c=1", "3d3315deb7872f7741237f5078fc7796babcfa62f3e0d47cc0e2d7ae58cadeb7"),
            ((2, 3), "--c=-2/3", "e98036600161460351538f61c32ea80cb5ef0b5f6752af5b8267758b8ee46431"),
        ],
    )
    def test_regularity_from_a_principal_element(self, tmp_path, mn, c, want):
        labels = ["E_21"] + [f"E_{k + 1}{k}" for k in range(2, sum(mn))]
        e = write(tmp_path / "e.json", {"coords": {lab: "1" for lab in labels}})
        ext, out = write(tmp_path / "ext.json", _valid_file(*mn, "extension")), tmp_path / "out"
        assert run(["verify", "regularity", "--alg", ext, "--e", e, c, "--out", out]) == 0
        assert sha(out) == want

    def test_whittaker_covariance_with_an_even_positive_root(self, gl21_tak, tmp_path):
        # barred E_12 and E_23 (indices 10 and 14 of the gl(2|1) extension);
        # the hat value on E_13 is nonzero
        eta = write(tmp_path / "eta.json", {"domain": [10, 14], "values": {"10": "1", "14": "1"}})
        out = tmp_path / "rep.json"
        argv = ["verify", "whittaker-covariance", "--alg", gl21_tak, "--c", "2", "--eta", eta]
        assert run(argv + ["--out", out]) == 0
        assert sha(out) == "84ac7a9be552b9eff67827d0f4cbff7063054aa5aa44c4e70ada79b90c1634fc"

    def test_whittaker_covariance_past_eight_steps(self, gl21_tak, tmp_path):
        # X - chi_hat(X) needs 9 steps on x_{E_23}^7 x_{E_13}, a degree-8 monomial; the
        # height check holds at every degree, so --deg is not read
        eta = write(tmp_path / "eta.json", {"domain": [10, 14], "values": {"10": "-1", "14": "1"}})
        argv = ["verify", "whittaker-covariance", "--alg", gl21_tak, "--c", "1", "--eta", eta]
        for deg in (7, 8):
            assert run(argv + ["--deg", deg, "--out", tmp_path / f"rep{deg}.json"]) == 0
        assert (tmp_path / "rep7.json").read_bytes() == (tmp_path / "rep8.json").read_bytes()

    def test_regularity_witnesses_in_the_file_grammar(self, tmp_path):
        # gl(2|0) has one simple even root, E_12, which no odd simples split and chi = 0 leaves zero
        ext = write(tmp_path / "ext.json", _valid_file(2, 0, "extension"))
        chi = write(tmp_path / "chi.json", {"domain": [], "values": {}})
        out = tmp_path / "rep.json"
        assert run(["verify", "regularity", "--alg", ext, "--chi", chi, "--out", out]) == 1
        assert [c.get("witness") for c in load(out)["checks"]] == [
            "vanishes on E_12", "structural claim fails for (1, -1)"
        ]

    def test_twist_outside_the_simple_odd_roots(self, tmp_path, capsys):
        # E_14 of gl(2|3) is odd and not simple; its barred vector is index 25 + 3 of the extension
        ext = write(tmp_path / "ext.json", _valid_file(2, 3, "extension"))
        eta = write(tmp_path / "eta.json", {"domain": [28], "values": {"28": "1"}})
        capsys.readouterr()
        assert run(["verify", "whittaker-covariance", "--alg", ext, "--eta", eta]) == 2
        assert capsys.readouterr().err == "error: twist supported outside the simple odd roots: (1, 0, 0, -1, 0)\n"

    def test_factorization_reads_no_truncation(self, gl21_tak, tmp_path):
        # the factorization holds at every height, so --trunc is not read: past the cap and
        # negative values give the same report
        argv = ["verify", "factorization", "--alg", gl21_tak, "--c", "2"]
        texts = set()
        out = tmp_path / "rep.json"
        for trunc in (["--trunc", "4"], ["--trunc", "9"], ["--trunc=-1"]):
            assert run(argv + trunc + ["--out", out]) == 0
            texts.add(out.read_bytes())
        assert len(texts) == 1
        assert load(out)["title"] == "character factorization: gl(2|1), c = 2, every height"

    def test_weight_file(self, gl21_tak, tmp_path, capsys):
        # a file holding the default weight (rho at level c) writes the default bytes; a file
        # holding another weight is read: the Verma character moves, the factorization checks its level
        _, rd = build_gl(2, 1)
        rho = weyl_vector(rd, Scalar(2))
        weights = {
            "rho": rho,
            "shifted": rho._replace(values=(rho.values[0] + Scalar(1), *rho.values[1:])),
            "level-1": rho._replace(level=Scalar(1)),
        }
        files = {name: write(tmp_path / f"{name}.json", serialize.weight_to_dict(lam)) for name, lam in weights.items()}

        def written(argv, *weight):
            out = tmp_path / "out"
            assert run(argv + ["--alg", gl21_tak, "--c", 2, "--trunc", 3, *weight, "--out", out]) == 0
            return out.read_bytes()

        for argv in (["verify", "factorization"], ["character", "--kind", "verma"]):
            assert written(argv, "--weight", files["rho"]) == written(argv)
        verma = ["character", "--kind", "verma"]
        assert written(verma, "--weight", files["shifted"]) != written(verma)
        capsys.readouterr()
        assert run(["verify", "factorization", "--alg", gl21_tak, "--c", 2, "--weight", files["level-1"]]) == 2
        assert capsys.readouterr().err == "error: the weight's level must match the level c\n"

    def test_characters_build_no_fock_module(self, gl21_tak, tmp_path, monkeypatch):
        # the Fock character is a function of the root datum and the level
        argvs = [
            ["character", "--kind", "fock", "--c", "1", "--trunc", 4],
            ["verify", "factorization", "--c", "2", "--trunc", 4],
        ]
        plain = []
        for n, argv in enumerate(argvs):
            assert run(argv + ["--alg", gl21_tak, "--out", tmp_path / f"plain{n}"]) == 0
            plain.append((tmp_path / f"plain{n}").read_bytes())

        def no_module(*args, **kwargs):
            raise RuntimeError("build_fock called")

        monkeypatch.setattr(cli, "build_fock", no_module)
        for n, argv in enumerate(argvs):
            assert run(argv + ["--alg", gl21_tak, "--out", tmp_path / f"patched{n}"]) == 0
            assert (tmp_path / f"patched{n}").read_bytes() == plain[n]


class TestWrittenText:
    """Every file and report the CLI writes is the text of json's pure-Python encoder."""

    @pytest.mark.parametrize("mn", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 3)], ids=lambda mn: f"gl{mn[0]}{mn[1]}")
    def test_every_written_file_is_the_reference_text(self, tmp_path, mn):
        m, n = mn
        alg, tak = tmp_path / "alg.json", tmp_path / "tak.json"
        doc = copy.deepcopy(_valid_file(m, n, "algebra"))
        doc["brackets"][0]["coeff"] = str(Scalar.parse(doc["brackets"][0]["coeff"]) + Scalar(1))
        bad, zero = write(tmp_path / "bad.json", doc), write(tmp_path / "zero.json", {"domain": [], "values": {}})
        argvs = [
            ["build", "gl", "--m", m, "--n", n, "--out", alg],
            ["build", "takiff", "--of", alg, "--out", tak],
            ["verify", "algebra", "--alg", alg],
            ["verify", "algebra", "--alg", bad],  # a failing report: its checks carry witnesses
            ["verify", "takiff", "--alg", tak],
            ["verify", "highest-weight", "--alg", tak, "--c=-2/3"],
            ["verify", "factorization", "--alg", tak, "--c=1+1*i", "--trunc", 4],
            ["verify", "fock-lift", "--alg", tak, "--deg", 1],
            ["character", "--kind", "fock", "--alg", tak, "--c=2/3", "--trunc", 4, "--format", "json"],
            ["character", "--kind", "verma", "--alg", tak, "--trunc", 3],
            ["whittaker", "--alg", tak, "--chi", zero, "--trunc", 2],
        ]
        if abs(m - n) == 1:
            labels = ["E_21"] + [f"E_{k + 1}{k}" for k in range(2, m + n)]
            e = write(tmp_path / "e.json", {"coords": {lab: "1" for lab in labels}})
            argvs += [["verify", "skryabin", "--alg", tak, "--e", e], ["verify", "regularity", "--alg", tak, "--e", e]]
        codes = []
        for k, argv in enumerate(argvs):
            if "--out" not in argv:
                argv += ["--out", tmp_path / f"out{k}.json"]
            codes.append(run(argv))
            text = Path(argv[-1]).read_text()
            assert text == reference_dumps(json.loads(text)), argv
        assert codes == [0, 0, 0, 1] + [0] * (len(argvs) - 4)


def test_parser_reuse_carries_nothing_over(gl11_tak, tmp_path):
    """A usage error and a call with --seed and --c leave no value behind for
    the next call in the same process, which writes the bytes a fresh process writes."""
    with pytest.raises(SystemExit) as exc:
        run(["verify", "no-such-suite", "--alg", gl11_tak])
    assert exc.value.code == 2
    flagged, reused, fresh = tmp_path / "flagged.json", tmp_path / "reused.json", tmp_path / "fresh.json"
    assert run(["--seed", 5, "verify", "highest-weight", "--alg", gl11_tak, "--c", 2, "--out", flagged]) == 0
    assert run(["verify", "highest-weight", "--alg", gl11_tak, "--out", reused]) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["verify", "highest-weight", "--alg", str(gl11_tak), "--out", str(fresh)]
    proc = subprocess.run([sys.executable, "-m", "whittak.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert reused.read_bytes() == fresh.read_bytes() != flagged.read_bytes()


@pytest.mark.parametrize(
    "script, want",
    [
        (["run_verifications.py", "--max-size", "2", "--deg", "1"], "all checks passed"),
        (["character_tables.py"], "PASS"),
    ],
)
def test_scripts_run(script, want):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert want in proc.stdout


def test_run_verifications_columns():
    """The verification battery over gl(m|n), m + n <= 2: its table has one column per check."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_verifications.py"), "--max-size", "2", "--deg", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines[0].split()
    assert header[0] == "algebra" and header[-1] == "time"
    assert header[1:-1] == ["algebra", "roots", "extension", "triangular", "lift", "vacuum"]
    assert lines[-1] == "all checks passed"


def _timer_metrics(script: str) -> dict:
    """The metrics of one --reps 1 run of a --script timer that `scripts/bench_pair.py` reads:
    its last stdout line must be a JSON object of float metrics."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--reps", "1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert all(type(v) is float for v in metrics.values())
    return metrics


def test_extension_timer_runs():
    metrics = _timer_metrics("time_extension_checks.py")
    assert sorted(metrics) == [
        "dumps_gl22_s", "dumps_gl23_s", "load_gl22_s", "load_gl23_s", "takiff_from_dict_s", "verify_algebra_s",
        "verify_takiff_s",
    ]


def test_lift_timer_runs():
    assert sorted(_timer_metrics("time_lift_checks.py")) == ["gl12_twisted_deg1_s", "gl21_deg1_s", "gl22_deg1_s"]


def test_cold_start_timer_runs():
    assert sorted(_timer_metrics("time_cold_start.py")) == ["cli_build_gl11_s", "import_whittak_s"]


@functools.lru_cache(maxsize=None)
def _valid_file(m, n, kind):
    """A valid algebra file (with its root datum) or extension file of gl(m|n)."""
    a, rd = build_gl(m, n)
    if kind == "extension":
        return serialize.takiff_to_dict(build_takiff(a, rd)[0])
    return {**serialize.algebra_to_dict(a), "root_datum": serialize.root_datum_to_dict(rd)}


def _paths(obj, path=()):
    """(path, value) for every node below the root of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield path + (k,), v
        yield from _paths(v, path + (k,))


def _draw_path(data, paths):
    """One of `paths`, drawn by its field first (list positions read as "*"),
    so a short list such as the Cartan indices is drawn as often as the long
    bracket list."""
    shapes = {}
    for p in paths:
        shapes.setdefault(tuple("*" if type(k) is int else k for k in p), []).append(p)
    field = data.draw(st.sampled_from(sorted(shapes, key=repr)))
    return data.draw(st.sampled_from(shapes[field]))


def _node(doc, path):
    for k in path:
        doc = doc[k]
    return doc


_WRONG_TYPED = ["x", 3, 1.5, None, True, [], [1], {}, {"a": 1}]
_BAD_SCALARS = ["1/0", "2-1/0*i", "0/0", "", " ", "abc", "1//2", "1/2/3", "+", "--1", "1e5", "i*i", "1+2+3*i"]
# -1, -7, 19, 37 and 10**6 are out of range for every index field of both
# algebras; 4 and 9 lie just past the end of a gl(1|1) basis and extension
_OUT_OF_RANGE = [-1, -7, 4, 9, 19, 37, 10**6]
# fields whose ints the loaders range-check as indices, parities included
_INDEX_FIELDS = {"i", "j", "k", "z", "base", "theta", "cartan", "space", "positive", "simple", "domain", "parity"}


def _index_paths(nodes):
    """Paths of the int nodes whose field (the last key that is not a list position) is an index."""
    return [p for p, v in nodes if type(v) is int and [k for k in p if type(k) is str][-1] in _INDEX_FIELDS]


def _non_integers(k):
    """JSON values that compare equal to 0, 1 or the index k but are not JSON integers."""
    return [True, False, 1.0, float(k)]


_COMMANDS = {
    "algebra": [
        ["verify", "algebra", "--alg", "{file}"],
        ["build", "takiff", "--of", "{file}"],
        ["build", "span", "--in", "{file}", "--gens", "{gens}"],
    ],
    "extension": [
        ["verify", "takiff", "--alg", "{file}"],
        ["verify", "highest-weight", "--alg", "{file}", "--c", "2"],
        ["verify", "fock-lift", "--alg", "{file}", "--deg", "0"],
        ["character", "--kind", "fock", "--alg", "{file}", "--trunc", "2"],
    ],
}


@functools.lru_cache(maxsize=None)
def _valid_input(m, n, kind):
    """A valid character, element or weight file for the extension of gl(m|n)."""
    a, rd = build_gl(m, n)
    if kind == "nilcharacter":
        t, _ = build_takiff(a, rd)
        bars = [t.theta(rd.roots[k].space[0]) for k in rd.simple if rd.roots[k].parity == ODD]
        values = {str(b): v for b, v in zip(bars, ["2+1*i", "-3"])}
        return {"algebra": t.total.name, "domain": bars, "values": values}
    if kind == "element":
        # an odd principal nilpotent: both gl(1|1) and gl(2|1) have odd simples only
        return {"coords": {"E_21": "1", "E_32": "1"} if m + n == 3 else {"E_21": "1"}}
    return serialize.weight_to_dict(weyl_vector(rd, Scalar(1)))


_INPUT_COMMANDS = {
    "nilcharacter": [
        ["whittaker", "--alg", "{alg}", "--chi", "{file}", "--trunc", "1"],
        ["verify", "whittaker-covariance", "--alg", "{alg}", "--eta", "{file}"],
        ["verify", "regularity", "--alg", "{alg}", "--chi", "{file}"],
        ["verify", "fock-lift", "--alg", "{alg}", "--eta", "{file}", "--deg", "0"],
    ],
    "element": [
        ["verify", "skryabin", "--alg", "{alg}", "--e", "{file}"],
        ["verify", "regularity", "--alg", "{alg}", "--e", "{file}"],
    ],
    "weight": [
        ["character", "--kind", "verma", "--alg", "{alg}", "--weight", "{file}", "--trunc", "2"],
        ["character", "--kind", "verma-plain", "--alg", "{alg}", "--weight", "{file}", "--trunc", "2"],
        ["verify", "factorization", "--alg", "{alg}", "--weight", "{file}", "--trunc", "2"],
    ],
}
# keys of coordinate and value maps that name no basis element
_BAD_KEYS = [str(k) for k in _OUT_OF_RANGE] + ["E_99", "z", "x"]


class TestFileFuzz:
    """Mutated valid files end in exit 0, 1 or 2, and an exit 2 in one error line."""

    @given(
        st.sampled_from([(1, 1), (2, 1)]),
        st.sampled_from(sorted(_COMMANDS)),
        st.sampled_from(["delete", "type", "index", "non-integer index", "scalar"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mutated_files_exit_cleanly(self, mn, kind, mutation, data):
        doc = copy.deepcopy(_valid_file(*mn, kind))
        nodes = list(_paths(doc))
        argv = data.draw(st.sampled_from(_COMMANDS[kind]))
        if mutation == "delete":
            dicts = [((), doc)] + [(p, v) for p, v in nodes if isinstance(v, dict)]
            path = _draw_path(data, [p + (k,) for p, v in dicts for k in v])
            del _node(doc, path[:-1])[path[-1]]
        else:
            if mutation == "type":
                path = _draw_path(data, [p for p, _ in nodes])
                old = _node(doc, path)
                values = [v for v in _WRONG_TYPED if type(v) is not type(old)]
            elif mutation == "index":
                path = _draw_path(data, [p for p, v in nodes if type(v) is int])
                values = _OUT_OF_RANGE
            elif mutation == "non-integer index":
                # only `build takiff` and the extension commands read an algebra file's root datum
                reads_rd = kind == "extension" or argv[:2] == ["build", "takiff"]
                path = _draw_path(data, [p for p in _index_paths(nodes) if reads_rd or p[0] != "root_datum"])
                values = _non_integers(_node(doc, path))
            else:
                path = _draw_path(data, [p for p, v in nodes if isinstance(v, str)])
                values = _BAD_SCALARS
            _node(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(values))

        with tempfile.TemporaryDirectory() as tmp:
            file, gens = os.path.join(tmp, "in.json"), os.path.join(tmp, "gens.json")
            with open(file, "w") as fh:
                json.dump(doc, fh)
            with open(gens, "w") as fh:
                json.dump({"vectors": [{"coords": {"0": "1"}}, {"coords": {"1": "1"}}]}, fh)
            argv = [a.format(file=file, gens=gens) for a in argv] + ["--out", os.path.join(tmp, "out")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert code == 2 or mutation != "non-integer index"
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @given(
        st.sampled_from([(1, 1), (2, 1)]),
        st.sampled_from(sorted(_INPUT_COMMANDS)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mutated_input_files_exit_cleanly(self, mn, kind, data):
        doc = copy.deepcopy(_valid_input(*mn, kind))
        nodes = list(_paths(doc))
        keyed = [p for p, _ in nodes if isinstance(_node(doc, p[:-1]), dict)]
        choices = {
            "delete": [p for p, _ in nodes],
            "type": [p for p, _ in nodes],
            "index": [p for p, v in nodes if type(v) is int],
            "non-integer index": _index_paths(nodes),
            "key": [p for p in keyed if p[-1] not in ("algebra", "coords", "domain", "values", "level")],
            "scalar": [p for p, v in nodes if isinstance(v, str)],
        }
        mutation = data.draw(st.sampled_from(sorted(m for m, paths in choices.items() if paths)))
        path = _draw_path(data, choices[mutation])
        parent = _node(doc, path[:-1])
        if mutation == "delete":
            del parent[path[-1]]
        elif mutation == "key":
            parent[data.draw(st.sampled_from(_BAD_KEYS))] = parent.pop(path[-1])
        elif mutation == "non-integer index":
            parent[path[-1]] = data.draw(st.sampled_from(_non_integers(parent[path[-1]])))
        else:
            values = {
                "type": [v for v in _WRONG_TYPED if type(v) is not type(parent[path[-1]])],
                "index": _OUT_OF_RANGE,
                "scalar": _BAD_SCALARS,
            }[mutation]
            parent[path[-1]] = data.draw(st.sampled_from(values))
        argv = data.draw(st.sampled_from(_INPUT_COMMANDS[kind]))

        with tempfile.TemporaryDirectory() as tmp:
            file, alg = os.path.join(tmp, "in.json"), os.path.join(tmp, "alg.json")
            for path_, obj in ((file, doc), (alg, _valid_file(*mn, "extension"))):
                with open(path_, "w") as fh:
                    json.dump(obj, fh)
            argv = [a.format(file=file, alg=alg) for a in argv] + ["--out", os.path.join(tmp, "out")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2)
        assert code == 2 or mutation != "non-integer index"
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
