"""End-to-end CLI coverage over the JSON interfaces."""

import contextlib
import copy
import functools
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittak import serialize
from whittak.cli import main
from whittak.exactlin import Scalar
from whittak.superalg import build_gl
from whittak.takiff import build_takiff


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


class TestFileFuzz:
    """Mutated valid files end in exit 0, 1 or 2, and an exit 2 in one error line."""

    @given(
        st.sampled_from([(1, 1), (2, 1)]),
        st.sampled_from(sorted(_COMMANDS)),
        st.sampled_from(["delete", "type", "index", "scalar"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_mutated_files_exit_cleanly(self, mn, kind, mutation, data):
        doc = copy.deepcopy(_valid_file(*mn, kind))
        nodes = list(_paths(doc))
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
            else:
                path = _draw_path(data, [p for p, v in nodes if isinstance(v, str)])
                values = _BAD_SCALARS
            _node(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(values))
        argv = data.draw(st.sampled_from(_COMMANDS[kind]))

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
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
