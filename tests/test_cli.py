"""End-to-end CLI coverage over the JSON interfaces."""

import json

import pytest

from whittak.cli import main
from whittak.exactlin import Scalar


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
