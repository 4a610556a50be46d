"""Round trips through the JSON formats."""

import copy
import functools
import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st
from modules import character_from_dict, module_vector_from_dict, nilchar_to_dict
from reference_engines import reference_dumps, reference_takiff_from_dict

from whittak import serialize
from whittak.exactlin import I, ONE, Scalar
from whittak.fockrep import build_fock
from whittak.superalg import ODD, build_gl, weyl_vector
from whittak.takiff import build_takiff
from whittak.wfinite import nil_character


def test_algebra_roundtrip():
    a, _ = build_gl(2, 1)
    d = serialize.algebra_to_dict(a)
    b = serialize.algebra_from_dict(json.loads(json.dumps(d)))
    assert b.name == a.name and b.labels == a.labels and b.parity == a.parity
    assert b.table == a.table
    assert b.form == a.form


def test_takiff_roundtrip():
    a, rd = build_gl(1, 2)
    t, _ = build_takiff(a, rd)
    d = serialize.takiff_to_dict(t)
    t2, _ = serialize.takiff_from_dict(json.loads(json.dumps(d)))
    assert t2.total.table == t.total.table
    assert t2.z_index == t.z_index
    assert t2.rd.positive == t.rd.positive
    assert t2.base.form == t.base.form


@functools.lru_cache(maxsize=None)
def _extension_file(m, n):
    a, rd = build_gl(m, n)
    return json.loads(serialize.dumps(serialize.takiff_to_dict(build_takiff(a, rd)[0])))


def _same_value_texts(text: str) -> list[str]:
    """Texts other than `text` that parse to its value ("2/4" for "1/2", "+1" and "01" for "1")."""
    s = Scalar.parse(text)
    num, den = (text.split("/") + ["1"])[:2]
    out = [f"{2 * int(num)}/{2 * int(den)}"]
    out += [f"+{text}", f"0{text}", f"{text}/1"] if text[0] != "-" else [f"-0{text[1:]}"]
    return [t for t in out if t != text and _parses_to(t, s)]


def _parses_to(text: str, s: Scalar) -> bool:
    try:
        return Scalar.parse(text) == s
    except ValueError:
        return False


def _outcome(load, d):
    """("ok", total table, z) or the rejection as the CLI prints it."""
    try:
        r = load(d)
    except (ValueError, TypeError, KeyError) as exc:
        return type(exc).__name__, f"error: {exc}"
    t = r[0] if isinstance(r, tuple) else r
    return "ok", t.total.table, t.z_index


_MUTATIONS = ["none", "same value", "shuffle", "extra zero", "changed coefficient", "dropped entry",
              "label", "parity", "non-integer index", "repeated key", "zero after key", "missing field",
              "non-string coefficient"]


@given(st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.sampled_from(_MUTATIONS), st.data())
@settings(max_examples=300, deadline=None)
def test_loader_agrees_with_exact_reference(mn, mutation, data):
    """The loader accepts, rejects and words errors as the exact reference loader does."""
    d = copy.deepcopy(_extension_file(*mn))
    brackets = d["brackets"]
    entry = data.draw(st.sampled_from(brackets))
    if mutation == "same value":
        entry["coeff"] = data.draw(st.sampled_from(_same_value_texts(entry["coeff"])))
    elif mutation == "shuffle":
        d["brackets"] = data.draw(st.permutations(brackets))
    elif mutation == "extra zero":
        i, j, k = (data.draw(st.integers(0, d["dim"] - 1)) for _ in range(3))
        brackets.insert(data.draw(st.integers(0, len(brackets))), {"i": i, "j": j, "k": k, "coeff": "0"})
    elif mutation == "changed coefficient":
        entry["coeff"] = str(Scalar.parse(entry["coeff"]) + data.draw(st.sampled_from([ONE, I, Scalar(-2)])))
    elif mutation == "dropped entry":
        brackets.remove(entry)
    elif mutation in ("label", "parity"):
        k = data.draw(st.integers(0, d["dim"] - 1))
        if mutation == "label":
            d["labels"][k] = data.draw(st.sampled_from(["x", d["labels"][k - 1]]))
        else:
            d["parity"][k] ^= 1
    elif mutation == "non-integer index":
        f = data.draw(st.sampled_from(["i", "j", "k"]))
        entry[f] = data.draw(st.sampled_from([True, False, 1.0, float(entry[f])]))
    elif mutation in ("repeated key", "zero after key"):
        # a later record of the same key wins: another coefficient, or a zero that drops the key
        coeff = str(Scalar.parse(entry["coeff"]) + ONE) if mutation == "repeated key" else "0"
        at = data.draw(st.integers(brackets.index(entry) + 1, len(brackets)))
        brackets.insert(at, {**entry, "coeff": coeff})
    elif mutation == "missing field":
        del entry[data.draw(st.sampled_from(["coeff", "k"]))]
    elif mutation == "non-string coefficient":
        entry["coeff"] = data.draw(st.sampled_from([1, None]))
    got = _outcome(serialize.takiff_from_dict, d)
    assert got == _outcome(reference_takiff_from_dict, d)
    if mutation in ("repeated key", "zero after key"):
        # both loaders read records through algebra_from_dict's reader, so pin its rule here: the
        # later record changed the key's value, and that pair is the only one that differs
        assert got[1].startswith(f"error: stored bracket ({entry['i']}, {entry['j']}) differs"), got


def test_loader_parses_each_coefficient_text_once(monkeypatch):
    """A file as `build takiff` writes it costs at most one Scalar.parse per distinct coefficient
    text in the whole file (brackets, form and root covectors), and loads as build_takiff's pair."""
    d = _extension_file(2, 1)
    calls = []
    parse = Scalar.parse
    monkeypatch.setattr(Scalar, "parse", staticmethod(lambda text: calls.append(text) or parse(text)))
    t, hat = serialize.takiff_from_dict(d)
    monkeypatch.undo()

    texts = {e["coeff"] for alg in (d, d["base_algebra"]) for e in alg["brackets"] + alg.get("form", [])}
    texts |= {s for r in d["root_datum"]["roots"] for s in r["covector"]}
    assert len(d["brackets"]) > len(texts)
    assert set(calls) <= texts and not [text for text, n in Counter(calls).items() if n > 1]
    t2, hat2 = build_takiff(*build_gl(2, 1))
    assert t.base.table == t2.base.table and t.base.form == t2.base.form
    assert t.total.table == t2.total.table and hat == hat2


def test_weight_roundtrip():
    _, rd = build_gl(2, 1)
    w = weyl_vector(rd, Scalar(-1, 2))
    assert serialize.weight_from_dict(serialize.weight_to_dict(w)) == w


def test_vector_by_label_and_index():
    a, _ = build_gl(1, 1)
    v1 = serialize.vector_from_dict({"coords": {"E_12": "2", "E_21": "-1/2+1*i"}}, a)
    v2 = serialize.vector_from_dict(
        {"coords": {str(a.labels.index("E_12")): "2", str(a.labels.index("E_21")): "-1/2+1*i"}}, a
    )
    assert v1 == v2


def test_nilchar_roundtrip():
    a, rd = build_gl(2, 1)
    t, _ = build_takiff(a, rd)
    bars = tuple(t.theta(rd.roots[i].space[0]) for i in rd.positive if rd.roots[i].parity == ODD)
    nc = nil_character(t.total, bars, {bars[0]: I, bars[1]: Scalar(2)})
    d = nilchar_to_dict(nc)
    nc2 = serialize.nilchar_from_dict(json.loads(json.dumps(d)), t.total)
    assert nc2.domain == nc.domain and nc2.values == nc.values


def test_module_vector_roundtrip():
    a, rd = build_gl(2, 1)
    t, _ = build_takiff(a, rd)
    f = build_fock(t, ONE)
    v = f.vacuum()
    for i in range(len(f.positives)):
        v = v + f.apply_barred(f.dual.F[i], v)
    for h in f.dual.H:
        v = v + f.apply_barred(h, v).scale(I)
    d = serialize.module_vector_to_dict(f, v)
    v2 = module_vector_from_dict(f, json.loads(json.dumps(d)))
    assert v2 == v


def test_character_roundtrip():
    from whittak.charfun import fock_character

    _, rd = build_gl(1, 1)
    ch = fock_character(rd, ONE, 4)
    d = serialize.character_to_dict(ch)
    ch2 = character_from_dict(json.loads(json.dumps(d)))
    assert ch2.anchor == ch.anchor
    assert ch2.coeffs == ch.coeffs


# texts that look like the writer's own separators and brackets, the record boundary among them
_TRICKY = ['"', "\\", "\n", "é", "ß€", "[{", "}]", "},", '"},\n    {"', "},\n    {", "\t", ": "]
_TEXT = st.one_of(st.text(max_size=6), st.lists(st.sampled_from(_TRICKY), max_size=3).map("".join))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT)
_RECORD = st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=4)  # a bracket, form or check record


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.lists(_RECORD, min_size=1, max_size=5),
        st.lists(st.one_of(_RECORD, st.just({}), children), min_size=1, max_size=5),
    )


@given(st.recursive(st.one_of(_SCALAR, _RECORD), _containers, max_leaves=24))
@example([{"i": 0, "coeff": "},\n    {"}, {"j": 1}])
@example({"brackets": [{"i": 1, "k": None}, {"i": 2.5, "k": True}], "z": [], "w": {}, "v": [{}]})
@example({3: [1, [2, {}]], -1: {"": "é"}, 10: [{"a": "[{"}, [], {"b": "}]"}]})
@settings(max_examples=200, deadline=None)
def test_dumps_is_the_pure_python_text(obj):
    """The C-encoder writer and the pure-Python encoder write the same text for any JSON value."""
    assert serialize.dumps(obj) == reference_dumps(obj)
