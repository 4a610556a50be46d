"""JSON formats for algebras, root data, characters, vectors, and reports.

All scalar values are the text form "p/q" / "p/q+r/s*i". `dumps` is the one
JSON writer of the package, for every file and report: its text is exactly
`json.dumps(obj, sort_keys=True, indent=2) + "\n"`, written by the C encoder.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from typing import Callable

from .exactlin import Scalar, SparseMatrix, SparseVector
from .superalg import Root, RootDatum, SuperAlgebra, Weight, is_index, verify_root_datum
from .takiff import HatDecomposition, TakiffAlgebra, build_takiff
from .wfinite import NilCharacter, nil_character


_SCALARS = {str, int, float, bool, type(None)}
_ENCODE: dict[int, Callable[[object], str]] = {}  # indent level -> its C encoder, made on first use


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte.

    `indent` would select json's pure-Python encoder, so each container is written by the C
    encoder with the item separator ",\\n" + indent: a container of scalars in one call, a list
    of non-empty dicts of scalars (bracket, form and check records) in one call whose record
    boundaries one `str.replace` re-indents, anything else item by item. The replace is exact: a
    raw newline occurs only in separators, since the encoder escapes it inside strings, and
    within a record of scalars no separator follows a "}".
    """
    return _text(obj, 0) + "\n"


def _text(o, level: int) -> str:
    """o as json.dumps(o, sort_keys=True, indent=2) writes it at indent `level`."""
    is_dict = isinstance(o, dict)
    if not (is_dict or isinstance(o, (list, tuple))):
        return _encoder(level)(o)  # a scalar, or the TypeError json.dumps raises
    if not o:
        return "{}" if is_dict else "[]"
    pad, sep = "  " * level, ",\n" + "  " * (level + 1)
    types = set(map(type, o.values() if is_dict else o))
    if types <= _SCALARS:
        s = _encoder(level + 1)(o)
        return f"{s[0]}{sep[1:]}{s[1:-1]}\n{pad}{s[-1]}"
    if is_dict:
        items = [f"{_key(k)}: {_text(v, level + 1)}" for k, v in sorted(o.items())]
        return f"{{{sep[1:]}{sep.join(items)}\n{pad}}}"
    if types == {dict} and all(o) and set(map(type, chain.from_iterable(map(dict.values, o)))) <= _SCALARS:
        rec, fld = sep[2:], "  " * (level + 2)
        s = _encoder(level + 2)(o).replace(f"}},\n{fld}{{", f"\n{rec}}},\n{rec}{{\n{fld}")
        return f"[\n{rec}{{\n{fld}{s[2:-2]}\n{rec}}}\n{pad}]"
    return f"[{sep[1:]}{sep.join([_text(v, level + 1) for v in o])}\n{pad}]"


def _encoder(level: int) -> Callable[[object], str]:
    """The C encoder (sorted keys) whose item separator is a comma, a newline and `level`'s indent."""
    enc = _ENCODE.get(level)
    if enc is None:
        enc = _ENCODE[level] = json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * level, ": ")).encode
    return enc


def _key(k) -> str:
    """A dict key's JSON text as json.dumps converts it: a number, bool or None is quoted JSON text."""
    if isinstance(k, str):
        return _encoder(0)(k)
    if isinstance(k, (int, float)) or k is None:
        return f'"{_encoder(0)(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def algebra_to_dict(a: SuperAlgebra) -> dict:
    brackets = []
    for (i, j), v in sorted(a.table.items()):
        for k, s in sorted(v.items()):
            brackets.append({"i": i, "j": j, "k": k, "coeff": str(s)})
    out = {"name": a.name, "dim": a.dim, "labels": a.labels, "parity": a.parity, "brackets": brackets}
    if a.form is not None:
        out["form"] = [
            {"i": i, "j": j, "coeff": str(s)} for (i, j), s in sorted(a.form.entries.items())
        ]
    return out


def algebra_from_dict(d: dict, at: str = "", memo: dict[str, Scalar] | None = None) -> SuperAlgebra:
    """The algebra a JSON object holds; an error names its field by the path `at` + field name.
    `memo` holds the Scalar of each coefficient text of one load, shared by all its readers."""
    name, labels, parity, brackets, form = _algebra_parts(d, at, {} if memo is None else memo)
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for (i, j, k), s in brackets.items():
        table.setdefault((i, j), {})[k] = s
    return SuperAlgebra(name, labels, parity, {key: SparseVector._of(row) for key, row in table.items()}, form)


def _algebra_parts(d: dict, at: str, memo: dict[str, Scalar]):
    """algebra_from_dict's name, labels, parity, {(i, j, k): coefficient} brackets and form."""
    d = _mapping(d, at[:-1] or "an algebra file")
    name = _mapping(d.get("name"), at + "name", str)
    labels, parity, brackets = (_mapping(d.get(k), at + k, list) for k in ("labels", "parity", "brackets"))
    form = _mapping(d.get("form", []), at + "form", list)
    dim = d.get("dim")
    if dim != len(labels):
        raise ValueError(f"{at}dim {dim!r} differs from the number of labels, {len(labels)}")
    for n, p in enumerate(parity):
        if not is_index(p, 2):
            raise ValueError(f"{at}parity entry {n} is {p!r}, not 0 or 1")
    brackets = _records(brackets, at + "brackets", "ijk", dim, memo)
    form = _records(form, at + "form", "ij", dim, memo)
    if len(parity) != dim:
        raise ValueError("labels and parity lengths differ")
    return name, labels, parity, brackets, SparseMatrix(dim, dim, form) if "form" in d else None


def _records(entries: list, at: str, fields: str, dim: int, memo: dict[str, Scalar]) -> dict[tuple, Scalar]:
    """The {index tuple: coefficient} map of a bracket or form list, in one pass over its records:
    every index obeys the index rule, a key's last record wins and a zero drops the key."""
    key_of, out, what = itemgetter(*fields), {}, "bracket" if fields == "ijk" else "form"
    for n, b in enumerate(entries):
        try:
            key = key_of(b)  # (i, j, k) of a bracket, (i, j) of a form entry
            if not (is_index(key[0], dim) and is_index(key[1], dim) and is_index(key[-1], dim)):
                f, k = next((f, k) for f, k in zip(fields, key) if not is_index(k, dim))
                raise ValueError(f"{what} entry {b} has {f} = {k!r} outside 0..{dim - 1}")
            s = _scalar(memo, b["coeff"])
        except (KeyError, TypeError):
            _unreadable(f"{at}[{n}]", b, (*fields, "coeff"))
        except ValueError:  # the index rule's error, or a coefficient that is no string
            _mapping(b.get("coeff", ""), f"{at}[{n}].coeff", str)
            raise
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _scalar(memo: dict[str, Scalar], text) -> Scalar:
    """Scalar.parse(text), once per distinct text of one load; a non-string's record reader names it."""
    s = memo.get(text) if isinstance(text, str) else None
    if s is None:
        s = memo[text] = Scalar.parse(text)
    return s


def _unreadable(at: str, record, fields: tuple[str, ...], lists: tuple[str, ...] = ()):
    """Raise the error of the record at path `at` whose reading raised KeyError or TypeError: it is
    no JSON object, it lacks a field, or one of its `lists` fields holds no list."""
    _mapping(record, at)
    for f in fields:
        if f not in record:
            raise ValueError(f"{at}.{f} is missing")
        if f in lists:
            _mapping(record[f], f"{at}.{f}", list)
    raise  # anything else propagates as it was raised


def root_datum_to_dict(rd: RootDatum) -> dict:
    roots = [{"covector": [*map(str, r.covector)], "space": [*r.space], "parity": r.parity} for r in rd.roots]
    return {"cartan": list(rd.cartan), "roots": roots, "positive": list(rd.positive), "simple": list(rd.simple)}


def root_datum_from_dict(d: dict, a: SuperAlgebra, memo: dict[str, Scalar] | None = None) -> RootDatum:
    """A file's root datum of the algebra a: every index in range, one root vector per root, of its
    root's parity, the rules of `verify_root_datum` and the simple roots a base of the positive ones.
    `memo` is the load's coefficient memo, as for algebra_from_dict."""
    d, memo = _mapping(d, "root_datum"), {} if memo is None else memo
    fields = ("cartan", "roots", "positive", "simple")
    cartan, records, positive, simple = (_mapping(d.get(k), f"root_datum.{k}", list) for k in fields)
    roots = []
    for n, r in enumerate(records):
        at = f"root_datum.roots[{n}]"
        try:
            if not (isinstance(r["covector"], list) and isinstance(r["space"], list)):
                raise TypeError  # a string would be read one character at a time
            roots.append(Root(tuple([_scalar(memo, s) for s in r["covector"]]), tuple(r["space"]), r["parity"]))
        except (KeyError, TypeError):
            _unreadable(at, r, ("covector", "space", "parity"), ("covector", "space"))
        except ValueError:  # a coefficient that does not parse, or is no string
            for k, s in enumerate(r["covector"]):
                _mapping(s, f"{at}.covector[{k}]", str)
            raise
    for what, indices, bound in (
        ("cartan", cartan, a.dim),
        ("root space", [k for r in roots for k in r.space], a.dim),
        ("positive", positive, len(roots)),
        ("simple", simple, len(roots)),
    ):
        for k in indices:
            if not is_index(k, bound):
                raise ValueError(f"root datum {what} index {k!r} outside 0..{bound - 1}")
    for n, r in enumerate(roots):
        if not r.space or len(r.covector) != len(cartan):
            raise ValueError(f"root {n} needs a root space and one value per Cartan element")
        if len(r.space) > 1:
            raise ValueError(f"root {n} has {len(r.space)} root vectors, not one")
        if not is_index(r.parity, 2):
            raise ValueError(f"root {n} has parity {r.parity!r}, not 0 or 1")
        for k in r.space:
            if a.parity[k] != r.parity:
                raise ValueError(
                    f"root {n} has parity {r.parity}, but its root vector {a.labels[k]} has parity {a.parity[k]}"
                )
    rd = RootDatum(tuple(cartan), tuple(roots), tuple(positive), tuple(simple))
    failed = verify_root_datum(a, rd).failures()
    if failed:
        raise ValueError(f"root datum: {failed[0].witness}")
    rd.positive_offsets()  # raises unless every positive root has coordinates over the simple roots
    return rd


def takiff_to_dict(t: TakiffAlgebra) -> dict:
    out = algebra_to_dict(t.total)
    out["takiff_of"] = t.base.name
    out["layout"] = {"base": list(range(t.n1)), "theta": list(range(t.n1, 2 * t.n1)), "z": t.z_index}
    out["base_algebra"] = algebra_to_dict(t.base)
    out["root_datum"] = root_datum_to_dict(t.rd)
    return out


def takiff_from_dict(d: dict) -> tuple[TakiffAlgebra, HatDecomposition]:
    """build_takiff's pair (t, hat) of the file's base algebra and root datum, which must define
    the file's stored total algebra exactly: its bracket map is compared with the built table's."""
    if "takiff_of" not in d:
        raise ValueError("not an extension file: missing takiff_of")
    if "form" in d:
        raise ValueError("an extension file's total algebra carries no form")
    memo: dict[str, Scalar] = {}  # one Scalar per distinct coefficient text of the file
    _, labels, parity, brackets, _ = _algebra_parts(d, "", memo)
    lay = _mapping(d.get("layout"), "layout")
    base = algebra_from_dict(d.get("base_algebra"), "base_algebra.", memo)
    if d["takiff_of"] != base.name:
        raise ValueError(f"takiff_of {d['takiff_of']!r} differs from the base algebra's name {base.name!r}")
    rd = root_datum_from_dict(d.get("root_datum"), base, memo)
    # the stored extension must be the one its base algebra and root datum define; equal lists may
    # hold True or 1.0 for 1, so each layout index must also pass the index rule
    t, hat = build_takiff(base, rd)
    n = t.n1
    want = (t.total.labels, t.total.parity, t.z_index, list(range(n)), list(range(n, 2 * n)))
    stored = (labels, parity, lay.get("z"), lay.get("base"), lay.get("theta"))
    if stored != want or not all(is_index(k, t.total.dim) for k in [lay["z"], *lay["base"], *lay["theta"]]):
        raise ValueError("the stored extension's basis or layout differs from its base algebra's")
    built = {(i, j, k): s for (i, j), v in t.total.table.items() for k, s in v.entries.items()}
    if brackets != built:
        key = min(key[:2] for key in brackets.keys() | built.keys() if brackets.get(key) != built.get(key))
        raise ValueError(f"stored bracket {key} differs from the one its base algebra defines")
    return t, hat


def weight_to_dict(w: Weight) -> dict:
    return {"values": [str(v) for v in w.values], "level": str(w.level)}


def weight_from_dict(d: dict) -> Weight:
    d = _mapping(d, "a weight file")
    values, level = _mapping(d.get("values"), "values", list), _mapping(d.get("level"), "level", str)
    return Weight(tuple(Scalar.parse(s) for s in values), Scalar.parse(level))


_JSON_KINDS = {dict: "object", list: "list", str: "string"}


def _mapping(obj, what: str, kind: type = dict):
    """obj when it is a JSON object (or list or string, as `kind` says); else one error naming `what`."""
    if not isinstance(obj, kind):
        raise ValueError(f"{what} must be a JSON {_JSON_KINDS[kind]}, not {obj!r}")
    return obj


def vector_from_dict(d: dict, algebra: SuperAlgebra) -> SparseVector:
    """Element given by coordinates keyed by basis label or index."""
    coords = _mapping(_mapping(d, "an element").get("coords", d), "element coordinates")
    out = {}
    for key, s in coords.items():
        if isinstance(key, str) and not key.lstrip("-").isdecimal():
            if key not in algebra.labels:
                raise ValueError(f"element coordinate {key!r} is not a basis label of {algebra.name}")
            idx = algebra.labels.index(key)
        else:
            idx = int(key)
            if idx not in range(algebra.dim):
                raise ValueError(f"element coordinate {key!r} outside 0..{algebra.dim - 1}")
        out[idx] = Scalar.parse(s)
    return SparseVector(out)


def vectors_from_dict(d: dict, algebra: SuperAlgebra) -> list[SparseVector]:
    """The elements of a `vectors` list, or the one element the object holds."""
    if "vectors" in _mapping(d, "a vectors file"):
        return [vector_from_dict(v, algebra) for v in _mapping(d["vectors"], "vectors", list)]
    return [vector_from_dict(d, algebra)]


def nilchar_from_dict(d: dict, algebra: SuperAlgebra) -> NilCharacter:
    d = _mapping(d, "a character file")
    domain = _mapping(d.get("domain"), "character domain", list)
    for k in domain:  # before nil_character puts the entries in a set and sorts them
        if not is_index(k, algebra.dim):
            raise ValueError(f"character index {k!r} outside 0..{algebra.dim - 1} in the character domain")
    values = _mapping(d.get("values"), "character values")
    parsed = {}
    for key, s in values.items():
        try:
            i = int(key)
        except ValueError:
            raise ValueError(f"character value key {key!r} is not a basis index") from None
        parsed[i] = Scalar.parse(s)
    return nil_character(algebra, tuple(domain), parsed)


def character_to_dict(ch) -> dict:
    return {
        "anchor": weight_to_dict(ch.anchor),
        "truncation": ch.truncation,
        "terms": [{"offset": list(o), "mult": m} for o, m in ch.terms()],
    }


def module_vector_to_dict(f, v) -> list:
    """Fock module vector as a list of labelled monomial terms."""
    out = []
    for key, s in sorted(v.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        term = {"poly": {}, "grass": [], "cliff": [], "coeff": str(s)}
        for (kind, label), m in zip(f.letters, key):
            if m:
                if kind == "poly":
                    term["poly"][label] = m
                else:
                    term[kind].append(label)
        out.append(term)
    return out
