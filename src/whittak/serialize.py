"""JSON formats for algebras, root data, characters, vectors, and reports.

All scalar values are the text form "p/q" / "p/q+r/s*i"; emitted JSON is
byte-stable (sorted keys, fixed separators).
"""

from __future__ import annotations

import json

from .exactlin import Scalar, SparseMatrix, SparseVector
from .superalg import Root, RootDatum, SuperAlgebra, Weight
from .takiff import TakiffAlgebra, build_takiff
from .wfinite import NilCharacter, nil_character


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def algebra_to_dict(a: SuperAlgebra) -> dict:
    brackets = []
    for (i, j), v in sorted(a.table.items()):
        for k, s in sorted(v.items()):
            brackets.append({"i": i, "j": j, "k": k, "coeff": str(s)})
    out = {
        "name": a.name,
        "dim": a.dim,
        "labels": a.labels,
        "parity": a.parity,
        "brackets": brackets,
    }
    if a.form is not None:
        out["form"] = [
            {"i": i, "j": j, "coeff": str(s)} for (i, j), s in sorted(a.form.entries.items())
        ]
    return out


def algebra_from_dict(d: dict) -> SuperAlgebra:
    dim = d["dim"]
    if dim != len(d["labels"]):
        raise ValueError(f"dim {dim!r} differs from the number of labels, {len(d['labels'])}")
    table: dict[tuple[int, int], dict[int, Scalar]] = {}
    for b in d["brackets"]:
        for f in ("i", "j", "k"):
            if b[f] not in range(dim):
                raise ValueError(f"bracket entry {b} has {f} = {b[f]!r} outside 0..{dim - 1}")
        table.setdefault((b["i"], b["j"]), {})[b["k"]] = Scalar.parse(b["coeff"])
    form = None
    if "form" in d:
        form = SparseMatrix(
            dim, dim, {(f["i"], f["j"]): Scalar.parse(f["coeff"]) for f in d["form"]}
        )
    return SuperAlgebra(
        d["name"],
        d["labels"],
        d["parity"],
        {k: SparseVector(v) for k, v in table.items()},
        form,
    )


def root_datum_to_dict(rd: RootDatum) -> dict:
    return {
        "cartan": list(rd.cartan),
        "roots": [
            {
                "covector": [str(s) for s in r.covector],
                "space": list(r.space),
                "parity": r.parity,
            }
            for r in rd.roots
        ],
        "positive": list(rd.positive),
        "simple": list(rd.simple),
    }


def root_datum_from_dict(d: dict) -> RootDatum:
    roots = tuple(
        Root(tuple(Scalar.parse(s) for s in r["covector"]), tuple(r["space"]), r["parity"])
        for r in d["roots"]
    )
    return RootDatum(tuple(d["cartan"]), roots, tuple(d["positive"]), tuple(d["simple"]))


def takiff_to_dict(t: TakiffAlgebra) -> dict:
    out = algebra_to_dict(t.total)
    out["takiff_of"] = t.base.name
    out["layout"] = {
        "base": list(range(t.n1)),
        "theta": list(range(t.n1, 2 * t.n1)),
        "z": t.z_index,
    }
    out["base_algebra"] = algebra_to_dict(t.base)
    out["root_datum"] = root_datum_to_dict(t.rd)
    return out


def takiff_from_dict(d: dict) -> TakiffAlgebra:
    if "takiff_of" not in d:
        raise ValueError("not an extension file: missing takiff_of")
    total = algebra_from_dict(d)
    base = algebra_from_dict(d["base_algebra"])
    rd = root_datum_from_dict(d["root_datum"])
    z = d["layout"]["z"]
    # the stored extension must be the one its base algebra and root datum define
    t, _ = build_takiff(base, rd)
    if (total.labels, total.parity, z) != (t.total.labels, t.total.parity, t.z_index):
        raise ValueError("the stored extension's basis or layout differs from its base algebra's")
    for key in sorted(total.table.keys() | t.total.table.keys()):
        if total.table.get(key) != t.total.table.get(key):
            raise ValueError(f"stored bracket {key} differs from the one its base algebra defines")
    return t


def weight_to_dict(w: Weight) -> dict:
    return {"values": [str(v) for v in w.values], "level": str(w.level)}


def weight_from_dict(d: dict) -> Weight:
    return Weight(tuple(Scalar.parse(s) for s in d["values"]), Scalar.parse(d["level"]))


def vector_from_dict(d: dict, algebra: SuperAlgebra) -> SparseVector:
    """Element given by coordinates keyed by basis label or index."""
    coords = d["coords"] if "coords" in d else d
    out = {}
    for key, s in coords.items():
        if isinstance(key, str) and not key.lstrip("-").isdigit():
            idx = algebra.labels.index(key)
        else:
            idx = int(key)
        out[idx] = Scalar.parse(s)
    return SparseVector(out)


def vectors_from_dict(d: dict, algebra: SuperAlgebra) -> list[SparseVector]:
    if "vectors" in d:
        return [vector_from_dict(v, algebra) for v in d["vectors"]]
    return [vector_from_dict(d, algebra)]


def nilchar_to_dict(nc: NilCharacter) -> dict:
    return {
        "algebra": nc.algebra.name,
        "domain": list(nc.domain),
        "values": {str(i): str(s) for i, s in sorted(nc.values.items())},
    }


def nilchar_from_dict(d: dict, algebra: SuperAlgebra) -> NilCharacter:
    return nil_character(
        algebra,
        tuple(d["domain"]),
        {int(i): Scalar.parse(s) for i, s in d["values"].items()},
    )


def character_to_dict(ch) -> dict:
    return {
        "anchor": weight_to_dict(ch.anchor),
        "truncation": ch.truncation,
        "terms": [{"offset": list(o), "mult": m} for o, m in ch.terms()],
    }


def character_from_dict(d: dict):
    from .charfun import FormalCharacter

    anchor = weight_from_dict(d["anchor"])
    terms = {tuple(t["offset"]): t["mult"] for t in d["terms"]}
    nsimple = len(d["terms"][0]["offset"]) if d["terms"] else 0
    return FormalCharacter(anchor, d["truncation"], nsimple, terms)


def module_vector_to_dict(f, v) -> list:
    """Fock module vector as a list of labelled monomial terms."""
    out = []
    for idx, s in sorted(v.items(), key=lambda kv: (kv[0].degree, kv[0])):
        poly = {}
        for k, mexp in enumerate(idx.poly):
            if mexp:
                root = f.positives[f.poly_slots[k]]
                poly[f.base.labels[root.space[0]]] = mexp
        grass = [
            f.base.labels[f.positives[f.grass_slots[k]].space[0]]
            for k, bit in enumerate(idx.grass)
            if bit
        ]
        cliff = []
        for k, bit in enumerate(idx.cliff):
            if bit:
                if f.has_w and k == f.n_cliff - 1:
                    cliff.append("w")
                else:
                    cliff.append(f"b{k + 1}")
        out.append({"poly": poly, "grass": grass, "cliff": cliff, "coeff": str(s)})
    return out


def module_vector_from_dict(f, terms: list):
    from .fockrep import FockIndex, ModuleVector

    label_to_poly = {
        f.base.labels[f.positives[p].space[0]]: k for k, p in enumerate(f.poly_slots)
    }
    label_to_grass = {
        f.base.labels[f.positives[p].space[0]]: k for k, p in enumerate(f.grass_slots)
    }
    out = {}
    for term in terms:
        poly = [0] * len(f.poly_slots)
        for lab, mexp in term.get("poly", {}).items():
            poly[label_to_poly[lab]] = mexp
        grass = [0] * len(f.grass_slots)
        for lab in term.get("grass", []):
            grass[label_to_grass[lab]] = 1
        cliff = [0] * f.n_cliff
        for lab in term.get("cliff", []):
            cliff[f.n_cliff - 1 if lab == "w" else int(lab[1:]) - 1] = 1
        idx = FockIndex(tuple(poly), tuple(grass), tuple(cliff))
        out[idx] = Scalar.parse(term["coeff"])
    return ModuleVector(out)
