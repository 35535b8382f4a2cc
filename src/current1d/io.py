"""JSON and CSV input/output.

All floats are serialized with 17 significant digits, keys are sorted, and the
layout is fixed, so identical values produce byte-identical reports and every
emitted document re-parses to an equal value.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .currents import (Ball, Box, Chain1, ClosedSet, HalfPlane, Molecule, Piece,
                       Polyline, Slab)
from .spaces import FiniteMetricSpace, GeometryError, MetricGraph, NormedPlane
from .approximation import CurveMeasure


class InputError(ValueError):
    """Malformed input document."""


def fmt_float(x: float) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        return format(x, ".17g")
    return format(float(x), ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(k))}: '
                         f'{canonical_json(obj[k], indent + 2).lstrip()}')
        if not items:
            return pad + "{}"
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return pad + "[]"
        inner = ", ".join(canonical_json(v, 0) for v in obj)
        if len(inner) <= 100 and "\n" not in inner:
            return pad + "[" + inner + "]"
        items = [canonical_json(v, indent + 2) for v in obj]
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (float, np.floating)):
        return pad + fmt_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    return pad + json.dumps(obj)


def dump_report(obj: Any) -> str:
    return canonical_json(obj) + "\n"


def _field(doc, key: str, what: str):
    """``doc[key]``, or an InputError naming the key ``what`` lacks."""
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"{what} needs a {key!r} key")
    return doc[key]


def _parse_inf(v):
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return float(v)


# ---------------------------------------------------------------------------
# space.json


def load_space(doc: dict):
    kind = doc.get("kind")
    if kind == "plane":
        return NormedPlane({"l1": "l1", "l2": "l2", "linf": "linf"}.get(
            doc.get("norm", "l2"), doc.get("norm", "l2")))
    if kind == "finite":
        return FiniteMetricSpace(_field(doc, "points", "a finite space"), np.array(
            [[_parse_inf(x) for x in row] for row in _field(doc, "dist", "a finite space")]))
    if kind == "graph":
        ambient = doc.get("ambient", "euclidean")
        if isinstance(ambient, dict):
            ambient = ("d_alpha", float(_field(ambient, "d_alpha", "a graph ambient")))
        vertices = _field(doc, "vertices", "a graph space")
        edges = _field(doc, "edges", "a graph space")
        try:
            return MetricGraph(vertices, edges, ambient=ambient)
        except GeometryError as exc:
            raise InputError(f"bad graph: {exc}") from exc
    raise InputError(f"unknown space kind {kind!r}")


def dump_space(space) -> dict:
    if isinstance(space, NormedPlane):
        return {"kind": "plane", "norm": space.tag}
    if isinstance(space, FiniteMetricSpace):
        return {"kind": "finite", "points": list(space.points),
                "dist": [[float(x) for x in row] for row in space.dist]}
    if isinstance(space, MetricGraph):
        amb = space.ambient
        if isinstance(amb, tuple):
            amb = {"d_alpha": amb[1]}
        verts = ([list(map(float, v)) for v in space.coords]
                 if space.coords is not None else list(space.vertices))
        return {"kind": "graph", "vertices": verts,
                "edges": [[u, v, float(w)] for u, v, w in space.edges],
                "ambient": amb}
    raise InputError(f"cannot serialize space {type(space)}")


# ---------------------------------------------------------------------------
# chain.json / molecule.json


def load_chain(doc: dict, space=None):
    if "polyline" in doc:
        return Polyline(doc["polyline"])
    space = space if space is not None else (
        load_space(doc["space"]) if "space" in doc else NormedPlane("l2"))
    pieces = []
    for item in doc.get("pieces", []):
        s, e = _field(item, "start", "a piece"), _field(item, "end", "a piece")
        w = float(_field(item, "weight", "a piece"))
        if isinstance(s, list):
            s, e = (float(s[0]), float(s[1])), (float(e[0]), float(e[1]))
            length = float(item.get("length", space.dist(s, e)
                           if isinstance(space, NormedPlane) else 0.0))
        elif not isinstance(space, MetricGraph):
            raise InputError("vertex-index pieces need a graph space")
        else:
            s, e = int(s), int(e)
            length = (float(item["length"]) if "length" in item
                      else space.edge_length(s, e))
        pieces.append(Piece(s, e, w, length))
    return Chain1(space, pieces)


def dump_chain(c: Chain1) -> dict:
    pieces = []
    for p in c.pieces:
        s = list(p.start) if isinstance(p.start, tuple) else p.start
        e = list(p.end) if isinstance(p.end, tuple) else p.end
        pieces.append({"start": s, "end": e, "weight": p.weight, "length": p.length})
    return {"pieces": pieces}


def load_molecule(doc: dict) -> Molecule:
    atoms = []
    for item in _field(doc, "atoms", "a molecule"):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise InputError(f"a molecule atom is a [point, weight] pair: {item!r}")
        p, w = item
        if isinstance(p, list):
            p = (float(p[0]), float(p[1]))
        else:
            p = int(p)
        atoms.append((p, float(w)))
    try:
        return Molecule(atoms)
    except Exception as exc:
        raise InputError(f"bad molecule: {exc}") from exc


def dump_molecule(m: Molecule) -> dict:
    atoms = []
    for p, w in m.atoms:
        atoms.append([list(p) if isinstance(p, tuple) else p, w])
    return {"atoms": atoms}


# ---------------------------------------------------------------------------
# closedset.json


def load_closedset(doc: dict) -> ClosedSet:
    prims = []
    for item in _field(doc, "primitives", "a closed set"):
        if "box" in item:
            x0, y0, x1, y1 = map(float, item["box"])
            prims.append(Box((x0, y0), (x1, y1)))
        elif "ball" in item:
            cx, cy, r = map(float, item["ball"])
            prims.append(Ball((cx, cy), r))
        elif "halfplane" in item:
            a, b, c = map(float, item["halfplane"])
            prims.append(HalfPlane(a, b, c))
        elif "slab" in item:
            a, b, c1, c2 = map(float, item["slab"])
            prims.append(Slab(a, b, c1, c2))
        else:
            raise InputError(f"unknown primitive {item!r}")
    return ClosedSet(tuple(prims))


def dump_closedset(e: ClosedSet) -> dict:
    prims = []
    for p in e.primitives:
        if isinstance(p, Box):
            prims.append({"box": [p.lo[0], p.lo[1], p.hi[0], p.hi[1]]})
        elif isinstance(p, Ball):
            prims.append({"ball": [p.center[0], p.center[1], p.radius]})
        elif isinstance(p, HalfPlane):
            prims.append({"halfplane": [p.a, p.b, p.c]})
        elif isinstance(p, Slab):
            prims.append({"slab": [p.a, p.b, p.c1, p.c2]})
    return {"primitives": prims}


# ---------------------------------------------------------------------------
# curvemeasure.json


def load_curvemeasure(doc: dict) -> CurveMeasure:
    entries = []
    for item in _field(doc, "entries", "a curve measure"):
        entries.append((float(_field(item, "w", "a curve-measure entry")),
                        Polyline(_field(item, "polyline", "a curve-measure entry"))))
    try:
        return CurveMeasure.of(entries)
    except Exception as exc:
        raise InputError(f"bad curve measure: {exc}") from exc


def dump_curvemeasure(cm: CurveMeasure) -> dict:
    return {"entries": [{"w": w, "polyline": [list(map(float, pt)) for pt in p.points]}
                        for w, p in cm.entries]}


# ---------------------------------------------------------------------------
# CSV


def csv_rows(rows: list[dict], columns: list[str]) -> str:
    """Plot-ready CSV with 17-significant-digit floats, deterministic order."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            v = row[col]
            if isinstance(v, (float, np.floating)):
                s = fmt_float(float(v)).strip('"')
            else:
                s = str(v)
            cells.append(s)
        out.append(",".join(cells))
    return "\n".join(out) + "\n"
