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

from .currents import (Ball, Box, Chain1, ClosedSet, CurrentError, HalfPlane, Molecule,
                       Piece, Polyline, Slab)
from .spaces import FiniteMetricSpace, GeometryError, MetricGraph, NormedPlane
from .approximation import CurveMeasure
from .decomposition import EdgeFlow


class InputError(ValueError):
    """Malformed input document."""


def fmt_float(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


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


def _object(doc, what: str) -> dict:
    """``doc`` if it is a JSON object, or an InputError naming ``what``."""
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, not {type(doc).__name__}")
    return doc


def _field(doc, key: str, what: str):
    """``doc[key]``, or an InputError naming the key ``what`` lacks."""
    if key not in _object(doc, what):
        raise InputError(f"{what} needs a {key!r} key")
    return doc[key]


def _items(doc, key: str, what: str) -> list:
    """``doc[key]`` if it is a JSON list, or an InputError naming ``what``."""
    v = _field(doc, key, what)
    if not isinstance(v, list):
        raise InputError(f"the {key!r} of {what} must be a list, not {type(v).__name__}")
    return v


def _number(v, what: str) -> float:
    """``v`` as one float, or an InputError naming ``what``."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a number: {v!r}") from exc


def _vertex(v, what: str) -> int:
    """``v`` if it is a JSON integer (not a bool), or an InputError naming ``what``."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    kind = "an integer" if isinstance(v, (int, float)) else "a number"
    raise InputError(f"{what} must be {kind}: {v!r}")


def _numbers(v, n: int, what: str) -> tuple[float, ...]:
    """``v`` as a tuple of ``n`` floats, or an InputError naming ``what``."""
    try:
        if len(v) == n:
            return tuple(float(x) for x in v)
    except (TypeError, ValueError):
        pass
    raise InputError(f"{what} must be a list of {n} numbers: {v!r}")


def _polyline(v, what: str) -> Polyline:
    if not isinstance(v, list):
        raise InputError(f"{what} must be a list of [x, y] points: {v!r}")
    points = [_numbers(p, 2, f"a point of {what}") for p in v]
    for p in points:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise InputError(f"a point of {what} must be finite: {list(p)!r}")
    return Polyline(points)


# ---------------------------------------------------------------------------
# space.json


def load_space(doc: dict):
    kind = _object(doc, "a space").get("kind")
    if kind == "plane":
        return NormedPlane(doc.get("norm", "l2"))
    if kind == "finite":
        dist = _items(doc, "dist", "a finite space")
        if not all(isinstance(row, list) and len(row) == len(dist) for row in dist):
            raise InputError("the 'dist' of a finite space must be a square list of lists")
        return FiniteMetricSpace(_items(doc, "points", "a finite space"), np.array(
            [[_number(x, "a finite-space distance") for x in row] for row in dist]))
    if kind == "graph":
        ambient = doc.get("ambient", "euclidean")
        if isinstance(ambient, dict):
            ambient = ("d_alpha", _number(_field(ambient, "d_alpha", "a graph ambient"),
                                          "a graph ambient d_alpha"))
        vertices = _items(doc, "vertices", "a graph space")
        if vertices and not isinstance(vertices[0], str):  # coordinates, not labels
            vertices = [_numbers(v, 2, "a graph vertex") for v in vertices]
        edges = []
        for e in _items(doc, "edges", "a graph space"):
            w = _numbers(e, 3, "a graph edge")[2]
            u, v, _ = e
            edges.append((_vertex(u, "a graph edge end"), _vertex(v, "a graph edge end"), w))
        try:
            return MetricGraph(vertices, edges, ambient=ambient)
        except GeometryError as exc:
            raise InputError(f"bad graph: {exc}") from exc
    raise InputError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# chain.json / molecule.json


def load_chain(doc: dict, space=None):
    if "polyline" in _object(doc, "a chain"):
        if isinstance(space, MetricGraph):
            raise InputError("a polyline lies in the plane, not on a graph space")
        return _polyline(doc["polyline"], "a polyline")
    space = space if space is not None else (
        load_space(doc["space"]) if "space" in doc else NormedPlane("l2"))
    pieces = []
    for k, item in enumerate(_items(doc, "pieces", "a chain") if "pieces" in doc else []):
        s, e = _field(item, "start", "a piece"), _field(item, "end", "a piece")
        w = _number(_field(item, "weight", "a piece"), "a piece weight")
        if isinstance(s, list):
            if not isinstance(space, NormedPlane):
                raise InputError("coordinate pieces need a plane space")
            s, e = _numbers(s, 2, "a piece start"), _numbers(e, 2, "a piece end")
            if not all(map(math.isfinite, s + e)):
                raise InputError(f"piece {k} must have finite ends: {item!r}")
            length = _number(item.get("length", space.dist(s, e)), "a piece length")
        elif not isinstance(space, MetricGraph):
            raise InputError("vertex-index pieces need a graph space")
        else:
            s, e = _vertex(s, "a piece start"), _vertex(e, "a piece end")
            length = (_number(item["length"], "a piece length") if "length" in item
                      else space.edge_length(s, e))
        if not (math.isfinite(w) and math.isfinite(length)):
            raise InputError(f"piece {k} must have a finite weight and length: {item!r}")
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
    for item in _items(doc, "atoms", "a molecule"):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise InputError(f"a molecule atom is a [point, weight] pair: {item!r}")
        p, w = item
        if isinstance(p, list):
            p = _numbers(p, 2, "a molecule point")
        else:
            p = _vertex(p, "a molecule vertex")
        atoms.append((p, _number(w, "a molecule weight")))
    try:
        return Molecule(atoms)
    except Exception as exc:
        raise InputError(f"bad molecule: {exc}") from exc


# ---------------------------------------------------------------------------
# flow.json


def load_flow(doc: dict, g: MetricGraph) -> EdgeFlow:
    """One weight per edge of ``g``."""
    return EdgeFlow(g, _numbers(_field(doc, "weights", "a flow"), len(g.edges),
                                "the weights of a flow"))


# ---------------------------------------------------------------------------
# closedset.json


# a primitive's key -> its number of values and the primitive they make
_PRIMITIVES = {"box": (4, lambda x0, y0, x1, y1: Box((x0, y0), (x1, y1))),
               "ball": (3, lambda cx, cy, r: Ball((cx, cy), r)),
               "halfplane": (3, HalfPlane), "slab": (4, Slab)}


def load_closedset(doc: dict) -> ClosedSet:
    prims = []
    for k, item in enumerate(_items(doc, "primitives", "a closed set")):
        keys = [key for key in _PRIMITIVES if key in _object(item, "a closed-set primitive")]
        if not keys:
            raise InputError(f"unknown primitive {item!r}")
        n, make = _PRIMITIVES[keys[0]]
        x = _numbers(item[keys[0]], n, f"a {keys[0]}")
        try:
            prims.append(make(*x))
        except CurrentError as exc:
            raise InputError(f"closed-set primitive {k} must be finite numbers with x0 <= x1 and "
                             f"y0 <= y1 (box), r >= 0 (ball), c1 <= c2 (slab): {item!r}") from exc
    return ClosedSet(tuple(prims))


# ---------------------------------------------------------------------------
# curvemeasure.json


def load_curvemeasure(doc: dict) -> CurveMeasure:
    entries = []
    for item in _items(doc, "entries", "a curve measure"):
        entries.append((_number(_field(item, "w", "a curve-measure entry"), "a curve weight"),
                        _polyline(_field(item, "polyline", "a curve-measure entry"),
                                  "a curve-measure polyline")))
    try:
        return CurveMeasure.of(entries)
    except Exception as exc:
        raise InputError(f"bad curve measure: {exc}") from exc


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
