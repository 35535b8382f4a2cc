"""Write the golden CLI reports that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

It writes the seeded input documents, then runs every case of ``CASES``
through ``current1d.cli.main`` and records its stdout in ``<case>.out`` and
its exit code and stderr in ``cases.json``. Regenerate only when a report
is meant to change, and say which reports changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _graph(rng, n: int) -> dict:
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n)
    pairs = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in zip(order[:-1], order[1:])}
    for a, b in rng.integers(0, n, size=(n // 2, 2)).tolist():
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = [[u, v, float(np.hypot(*(pts[u] - pts[v])))] for u, v in sorted(pairs)]
    return {"kind": "graph", "vertices": pts.tolist(), "edges": edges, "ambient": "euclidean"}


def _balanced(rng, k: int) -> list[float]:
    w = rng.uniform(-2.0, 2.0, size=k)
    w[-1] -= w.sum()
    return w.tolist()


def _staircase(x0: float, y0: float, steps: str) -> list[list[float]]:
    pts = [[x0, y0]]
    for s in steps:
        x, y = pts[-1]
        pts.append([x + 1.0, y] if s == "r" else [x, y + 1.0])
    return pts


def _pieces(pts, weight: float = 1.0) -> list[dict]:
    return [{"start": a, "end": b, "weight": weight} for a, b in zip(pts, pts[1:])]


def inputs() -> dict[str, dict]:
    docs: dict[str, dict] = {}
    rng = _rng(11)
    graph = _graph(rng, 12)
    docs["graph.json"] = graph
    verts = rng.choice(12, size=5, replace=False).tolist()
    docs["mol_graph.json"] = {"atoms": [[v, w] for v, w in zip(verts, _balanced(rng, 5))]}
    edges = graph["edges"]
    picks = rng.choice(len(edges), size=4, replace=False).tolist()
    docs["chain_graph.json"] = {"pieces": [
        {"start": edges[k][0], "end": edges[k][1], "weight": float(rng.uniform(0.3, 1.7))}
        for k in picks]}
    docs["flow_graph.json"] = {"weights": rng.uniform(-1.5, 1.5, size=len(edges)).tolist()}
    docs["closedset.json"] = {"primitives": [
        {"box": [0.7, 1.3, 4.1, 6.9]}, {"ball": [7.3, 2.9, 2.2]},
        {"halfplane": [0.3, 1.0, 1.7]}, {"slab": [1.0, -0.4, 5.1, 5.9]}]}
    for tag in ("l1", "l2", "linf"):
        docs[f"plane_{tag}.json"] = {"kind": "plane", "norm": tag}
    pts = rng.uniform(-3.0, 3.0, size=(7, 2)).tolist()
    docs["mol_plane.json"] = {"atoms": [[p, w] for p, w in zip(pts, _balanced(rng, 7))]}
    fpts = rng.uniform(0.0, 5.0, size=(6, 2))
    dist = np.hypot(*(fpts[:, None, :] - fpts[None, :, :]).transpose(2, 0, 1))
    docs["finite.json"] = {"kind": "finite", "points": [f"p{i}" for i in range(6)],
                           "dist": dist.tolist()}
    docs["mol_finite.json"] = {"atoms": [[i, w] for i, w in zip((0, 2, 3, 5), _balanced(rng, 4))]}
    docs["square.json"] = {"pieces": _pieces([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0],
                                              [1.0, 2.0], [1.0, 1.0]])}
    docs["staircases.json"] = {"pieces": _pieces(_staircase(1.0, 1.0, "rrurrurru"))
                               + _pieces(_staircase(1.0, 3.0, "rurruurrr"), -1.0)}
    docs["c0.json"] = {"polyline": [[0, 0], [1, 0]]}
    docs["c1.json"] = {"polyline": [[0, 1], [1, 1]]}
    docs["p0.json"] = {"polyline": rng.uniform(-2.0, 2.0, size=(4, 2)).tolist()}
    docs["p1.json"] = {"polyline": rng.uniform(-2.0, 2.0, size=(4, 2)).tolist()}
    docs["cm2.json"] = {"entries": [{"w": 1.0, "polyline": [[0, 0], [1, 0]]},
                                    {"w": 1.0, "polyline": [[0, 0.05], [1, 0.05]]}]}
    docs["cm40.json"] = {"entries": [
        {"w": float(rng.uniform(0.5, 1.5)),
         "polyline": rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2)).tolist()}
        for _ in range(40)]}
    docs["seg.json"] = {"pieces": [{"start": [0.0, 0.0], "end": [1.0, 0.0], "weight": 1.0}]}
    # five pieces on the line x + 2y = 0.7, two of them overlapping
    xs = [(-0.9, -0.35), (-0.2, 0.45), (0.3, 0.95), (1.2, 1.85), (2.3, 2.65)]
    docs["line5.json"] = {"pieces": [
        {"start": [a, (0.7 - a) / 2.0], "end": [b, (0.7 - b) / 2.0],
         "weight": float(rng.uniform(0.3, 1.7))} for a, b in xs]}
    return docs


CASES: dict[str, list[str]] = {
    "ae_norm_graph_ambient": ["ae-norm", "--space", "graph.json", "--molecule", "mol_graph.json"],
    "ae_norm_graph_path": ["ae-norm", "--space", "graph.json", "--molecule", "mol_graph.json",
                           "--metric", "path"],
    "ae_norm_plane_l1": ["ae-norm", "--space", "plane_l1.json", "--molecule", "mol_plane.json"],
    "ae_norm_plane_l2": ["ae-norm", "--space", "plane_l2.json", "--molecule", "mol_plane.json"],
    "ae_norm_plane_linf": ["ae-norm", "--space", "plane_linf.json",
                           "--molecule", "mol_plane.json"],
    "ae_norm_finite": ["ae-norm", "--space", "finite.json", "--molecule", "mol_finite.json"],
    "filling": ["filling", "--space", "graph.json", "--molecule", "mol_graph.json"],
    "filling_on_a_plane": ["filling", "--space", "plane_l2.json", "--molecule", "mol_plane.json"],
    "iso_check": ["iso-check", "--space", "graph.json", "--chain", "chain_graph.json"],
    "flatnorm_square": ["flatnorm", "--grid", "3,3,1", "--chain", "square.json"],
    "flatnorm_staircases": ["flatnorm", "--grid", "12,12,1", "--chain", "staircases.json"],
    "homotopy_c0_c1": ["homotopy", "--curve0", "c0.json", "--curve1", "c1.json",
                       "--panel-seed", "7"],
    "homotopy_random": ["homotopy", "--curve0", "p0.json", "--curve1", "p1.json"],
    "approx_two_curves": ["approx", "--input", "cm2.json", "--eps", "0.1", "--mesh", "0.5"],
    "approx_40_curves": ["approx", "--input", "cm40.json", "--eps", "0.4"],
    "normalize_segment": ["normalize", "--chain", "seg.json", "--hyperplane", "0,1,0"],
    "normalize_line5": ["normalize", "--chain", "line5.json", "--hyperplane", "1,2,0.7",
                        "--eps", "0.3"],
    "decompose_json": ["decompose", "--space", "graph.json", "--flow", "flow_graph.json"],
    "decompose_csv": ["decompose", "--space", "graph.json", "--flow", "flow_graph.json",
                      "--format", "csv"],
    "fragments": ["fragments", "--space", "graph.json", "--flow", "flow_graph.json",
                  "--closedset", "closedset.json"],
    "rickman_csv": ["rickman", "--format", "csv", "--s-grid", "4", "--n", "8"],
}


def argv(case: list[str], root: Path) -> list[str]:
    """The case's arguments with its input documents resolved under ``root``."""
    return [str(root / a) if a.endswith(".json") else a for a in case]


def run(case: list[str], root: Path) -> tuple[int, str, str]:
    from current1d.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(case, root))
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    os.environ.pop("CURRENT1D_LOG", None)
    for name, doc in inputs().items():
        (HERE / name).write_text(json.dumps(doc) + "\n")
    manifest = {}
    for name, case in CASES.items():
        code, out, err = run(case, HERE)
        (HERE / f"{name}.out").write_text(out)
        manifest[name] = {"argv": case, "code": code, "stderr": err}
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
