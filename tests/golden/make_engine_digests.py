"""Write the engine digests that ``tests/test_solvers.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_engine_digests.py

It builds seeded min-cost-flow networks the way the package's callers build
them (the dense bipartite network of ``ae_norm``, the sparse graph network of
``minimal_filling``, the flat-norm dual grid with finite capacities), a random
network with finite and infinite capacities and an infeasible one, plus
seeded ``MetricGraph``s, and records SHA-256 digests of the flows,
potentials and total cost of both flow engines on every network, with
``min_cost_flow``'s augmentation count ("networks") and ``network_simplex``'s
pivot count ("simplex"), and of every graph's ``path_dist``, in
``engine_digests.json``. Regenerate only when an engine is
meant to change its floating-point results, and say which digests changed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from current1d import (Chain1, CubicalComplex, FlowNetwork, MetricGraph,
                       Molecule, NormedPlane, SolverError, flat_norm,
                       min_cost_flow, network_simplex, snap)
from current1d import flatnorm, transport

HERE = Path(__file__).resolve().parent
OUT = HERE / "engine_digests.json"
INF = math.inf


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class _Stop(Exception):
    pass


def _captured(module, engine: str, call) -> FlowNetwork:
    """The network that ``call()`` hands to the flow engine ``module.<engine>``."""
    nets = []

    def spy(net):
        nets.append(net)
        raise _Stop

    with mock.patch.object(module, engine, spy):
        try:
            call()
        except _Stop:
            pass
    return nets[0]


def _balanced(rng, k: int) -> np.ndarray:
    w = rng.uniform(-2.0, 2.0, size=k)
    w[-1] -= w.sum()
    return w


def _bipartite(seed: int, k: int, lattice: bool) -> FlowNetwork:
    rng = _rng(seed)
    if lattice:  # integer points under l1: many equal costs, so ties decide
        pts = rng.integers(0, 6, size=(k, 2)).astype(float)
        dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    else:
        pts = rng.uniform(0.0, 10.0, size=(k, 2))
        dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    keys = rng.permutation(k)[:k].tolist()
    mol = Molecule(list(zip(keys, _balanced(rng, k).tolist())))
    return _captured(transport, "network_simplex", lambda: transport.ae_norm(mol, dist))


def _graph(seed: int, n: int, parts: int = 1) -> MetricGraph:
    """A random Euclidean graph: a spanning path per part plus n/2 chords."""
    rng = _rng(seed)
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n)
    pairs = set()
    for part in np.array_split(order, parts):
        pairs |= {(min(int(a), int(b)), max(int(a), int(b)))
                  for a, b in zip(part[:-1], part[1:])}
        for a, b in rng.choice(part, size=(len(part) // 2, 2)).tolist():
            if a != b:
                pairs.add((min(a, b), max(a, b)))
    edges = [(u, v, float(np.hypot(*(pts[u] - pts[v])))) for u, v in sorted(pairs)]
    return MetricGraph(pts.tolist(), edges, ambient="euclidean")


def _sparse(seed: int, n: int, k: int) -> FlowNetwork:
    g = _graph(seed, n)
    rng = _rng(seed + 1)
    verts = rng.choice(n, size=k, replace=False).tolist()
    mol = Molecule(list(zip(verts, _balanced(rng, k).tolist())))
    return _captured(transport, "network_simplex", lambda: transport.minimal_filling(mol, g))


def _dual_grid(seed: int, n: int, staircase: bool) -> FlowNetwork:
    cx = CubicalComplex(nx=n, ny=n)
    rng = _rng(seed)
    if staircase:  # a staircase and the reverse of a copy two rows up
        pts = [(1.0, 1.0)]
        for step in rng.integers(0, 2, size=n - 4).tolist():
            x, y = pts[-1]
            pts.append((x + 1.0, y) if step else (x, y + 1.0))
        segs = [(a, b, 1.0) for a, b in zip(pts, pts[1:])]
        segs += [((a[0], a[1] + 2.0), (b[0], b[1] + 2.0), -1.0) for a, b, _ in segs]
        t = snap(Chain1.from_segments(NormedPlane("l2"), segs), cx)
    else:
        t = rng.normal(size=cx.n_edges)
    return _captured(flatnorm, "min_cost_flow", lambda: flat_norm(t, cx))


def _mixed(seed: int, n: int) -> FlowNetwork:
    """Random arcs, about half of them with a finite capacity, and a spanning cycle."""
    rng = _rng(seed)
    arcs = [(u, (u + 1) % n, float(rng.uniform(0.5, 3.0)), INF) for u in range(n)]
    for u, v in rng.integers(0, n, size=(4 * n, 2)).tolist():
        if u != v:
            cap = float(rng.uniform(0.05, 1.0)) if rng.uniform() < 0.5 else INF
            arcs.append((u, v, float(rng.uniform(0.0, 3.0)), cap))
    div = rng.uniform(-1.0, 1.0, size=n)
    div -= div.mean()
    return FlowNetwork(n, tuple(arcs), tuple(div.tolist()))


def _infeasible() -> FlowNetwork:
    """Two units from 0 to 3 through capacities that pass only 1.5: the engine
    augments, then runs out of residual paths."""
    arcs = ((0, 1, 1.0, 1.0), (0, 2, 2.0, 0.5), (1, 3, 1.0, INF), (2, 3, 0.5, INF),
            (1, 2, 0.1, 0.25))
    return FlowNetwork(4, arcs, (2.0, 0.0, 0.0, -2.0))


NETWORKS = {
    "ae_plane_k60": lambda: _bipartite(1, 60, lattice=False),
    "ae_lattice_k40": lambda: _bipartite(2, 40, lattice=True),
    "filling_n120_k24": lambda: _sparse(3, 120, 24),
    "filling_n200_k40": lambda: _sparse(4, 200, 40),
    "flat_field_8x8": lambda: _dual_grid(5, 8, staircase=False),
    "flat_staircase_12x12": lambda: _dual_grid(6, 12, staircase=True),
    "mixed_caps_n30": lambda: _mixed(7, 30),
    "infeasible_caps": _infeasible,
}

GRAPHS = {
    "graph_n60": lambda: _graph(8, 60),
    "graph_n150": lambda: _graph(9, 150),
    "graph_n80_three_parts": lambda: _graph(10, 80, parts=3),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(a) -> str:
    return _sha(np.ascontiguousarray(a, dtype="<f8").tobytes())


def flow_digest(net: FlowNetwork, engine=min_cost_flow, count: str = "augmentations") -> dict:
    """Digests of ``engine(net)`` and its ``count``, or the solver error it raises."""
    try:
        res = engine(net)
    except SolverError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"flows": _array_sha(res.flows), "potentials": _array_sha(res.potentials),
            "total_cost": _array_sha([res.total_cost]),
            count: _sha(str(getattr(res, count)).encode())}


def simplex_digest(net: FlowNetwork) -> dict:
    return flow_digest(net, network_simplex, "pivots")


def graph_digest(g: MetricGraph) -> str:
    return _array_sha(g.path_dist)


def digests() -> dict:
    return {"networks": {name: flow_digest(make()) for name, make in NETWORKS.items()},
            "simplex": {name: simplex_digest(make()) for name, make in NETWORKS.items()},
            "graphs": {name: graph_digest(make()) for name, make in GRAPHS.items()}}


def main() -> None:
    OUT.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
