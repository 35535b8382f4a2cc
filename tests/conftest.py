import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from current1d import MetricGraph, NormedPlane
from current1d.quadrature import Quad, integrate

# the seeded networks, graphs and flows that golden/engine_digests.json pins
_spec = importlib.util.spec_from_file_location(
    "make_engine_digests", Path(__file__).resolve().parent / "golden" / "make_engine_digests.py")
engine_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_digests)


@pytest.fixture
def plane():
    return NormedPlane("l2")


def integrate_one(fn, lo, width, tol: float) -> Quad:
    """``integrate`` of one form part ``fn(x, owner)``, as row 0 of a panel
    whose geometry is the nodes and owners themselves."""
    return integrate(lambda g, r: fn(*g), lo, width, tol, np.zeros(1, dtype=int),
                     lambda x, owner: (x, owner)).row(0)


def make_v_detour(factor: float = 2.0) -> MetricGraph:
    """x = (0,0), y = (1,0), apex above the midpoint; both edges length factor/2."""
    half = factor / 2.0
    h = math.sqrt(half * half - 0.25)
    return MetricGraph([[0.0, 0.0], [1.0, 0.0], [0.5, h]],
                       [(0, 2, half), (2, 1, half)], ambient="euclidean")


def random_connected_graph(rng: np.random.Generator, max_n: int = 20) -> MetricGraph:
    n = int(rng.integers(4, max_n + 1))
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n)
    pairs = {(min(int(order[i - 1]), int(order[i])),
              max(int(order[i - 1]), int(order[i]))) for i in range(1, n)}
    for _ in range(int(rng.integers(0, n))):
        u, v = map(int, rng.integers(0, n, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        d = float(np.hypot(*(pts[u] - pts[v])))
        if d > 0:
            edges.append((u, v, d))
    return MetricGraph(pts.tolist(), edges, ambient="euclidean")


def floyd_warshall(g: MetricGraph) -> np.ndarray:
    """Independent all-pairs oracle."""
    n = g.n
    d = np.full((n, n), math.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in g.edges:
        d[u, v] = min(d[u, v], w)
        d[v, u] = min(d[v, u], w)
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    return d
