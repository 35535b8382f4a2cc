"""Rickman rug regression: two vertical unit segments at horizontal offset s in
the metric max(|dx|^alpha, |dy|).

Any curve crossing between the lines has unbounded length in the rug (the
|dx|^alpha increments are not additive), so the faithful graph discretization
keeps the two lines intrinsically disconnected: no rungs. The ambient d_alpha
distance between the lines stays s^alpha, which is what makes the pair a
non-quasiconvexity witness: the intrinsic AE lower bound for the boundary of
the difference current is 2 for every s, while the ambient AE norm shrinks
with s, so the filling/ambient ratio blows up and qc = inf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .currents import Chain1
from .spaces import MetricGraph, qc_constants
from .transport import ae_norm


def build_rug(s: float, n: int = 32, alpha: float = 0.5) -> tuple[MetricGraph, Chain1]:
    """Discretized rug: vertices along {0} x [0,1] and {s} x [0,1], n segments each.

    Returns the graph and the difference chain T_s = [line at 0] - [line at s].
    """
    if not (0 < s) or not (0 < alpha <= 1):
        raise ValueError("need s > 0 and alpha in (0, 1]")
    verts = [[0.0, j / n] for j in range(n + 1)] + [[s, j / n] for j in range(n + 1)]
    edges = []
    for j in range(n):
        edges.append((j, j + 1, 1.0 / n))
        edges.append((n + 1 + j, n + 2 + j, 1.0 / n))
    g = MetricGraph(verts, edges, ambient=("d_alpha", alpha))
    flows = [(j, j + 1, 1.0) for j in range(n)]
    flows += [(n + 1 + j, n + 2 + j, -1.0) for j in range(n)]
    t = Chain1.from_graph_edges(g, flows)
    return g, t


@dataclass(frozen=True)
class RugRow:
    s: float
    ae_intrinsic: float
    ae_ambient: float
    mass: float
    qc: float

    @property
    def lower_bound_ok(self) -> bool:  # not a field, so the ``asdict`` rows leave it out
        return abs(self.ae_intrinsic - 2.0) <= 1e-6


def rug_row(s: float, n: int = 32, alpha: float = 0.5) -> RugRow:
    g, t = build_rug(s, n, alpha)
    m = t.boundary()
    ae_dl = ae_norm(m, g.path_dist).value
    ae_d = ae_norm(m, g.ambient_dist).value
    return RugRow(s=float(s), ae_intrinsic=float(ae_dl), ae_ambient=float(ae_d),
                  mass=float(t.mass()), qc=float(qc_constants(g).qc_space))


def rug_grid(s_count: int = 32, n: int = 32, alpha: float = 0.5) -> list[RugRow]:
    """One row per s on the uniform grid s_k = k / s_count, k = 1..s_count."""
    return [rug_row(k / s_count, n, alpha) for k in range(1, s_count + 1)]
