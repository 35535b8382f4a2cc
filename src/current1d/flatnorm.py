"""Exact flat norms of edge chains on cubical 2-complexes, via min-cost flow.

The complex flat norm min{ mass(r) + mass(s) : t = r + d2 s } restricted to
the complex is an upper approximation of the continuum flat norm; it serves
as the ground-truth oracle against which the metric certificates of the
homotopy module are validated. On a planar grid its LP dual is a min-cost
circulation on the dual graph (faces plus one outer node), so ``flat_norm``
solves it with ``min_cost_flow`` and reads the face chain s off the node
potentials (Ibrahim, Krishnamoorthy and Vixie, "Simplicial flat norm with
scale", 2013).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .currents import Chain1, Polyline
from .solvers import FlowNetwork, SolverError, check_flow, min_cost_flow
# flat_norm calls no LP, but bench/tracing.py wraps this name here
from .solvers import simplex_lp  # noqa: F401

SNAP_TOL = 1e-9


class GridError(ValueError):
    pass


class CubicalComplex:
    """Axis-aligned grid of nx-by-ny square cells with spacing h.

    Nodes are (i, j) with 0 <= i <= nx, 0 <= j <= ny. Horizontal edges point
    +x, vertical edges +y. Face (i, j) has boundary bottom + right - top - left,
    so the integer incidence d1 . d2 = 0 exactly.
    """

    def __init__(self, origin=(0.0, 0.0), h: float = 1.0, nx: int = 1, ny: int = 1):
        if not (nx >= 1 and ny >= 1 and np.isfinite(h) and h > 0):
            raise GridError("need nx, ny >= 1 and a finite h > 0")
        self.origin = (float(origin[0]), float(origin[1]))
        self.h = float(h)
        self.nx = int(nx)
        self.ny = int(ny)
        self.n_h = nx * (ny + 1)
        self.n_v = (nx + 1) * ny
        self.n_edges = self.n_h + self.n_v
        self.n_faces = nx * ny
        self.n_nodes = (nx + 1) * (ny + 1)

    # --- indexing -----------------------------------------------------------
    def h_edge(self, i: int, j: int) -> int:
        """Edge from node (i, j) to (i+1, j); 0 <= i < nx."""
        return j * self.nx + i

    def v_edge(self, i: int, j: int) -> int:
        """Edge from node (i, j) to (i, j+1); 0 <= j < ny."""
        return self.n_h + j * (self.nx + 1) + i

    def d2_matrix(self) -> np.ndarray:
        """Integer incidence: column f holds the signed edges of face f, read
        off ``edge_faces``."""
        f_plus, f_minus = self.edge_faces()
        d2 = np.zeros((self.n_edges, self.n_faces + 1))
        d2[np.arange(self.n_edges), f_plus] = 1.0
        d2[np.arange(self.n_edges), f_minus] = -1.0
        return d2[:, :-1].copy()  # without the outer face's column

    def edge_faces(self) -> tuple[np.ndarray, np.ndarray]:
        """Faces (f_plus, f_minus) on either side of every edge.

        Edge e has sign +1 in the boundary of f_plus[e] and -1 in that of
        f_minus[e]; the missing side of a border edge is the outer index
        n_faces. So (d2 s)[e] = s[f_plus[e]] - s[f_minus[e]] with s[n_faces] = 0.
        """
        nx, ny, outer = self.nx, self.ny, self.n_faces
        j, i = np.divmod(np.arange(self.n_h), nx)  # horizontal edge (i, j)
        h_plus = np.where(j < ny, j * nx + i, outer)  # bottom of face (i, j)
        h_minus = np.where(j > 0, (j - 1) * nx + i, outer)  # top of face (i, j-1)
        j, i = np.divmod(np.arange(self.n_v), nx + 1)  # vertical edge (i, j)
        v_plus = np.where(i > 0, j * nx + i - 1, outer)  # right of face (i-1, j)
        v_minus = np.where(i < nx, j * nx + i, outer)  # left of face (i, j)
        return np.concatenate([h_plus, v_plus]), np.concatenate([h_minus, v_minus])

    def apply_d2(self, s) -> np.ndarray:
        """d2 s for face coefficients s, without building ``d2_matrix``."""
        f_plus, f_minus = self.edge_faces()
        s_ext = np.append(np.asarray(s, dtype=float), 0.0)  # the outer face is 0
        return s_ext[f_plus] - s_ext[f_minus]

    # --- snapping ------------------------------------------------------------
    def node_index_of(self, p) -> tuple[int, int]:
        gx = (p[0] - self.origin[0]) / self.h
        gy = (p[1] - self.origin[1]) / self.h
        if not (math.isfinite(gx) and math.isfinite(gy)):
            raise GridError(f"point {p} is not finite")
        i, j = round(gx), round(gy)
        if abs(gx - i) > SNAP_TOL / self.h or abs(gy - j) > SNAP_TOL / self.h:
            raise GridError(f"point {p} is off the grid")
        if not (0 <= i <= self.nx and 0 <= j <= self.ny):
            raise GridError(f"point {p} is outside the complex")
        return int(i), int(j)


def snap(c: Chain1, complex_: CubicalComplex) -> np.ndarray:
    """Decompose an axis-aligned grid chain into oriented unit edge coefficients.

    Each piece is split into unit edges exactly (mass preserved per piece);
    opposite overlapping pieces cancel by linearity.
    """
    coeffs = np.zeros(complex_.n_edges)
    for piece in c.pieces:
        a = complex_.node_index_of(c.coords_of(piece.start))
        b = complex_.node_index_of(c.coords_of(piece.end))
        if a[0] != b[0] and a[1] != b[1]:
            raise GridError(f"piece {a}->{b} is not axis-aligned")
        if a == b:
            continue
        if a[1] == b[1]:
            j = a[1]
            step = 1 if b[0] > a[0] else -1
            for i in range(a[0], b[0], step):
                e = complex_.h_edge(min(i, i + step), j)
                coeffs[e] += piece.weight * step
        else:
            i = a[0]
            step = 1 if b[1] > a[1] else -1
            for j in range(a[1], b[1], step):
                e = complex_.v_edge(i, min(j, j + step))
                coeffs[e] += piece.weight * step
    return coeffs


@dataclass(frozen=True)
class FlatResult:
    value: float
    r: np.ndarray = field(repr=False)
    s: np.ndarray = field(repr=False)
    iterations: int = 0


def _check_chain(t, complex_: CubicalComplex) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (complex_.n_edges,):
        raise GridError("coefficient vector does not match the complex")
    if not np.all(np.isfinite(t)):
        raise GridError("coefficient vector has non-finite entries")
    return t


def flat_norm(t: np.ndarray, complex_: CubicalComplex) -> FlatResult:
    """Optimum of mass(r) + mass(s) over splittings t = r + d2 s.

    Edge mass weight is h, face mass weight is h^2. Taking s = 0 is feasible,
    so the value never exceeds the mass of t. The LP dual, max t.x over
    |x_e| <= h and |(d2^T x)_f| <= h^2, is a circulation on the dual graph:
    x_e flows from f_minus(e) to f_plus(e), and the pair of arcs between each
    face and the outer node carries (d2^T x)_f. Every x_e starts saturated at
    sign(t_e) h; undoing it costs |t_e| per unit, up to 2h. ``iterations``
    counts flow augmentations.

    Raises SolverError if the primal value read from the potentials does not
    match the dual value of the flow (a NaN gap, from an overflow, matches
    nothing), or if ``check_flow`` rejects the flow.
    """
    t = _check_chain(t, complex_)
    nf, h = complex_.n_faces, complex_.h
    outer = nf
    f_plus, f_minus = complex_.edge_faces()
    up = t >= 0
    sign = np.where(up, 1.0, -1.0)
    divergence = np.zeros(nf + 1)
    np.add.at(divergence, f_plus, sign * h)
    np.add.at(divergence, f_minus, -sign * h)
    undo = np.column_stack([np.where(up, f_plus, f_minus), np.where(up, f_minus, f_plus),
                            np.abs(t), np.full(len(t), 2 * h)])
    # then face f to the outer node and back, pair by pair
    out = np.column_stack([np.arange(nf), np.full(nf, outer), np.zeros(nf), np.full(nf, h * h)])
    pairs = np.stack([out, out[:, [1, 0, 2, 3]]], axis=1).reshape(-1, 4)
    net = FlowNetwork(nf + 1, np.vstack([undo, pairs]), divergence)
    res = min_cost_flow(net)

    dual = h * float(np.sum(np.abs(t))) - res.total_cost
    s = res.potentials[outer] - res.potentials[:nf]
    r = t - complex_.apply_d2(s)
    value = h * float(np.sum(np.abs(r))) + h * h * float(np.sum(np.abs(s)))
    if not abs(value - dual) <= 1e-9 * max(1.0, abs(dual)):
        raise SolverError(f"flat norm duality gap: primal {value!r}, dual {dual!r}")
    check_flow(net, res)
    return FlatResult(value=value, r=r, s=s, iterations=res.augmentations)


def complex_covering(polys: list[Polyline]) -> CubicalComplex:
    """Smallest unit grid complex, with a margin of one cell, containing the given polylines."""
    pts = np.vstack([p.points for p in polys])
    lo = np.floor(pts.min(axis=0)).astype(int) - 1
    hi = np.ceil(pts.max(axis=0)).astype(int) + 1
    return CubicalComplex(origin=(float(lo[0]), float(lo[1])), h=1.0,
                          nx=int(hi[0] - lo[0]), ny=int(hi[1] - lo[1]))
