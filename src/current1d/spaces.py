"""Ambient geometries: finite metric spaces, embedded metric graphs, normed planes.

All distances are double precision with a global absolute tolerance of 1e-9.
Disconnection is encoded by the ``math.inf`` sentinel, never by a large finite
number: an infinite quasiconvexity constant is a meaningful outcome (the
boundary map stops being an isomorphism there).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
INF = math.inf
log = logging.getLogger("current1d.spaces")


class GeometryError(ValueError):
    """Raised when a space violates its construction invariants."""


# ---------------------------------------------------------------------------
# normed planes


@dataclass(frozen=True)
class NormedPlane:
    """The plane R^2 with an l1, l2, linf or weighted-max norm.

    ``weights`` is consulted for the ``wmax`` and ``linf`` tags, where
    ``norm(v) = max(w0*|v0|, w1*|v1|)``; ``linf`` always has unit weights.
    """

    tag: str = "l2"
    weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.tag not in ("l1", "l2", "linf", "wmax"):
            raise GeometryError(f"unknown norm tag {self.tag!r}")
        if self.tag == "linf":
            object.__setattr__(self, "weights", (1.0, 1.0))
        if self.tag == "wmax" and min(self.weights) <= 0:
            raise GeometryError("wmax weights must be positive")

    def norm(self, v) -> float:
        x, y = float(v[0]), float(v[1])
        if self.tag == "l2":
            return math.hypot(x, y)
        if self.tag == "l1":
            return abs(x) + abs(y)
        return max(self.weights[0] * abs(x), self.weights[1] * abs(y))

    def norm_arr(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized norm of an (n, 2) array."""
        pts = np.asarray(pts, dtype=float)
        if self.tag == "l2":
            return np.hypot(pts[..., 0], pts[..., 1])
        if self.tag == "l1":
            return np.abs(pts[..., 0]) + np.abs(pts[..., 1])
        return np.maximum(self.weights[0] * np.abs(pts[..., 0]),
                          self.weights[1] * np.abs(pts[..., 1]))

    def dist(self, p, q) -> float:
        return self.norm((q[0] - p[0], q[1] - p[1]))

    def dual_norm(self, v) -> float:
        """Norm of a covector, i.e. Lipschitz constant of x -> v . x."""
        x, y = abs(float(v[0])), abs(float(v[1]))
        if self.tag == "l2":
            return math.hypot(x, y)
        if self.tag == "l1":
            return max(x, y)
        return x / self.weights[0] + y / self.weights[1]

    def norm_grad(self, pts: np.ndarray) -> np.ndarray:
        """A.e. gradient of x -> norm(x), vectorized; 0 at the origin."""
        pts = np.asarray(pts, dtype=float)
        g = np.zeros_like(pts)
        if self.tag == "l2":
            n = np.hypot(pts[..., 0], pts[..., 1])[..., None]
            return np.divide(pts, n, out=g, where=n > 0)
        if self.tag == "l1":
            return np.sign(pts)
        ax, ay = np.abs(pts[..., 0]), np.abs(pts[..., 1])
        w0, w1 = self.weights
        xmax = w0 * ax >= w1 * ay
        g[xmax, 0] = w0 * np.sign(pts[xmax, 0])
        g[~xmax, 1] = w1 * np.sign(pts[~xmax, 1])
        return g

    def op_norm(self, a: np.ndarray) -> float:
        """Operator norm of a 2x2 matrix acting on this normed plane."""
        a = np.asarray(a, dtype=float)
        if self.tag == "l2":
            return float(np.linalg.norm(a, 2))
        if self.tag == "l1":
            return float(np.max(np.abs(a).sum(axis=0)))
        # wmax and linf: exhaust the extreme points of the unit ball (a rectangle)
        cx, cy = 1.0 / self.weights[0], 1.0 / self.weights[1]
        corners = np.array([[cx, cy], [cx, -cy], [-cx, cy], [-cx, -cy]])
        return float(max(self.norm(a @ v) for v in corners))


# ---------------------------------------------------------------------------
# finite metric spaces


class FiniteMetricSpace:
    """A finite point set with a distance matrix, symmetric within 1e-9 on input;
    ``dist`` stores its symmetric part, so ``dist == dist.T`` exactly, and it is
    the input bit for bit wherever the input is exactly symmetric (inf included)."""

    def __init__(self, points, dist):
        self.points = list(points)
        self.dist = np.asarray(dist, dtype=float)
        self._validate()

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def _validate(self):
        d = self.dist
        n = self.n
        if d.shape != (n, n):
            raise GeometryError("distance matrix shape mismatch")
        if np.any(np.diag(d) != 0.0):
            raise GeometryError("diagonal must be exactly 0")
        if not np.allclose(d, d.T, atol=TOL, rtol=0):
            raise GeometryError("distance matrix must be symmetric")
        off = d.copy()
        np.fill_diagonal(off, INF)
        if np.min(off, initial=INF) <= 0:
            raise GeometryError("off-diagonal distances must be positive")
        self.dist = d = np.where(d == d.T, d, 0.5 * (d + d.T))
        # triangle inequality, each triple once at its largest index k: cells (i,j), (j,i) of
        # |d(i,j) - d(i,k)| > d(j,k) + TOL cover its 3 orderings; nan (inf - inf) compares false
        gap, bad = np.empty(n * n), np.empty(n * n, dtype=bool)
        with np.errstate(invalid="ignore"):
            for k in range(2, n):
                g, b, col = gap[:k * k].reshape(k, k), bad[:k * k].reshape(k, k), d[:k, k]
                np.abs(np.subtract(d[:k, :k], col[:, None], out=g), out=g)
                if np.greater(g, col + TOL, out=b).any():
                    i, j = divmod(int(b.argmax()), k)
                    a, c, m = (i, j, k) if d[i, j] > d[i, k] else (i, k, j)
                    raise GeometryError(
                        f"triangle inequality violated beyond 1e-9: d({a},{c}) = "
                        f"{d[a, c]:.15g} > d({a},{m}) + d({m},{c}) = {d[a, m] + d[m, c]:.15g}")


# ---------------------------------------------------------------------------
# metric graphs


class MetricGraph:
    """An embedded (or abstract) graph with edge lengths and an ambient metric.

    ``ambient`` is one of ``"path"`` (ambient distance is the path metric),
    ``"euclidean"`` (vertices must carry plane coordinates), or
    ``("d_alpha", a)`` for the Rickman metric ``max(|dx|^a, |dy|)``.

    Edges are ``(u, v, length)`` with integer endpoints in [0, n) and a
    positive finite length. A self-loop or a second edge between the same two
    vertices is rejected: the path metric of a multigraph is that of the graph
    keeping the shortest edge of each parallel class.

    Everything is built eagerly at construction; instances are immutable
    afterwards and safe for concurrent reads. ``arcs`` is the one read-only
    (2m, 3) table of rows (tail, head, length), arc 2k being edge k as listed
    and 2k + 1 its reverse; the all-pairs pass and the shortest-path trees,
    which route a minimal filling, read it. The signed edge table maps
    ``(u, v)`` to ``(k, +1)`` and ``(v, u)`` to ``(k, -1)`` for edge
    ``k = (u, v)``.
    """

    def __init__(self, vertices, edges, ambient="euclidean"):
        self.vertices = list(vertices)
        self.ambient = ambient
        self.coords = None
        if self.vertices and not isinstance(self.vertices[0], str):
            self.coords = np.asarray(self.vertices, dtype=float).reshape(len(self.vertices), 2)
        edges = list(edges)
        table = np.array(edges, dtype=float).reshape(-1, 3)
        ends = table[:, :2]
        frac = np.any(ends != np.floor(ends), axis=1)
        out = np.any((ends < 0) | (ends >= self.n), axis=1)
        length_ok = (table[:, 2] > 0) & np.isfinite(table[:, 2])
        bad = np.flatnonzero(frac | out | ~length_ok)  # the first bad edge is named
        if bad.size:
            u, v, w = edges[bad[0]]
            raise GeometryError(f"edge ({u},{v}) needs integer endpoints" if frac[bad[0]]
                                else f"edge ({u},{v}) out of range" if out[bad[0]]
                                else f"edge ({u},{v}) needs a positive finite length, not {w}")
        self.edges = [(int(u), int(v), w) for u, v, w in table.tolist()]
        self._signed_edges = {}
        for k, (u, v, _) in enumerate(self.edges):
            if u == v:
                raise GeometryError(f"edge {k} = ({u},{v}) is a self-loop")
            if (u, v) in self._signed_edges:
                raise GeometryError(f"edge {k} = ({u},{v}) joins the same vertices as "
                                    f"edge {self._signed_edges[u, v][0]}")
            self._signed_edges[u, v], self._signed_edges[v, u] = (k, 1), (k, -1)
        self.arcs = np.stack([table, table[:, [1, 0, 2]]], axis=1).reshape(-1, 3)
        self.arcs.flags.writeable = False
        self.path_dist = self._all_pairs()
        self.ambient_dist = self._ambient_matrix()
        self._validate()

    @property
    def n(self) -> int:
        return len(self.vertices)

    def _all_pairs(self) -> np.ndarray:
        """Shortest-path distances from every source at once, by label setting.

        In each phase, each source row settles every open vertex v whose
        tentative distance is at most ``low + minin[v]``: ``low`` is the row's
        least open tentative distance and ``minin[v]`` the shortest arc into v
        (the IN criterion of Crauser, Mehlhorn, Meyer and Sanders, MFCS 1998).
        The arcs leaving the settled vertices are then relaxed in one scatter.
        An open u offers v at best fl(d(u) + w) >= fl(low + minin[v]), since
        rounding is monotone, so each distance is the minimum over neighbours
        of fl(d(u) + w), the value heap Dijkstra forms: bit for bit the same.
        """
        n = self.n
        tail, head = self.arcs[:, :2].astype(np.intp).T
        order = np.argsort(tail, kind="stable")  # CSR: the arcs leaving u, in arc order
        start = np.searchsorted(tail[order], np.arange(n + 1))
        head, length = head[order], self.arcs[order, 2]
        minin = np.full(n, INF)
        np.minimum.at(minin, head, length)
        minin[minin == INF] = 0.0  # a vertex no arc enters is reached only as its source
        dist = np.full(n * n, INF)  # settled entries, every one finite
        tent = np.full((n, n), INF)  # tentative distances of the open entries
        np.fill_diagonal(tent, 0.0)
        open_dist, bound = tent.reshape(-1), np.empty((n, n))
        phases = 0
        while True:
            low = tent.min(axis=1, initial=INF)
            if not np.any(low < INF):
                break
            low[low == INF] = -INF  # a finished row settles nothing
            np.add(low[:, None], minin, out=bound)
            done = np.flatnonzero(tent <= bound)  # row-major cells s * n + u
            us, du = done % n, open_dist[done]
            dist[done], open_dist[done] = du, INF
            counts = start[us + 1] - start[us]
            owner = np.repeat(np.arange(us.size), counts)
            arc = np.arange(owner.size) + (start[us] - np.cumsum(counts) + counts)[owner]
            cell = (done - us)[owner] + head[arc]
            # a settled cell keeps its INF placeholder: its distance is final
            np.minimum.at(open_dist, cell, np.where(dist[cell] == INF,
                                                    du[owner] + length[arc], INF))
            phases += 1
        log.debug("all pairs: %d vertices settled in %d phases", n, phases)
        return dist.reshape(n, n)

    def _ambient_matrix(self) -> np.ndarray:
        if self.ambient == "path":
            return self.path_dist.copy()
        if self.coords is None:
            raise GeometryError("embedded ambient metric needs vertex coordinates")
        dx = self.coords[:, None, :] - self.coords[None, :, :]
        if self.ambient == "euclidean":
            return np.hypot(dx[..., 0], dx[..., 1])
        if isinstance(self.ambient, tuple) and self.ambient[0] == "d_alpha":
            a = float(self.ambient[1])
            return np.maximum(np.abs(dx[..., 0]) ** a, np.abs(dx[..., 1]))
        raise GeometryError(f"unknown ambient tag {self.ambient!r}")

    def _validate(self):
        tail, head = self.arcs[0::2, :2].astype(np.intp).T
        amb = self.ambient_dist[tail, head]
        short = np.flatnonzero(self.arcs[0::2, 2] < amb - TOL)
        if short.size:
            u, v, w = self.edges[short[0]]
            raise GeometryError(
                f"edge ({u},{v}) shorter than ambient distance: {w} < {amb[short[0]]}")
        finite = np.isfinite(self.path_dist)
        if np.any(self.path_dist[finite] < (self.ambient_dist[finite] - TOL)):
            raise GeometryError("path metric below ambient metric beyond 1e-9")

    def d(self, u: int, v: int) -> float:
        return float(self.ambient_dist[u, v])

    def signed_edge(self, u: int, v: int) -> tuple[int, int]:
        """(edge index, +1 or -1) of the edge traversed from u to v."""
        try:
            return self._signed_edges[(u, v)]
        except KeyError:
            raise GeometryError(f"({u},{v}) is not an edge of the graph") from None

    def edge_length(self, u: int, v: int) -> float:
        return self.edges[self.signed_edge(u, v)[0]][2]

    def route_length(self, verts) -> float:
        """Length of the edge route through ``verts``, summed edge by edge."""
        return float(sum(self.edge_length(a, b) for a, b in zip(verts, verts[1:])))

    def predecessors(self, src: int) -> np.ndarray:
        """Shortest-path tree from ``src`` read off ``path_dist``, as a predecessor array.

        The predecessor of v is the lowest-index u with d(src, u) < d(src, v)
        and fl(d(src, u) + w(u, v)) == d(src, v), the sum the all-pairs pass
        forms on v's relaxing arc, so the test needs no tolerance; the strict
        ``<`` keeps every chain acyclic. It is -1 at ``src`` and at unreachable
        vertices. A reachable vertex with no such arc (its edge too short to
        change the sum) raises GeometryError: a walk up the tree would not end.
        """
        d = self.path_dist[src]
        tail, head = self.arcs[:, :2].astype(np.intp).T
        du, dv = d[tail], d[head]
        tight = (du < dv) & (du + self.arcs[:, 2] == dv)
        pred = np.full(self.n, self.n)
        np.minimum.at(pred, head[tight], tail[tight])
        orphan = np.flatnonzero((pred == self.n) & (d < INF) & (np.arange(self.n) != src))
        if orphan.size:
            raise GeometryError(f"vertex {orphan[0]} has no shortest-path predecessor from {src}")
        pred[pred == self.n] = -1
        return pred


@dataclass(frozen=True)
class QcReport:
    qc_pair: np.ndarray = field(repr=False)
    qc_space: float = 1.0


def qc_constants(g: MetricGraph) -> QcReport:
    """Pairwise and global quasiconvexity constants d_l / d."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = g.path_dist / g.ambient_dist
    ratio[np.isinf(g.path_dist)] = INF  # no curve at all: qc(x, y) = inf
    np.fill_diagonal(ratio, 1.0)
    ratio[np.isnan(ratio)] = 1.0
    qc_space = float(np.max(ratio)) if ratio.size else 1.0
    return QcReport(qc_pair=ratio, qc_space=qc_space)
