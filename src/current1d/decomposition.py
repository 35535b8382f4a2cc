"""Path/cycle decomposition of discrete normal 1-currents and the fragment
representation obtained by restricting the decomposed curves to closed sets.

The peeling order is deterministic (lowest edge index first), so decompositions
are reproducible; any valid decomposition satisfies the asserted identities
since the superposition measure is never unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .currents import (Chain1, ClosedSet, CurrentError, FragmentChain, Molecule,
                       Polyline, restrict)
from .spaces import MetricGraph, NormedPlane

TOL = 1e-9


@dataclass(frozen=True)
class EdgeFlow:
    """Signed weight per oriented edge of a graph (positive = along (u, v))."""

    graph: MetricGraph
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.graph.edges):
            raise CurrentError("one weight per edge required")

    @classmethod
    def from_chain(cls, chain: Chain1) -> "EdgeFlow":
        """Signed weight per edge of a chain on graph edges; inverse of ``as_chain``."""
        g = chain.space
        if not isinstance(g, MetricGraph):
            raise CurrentError("edge flows need a chain on a metric graph")
        weights = np.zeros(len(g.edges))
        for p in chain.pieces:
            k, sgn = g.signed_edge(p.start, p.end)
            weights[k] += sgn * p.weight
        return cls(g, tuple(weights))

    def as_chain(self) -> Chain1:
        flows = [(u, v, w) for (u, v, _), w in zip(self.graph.edges, self.weights)
                 if w != 0.0]
        return Chain1.from_graph_edges(self.graph, flows)

    def mass(self) -> float:
        return float(sum(abs(w) * ln for (_, _, ln), w in
                         zip(self.graph.edges, self.weights)))

    def divergence(self) -> Molecule:
        return self.as_chain().boundary()


@dataclass(frozen=True)
class Decomposition:
    graph: MetricGraph = field(repr=False)
    paths: tuple[tuple[float, tuple[int, ...]], ...]
    cycles: tuple[tuple[float, tuple[int, ...]], ...]
    mass_defect: float
    reassembly_error: float  # max |reassembled() - flow weights| over the edges

    def reassembled(self) -> np.ndarray:
        """Signed edge-weight vector reconstructed from the paths and cycles."""
        return _reassemble(self.graph, self.paths + self.cycles)


def decompose_flow(f: EdgeFlow) -> Decomposition:
    """Peel source-to-sink paths through the residual orientation, then cycles.

    The residual digraph is fixed by the flow signs (no opposite traversal is
    ever introduced), so the decomposition reassembles the flow exactly and
    the total peeled weight times length equals the flow mass.
    """
    g = f.graph
    residual: dict[tuple[int, int], float] = {}
    for (u, v, _), w in zip(g.edges, f.weights):
        if w > 0:
            residual[(u, v)] = w
        elif w < 0:
            residual[(v, u)] = -w
    out_arcs: list[list[int]] = [[] for _ in range(g.n)]
    arc_list = sorted(residual)
    for a, (u, v) in enumerate(arc_list):
        out_arcs[u].append(a)

    bnd = f.divergence()
    supply = np.zeros(g.n)   # where paths start: negative boundary part
    demand = np.zeros(g.n)   # where paths end: positive boundary part
    for p, w in bnd.atoms:
        if w < 0:
            supply[p] = -w
        else:
            demand[p] = w

    eps = TOL * max(1.0, float(np.sum(np.abs(f.weights))) or 1.0)
    paths = []
    cycles = []

    def walk_from(s: int):
        """Follow lowest-index live arcs from s until a demand node or a revisit."""
        path = [s]
        seen = {s: 0}
        while True:
            u = path[-1]
            if u != s and demand[u] > eps:
                return path, None
            nxt = None
            for a in out_arcs[u]:
                uv = arc_list[a]
                if residual.get(uv, 0.0) > eps:
                    nxt = uv[1]
                    break
            if nxt is None:
                if demand[u] > eps:
                    return path, None
                raise CurrentError("flow conservation failed during peeling")
            if nxt in seen:
                return None, path[seen[nxt]:] + [nxt]
            seen[nxt] = len(path)
            path.append(nxt)

    def peel_cycle(cyc):
        w = min(residual[(cyc[i], cyc[i + 1])] for i in range(len(cyc) - 1))
        for i in range(len(cyc) - 1):
            residual[(cyc[i], cyc[i + 1])] -= w
        cycles.append((float(w), tuple(cyc)))

    while True:
        sources = [v for v in range(g.n) if supply[v] > eps]
        if not sources:
            break
        s = sources[0]
        path, cyc = walk_from(s)
        if cyc is not None:
            peel_cycle(cyc)
            continue
        t = path[-1]
        w = min(supply[s], demand[t])
        for i in range(len(path) - 1):
            w = min(w, residual[(path[i], path[i + 1])])
        for i in range(len(path) - 1):
            residual[(path[i], path[i + 1])] -= w
        supply[s] -= w
        demand[t] -= w
        paths.append((float(w), tuple(path)))

    # pure circulation left over: with no demand left, every walk from the
    # lowest live arc ends on a revisit
    demand[:] = 0.0
    while True:
        live = [uv for uv in arc_list if residual.get(uv, 0.0) > eps]
        if not live:
            break
        peel_cycle(walk_from(live[0][0])[1])

    defect = f.mass() - _route_mass(g, paths + cycles)
    err = np.max(np.abs(_reassemble(g, paths + cycles) - f.weights)) if f.weights else 0.0
    return Decomposition(graph=g, paths=tuple(paths), cycles=tuple(cycles),
                         mass_defect=float(defect), reassembly_error=float(err))


def _reassemble(g: MetricGraph, routes) -> np.ndarray:
    """Signed weight per edge summed over every edge of every route."""
    out = np.zeros(len(g.edges))
    for w, verts in routes:
        for a, b in zip(verts, verts[1:]):
            k, sgn = g.signed_edge(a, b)
            out[k] += sgn * w
    return out


def _route_mass(g: MetricGraph, routes) -> float:
    """Sum of weight x edge length over every edge of every route, edge by edge."""
    tot = 0.0
    for w, verts in routes:
        for a, b in zip(verts, verts[1:]):
            tot += w * g.edge_length(a, b)
    return float(tot)


def boundary_marginals(d: Decomposition) -> tuple[Molecule, Molecule]:
    """(start marginal, end marginal) of the peeled paths, as point measures."""
    starts = [(verts[0], w) for w, verts in d.paths]
    ends = [(verts[-1], w) for w, verts in d.paths]
    return (Molecule(starts, check_zero_sum=False),
            Molecule(ends, check_zero_sum=False))


def curve_polyline(d: Decomposition, verts: Sequence[int]) -> Polyline:
    g = d.graph
    if g.coords is None:
        raise CurrentError("fragment representation needs embedded vertices")
    return Polyline(g.coords[list(verts)])


@dataclass(frozen=True)
class FragmentRepresentation:
    fragments: tuple[tuple[float, FragmentChain], ...]
    mass_identity_residual: float
    restricted_mass: float


def fragment_representation(d: Decomposition, e: ClosedSet) -> FragmentRepresentation:
    """Restrict every decomposed curve to the closed set and check the mass identity.

    The residual compares the restricted mass of the whole flow chain against
    the weighted fragment masses; both sides count each edge's traffic in the
    fixed residual orientation, so they agree to rounding.
    """
    fragments = []
    total = 0.0
    for w, verts in d.paths + d.cycles:
        poly = curve_polyline(d, verts)
        frag = restrict(poly, e)
        fragments.append((w, frag))
        total += w * frag.mass()
    restricted = restrict(_embedded_chain(d), e).mass()
    residual = abs(restricted - total)
    return FragmentRepresentation(fragments=tuple(fragments),
                                  mass_identity_residual=float(residual),
                                  restricted_mass=float(restricted))


def _embedded_chain(d: Decomposition) -> Chain1:
    g = d.graph
    if g.coords is None:
        raise CurrentError("fragment representation needs embedded vertices")
    plane = NormedPlane("l2")
    acc: dict[tuple[int, int], float] = {}
    for w, verts in d.paths + d.cycles:
        for i in range(len(verts) - 1):
            u, v = verts[i], verts[i + 1]
            acc[(u, v)] = acc.get((u, v), 0.0) + w
    segs = [(tuple(g.coords[u]), tuple(g.coords[v]), w)
            for (u, v), w in sorted(acc.items()) if w != 0.0]
    return Chain1.from_segments(plane, segs)
