"""Path/cycle decomposition of graph 1-currents and the fragment representation
obtained by restricting the decomposed curves to closed sets.

A flow is a ``Chain1`` on a ``MetricGraph``. The peeling order is deterministic
(lowest node, then lowest arc first), so decompositions are reproducible; any
valid decomposition satisfies the asserted identities since the superposition
measure is never unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .currents import (Chain1, ClosedSet, CurrentError, FragmentChain, Molecule,
                       Polyline, restrict)
from .spaces import MetricGraph, NormedPlane

TOL = 1e-9


def edge_weights(chain: Chain1) -> np.ndarray:
    """Signed weight per edge of a chain on graph edges (positive = along (u, v)),
    summed over the chain's pieces in order."""
    g = chain.space
    if not isinstance(g, MetricGraph):
        raise CurrentError("edge flows need a chain on a metric graph")
    weights = np.zeros(len(g.edges))
    for p in chain.pieces:
        k, sgn = g.signed_edge(p.start, p.end)
        weights[k] += sgn * p.weight
    return weights


def route_chain(g: MetricGraph, routes) -> Chain1:
    """One piece per edge of every (weight, vertices) route, in route order."""
    return Chain1.from_graph_edges(g, [(a, b, w) for w, verts in routes
                                       for a, b in zip(verts, verts[1:])])


@dataclass(frozen=True)
class Decomposition:
    graph: MetricGraph = field(repr=False)
    paths: tuple[tuple[float, tuple[int, ...]], ...]
    cycles: tuple[tuple[float, tuple[int, ...]], ...]
    mass_defect: float
    reassembly_error: float  # max |edge weights of paths + cycles - flow weights|

    @property
    def ok(self) -> bool:  # the routes reassemble the flow and its mass, each to TOL
        return self.reassembly_error <= TOL and abs(self.mass_defect) <= TOL


def decompose_flow(chain: Chain1) -> Decomposition:
    """Peel the per-edge sum of a graph chain into source-to-sink paths and cycles.

    Each walk starts at the lowest node with supply left, or, once none has,
    at the tail of the lowest live arc, and follows the lowest live arc until
    it reaches demand (a path) or revisits a node (a cycle). The residual
    digraph is fixed by the flow signs (no opposite traversal is ever
    introduced), so the decomposition reassembles the flow exactly and the
    total peeled weight times length equals the flow mass.
    """
    weights = edge_weights(chain)
    g = chain.space
    flow = Chain1.from_graph_edges(g, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)
                                       if w != 0.0])
    residual = {(p.start, p.end) if p.weight > 0 else (p.end, p.start): abs(p.weight)
                for p in flow.pieces}
    arcs = sorted(residual)
    heads: list[list[int]] = [[] for _ in range(g.n)]  # per tail, in arc order
    for u, v in arcs:
        heads[u].append(v)

    supply = np.zeros(g.n)   # where paths start: negative boundary part
    demand = np.zeros(g.n)   # where paths end: positive boundary part
    for p, w in flow.boundary().atoms:
        if w < 0:
            supply[p] = -w
        else:
            demand[p] = w

    eps = TOL * max(1.0, float(np.sum(np.abs(weights))) or 1.0)
    paths = []
    cycles = []
    while True:
        sources = np.flatnonzero(supply > eps)
        if sources.size:
            s = int(sources[0])
        else:  # a circulation is left: every walk ends on a revisit
            demand[:] = 0.0
            s = next((uv[0] for uv in arcs if residual[uv] > eps), None)
            if s is None:
                break
        walk, seen = [s], {s: 0}
        while len(walk) == 1 or demand[walk[-1]] <= eps:
            u = walk[-1]
            v = next((v for v in heads[u] if residual[(u, v)] > eps), None)
            if v is None:
                raise CurrentError("flow conservation failed during peeling")
            if v in seen:
                walk = walk[seen[v]:] + [v]
                break
            seen[v] = len(walk)
            walk.append(v)
        route = list(zip(walk, walk[1:]))
        w = min(residual[uv] for uv in route)
        if walk[0] == walk[-1]:
            cycles.append((float(w), tuple(walk)))
        else:
            w = min(w, supply[s], demand[walk[-1]])
            supply[s] -= w
            demand[walk[-1]] -= w
            paths.append((float(w), tuple(walk)))
        for uv in route:
            residual[uv] -= w

    routes = route_chain(g, paths + cycles)
    err = np.max(np.abs(edge_weights(routes) - weights)) if len(weights) else 0.0
    return Decomposition(graph=g, paths=tuple(paths), cycles=tuple(cycles),
                         mass_defect=float(flow.mass() - routes.mass()),
                         reassembly_error=float(err))


def boundary_marginals(d: Decomposition) -> tuple[Molecule, Molecule]:
    """(start marginal, end marginal) of the peeled paths, as point measures."""
    starts = [(verts[0], w) for w, verts in d.paths]
    ends = [(verts[-1], w) for w, verts in d.paths]
    return (Molecule(starts, check_zero_sum=False),
            Molecule(ends, check_zero_sum=False))


@dataclass(frozen=True)
class FragmentRepresentation:
    fragments: tuple[tuple[float, FragmentChain], ...]
    mass_identity_residual: float
    restricted_mass: float

    @property
    def ok(self) -> bool:  # the fragments carry the flow's restricted mass, to TOL
        return self.mass_identity_residual <= TOL


def fragment_representation(d: Decomposition, e: ClosedSet) -> FragmentRepresentation:
    """Restrict every decomposed curve to the closed set and check the mass identity.

    The residual compares the restricted mass of the whole flow, as one planar
    segment per traversed (u, v) carrying its summed traffic, against the
    weighted fragment masses; both sides count each edge's traffic in the
    fixed residual orientation, so they agree to rounding.
    """
    g = d.graph
    if g.coords is None:
        raise CurrentError("fragment representation needs embedded vertices")
    fragments = []
    total = 0.0
    traffic: dict[tuple[int, int], float] = {}
    for w, verts in d.paths + d.cycles:
        frag = restrict(Polyline(g.coords[list(verts)]), e)
        fragments.append((w, frag))
        total += w * frag.mass()
        for uv in zip(verts, verts[1:]):
            traffic[uv] = traffic.get(uv, 0.0) + w
    flow = Chain1.from_segments(NormedPlane("l2"), [(g.coords[u], g.coords[v], w)
                                                   for (u, v), w in sorted(traffic.items())])
    restricted = restrict(flow, e).mass()
    return FragmentRepresentation(fragments=tuple(fragments),
                                  mass_identity_residual=float(abs(restricted - total)),
                                  restricted_mass=float(restricted))
