"""Write the engine digests that ``tests/test_solvers.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_engine_digests.py

It builds seeded min-cost-flow networks: the dense bipartite network of
``ae_norm`` and the flat-norm dual grid with finite capacities, as those
callers build them; the sparse Beckmann network of a molecule on a graph
(``beckmann``), the reference that ``minimal_filling``'s routed coupling is
tested against; a random network with finite and infinite capacities and an
infeasible one; plus seeded ``MetricGraph``s. It records SHA-256 digests of
the flows, potentials and total cost of both flow engines on every network, with
``min_cost_flow``'s augmentation count ("networks") and ``network_simplex``'s
pivot count ("simplex"), and of every graph's ``path_dist``, in
``engine_digests.json``. The "quadrature" section holds, for seeded curve
pairs in l1, l2 and linf, the digest of the values, node and cap counts of
every form of a panel on the pair's fill (``boundary_quad``) and on its three
chains (``action``); the fields of every fifth pair are measured in the pair's
plane, where cones send boxes to the cap, and a fragment chain closes the
section. The "decomposition" section holds, per kind of seeded graph flow
(minimal fillings, normal signed weights, integer weights with zeros), one
digest of the paths, cycles, mass defect, reassembly error and reassembled
weights (``reassembled``, the edge weights of the paths and cycles, which
``tests/test_decomposition.py`` also reads) of every flow's ``decompose_flow``
and of its fragment representation in a seeded closed set. Regenerate only
when an engine is meant to change its floating-point results, and say which
digests changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from current1d import (AffineBicombing, Ball, Box, Chain1, ClosedSet,
                       CubicalComplex, FlowNetwork, HalfPlane, MetricGraph,
                       Molecule, NormedPlane, Polyline, SolverError,
                       decompose_flow, flat_norm, fragment_representation,
                       homotopy_fill, min_cost_flow, network_simplex, restrict,
                       snap, standard_panel)
from current1d import flatnorm, transport
from current1d.currents import Panel, action
from current1d.decomposition import Decomposition, edge_weights, route_chain

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


def beckmann(m: Molecule, g: MetricGraph) -> FlowNetwork:
    """Beckmann's network of a molecule on a graph: arc 2k is edge k and
    2k + 1 its reverse, at cost = length and uncapacitated, with divergence
    -m so that the flow, read as a chain, has boundary m. Its least cost is
    the mass of ``minimal_filling(m, g)``."""
    divergence = np.zeros(g.n)
    for p, w in m.atoms:
        divergence[p] -= w
    return FlowNetwork(g.n, np.column_stack([g.arcs, np.full(len(g.arcs), INF)]), divergence)


def _sparse(seed: int, n: int, k: int) -> FlowNetwork:
    g = _graph(seed, n)
    rng = _rng(seed + 1)
    verts = rng.choice(n, size=k, replace=False).tolist()
    return beckmann(Molecule(list(zip(verts, _balanced(rng, k).tolist()))), g)


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


QUAD_PAIRS = 30
PLANES = ("l1", "l2", "linf")


def _quads_sha(quads) -> str:
    """One digest of the values, node and cap counts of a sequence of ``Quad``s."""
    h = hashlib.sha256()
    for q in quads:
        h.update(np.ascontiguousarray(q.value, dtype="<f8").tobytes())
        h.update(f"{q.nodes},{q.capped};".encode())
    return h.hexdigest()


def _panel(seed: int, plane: NormedPlane, in_plane: bool) -> list:
    """``standard_panel(seed)``, or with both fields of each form measured in ``plane``."""
    forms = standard_panel(seed)
    if not in_plane:
        return forms
    return Panel([(dataclasses.replace(form.f, plane=plane),
                   dataclasses.replace(form.pi, plane=plane)) for form in forms]).forms


def pair_digest(k: int) -> str:
    """The quads of every form of a panel on the fill of seeded pair k and on its
    three chains: the two curves and the remainder."""
    plane = NormedPlane(PLANES[k % len(PLANES)])
    rng = _rng(1000 + k)
    g0, g1 = (Polyline(rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), 2)), plane)
              for _ in range(2))
    fill = homotopy_fill(g0, g1, AffineBicombing(plane))
    chains = (g0.as_chain(plane), g1.as_chain(plane), fill.r_chain)
    forms = _panel(k, plane, k % 5 == 0)
    return _quads_sha([fill.boundary_quad(form) for form in forms]
                      + [action(c, form) for c in chains for form in forms])


def fragment_digest() -> str:
    """The quads of a panel on a polyline restricted to a ball and a box."""
    rng = _rng(2000)
    poly = Polyline(rng.uniform(-2, 2, size=(6, 2)))
    fc = restrict(poly, ClosedSet.of(Ball((0.0, 0.0), 1.2), Box((0.5, -2.0), (2.0, 0.0))))
    return _quads_sha([action(fc, form) for form in standard_panel(3)])


def quadrature_digests() -> dict:
    out = {f"pair_{k:02d}_{PLANES[k % len(PLANES)]}": pair_digest(k) for k in range(QUAD_PAIRS)}
    out["fragments"] = fragment_digest()
    return out


FLOWS = 120
FLOW_KINDS = ("filling", "normal", "integer")


def _flow(k: int) -> Chain1:
    """Seeded graph flow k, of kind ``FLOW_KINDS[k % 3]``: the chain of a minimal
    filling, or one piece per nonzero normal or integer edge weight."""
    g = _graph(3000 + k, 6 + 7 * k % 35)
    rng = _rng(4000 + k)
    kind = FLOW_KINDS[k % len(FLOW_KINDS)]
    if kind == "filling":
        verts = rng.choice(g.n, size=4, replace=False).tolist()
        mol = Molecule(list(zip(verts, _balanced(rng, 4).tolist())))
        return transport.minimal_filling(mol, g).chain
    w = (rng.normal(size=len(g.edges)) if kind == "normal"
         else rng.integers(-2, 3, size=len(g.edges)).astype(float))
    return Chain1.from_graph_edges(g, [(u, v, x) for (u, v, _), x in zip(g.edges, w)
                                       if x != 0.0])


def reassembled(d: Decomposition) -> np.ndarray:
    """The signed edge weights of a decomposition's paths and cycles together."""
    return edge_weights(route_chain(d.graph, d.paths + d.cycles))


def decomposition_digests() -> dict:
    """Per flow kind, one digest of every flow's decomposition and of its
    fragment representation in a seeded ball, box and half-plane."""
    out = {kind: hashlib.sha256() for kind in FLOW_KINDS}
    for k in range(FLOWS):
        h = out[FLOW_KINDS[k % len(FLOW_KINDS)]]
        d = decompose_flow(_flow(k))
        h.update(repr((d.paths, d.cycles)).encode())
        h.update(np.array([d.mass_defect, d.reassembly_error], dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(reassembled(d), dtype="<f8").tobytes())
        x, y, r, side, c = _rng(5000 + k).uniform(0.0, 10.0, size=5).tolist()
        e = ClosedSet.of(Ball((x, y), r / 2), Box((0.0, 0.0), (side, side)),
                         HalfPlane(1.0, y / 5 - 1, c))
        rep = fragment_representation(d, e)
        for w, chain in rep.fragments:
            for fr in chain.fragments:
                h.update(np.ascontiguousarray(fr.polyline.points, dtype="<f8").tobytes())
                h.update(np.array([w, fr.weight, *np.ravel(fr.domain)], dtype="<f8").tobytes())
        h.update(np.array([rep.mass_identity_residual, rep.restricted_mass],
                          dtype="<f8").tobytes())
    return {kind: h.hexdigest() for kind, h in out.items()}


def digests() -> dict:
    return {"networks": {name: flow_digest(make()) for name, make in NETWORKS.items()},
            "simplex": {name: simplex_digest(make()) for name, make in NETWORKS.items()},
            "graphs": {name: graph_digest(make()) for name, make in GRAPHS.items()},
            "quadrature": quadrature_digests(),
            "decomposition": decomposition_digests()}


def main() -> None:
    OUT.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
