"""Arens-Eells norms, minimal-mass fillings, and the isomorphism-theorem verifier.

The AE norm of a molecule equals the Wasserstein-1 cost between its positive
and negative parts (the molecule-representation infimum collapses to W1 over
a metric: any representation induces a feasible coupling and conversely), so
it is computed by ``network_simplex`` on the complete bipartite network over
the molecule's own atoms; relay routing through other space points cannot
improve by the triangle inequality.

The dual potential is recovered from the flow's node potentials on the
negative atoms and extended with the McShane formula
``u(x) = min_y (u(y) + d(x, y))``, which is 1-Lipschitz by construction.

A minimal filling on a graph is the path-metric coupling routed along shortest
paths, an optimal flow of Beckmann's problem (Santambrogio, *Optimal Transport
for Applied Mathematicians*, 2015, ch. 4); ``check_filling`` certifies it by
Beckmann's dual, without the flow engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .currents import Chain1, Molecule
from .decomposition import edge_weights, route_chain
from .spaces import MetricGraph, NormedPlane, qc_constants
from .solvers import FlowNetwork, Infeasible, check_flow, network_simplex
from .solvers import min_cost_flow  # noqa: F401 (bench/tracing.py wraps this name)

TOL = 1e-9
IDENT_TOL = 1e-7


class TransportError(ValueError):
    pass


@dataclass(frozen=True)
class AeResult:
    value: float
    coupling: tuple[tuple[object, object, float], ...] = ()
    potential: dict = field(default_factory=dict, repr=False)


def _distances(metric, keys: list, cols) -> np.ndarray:
    """d(keys[i], keys[cols][j]) as ``ae_norm`` takes ``metric`` and its keys;
    ``cols`` is a mask or index of ``keys``."""
    if isinstance(metric, np.ndarray):
        for p in keys:
            if not isinstance(p, (int, np.integer)) or not (0 <= p < len(metric)):
                raise TransportError(f"molecule atom {p!r} is not a point of the space")
        return metric[np.ix_(keys, np.array(keys, dtype=np.intp)[cols])].astype(float, copy=False)
    if isinstance(metric, NormedPlane):
        for p in keys:
            if not isinstance(p, tuple):
                raise TransportError(f"molecule atom {p!r} is not a point of the plane")
        pts = np.array(keys, dtype=float).reshape(-1, 2)  # (0, 2) for no atoms
        return metric.norm_arr(pts[cols] - pts[:, None])
    raise TransportError(f"unsupported metric object {type(metric)}")


def ae_norm(m: Molecule, metric) -> AeResult:
    """Arens-Eells norm of a molecule with an optimal coupling and a dual certificate.

    ``metric`` is a dense matrix (integer atom keys in [0, n)) or a
    NormedPlane (point keys); any other key is a TransportError. One block of
    distances, from every atom to the negative atoms (one ``norm_arr`` call in
    a plane), gives both the flow arcs and the potential. The potential is
    1-Lipschitz, pairs with the molecule to the value (Kantorovich duality),
    and is defined on the atom keys. The flow is certified by ``check_flow``.
    """
    pos = m.positive_part()
    neg = m.negative_part()
    if not pos and not neg:
        return AeResult(0.0, (), {})
    keys = [p for p, _ in m.atoms]
    block = _distances(metric, keys, [w < 0 for _, w in m.atoms])

    if not pos or not neg:  # one-signed, so zero within TOL by Molecule's test
        return AeResult(0.0, (), dict.fromkeys(keys, 0.0))
    np_ = len(pos)
    net = FlowNetwork.transportation(block[[w > 0 for _, w in m.atoms]],
                                     [w for _, w in pos], [w for _, w in neg])
    res = network_simplex(net)
    check_flow(net, res)

    # the arc floor, not TOL, which at weights near 1e-9 drops every routed flow
    used = np.flatnonzero(res.flows > net.floor)
    coupling = tuple((pos[i][0], neg[j - np_][0], f) for i, j, f in zip(
        net.tail[used].tolist(), net.head[used].tolist(), res.flows[used].tolist()))
    # McShane extension from the negative atoms: u(x) = min_q d(x, q) - pi(q)
    u = (block - res.potentials[np_:]).min(axis=1)
    pot = {x: float(v) for x, v in zip(keys, u - u[0])}
    return AeResult(float(res.total_cost), coupling, pot)


def check_ae(m: Molecule, metric, res: AeResult) -> dict[str, bool]:
    """The dual certificate's verdicts, named like the ``ae-norm`` report keys:
    ``lipschitz_ok``, the potential is 1-Lipschitz to 1e-9 on every pair of its
    keys with a finite distance and a finite potential at the first key, and
    ``duality_ok``, it pairs with m to at least the value, to 1e-7 * max(1, value)."""
    keys, pot = list(res.potential), np.array(list(res.potential.values()), dtype=float)
    dist = _distances(metric, keys, slice(None))
    checked = np.isfinite(dist) & np.isfinite(pot)[:, None]
    with np.errstate(invalid="ignore"):
        gap = np.abs(pot[:, None] - pot[None, :])
    pairing = m.pairing(res.potential.__getitem__)
    return {"lipschitz_ok": bool(np.all(gap[checked] <= dist[checked] + 1e-9)),
            "duality_ok": bool(pairing >= res.value - 1e-7 * max(1.0, res.value))}


@dataclass(frozen=True)
class FillingResult:
    chain: Chain1
    mass_value: float
    ae: AeResult = field(repr=False)  # the coupling routed into ``chain``

    def identity_ok(self, tol: float = IDENT_TOL) -> bool:  # mass = the coupling's cost
        return abs(self.mass_value - self.ae.value) <= tol * max(1.0, self.mass_value)


def minimal_filling(m: Molecule, g: MetricGraph) -> FillingResult:
    """Least-mass chain on graph edges with boundary m: each pair (p, q, f) of
    ``ae_norm(m, g.path_dist)``'s coupling routed from q to p on q's shortest-path
    tree (``MetricGraph.predecessors``), certified by ``check_filling``."""
    try:
        ae = ae_norm(m, g.path_dist)
    except Infeasible as exc:
        raise Infeasible(f"molecule not balanceable within components: {exc}") from exc
    trees = {q: g.predecessors(q).tolist() for q in {q for _, q, _ in ae.coupling}}
    routes = []
    for p, q, f in ae.coupling:
        verts = [p]
        while verts[-1] != q:
            verts.append(trees[q][verts[-1]])
        routes.append((f, verts[::-1]))
    weights = edge_weights(route_chain(g, routes)).tolist()
    chain = Chain1.from_graph_edges(g, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)
                                        if w != 0.0])
    fill = FillingResult(chain, chain.mass(), ae)
    check_filling(m, g, fill)
    return fill


def check_filling(m: Molecule, g: MetricGraph, fill: FillingResult) -> None:
    """Certify ``fill`` by Beckmann's dual, or raise TransportError: the chain's
    boundary is m to TOL * mass0(m), and U(v) = min over atoms a of
    pi(a) + d_l(v, a), the coupling potential pi extended by McShane, is
    1-Lipschitz on every edge and pairs with m to the chain's mass. Then every
    T with boundary m has mass(T) >= <dT, U> = <m, U>. A NaN fails each check."""
    keys, w = np.array([p for p, _ in m.atoms], dtype=np.intp), np.array([x for _, x in m.atoms])
    x, (tail, head) = edge_weights(fill.chain), g.arcs[0::2, :2].T.astype(np.intp)
    miss = np.bincount(np.r_[head, tail, keys], np.r_[x, -x, -w], g.n)  # boundary - m
    worst = float(np.max(np.abs(miss), initial=0.0))
    if not worst <= TOL * m.mass0():
        raise TransportError(f"filling boundary misses the molecule by {worst!r}")
    pi = np.array([fill.ae.potential[p] for p, _ in m.atoms])
    u = (g.path_dist[:, keys] + pi).min(axis=1, initial=math.inf)
    u[u == math.inf] = 0.0  # on a component with no atom, where the chain has no edge
    slack = float(np.max(np.abs(u[tail] - u[head]) - g.arcs[0::2, 2], initial=-math.inf))
    if not slack <= TOL * float(np.max(np.abs(u), initial=0.0)):
        raise TransportError(f"filling potential exceeds an edge length by {slack!r}")
    pairing, mass = float(w @ u[keys]), fill.chain.mass()
    if not abs(pairing - mass) <= TOL * max(mass, float(np.abs(w) @ np.abs(u[keys]))):
        raise TransportError(f"filling mass {mass!r} is not its dual pairing {pairing!r}")


@dataclass(frozen=True)
class IsoReport:
    ae_ambient: float
    ae_intrinsic: float
    filling_mass: float
    qc: float
    ratio: float
    lower_ok: bool
    upper_ok: bool
    ae_lower_ok: bool
    identity_ok: bool

    def all_ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.ae_lower_ok and self.identity_ok


def isomorphism_check(m: Molecule, g: MetricGraph, tol: float = IDENT_TOL) -> IsoReport:
    """Verify the quasiconvexity sandwich for a molecule on a connected graph.

    Checks qc^-1 * ae(d) <= filling <= qc * ae(d), the routed chain's mass against
    its coupling's cost ae(d_l), and the unconditional lower bound ae(d) <= filling
    (the boundary operator has norm one), each to ``tol * max(1, filling)``.
    """
    if np.any(np.isinf(g.path_dist)):
        raise TransportError("isomorphism check needs a connected graph")
    ae_amb = ae_norm(m, g.ambient_dist).value
    fill = minimal_filling(m, g)
    filling, ae_intr = fill.mass_value, fill.ae.value
    qc = qc_constants(g).qc_space
    scale = max(1.0, filling)
    lower_ok = (ae_amb / qc) <= filling + tol * scale
    upper_ok = filling <= qc * ae_amb + tol * scale
    ae_lower_ok = ae_amb <= filling + tol * scale
    ratio = filling / ae_amb if ae_amb > 0 else (1.0 if filling == 0 else math.inf)
    return IsoReport(ae_ambient=ae_amb, ae_intrinsic=ae_intr, filling_mass=filling,
                     qc=qc, ratio=ratio, lower_ok=lower_ok, upper_ok=upper_ok,
                     ae_lower_ok=ae_lower_ok, identity_ok=fill.identity_ok(tol))
