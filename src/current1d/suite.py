"""Acceptance battery: one check per criterion, shared by the CLI `suite`
subcommand and the pytest acceptance module.

Each criterion is seeded and deterministic; the details dict records the
measured extremes so reports carry evidence, not just verdicts. A criterion
returns ``(ok, details)``; ``_criterion`` times it, applies its wall-clock
limit and builds its ``CriterionResult``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .approximation import CurveMeasure, approximate, measure_as_chain
from .currents import (Ball, Box, Chain1, ClosedSet, HalfPlane, Molecule,
                       Polyline, fat_cantor_intervals, standard_panel)
from .decomposition import (TOL as DECOMPOSITION_TOL, boundary_marginals, decompose_flow,
                            fragment_representation)
from .flatnorm import CubicalComplex, complex_covering, flat_norm, snap
from .homotopy import AffineBicombing, check_fill, homotopy_fill
from .rickman import rug_grid
from .spaces import MetricGraph, NormedPlane
from .structure import Line, fat_cantor_chain, normalize
from .solvers import FlowNetwork, min_cost_flow, network_simplex, simplex_lp
from .transport import isomorphism_check, minimal_filling


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} ({self.seconds:.2f}s)"


def _criterion(index: int, name: str, limit_s: float = math.inf):
    """Run a check returning ``(ok, details)`` as criterion ``index``: time it,
    fail it when it takes ``limit_s`` seconds or more, and build the result."""
    def wrap(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            ok, details = check()
            secs = time.perf_counter() - t0
            return CriterionResult(index, name, bool(ok) and secs < limit_s, secs, details)
        return run
    return wrap


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _random_connected_graph(rng, max_n: int = 30) -> MetricGraph:
    n = int(rng.integers(5, max_n + 1))
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n)
    edges = []
    seen = set()
    for i in range(1, n):
        u, v = int(order[i - 1]), int(order[i])
        seen.add((min(u, v), max(u, v)))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = map(int, rng.integers(0, n, size=2))
        if u != v:
            seen.add((min(u, v), max(u, v)))
    for u, v in sorted(seen):
        d = float(np.hypot(*(pts[u] - pts[v])))
        if d > 0:
            edges.append((u, v, d))
    return MetricGraph(pts.tolist(), edges, ambient="euclidean")


def _random_molecule(rng, n: int) -> Molecule:
    k = int(rng.integers(2, min(7, n + 1)))
    verts = rng.choice(n, size=k, replace=False)
    weights = rng.normal(size=k)
    weights[-1] -= weights.sum()
    return Molecule([(int(v), float(w)) for v, w in zip(verts, weights)])


# ---------------------------------------------------------------------------


@_criterion(1, "isomorphism sandwich on 50 random graphs", limit_s=10.0)
def criterion_1_isomorphism_sandwich():
    """qc^-1 ae(d) <= filling <= qc ae(d), ae(d) <= filling and filling = ae(d_l),
    50 seeded graphs."""
    rng = _rng(101)
    worst_gap = 0.0
    ok = True
    for _ in range(50):
        g = _random_connected_graph(rng)
        rep = isomorphism_check(_random_molecule(rng, g.n), g)
        ok &= rep.all_ok()
        gap = abs(rep.filling_mass - rep.ae_intrinsic) / max(1.0, rep.filling_mass)
        worst_gap = max(worst_gap, gap)
    return ok, {"worst_identity_gap": worst_gap}


@_criterion(2, "optimal-constant witness (V-detour family)")
def criterion_2_optimal_constant_witness():
    """V-detour family: filling / ae ratio equals the detour factor exactly."""
    ok = True
    ratios = {}
    for factor in (1.5, 2.0, 4.0):
        half = factor / 2.0
        h = math.sqrt(half * half - 0.25)
        g = MetricGraph([[0.0, 0.0], [1.0, 0.0], [0.5, h]],
                        [(0, 2, half), (2, 1, half)], ambient="euclidean")
        rep = isomorphism_check(Molecule([(1, 1.0), (0, -1.0)]), g)
        ratios[str(factor)] = rep.ratio
        ok &= abs(rep.ratio - factor) <= 1e-9
        ok &= abs(rep.qc - factor) <= 1e-9
    return ok, {"ratios": ratios}


@_criterion(3, "Rickman rug lower bound 2.0 at 32 offsets", limit_s=5.0)
def criterion_3_rickman():
    """Rug regression: intrinsic AE bound = 2 at every s while mass = 2."""
    rows = rug_grid(s_count=32, n=32, alpha=0.5)
    ok = all(r.lower_bound_ok and abs(r.mass - 2.0) <= 1e-12 for r in rows)
    return ok, {"worst_deviation": max(abs(r.ae_intrinsic - 2.0) for r in rows)}


def _random_polyline(rng, scale: float = 2.0) -> Polyline:
    n = int(rng.integers(2, 6))
    return Polyline(rng.uniform(-scale, scale, size=(n, 2)))


def _staircase(rng) -> Polyline:
    pts = [np.zeros(2)]
    for k in range(4):
        step = np.array([1.0, 0.0]) if k % 2 == 0 else np.array([0.0, 1.0])
        if rng.integers(0, 2) == 1 and k > 0:
            step = step[::-1].copy()
        pts.append(pts[-1] + step)
    return Polyline(np.array(pts))


@_criterion(4, "homotopy lemma on 100 fuzzed pairs", limit_s=30.0)
def criterion_4_homotopy_lemma():
    """Fuzzed homotopy fills: residuals, certificate soundness, LP cross-check."""
    rng = _rng(404)
    plane = NormedPlane("l2")
    bic = AffineBicombing(plane)
    panel = standard_panel(404, count=20, scale=2.0)
    ok = True
    worst_resid = 0.0
    capped = 0
    for _ in range(100):
        g0 = _random_polyline(rng)
        g1 = _random_polyline(rng)
        chk = check_fill(g0, g1, homotopy_fill(g0, g1, bic), panel, plane)
        capped += chk.capped
        worst_resid = max(worst_resid, chk.worst_ratio)
        ok &= chk.ok
    # grid-snapped pairs: LP flat norm of the difference <= certS + certR
    worst_lp_margin = -math.inf
    for _ in range(10):
        g0 = _staircase(rng)
        g1 = _staircase(rng).translate((0.0, float(rng.integers(0, 3))))
        fill = homotopy_fill(g0, g1, bic)
        cx = complex_covering([g0, g1])
        diff = snap(g0.as_chain(plane), cx) - snap(g1.as_chain(plane), cx)
        lp = flat_norm(diff, cx)
        margin = lp.value - (fill.cert_s + fill.cert_r)
        worst_lp_margin = max(worst_lp_margin, margin)
        ok &= margin <= 1e-6
    return ok, {"worst_residual_ratio": worst_resid, "worst_lp_margin": worst_lp_margin,
                "capped_subcells": capped}


def _translate_family(rng, base: Polyline, count: int, span: float,
                      weights_one: bool = False, integer_offsets: bool = False):
    """Vertical translates with evenly spread offsets (sorted input order)."""
    if integer_offsets:
        offsets = np.arange(count, dtype=float)
    else:
        step = span / count
        offsets = np.sort(step * np.arange(count)
                          + rng.uniform(-0.1 * step, 0.1 * step, size=count))
        offsets -= offsets.min()
    entries = []
    for off in offsets:
        w = 1.0 if weights_one else float(rng.uniform(0.5, 1.5))
        entries.append((w, base.translate((0.0, float(off)))))
    return CurveMeasure.of(entries)


@_criterion(5, "geodesic approximation of 20 curve measures")
def criterion_5_geodesic_approximation():
    """Mass non-increase, LP-checked certificates, and eps-halving behavior."""
    rng = _rng(505)
    plane = NormedPlane("l2")
    ok = True
    details: dict = {"halving_ratios": [], "lp_margins": []}
    for case in range(20):
        grid_case = case >= 15
        if grid_case:
            base = Polyline([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]])  # unit steps
            cm = _translate_family(rng, base, count=25, span=24.0,
                                   weights_one=True, integer_offsets=True)
            eps, mesh = 8.0, 0.25  # chord nodes hit the staircase corners
        else:
            base = _random_polyline(rng, scale=1.0)
            if base.length > 3.5 or base.length < 0.5:
                base = Polyline([[0, 0], [1.5, 0.7], [2.5, 0.2]])
            eps = 0.4
            mesh = 0.25
            cm = _translate_family(rng, base, count=80, span=5.0 * eps)
        ok &= cm.length_bound <= 4.0 + 1e-12
        p, cert = approximate(cm, eps=eps, mesh=mesh, plane=plane)
        ok &= cert.mass_ok
        _, cert_half = approximate(cm, eps=eps / 2.0, mesh=mesh, plane=plane)
        if cert.clustering_term > 0:
            ratio = cert_half.clustering_term / cert.clustering_term
            details["halving_ratios"].append(ratio)
            ok &= 0.4 <= ratio <= 0.6
        if grid_case:
            n_chain = measure_as_chain(cm, plane)
            cx = complex_covering([poly for _, poly in cm.entries] + [base])
            diff = snap(n_chain, cx) - snap(p, cx)
            lp = flat_norm(diff, cx)
            margin = lp.value - cert.flat_bound
            details["lp_margins"].append(margin)
            ok &= margin <= 1e-6
    return ok, details


@_criterion(6, "hyperplane normalization of fat-Cantor chains", limit_s=5.0)
def criterion_6_hyperplane_normalization():
    """Fat-Cantor chains: exact boundary kill, mass ratio, restriction identity."""
    line = Line(0.0, 1.0, 0.0)
    ok = True
    masses = []
    for k in range(0, 7):
        t = fat_cantor_chain(k)
        expected = 0.5 + 2.0 ** (-(k + 1))
        masses.append(t.mass())
        ok &= t.mass() == expected
        ok &= normalize(t, line, eps=0.1).ok
    return ok, {"masses": masses}


@_criterion(7, "decomposition and fragment identities")
def criterion_7_decomposition():
    """Reassembly, mass additivity, marginals on 50 flows; fragment identity on 20 sets."""
    rng = _rng(707)
    ok = True
    worst = 0.0
    flows = []
    for _ in range(50):
        g = _random_connected_graph(rng, max_n=15)
        m = _random_molecule(rng, g.n)
        fill = minimal_filling(m, g)
        d = decompose_flow(fill.chain)
        worst = max(worst, d.reassembly_error)
        ok &= d.ok
        starts, ends = boundary_marginals(d)
        neg = {p: w for p, w in m.atoms if w < 0}
        pos = {p: w for p, w in m.atoms if w > 0}
        for p, w in starts.atoms:
            ok &= abs(w - (-neg.get(p, 0.0))) <= DECOMPOSITION_TOL
        for p, w in ends.atoms:
            ok &= abs(w - pos.get(p, 0.0)) <= DECOMPOSITION_TOL
        flows.append(d)
    # fragment identity on 20 closed sets (incl. fat-Cantor boxes)
    worst_frag = 0.0
    for i in range(20):
        d = flows[i % len(flows)]
        if i % 4 == 0:
            ivs = fat_cantor_intervals(2 + (i // 4) % 3)
            prims = tuple(Box((a * 10.0, -10.0), (b * 10.0, 10.0)) for a, b in ivs)
            e = ClosedSet(prims)
        elif i % 4 == 1:
            cx, cy = rng.uniform(0, 10, size=2)
            e = ClosedSet.of(Ball((float(cx), float(cy)), float(rng.uniform(2, 6))))
        elif i % 4 == 2:
            e = ClosedSet.of(HalfPlane(1.0, float(rng.uniform(-1, 1)),
                                       float(rng.uniform(2, 8))))
        else:
            e = ClosedSet.of(Box((0.0, 0.0), (float(rng.uniform(3, 9)),) * 2),
                             Ball((8.0, 8.0), 2.0))
        rep = fragment_representation(d, e)
        worst_frag = max(worst_frag, rep.mass_identity_residual)
        ok &= rep.ok
    return ok, {"worst_reassembly": worst, "worst_fragment_residual": worst_frag}


@_criterion(8, "solver cross-validation on 100 instances")
def criterion_8_solver_cross_validation():
    """Both flow engines vs the dense simplex on 100 transportation instances;
    dual feasibility. ``worst_gap`` is the worst over both engines."""
    rng = _rng(808)
    ok = True
    worst = 0.0
    for _ in range(100):
        ns = int(rng.integers(2, 11))
        nd = int(rng.integers(2, 11))
        cost = rng.uniform(0.1, 5.0, size=(ns, nd))
        sup = rng.uniform(0.1, 2.0, size=ns)
        dem = rng.uniform(0.1, 2.0, size=nd)
        dem *= sup.sum() / dem.sum()
        net = FlowNetwork.transportation(cost, sup, dem)
        c, a, b = net.program()
        lres = simplex_lp(c, a, b)
        scale = max(1.0, abs(lres.optimum))
        dual_gap = abs(lres.optimum - float(b @ lres.y)) / scale
        worst = max(worst, dual_gap)
        ok &= dual_gap <= 1e-7
        for fres in (min_cost_flow(net), network_simplex(net)):
            gap = abs(fres.total_cost - lres.optimum) / scale
            worst = max(worst, gap)
            ok &= gap <= 1e-7
            pi = fres.potentials
            ok &= bool(np.all(c + pi[net.tail] - pi[net.head] >= -1e-9))
        ok &= float((c - a.T @ lres.y).min()) >= -1e-7
    return ok, {"worst_gap": worst}


@_criterion(9, "flat-norm LP closed forms")
def criterion_9_flatnorm_closed_forms():
    """Unit square -> 1; 1 x k rectangles -> min(2 + 2k, k)."""
    plane = NormedPlane("l2")
    ok = True
    values = {}
    cx = CubicalComplex(origin=(0.0, 0.0), h=1.0, nx=3, ny=3)
    sq = Chain1.from_segments(plane, [((1, 1), (2, 1), 1.0), ((2, 1), (2, 2), 1.0),
                                      ((2, 2), (1, 2), 1.0), ((1, 2), (1, 1), 1.0)])
    v = flat_norm(snap(sq, cx), cx).value
    values["square"] = v
    ok &= abs(v - 1.0) <= 1e-8
    for k in range(1, 9):
        cxk = CubicalComplex(origin=(0.0, 0.0), h=1.0, nx=k + 2, ny=3)
        rect = Chain1.from_segments(plane, [
            ((1, 1), (1 + k, 1), 1.0), ((1 + k, 1), (1 + k, 2), 1.0),
            ((1 + k, 2), (1, 2), 1.0), ((1, 2), (1, 1), 1.0)])
        v = flat_norm(snap(rect, cxk), cxk).value
        values[f"rect_1x{k}"] = v
        ok &= abs(v - min(2 + 2 * k, k)) <= 1e-8
    return ok, {"values": values}


ALL_CRITERIA = [
    criterion_1_isomorphism_sandwich,
    criterion_2_optimal_constant_witness,
    criterion_3_rickman,
    criterion_4_homotopy_lemma,
    criterion_5_geodesic_approximation,
    criterion_6_hyperplane_normalization,
    criterion_7_decomposition,
    criterion_8_solver_cross_validation,
    criterion_9_flatnorm_closed_forms,
]


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
