"""The four benchmark workloads: seeded input generators, pipelines and checks.

Each workload has three parts:

* ``make(seed, i, **sizes)`` builds instance ``i`` of a run as plain
  Python/numpy data. The sizes come from the workload's fixed ``cycle``
  (instance i takes entry ``i % len(cycle)``) and a run is a whole number of
  cycles, so every run does the same mix of work; the seed draws the rest.
* ``run(inp, tr)`` takes one instance through its whole pipeline of public
  ``current1d`` calls, each wrapped in a tracer span (``tr.call``).
* ``check(inp, out)`` verifies the outputs the way the CLI subcommands do,
  outside the timed region. It returns ``(ok, worst_ratio)``, where the ratio
  is the worst measured error divided by its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from current1d import (AffineBicombing, Chain1, CubicalComplex, CurveMeasure,
                       FiniteMetricSpace, MetricGraph, Molecule, NormedPlane,
                       Polyline, ae_norm, approximate, evaluate, flat_norm,
                       homotopy_fill, minimal_filling, qc_constants, snap,
                       standard_panel)

PLANE = NormedPlane("l2")


def _rng(seed: int, wid: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, wid, i])


def _ratio(err: float, tol: float) -> float:
    return max(0.0, err) / tol


@dataclass(frozen=True)
class Workload:
    make: Callable[..., dict]
    run: Callable
    check: Callable
    cycle: tuple          # size keywords for make(), taken in turn
    cycle_s: float        # nominal seconds per cycle; sets the cycles in a run
    warmup: dict          # size keywords of the untimed warm-up instance
    tail_pct: int         # fixed tail percentile


# ---------------------------------------------------------------------------
# transport: graphs, shortest paths, min-cost flow (dense and sparse)


# n at the midpoints of 9 equal strata of [100, 400], k at those of [8, 160],
# paired by a fixed permutation that keeps k <= n. An odd cycle puts the
# median of two cycles on the two copies of one size pair, not between two.
TRANSPORT_CYCLE = tuple({"n": round(100 + 300 * (j + 0.5) / 9),
                         "k": round(8 + 152 * ((2 + 4 * j) % 9 + 0.5) / 9)}
                        for j in range(9))


def make_transport(seed: int, i: int, n: int, k: int) -> dict:
    rng = _rng(seed, 0, i)
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n)
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order[:-1].tolist(), order[1:].tolist())}
    for a, b in rng.integers(0, n, size=(n, 2)).tolist():
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    edges = []
    for a, b in sorted(pairs):
        d = float(np.hypot(*(pts[a] - pts[b])))
        if d > 0:
            edges.append((a, b, d))
    verts = rng.choice(n, size=k, replace=False)
    w = rng.normal(size=k)
    w[-1] -= w.sum()
    return {"points": pts.tolist(), "edges": edges,
            "atoms": [(int(p), float(x)) for p, x in zip(verts, w)]}


def run_transport(inp: dict, tr) -> dict:
    g = tr.call("spaces.MetricGraph", MetricGraph, inp["points"], inp["edges"],
                ambient="euclidean")
    fms = tr.call("spaces.FiniteMetricSpace", FiniteMetricSpace, range(g.n), g.path_dist)
    m = tr.call("currents.Molecule", Molecule, inp["atoms"])
    ae_amb = tr.call("transport.ae_norm", ae_norm, m, g.ambient_dist)
    ae_intr = tr.call("transport.ae_norm", ae_norm, m, fms.dist)
    fill = tr.call("transport.minimal_filling", minimal_filling, m, g)
    qc = tr.call("spaces.qc_constants", qc_constants, g)
    return {"g": g, "m": m, "ae_amb": ae_amb, "ae_intr": ae_intr, "fill": fill,
            "qc": qc.qc_space, "atoms": len(m.atoms)}


def _ae_certificate_ratio(res, m: Molecule, dist: np.ndarray) -> float:
    """ae-norm check: potential 1-Lipschitz on the atoms and pairing = value."""
    keys = [p for p, _ in m.atoms]
    pot = np.array([res.potential[p] for p in keys])
    sub = dist[np.ix_(keys, keys)]
    lip_err = float(np.max(np.abs(pot[:, None] - pot[None, :]) - sub))
    pairing = sum(w * res.potential[p] for p, w in m.atoms)
    pair_err = res.value - pairing
    return max(_ratio(lip_err, 1e-9), _ratio(pair_err, 1e-7 * max(1.0, res.value)))


def check_transport(inp: dict, out: dict) -> tuple[bool, float]:
    g, m = out["g"], out["m"]
    ratios = [_ae_certificate_ratio(out["ae_amb"], m, g.ambient_dist),
              _ae_certificate_ratio(out["ae_intr"], m, g.path_dist)]
    # filling: filling = ae(d_l) and boundary(chain) = molecule
    fill = out["fill"].mass_value
    ratios.append(_ratio(abs(fill - out["ae_intr"].value), 1e-7 * max(1.0, fill)))
    want = dict(m.atoms)
    got = dict(out["fill"].chain.boundary().atoms)
    bnd_err = max(abs(got.get(p, 0.0) - want.get(p, 0.0)) for p in set(want) | set(got))
    ratios.append(_ratio(bnd_err, 1e-9 * max(1.0, m.mass0())))
    # iso-check: qc^-1 ae(d) <= filling <= qc ae(d) and ae(d) <= filling
    amb, qc = out["ae_amb"].value, out["qc"]
    tol = 1e-7 * max(1.0, fill, amb)
    ratios += [_ratio(amb / qc - fill, tol), _ratio(fill - qc * amb, tol),
               _ratio(amb - fill, tol)]
    worst = max(ratios)
    return worst <= 1.0, worst


# ---------------------------------------------------------------------------
# homotopy: quadrature over the homotopy square and along chains


HOMOTOPY_CYCLE = tuple({"n0": a, "n1": b} for a in range(2, 6) for b in range(2, 6))


def make_homotopy(seed: int, i: int, n0: int, n1: int) -> dict:
    rng = _rng(seed, 1, i)
    return {"g0": rng.uniform(-2.0, 2.0, size=(n0, 2)).tolist(),
            "g1": rng.uniform(-2.0, 2.0, size=(n1, 2)).tolist(),
            "panel_seed": int(rng.integers(0, 2 ** 31))}


def run_homotopy(inp: dict, tr) -> dict:
    g0 = tr.call("currents.Polyline", Polyline, inp["g0"])
    g1 = tr.call("currents.Polyline", Polyline, inp["g1"])
    fill = tr.call("homotopy.homotopy_fill", homotopy_fill, g0, g1, AffineBicombing(PLANE))
    panel = tr.call("currents.standard_panel", standard_panel, inp["panel_seed"],
                    count=20, scale=2.0)
    c0 = tr.call("currents.Polyline.as_chain", g0.as_chain, PLANE)
    c1 = tr.call("currents.Polyline.as_chain", g1.as_chain, PLANE)
    residuals = []
    for form in panel:
        ds = tr.call("homotopy.boundary_eval", fill.boundary_eval, form)
        lhs = (tr.call("currents.evaluate", evaluate, c0, form, PLANE)
               - tr.call("currents.evaluate", evaluate, c1, form, PLANE))
        r = tr.call("currents.evaluate", evaluate, fill.r_chain, form, PLANE)
        residuals.append(abs(lhs - ds - r))
    return {"fill": fill, "panel": panel, "residuals": residuals}


def check_homotopy(inp: dict, out: dict) -> tuple[bool, float]:
    fill = out["fill"]
    ratios = [_ratio(res, 1e-6 * (1.0 + form.lip_pi * form.sup_f))
              for form, res in zip(out["panel"], out["residuals"])]
    ratios.append(_ratio(fill.measured_s - fill.cert_s, 1e-6))
    ratios.append(_ratio(fill.r_chain.mass() - fill.cert_r, 1e-9))
    worst = max(ratios)
    return worst <= 1.0, worst


# ---------------------------------------------------------------------------
# flatnorm: the dense simplex on cubical complexes


FLAT_CYCLE = tuple({"n": n, "kind": kind} for n in (8, 12, 16)
                   for kind in ("field", "staircase", "rectangle"))


def _staircase(rng, start, steps: int) -> list[list[float]]:
    pts = [list(start)]
    for _ in range(steps):
        x, y = pts[-1]
        pts.append([x + 1.0, y] if rng.integers(0, 2) else [x, y + 1.0])
    return pts


def make_flatnorm(seed: int, i: int, n: int, kind: str) -> dict:
    rng = _rng(seed, 2, i)
    inp = {"n": n, "kind": kind}
    if kind == "field":
        cx = CubicalComplex(nx=n, ny=n)
        s = rng.integers(-2, 3, size=cx.n_faces).astype(float)
        t = cx.d2_matrix() @ s
        noisy = rng.random(cx.n_edges) < 0.1
        t[noisy] += rng.choice([-1.0, 1.0], size=int(noisy.sum()))
        inp["t"] = t
    elif kind == "staircase":
        steps = n - 4
        inp["g0"] = _staircase(rng, (1.0, 1.0), steps)
        off = float(rng.integers(0, 3))
        inp["g1"] = [[x, y + off] for x, y in _staircase(rng, (1.0, 1.0), steps)]
    else:
        k = int(rng.integers(1, n - 1))
        x0 = float(rng.integers(1, n - k))
        y0 = float(rng.integers(1, n - 1))
        corners = [(x0, y0), (x0 + k, y0), (x0 + k, y0 + 1), (x0, y0 + 1)]
        if rng.integers(0, 2):
            corners = corners[::-1]
        inp["segments"] = [(corners[j], corners[(j + 1) % 4], 1.0) for j in range(4)]
        inp["expected"] = float(min(2 + 2 * k, k))
    return inp


def run_flatnorm(inp: dict, tr) -> dict:
    cx = tr.call("flatnorm.CubicalComplex", CubicalComplex, nx=inp["n"], ny=inp["n"])
    if inp["kind"] == "field":
        t = np.asarray(inp["t"])
    elif inp["kind"] == "staircase":
        c0 = tr.call("currents.Polyline", Polyline, inp["g0"]).as_chain(PLANE)
        c1 = tr.call("currents.Polyline", Polyline, inp["g1"]).as_chain(PLANE)
        t = tr.call("flatnorm.snap", snap, c0, cx) - tr.call("flatnorm.snap", snap, c1, cx)
    else:
        chain = tr.call("currents.Chain1", Chain1.from_segments, PLANE, inp["segments"])
        t = tr.call("flatnorm.snap", snap, chain, cx)
    res = tr.call("flatnorm.flat_norm", flat_norm, t, cx)
    return {"cx": cx, "t": t, "res": res}


def check_flatnorm(inp: dict, out: dict) -> tuple[bool, float]:
    cx, t, res = out["cx"], out["t"], out["res"]
    recon = float(np.max(np.abs(t - (res.r + cx.d2_matrix() @ res.s))))
    ratios = [_ratio(recon, 1e-8),
              _ratio(res.value - float(np.sum(np.abs(t)) * cx.h), 1e-8)]
    if "expected" in inp:
        ratios.append(_ratio(abs(res.value - inp["expected"]), 1e-8))
    worst = max(ratios)
    return worst <= 1.0, worst


# ---------------------------------------------------------------------------
# approx: curve clustering by many small uniform-distance evaluations


APPROX_CYCLE = ({"count": 80}, {"count": 160}, {"count": 320})
APPROX_EPS = 0.4
APPROX_MESH = 0.25
_FALLBACK_BASE = [[0.0, 0.0], [1.5, 0.7], [2.5, 0.2]]


def make_approx(seed: int, i: int, count: int) -> dict:
    rng = _rng(seed, 3, i)
    base = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2))
    if not 0.5 <= float(np.sum(np.hypot(*np.diff(base, axis=0).T))) <= 3.5:
        base = np.array(_FALLBACK_BASE)
    step = 5.0 * APPROX_EPS / count
    offsets = np.sort(step * np.arange(count) + rng.uniform(-0.1 * step, 0.1 * step, size=count))
    offsets -= offsets.min()
    weights = rng.uniform(0.5, 1.5, size=count)
    return {"base": base.tolist(), "offsets": offsets.tolist(), "weights": weights.tolist()}


def run_approx(inp: dict, tr) -> dict:
    base = np.asarray(inp["base"])
    cm = tr.call("approximation.CurveMeasure", lambda: CurveMeasure.of(
        [(w, Polyline(base + [0.0, off])) for w, off in zip(inp["weights"], inp["offsets"])]))
    certs = []
    for eps in (APPROX_EPS, APPROX_EPS / 2.0):
        _, cert = tr.call("approximation.approximate", approximate, cm, eps=eps,
                          mesh=APPROX_MESH, plane=PLANE)
        certs.append(cert)
    return {"certs": certs}


def check_approx(inp: dict, out: dict) -> tuple[bool, float]:
    worst = max(_ratio(c.mass_p - c.mass_n, 1e-9) for c in out["certs"])
    return worst <= 1.0, worst


WORKLOADS = {
    "transport": Workload(make_transport, run_transport, check_transport,
                          TRANSPORT_CYCLE, cycle_s=13.0, warmup={"n": 400, "k": 8},
                          tail_pct=50),
    "homotopy": Workload(make_homotopy, run_homotopy, check_homotopy,
                         HOMOTOPY_CYCLE, cycle_s=3.1, warmup={"n0": 5, "n1": 5},
                         tail_pct=90),
    "flatnorm": Workload(make_flatnorm, run_flatnorm, check_flatnorm,
                         FLAT_CYCLE, cycle_s=8.5, warmup={"n": 12, "kind": "field"},
                         tail_pct=60),
    "approx": Workload(make_approx, run_approx, check_approx,
                       APPROX_CYCLE, cycle_s=1.2, warmup={"count": 160}, tail_pct=80),
}
