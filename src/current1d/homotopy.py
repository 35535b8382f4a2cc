"""Homotopies of the affine bicombing, conical in every normed plane: certified
fillings of curve pairs, the affine-homotopy current of chain pushforwards,
and piecewise-geodesic interpolation.

The 2-dimensional filling S is never materialized as data. It exists as a weak
evaluator, since it is only ever needed through its boundary action and its
mass bounds: a test 2-form dpi1 ^ dpi2 pulls back to J(H) det DH, with
J = grad pi1 x grad pi2, integrated over the cells of the homotopy square, one
box each of a ``quadrature.integrate`` pass whose geometry is H and det DH.
The first form of a panel integrates every row of its ``currents.Panel`` in
that pass, and the fill keeps that panel's quads in one slot, so the other
forms of the panel read their row and run no quadrature. A fill runs no
quadrature until a boundary is evaluated; a fill and three chains make one
pass each for ``check_fill``. The contractual quantities are the
certificates certS = (l0 + l1) d_inf and
certR = d(starts) + d(ends); the mass of S, the integral of |det DH|, is
exact, since det DH is piecewise polynomial on each cell.

``affine_homotopy_current`` is the package's one implementation of the
homotopy formula phi_# T - psi_# T = dH(T) + H(dT) for affine maps, and
``structure`` takes its rescaling and translation certificates from it. H(dT)
is an exact chain of connector segments. The mass bound on H(T) uses the
trapezoid rule on |phi - psi|, which is convex along each piece, so the bound
holds without a quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .currents import (AffineMap, Chain1, CurrentError, Panel, Polyline, TestForm,
                       action, d_inf, panel_row)
from .quadrature import NODES, QUAD_TOL, WEIGHTS, Quad, integrate
from .spaces import NormedPlane


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


# ---------------------------------------------------------------------------
# the affine bicombing


@dataclass(frozen=True)
class AffineBicombing:
    """sigma(x, y, t) = (1-t) x + t y on a normed plane; conical exactly."""

    plane: NormedPlane

    def point(self, x, y, t: float):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (1.0 - t) * x + t * y

    def dist(self, p, q) -> float:
        return self.plane.dist(p, q)


def conical_defect(bic: AffineBicombing, seed: int = 0, n_samples: int = 1000) -> float:
    """Max sampled violation of d(s_xy(t), s_x'y'(t)) <= (1-t)d(x,x') + t d(y,y')
    at t = 0, 1/8, ..., 1, with x, y, x', y' drawn from [-2, 2]^2."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = 0.0
    ts = np.linspace(0.0, 1.0, 9)
    for _ in range(n_samples):
        x, y, x2, y2 = rng.uniform(-2.0, 2.0, size=(4, 2))
        for t in ts:
            lhs = bic.dist(bic.point(x, y, t), bic.point(x2, y2, t))
            rhs = (1 - t) * bic.dist(x, x2) + t * bic.dist(y, y2)
            worst = max(worst, lhs - rhs)
    return float(worst)


# ---------------------------------------------------------------------------
# homotopy fill of a curve pair


def _poly_derivs(poly: Polyline) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and per-interval parameter derivatives of a constant-speed polyline."""
    if poly.length == 0.0 or len(poly.points) < 2:
        return np.array([0.0, 1.0]), np.zeros((1, 2))
    br = poly.breaks()
    keep = np.concatenate([[True], np.diff(br) > 0])
    br = br[keep]
    pts = poly.points[keep]
    d = np.diff(pts, axis=0) / np.diff(br)[:, None]
    return br, d


def _deriv_in_cells(br: np.ndarray, d: np.ndarray, mid: np.ndarray) -> np.ndarray:
    """Constant parameter derivative on each cell, given cell midpoints strictly
    inside one interval of the breakpoints."""
    idx = np.clip(np.searchsorted(br, mid, side="right") - 1, 0, len(d) - 1)
    return d[idx]


def _abs_det_mass(g0: Polyline, g1: Polyline, sa: np.ndarray, sb: np.ndarray,
                  v0: np.ndarray, v1: np.ndarray) -> float:
    """Integral of |det(d1H, d2H)| over the cells [sa, sb] x [0, 1], exactly.

    On a cell d1H = (1-t) v0 + t v1 and d2H = g1(s) - g0(s), so det is
    alpha(s) + beta t with alpha affine in s and beta constant. Its t-integral
    is |alpha + beta/2| where alpha and alpha + beta share a sign and
    (alpha^2 + (alpha + beta)^2) / (2 |beta|) where they do not: a polynomial
    of degree <= 2 in s between the roots of alpha and alpha + beta, where the
    cells are split, so the 5-point Gauss-Legendre rule is exact on each piece.
    """
    da = g1.at(sa) - g0.at(sa)
    # in units of 2^k outside [2^-128, 2^128], where products of four entries
    # would overflow or lose bits; the area scales back by 4^k exactly
    top = max(float(np.max(np.abs(a), initial=0.0)) for a in (da, v0, v1))
    k = 0 if 2.0 ** -128 <= top <= 2.0 ** 128 else math.frexp(top)[1]
    if k:
        da, v0, v1 = (np.ldexp(a, -k) for a in (da, v0, v1))
    alpha_a, beta, slope = _cross(v0, da), _cross(v1 - v0, da), _cross(v0, v1)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = sa[:, None] - np.stack([alpha_a, alpha_a + beta], axis=1) / slope[:, None]
    roots = np.where(np.isfinite(roots), np.clip(roots, sa[:, None], sb[:, None]), sa[:, None])
    cuts = np.sort(np.column_stack([sa, sb, roots]), axis=1)
    width = np.diff(cuts, axis=1)
    ds = cuts[:, :-1, None] + width[..., None] * NODES - sa[:, None, None]
    alpha = alpha_a[:, None, None] + slope[:, None, None] * ds
    beta = beta[:, None, None]
    end = alpha + beta
    straddle = alpha * end < 0
    g = np.where(straddle,
                 (alpha ** 2 + end ** 2) / (2.0 * np.where(straddle, np.abs(beta), 1.0)),
                 np.abs(alpha + 0.5 * beta))
    return math.ldexp(float(np.sum(width * (g @ WEIGHTS))), 2 * k)


@dataclass(frozen=True)
class FillResult:
    s_evaluator: Callable = field(repr=False)
    r_chain: Chain1
    cert_s: float
    cert_r: float
    measured_s: float
    measured_r: float
    d_inf: float
    _quads: Optional[tuple] = field(init=False, repr=False, compare=False, default=None)

    def boundary_quad(self, form: TestForm) -> Quad:
        """dS(f, pi) per cell of the homotopy square, with the quadrature counts.
        The first form of a panel integrates the whole panel in one pass, and
        the fill keeps those quads for that panel (``panel_row``)."""
        return panel_row(self, form, self.s_evaluator)

    def boundary_eval(self, form: TestForm) -> float:
        """dS(f, pi) = S(1, f, pi)."""
        return float(self.boundary_quad(form).value.sum())


def homotopy_fill(g0, g1, bic: AffineBicombing, quad_tol: float = QUAD_TOL) -> FillResult:
    """Fill the difference of two curves: [g0] - [g1] = dS + R.

    S = H_*(e1^e2 [0,1]^2) for the linear homotopy H(s,t) between the
    constant-speed curves, exposed as a weak evaluator; R is the chain of the
    two endpoint segments.

    The evaluator integrates over the cells of the square between the merged
    breakpoints, one box each of a single ``integrate`` call, to ``quad_tol``
    over the whole square. ``measured_s``, the mass of S, is exact. A pair
    whose certificate ``cert_s`` is not finite is a CurrentError.
    """
    plane = bic.plane
    if not isinstance(g0, Polyline) or not isinstance(g1, Polyline):
        raise CurrentError("affine homotopy fill expects polylines")
    dinf = d_inf(g0, g1, plane)
    # both lengths in the plane the bound is checked in
    len0, len1 = (g.length if g.plane == plane else Polyline(g.points, plane).length
                  for g in (g0, g1))
    cert_s = (len0 + len1) * dinf
    if not math.isfinite(cert_s):  # before any quadrature, which would overflow
        raise CurrentError(f"homotopy certificate is not finite: cert_s = {cert_s!r}")
    cert_r = plane.dist(g0.start(), g1.start()) + plane.dist(g0.end(), g1.end())
    r_segs = [(a, b, w) for a, b, w in ((g0.start(), g1.start(), 1.0),
                                        (g0.end(), g1.end(), -1.0)) if a != b]
    r = Chain1.from_segments(plane, r_segs)

    br0, d0 = _poly_derivs(g0)
    br1, d1 = _poly_derivs(g1)
    cells = np.union1d(br0, br1)
    keep = np.diff(cells) > 1e-14
    sa, sb = cells[:-1][keep], cells[1:][keep]
    mid = 0.5 * (sa + sb)
    v0 = _deriv_in_cells(br0, d0, mid)
    v1 = _deriv_in_cells(br1, d1, mid)

    def geometry(x: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H and det DH = d1H x d2H at the nodes x = (s, t)."""
        s, t = x[:, 0], x[:, 1, None]
        p0, p1 = g0.at(s), g1.at(s)
        h = (1 - t) * p0 + t * p1
        d1h = (1 - t) * v0[owner] + t * v1[owner]
        return h, _cross(d1h, p1 - p0)

    def s_evaluator(panel: Panel) -> Quad:
        """S(1, f, pi) per cell for every form (f, pi) of the panel: by
        Binet-Cauchy, df ^ dpi on (d1H, d2H) is (grad f x grad pi)(d1H x d2H)."""
        return integrate(lambda g, r: _cross(panel.f.grad(g[0], r), panel.pi.grad(g[0], r)) * g[1],
                         np.stack([sa, np.zeros_like(sa)], axis=1),
                         np.stack([sb - sa, np.ones_like(sa)], axis=1), quad_tol,
                         np.arange(len(panel.forms)), geometry)

    measured = _abs_det_mass(g0, g1, sa, sb, v0, v1)
    return FillResult(s_evaluator=s_evaluator, r_chain=r, cert_s=cert_s,
                      cert_r=cert_r, measured_s=measured, measured_r=r.mass(),
                      d_inf=dinf)


class FillCheck(NamedTuple):
    worst_residual: float
    worst_ratio: float  # of a residual to its allowance
    capped: int  # boxes where a quadrature stopped at the cap
    ok: bool


def check_fill(g0: Polyline, g1: Polyline, fill: FillResult,
               panel: Sequence[TestForm], plane: NormedPlane) -> FillCheck:
    """The homotopy lemma [g0] - [g1] = dS + R on a panel of test forms: each residual
    within 1e-6 (1 + lip(pi) sup|f|), mass(S) <= certS + 1e-6, mass(R) <= certR + 1e-9."""
    worst = worst_ratio = 0.0
    capped = 0
    ok = fill.measured_s <= fill.cert_s + 1e-6
    ok &= fill.r_chain.mass() <= fill.cert_r + 1e-9
    c0, c1 = g0.as_chain(plane), g1.as_chain(plane)
    for form in panel:
        allowed = 1e-6 * (1.0 + form.lip_pi * form.sup_f)
        quads = (action(c0, form), action(c1, form), fill.boundary_quad(form),
                 action(fill.r_chain, form))
        a0, a1, ds, ar = (float(q.value.sum()) for q in quads)
        resid = abs((a0 - a1) - (ds + ar))
        worst = max(worst, resid)
        worst_ratio = max(worst_ratio, resid / allowed)
        capped += sum(q.capped for q in quads)
        ok &= resid <= allowed
    return FillCheck(worst, worst_ratio, capped, bool(ok))


# ---------------------------------------------------------------------------
# affine homotopy current H_h(T) for chain pushforwards (k = 1)


@dataclass(frozen=True)
class HomotopyCurrentResult:
    connectors: Chain1  # H(dT), exactly
    cert_mass: float  # bound on the mass of H(T)
    flat_bound: float  # cert_mass + mass(connectors), a flat-norm bound on phi_# T - psi_# T


def affine_homotopy_current(t_chain: Chain1, phi: AffineMap, psi: AffineMap
                            ) -> HomotopyCurrentResult:
    """The homotopy current of h(t, x) = t phi(x) + (1-t) psi(x) on a planar chain T.

    phi_# T - psi_# T = dH(T) + H(dT). The 1-current H(dT) is the exact chain
    sum_j w_j [psi(x_j) -> phi(x_j)] over the atoms w_j x_j of dT, returned as
    ``connectors``. The mass of the 2-current H(T) is at most
    2 max(Lip phi, Lip psi) int |phi - psi| d|T| (the Lipschitz constant of an
    affine map is its operator norm); ``cert_mass`` bounds the integral on each
    piece by the trapezoid rule, L (|delta(a)| + |delta(b)|) / 2 with
    delta = phi - psi. The trapezoid is an upper bound, not an estimate, since
    |delta| is convex along a segment; it is exact where |delta| is affine
    along each piece, as for translations. ``flat_bound`` adds the mass of the
    connectors.
    """
    if not isinstance(phi, AffineMap) or not isinstance(psi, AffineMap):
        raise CurrentError("homotopy current needs affine maps")
    plane = t_chain.plane
    dm, db = phi.displacement(psi)
    maxop = max(phi.op_norm(plane), psi.op_norm(plane))
    ends = np.array([(t_chain.coords_of(p.start), t_chain.coords_of(p.end))
                     for p in t_chain.pieces], dtype=float).reshape(-1, 2, 2)
    weights = np.array([p.weight for p in t_chain.pieces], dtype=float)
    lengths = np.array([p.length for p in t_chain.pieces], dtype=float)
    delta = plane.norm_arr(ends @ dm.T + db)
    cert = 2.0 * maxop * float(np.sum(np.abs(weights) * lengths * delta.mean(axis=1)))

    atoms = [(t_chain.coords_of(p), w) for p, w in t_chain.boundary().atoms]
    connectors = Chain1.from_segments(plane, [(psi.apply_pt(x), phi.apply_pt(x), w)
                                              for x, w in atoms])
    return HomotopyCurrentResult(connectors=connectors, cert_mass=cert,
                                 flat_bound=cert + connectors.mass())


# ---------------------------------------------------------------------------
# piecewise-geodesic interpolation (chords of a partition)


@dataclass(frozen=True)
class InterpolationResult:
    chain: Chain1
    chord_polyline: Polyline
    d_inf: float


def interpolate_geodesic(poly: Polyline, partition: Sequence[float],
                         plane: Optional[NormedPlane] = None) -> InterpolationResult:
    """Chord chain through the nodes gamma(t_j): one chord of weight 1 per
    cell [t_{j-1}, t_j] whose ends differ, its length in the plane's norm, so
    the total never exceeds the length of gamma in that norm.

    ``chord_polyline`` is the polyline through the nodes, with its own
    constant-speed parametrization. ``d_inf`` is measured instead against the
    partition-aligned parametrization of the chords (each cell maps affinely
    onto its chord), exact on the merged breakpoints, so it is in general not
    ``d_inf(poly, chord_polyline)``. ``approximation.approximate`` builds the
    same nodes and chains for all its representatives at once and certifies
    them with the distance to ``chord_polyline``.
    """
    plane = plane or NormedPlane("l2")
    part = np.asarray(sorted(partition), dtype=float)
    if part[0] != 0.0 or part[-1] != 1.0 or np.any(np.diff(part) <= 0):
        raise CurrentError("partition must be strictly increasing from 0 to 1")
    nodes = poly.at(part)
    segs = [(nodes[i], nodes[i + 1], 1.0) for i in range(len(part) - 1)
            if not np.array_equal(nodes[i], nodes[i + 1])]
    chain = Chain1.from_segments(plane, segs)

    ts = np.union1d(poly.breaks(), part)
    idx = np.clip(np.searchsorted(part, ts, side="right") - 1, 0, len(part) - 2)
    t0 = part[idx]
    t1 = part[idx + 1]
    lam = (ts - t0) / (t1 - t0)
    chord_pts = nodes[idx] + lam[:, None] * (nodes[idx + 1] - nodes[idx])
    dinf = float(np.max(plane.norm_arr(poly.at(ts) - chord_pts)))
    return InterpolationResult(chain=chain, chord_polyline=Polyline(nodes), d_inf=dinf)
