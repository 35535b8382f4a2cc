import dataclasses
import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

from current1d import (AffineBicombing, AffineMap, Ball, Chain1, ClosedSet,
                       CurrentError, GraphBicombing, MetricGraph, NormedPlane,
                       Polyline, affine_homotopy_current, conical_defect,
                       d_inf, flat_norm, homotopy_fill, interpolate_geodesic,
                       restrict, snap, standard_panel)
from current1d import TestForm as Form
from current1d import currents, homotopy, quadrature
from current1d.currents import Panel, _pieces, action
from current1d.flatnorm import complex_covering
from current1d.homotopy import check_fill
from current1d.quadrature import CHUNK_NODES, QUAD_TOL, Quad, integrate

PL = NormedPlane("l2")
BIC = AffineBicombing(PL)


class TestHomotopyFill:
    def test_equal_curves(self):
        g = Polyline([[0, 0], [1, 0], [1, 1]])
        fill = homotopy_fill(g, g, BIC)
        assert fill.cert_s == 0.0
        assert fill.cert_r == 0.0
        assert fill.r_chain.pieces == ()
        chk = check_fill(g, g, fill, standard_panel(1, count=6, scale=1.0), PL)
        assert chk.ok and chk.worst_residual <= 1e-9

    def test_unit_square_edges(self):
        g0 = Polyline([[0, 0], [1, 0]])
        g1 = Polyline([[0, 1], [1, 1]])
        fill = homotopy_fill(g0, g1, BIC)
        assert fill.cert_s == pytest.approx(2.0, abs=1e-12)
        assert fill.measured_s == pytest.approx(1.0, abs=1e-6)
        assert fill.cert_r == pytest.approx(2.0, abs=1e-12)
        assert fill.r_chain.mass() == pytest.approx(2.0, abs=1e-12)
        assert check_fill(g0, g1, fill, standard_panel(2, count=10, scale=1.5), PL).ok

    def test_check_fill_builds_each_curve_chain_once(self, monkeypatch):
        g0, g1 = Polyline([[0, 0], [1, 0]]), Polyline([[0, 0], [0.5, 0.1], [1, 0]])
        fill = homotopy_fill(g0, g1, BIC)
        panel = standard_panel(4, count=20, scale=1.5)
        want = check_fill(g0, g1, fill, panel, PL)
        built = []
        as_chain = Polyline.as_chain
        monkeypatch.setattr(Polyline, "as_chain",
                            lambda self, *a: built.append(self) or as_chain(self, *a))
        assert check_fill(g0, g1, fill, panel, PL) == want
        assert built == [g0, g1]

    def test_tent_over_same_endpoints(self):
        g0 = Polyline([[0, 0], [1, 0]])
        g1 = Polyline([[0, 0], [0.5, 0.1], [1, 0]])
        fill = homotopy_fill(g0, g1, BIC)
        assert fill.cert_r == 0.0
        assert fill.cert_s == pytest.approx((1.0 + g1.length) * 0.1, abs=1e-12)
        assert check_fill(g0, g1, fill, standard_panel(3, count=10, scale=1.5), PL).ok

    def test_certificate_chain_inequality(self):
        rng = np.random.Generator(np.random.Philox(key=41))
        for _ in range(20):
            g0 = Polyline(rng.uniform(-2, 2, size=(3, 2)))
            g1 = Polyline(rng.uniform(-2, 2, size=(4, 2)))
            fill = homotopy_fill(g0, g1, BIC)
            pair = (g0.length + g1.length + 2.0) * d_inf(g0, g1, PL)
            assert fill.cert_s + fill.cert_r <= pair + 1e-9
            assert fill.measured_s <= fill.cert_s + 1e-6
            assert fill.r_chain.mass() <= fill.cert_r + 1e-9

    @pytest.mark.parametrize("norm, want", [("l1", 2.0), ("linf", 1.0),
                                            ("l2", math.sqrt(2.0))])
    def test_cert_s_is_measured_in_the_bicombing_plane(self, norm, want):
        plane = NormedPlane(norm)
        bic = AffineBicombing(plane)
        p0, p1 = [[0, 0], [1, 1]], [[0, 0.5], [1, 1.5]]
        built_in_l2 = homotopy_fill(Polyline(p0), Polyline(p1), bic)
        built_in_plane = homotopy_fill(Polyline(p0, plane), Polyline(p1, plane), bic)
        assert built_in_l2.cert_s == built_in_plane.cert_s == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_cert_s_bounds_measured_s_in_the_bicombing_plane(self, norm):
        plane = NormedPlane(norm)
        bic = AffineBicombing(plane)
        rng = np.random.Generator(np.random.Philox(key=47))
        for k in range(200):
            pts0 = rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), 2))
            pts1 = rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), 2))
            g0, g1 = (Polyline(pts0), Polyline(pts1)) if k % 2 else (
                Polyline(pts0, plane), Polyline(pts1, plane))
            fill = homotopy_fill(g0, g1, bic)
            assert fill.measured_s <= fill.cert_s

    def test_grid_cross_check_lp_below_certificates(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        for _ in range(10):
            pts = [np.zeros(2)]
            for k in range(4):
                step = [1.0, 0.0] if k % 2 == 0 else [0.0, 1.0]
                pts.append(pts[-1] + np.array(step))
            g0 = Polyline(np.array(pts))
            g1 = g0.translate((0.0, float(rng.integers(0, 3))))
            fill = homotopy_fill(g0, g1, BIC)
            cx = complex_covering([g0, g1])
            diff = snap(g0.as_chain(PL), cx) - snap(g1.as_chain(PL), cx)
            assert flat_norm(diff, cx).value <= fill.cert_s + fill.cert_r + 1e-6


def reference_pullback(pi1, pi2, pts, u, v):
    """The 2-form dpi1 ^ dpi2 on (u, v) as its four directional derivatives."""
    g1, g2 = pi1.grad(pts), pi2.grad(pts)
    g1u = np.einsum("ij,ij->i", g1, u)
    g2v = np.einsum("ij,ij->i", g2, v)
    g1v = np.einsum("ij,ij->i", g1, v)
    g2u = np.einsum("ij,ij->i", g2, u)
    return g1u * g2v - g1v * g2u


def cross_pullback(pi1, pi2, pts, u, v):
    """The 2-form dpi1 ^ dpi2 on (u, v) by Binet-Cauchy: (grad pi1 x grad pi2)(u x v)."""
    return homotopy._cross(pi1.grad(pts), pi2.grad(pts)) * homotopy._cross(u, v)


def reference_s_evaluator(g0, g1, pi1, pi2, pullback=cross_pullback,
                          quad_tol=QUAD_TOL) -> Quad:
    """S(1, pi1, pi2) per cell of the homotopy square with the whole integrand,
    H, d1H, d2H and the 2-form, evaluated afresh in every ``integrate`` call."""
    br0, d0 = homotopy._poly_derivs(g0)
    br1, d1 = homotopy._poly_derivs(g1)
    cells = np.union1d(br0, br1)
    keep = np.diff(cells) > 1e-14
    sa, sb = cells[:-1][keep], cells[1:][keep]
    v0 = homotopy._deriv_in_cells(br0, d0, 0.5 * (sa + sb))
    v1 = homotopy._deriv_in_cells(br1, d1, 0.5 * (sa + sb))

    def integrand(x, owner):
        s, t = x[:, 0], x[:, 1, None]
        p0 = g0.at(s)
        p1 = g1.at(s)
        h = (1 - t) * p0 + t * p1
        d1h = (1 - t) * v0[owner] + t * v1[owner]
        return pullback(pi1, pi2, h, d1h, p1 - p0)
    return integrate(integrand, np.stack([sa, np.zeros_like(sa)], axis=1),
                     np.stack([sb - sa, np.ones_like(sa)], axis=1), quad_tol)


def reference_action(c, form) -> Quad:
    """``action`` with the points and directions of the pieces evaluated afresh
    in every ``integrate`` call."""
    starts, dirs, weights = _pieces(c)
    if form.pi.tag == "affine" and form.f.tag in ("const", "affine"):
        return action(c, form)

    def integrand(x, owner):
        d = dirs[owner]
        pts = starts[owner] + x * d
        return form.f.value(pts) * np.einsum("ij,ij->i", form.pi.grad(pts), d)

    n = len(weights)
    q = integrate(integrand, np.zeros((n, 1)), np.ones((n, 1)), QUAD_TOL * n)
    return q._replace(value=weights * q.value)


def assert_same_bits(q, ref):
    assert np.array_equal(q.value.view(np.int64), ref.value.view(np.int64))
    assert (q.nodes, q.capped) == (ref.nodes, ref.capped)


def counting_passes(monkeypatch, *modules):
    """Replace ``integrate`` in ``modules`` by one that records, for each pass
    over a panel, its rows, its boxes ``lo`` and the sizes of its geometry calls
    and of its rows x nodes form-part calls; returns the list of passes."""
    passes = []

    def counting(fn, lo, width, tol, rows=None, geometry=None):
        rec = SimpleNamespace(rows=len(rows), lo=np.asarray(lo), geometry_calls=[], form_calls=[])
        passes.append(rec)

        def counted_geometry(x, owner):
            rec.geometry_calls.append(len(x))
            return geometry(x, owner)

        def counted(g, r):
            out = fn(g, r)
            rec.form_calls.append(out.size)
            return out
        return quadrature.integrate(counted, lo, width, tol, rows, counted_geometry)

    for module in modules:
        monkeypatch.setattr(module, "integrate", counting)
    return passes


def random_pair(k: int, plane=PL):
    rng = np.random.Generator(np.random.Philox(key=k))
    return tuple(Polyline(rng.uniform(-2, 2, size=(int(rng.integers(2, 6)), 2)), plane)
                 for _ in range(2))


def panel_in(seed: int, plane) -> list:
    """``standard_panel(seed)`` with both fields of each form measured in ``plane``."""
    return [Form(dataclasses.replace(form.f, plane=plane),
                 dataclasses.replace(form.pi, plane=plane))
            for form in standard_panel(seed, count=20, scale=2.0)]


class TestGeometryPerPass:
    """A fill and a chain evaluate the geometry of their boxes once per panel
    pass: the same values (bit for bit), node and cap counts as the integrands
    evaluated afresh."""

    PLANES = (NormedPlane("l1"), PL, NormedPlane("linf"))

    def test_against_the_fresh_integrands(self):
        """200 pairs in the three planes; in the first three the fields are measured
        in the pair's plane too, where l1 and linf cones send boxes to the cap."""
        capped = np.zeros(2, dtype=int)
        for k in range(200):
            plane = self.PLANES[k % 3]
            g0, g1 = random_pair(k, plane)
            fill = homotopy_fill(g0, g1, AffineBicombing(plane))
            chains = (g0.as_chain(plane), g1.as_chain(plane), fill.r_chain)
            for form in panel_in(k, plane) if k < 3 else standard_panel(k):
                q = fill.boundary_quad(form)
                assert_same_bits(q, reference_s_evaluator(g0, g1, form.f, form.pi))
                for c in chains:
                    assert_same_bits(action(c, form), reference_action(c, form))
                capped += q.capped, action(chains[0], form).capped
        assert capped.all()

    def test_one_geometry_build_per_fill_and_chain(self, monkeypatch):
        passes = counting_passes(monkeypatch, homotopy, currents)
        for k in range(6):
            g0, g1 = random_pair(k)
            check_fill(g0, g1, homotopy_fill(g0, g1, BIC), standard_panel(k), PL)
        assert len(passes) == 6 * 4  # per pair: one for the fill and for each of three chains
        deeper = 0
        for p in passes:
            assert p.rows in (15, 20)  # the forms without a closed form, or all
            # the depth-0/1 call evaluates the geometry of its boxes and halves once
            # and every row on it; every deeper call evaluates the geometry afresh
            n_box, dim = p.lo.shape
            assert p.geometry_calls[0] == n_box * (1 + 2 ** dim) * 5 ** dim
            assert p.form_calls[0] == p.rows * p.geometry_calls[0] <= CHUNK_NODES
            assert len(p.geometry_calls) == len(p.form_calls)
            assert max(p.form_calls) <= CHUNK_NODES
            deeper += len(p.geometry_calls) - 1
        assert deeper > 0

    def test_a_chain_above_the_chunk_evaluates_per_call(self, monkeypatch):
        passes = counting_passes(monkeypatch, currents)
        rng = np.random.Generator(np.random.Philox(key=5))
        c = Polyline(rng.uniform(-2, 2, size=(CHUNK_NODES // 15 + 2, 2))).as_chain(PL)
        forms = standard_panel(3, count=4)  # the first has a closed form
        for form in forms:
            assert_same_bits(action(c, form), reference_action(c, form))
        [p] = passes
        assert p.rows == 3
        calls = quadrature._calls(3 * len(p.lo), 1, (0, len(p.lo)))  # the boxes and their halves
        assert len(calls) == 2
        # each depth-0/1 call evaluates the geometry once for the three rows, which it
        # hands to the form part in groups within the chunk; deeper, one node is one row
        sizes = [(last - first) * 5 for first, last, _ in calls]
        assert p.geometry_calls[:2] == sizes
        assert sum(p.form_calls) == 3 * sum(sizes) + sum(p.geometry_calls[2:])
        assert len(p.form_calls) > len(p.geometry_calls)
        assert max(p.geometry_calls) <= CHUNK_NODES and max(p.form_calls) <= CHUNK_NODES


class TestPanelPass:
    """A fill or a chain integrates the whole panel of its first form in one pass
    and keeps those quads in one slot, for the last panel it saw."""

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
    def test_a_hand_built_form_equals_its_panel_row(self, tag):
        """Each hand-built form is a one-row panel of its own; the panel of the same
        fields, whose rows are in another order, gives every row the same bits."""
        plane = NormedPlane(tag)
        alone = panel_in(1, plane)
        rows = Panel([(form.f, form.pi) for form in alone]).forms
        assert rows == alone and sorted(form.row for form in rows) == list(range(20))
        assert [form.row for form in rows] != list(range(20))
        for k in range(2):
            g0, g1 = random_pair(k, plane)
            fill = homotopy_fill(g0, g1, AffineBicombing(plane))
            owners = [fill.boundary_quad] + [lambda form, c=c: action(c, form)
                                             for c in (g0.as_chain(plane), fill.r_chain)]
            for quad in owners:
                for q, ref in zip([quad(form) for form in rows], [quad(form) for form in alone]):
                    assert_same_bits(q, ref)

    def test_later_forms_read_the_slot(self, monkeypatch):
        passes = []
        for module in (currents, homotopy):
            monkeypatch.setattr(module, "integrate", lambda fn, lo, width, tol, rows, geometry: (
                passes.append(len(rows))) or quadrature.integrate(fn, lo, width, tol, rows, geometry))
        g0, g1 = random_pair(4)
        first, second = standard_panel(4), standard_panel(5)
        fill = homotopy_fill(g0, g1, BIC)
        c = g0.as_chain(PL)
        want = [(fill.boundary_quad(form), action(c, form)) for form in first]
        assert passes == [20, 15]
        for order in (np.random.default_rng(4).permutation(20), range(19, -1, -1)):
            fill, c = homotopy_fill(g0, g1, BIC), g0.as_chain(PL)
            passes.clear()
            for i in order:
                assert_same_bits(fill.boundary_quad(first[i]), want[i][0])
                assert_same_bits(action(c, first[i]), want[i][1])
            assert passes == [20, 15]
        fill.boundary_quad(second[3]), action(c, second[3])
        assert passes[2:] == [20, 15] and fill._quads[0] is c._quads[0] is second[0].panel
        assert_same_bits(fill.boundary_quad(first[3]), want[3][0])
        assert passes[4:] == [20] and fill._quads[0] is first[0].panel

    def test_a_fragment_chain_makes_one_pass_per_panel(self, monkeypatch):
        passes = counting_passes(monkeypatch, currents)
        zigzag = Polyline([[-2.0, -1.0], [2.0, -0.5], [-1.5, 1.0], [2.0, 1.2]])
        fc = restrict(zigzag, ClosedSet.of(Ball((0.0, 0.0), 1.5)))
        assert fc.mass() > 0 and len(currents._pieces(fc)[2]) > 1
        for seed in (6, 7):
            for form in standard_panel(seed):
                assert_same_bits(action(fc, form), reference_action(fc, form))
        assert [p.rows for p in passes] == [15, 15]

    def test_a_fill_integrates_on_first_use(self, monkeypatch):
        passes = counting_passes(monkeypatch, homotopy, currents)
        g0, g1 = random_pair(2)
        fill = homotopy_fill(g0, g1, BIC)
        assert passes == []
        fill.boundary_eval(standard_panel(2)[1])
        assert [p.rows for p in passes] == [20] and passes[0].geometry_calls

    def test_one_cap_record_per_pass(self, caplog):
        """The l1 cones of the panel cap boxes in several rows: one record lists them."""
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        plane = NormedPlane("l1")
        g0, g1 = random_pair(0, plane)
        fill = homotopy_fill(g0, g1, AffineBicombing(plane))
        forms = Panel([(form.f, form.pi) for form in panel_in(0, plane)]).forms
        capped = {form.row: fill.boundary_quad(form).capped for form in forms}
        capped = {row: n for row, n in sorted(capped.items()) if n}
        assert len(capped) > 1
        [record] = caplog.records
        assert record.getMessage() == (
            f"quadrature stopped {sum(capped.values())} boxes at the cap of 16384 panels: "
            f"tolerance 1e-08; capped boxes by row: {capped}")


class TestPullback:
    def test_cross_products_match_the_directional_derivatives(self):
        """Same nodes and caps as the four-derivative form on 60 pairs x 20 forms,
        and every cell within 1e-12 of the form's largest cell."""
        for k in range(60):
            g0, g1 = random_pair(k)
            fill = homotopy_fill(g0, g1, BIC)
            for form in standard_panel(k, count=20, scale=2.0):
                new = fill.boundary_quad(form)
                old = reference_s_evaluator(g0, g1, form.f, form.pi, reference_pullback)
                assert (new.nodes, new.capped) == (old.nodes, old.capped)
                scale = float(np.max(np.abs(old.value)))
                assert np.max(np.abs(new.value - old.value)) <= 1e-12 * scale


def shoelace(g0: Polyline, g1: Polyline) -> float:
    """Signed area of the loop g0, g1 reversed: the integral of det DH over the square."""
    loop = np.vstack([g0.points, g1.points[::-1]])
    x, y = loop[:, 0], loop[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def midpoint_abs_det(g0: Polyline, g1: Polyline, n: int = 200_000) -> tuple[float, bool]:
    """|det DH| integrated over each cell of the square, and whether det changes
    sign somewhere. On a cell, det is (1 - t) a(s) + t c(s), whose t-integral
    is |a + c| / 2 where ac >= 0 and (a^2 + c^2) / (2 |a - c|) where it crosses
    zero; an n-point midpoint rule takes the s-integral."""
    cells = np.union1d(g0.breaks(), g1.breaks())
    total, signs = 0.0, set()
    for sa, sb in zip(cells[:-1], cells[1:]):
        if sb - sa <= 1e-14:
            continue
        s = sa + (sb - sa) * (np.arange(n) + 0.5) / n
        dv = (np.array([g0.at(sb)[0] - g0.at(sa)[0], g1.at(sb)[0] - g1.at(sa)[0]])
              / (sb - sa))
        d = g1.at(s) - g0.at(s)
        a = dv[0, 0] * d[:, 1] - dv[0, 1] * d[:, 0]
        c = dv[1, 0] * d[:, 1] - dv[1, 1] * d[:, 0]
        ends = np.concatenate([a, c])
        signs |= set(np.sign(ends[np.abs(ends) > 1e-9]).tolist())
        f = np.abs(a + c) / 2
        cross = a * c < 0
        f[cross] = (a[cross] ** 2 + c[cross] ** 2) / (2 * np.abs(a[cross] - c[cross]))
        total += float(f.sum()) * (sb - sa) / n
    return total, len(signs) > 1


class TestMeasuredMass:
    """measured_s integrates |det(d1H, d2H)| exactly."""

    def test_constant_sign_equals_signed_area(self):
        rng = np.random.Generator(np.random.Philox(key=45))
        pairs = [(Polyline([[0, 0], [1, 0]]), Polyline([[0, 1], [3, 1]]))]
        for n in (2, 3, 5):
            x = np.sort(rng.uniform(-2, 2, size=n))
            g0 = Polyline(np.stack([x, rng.uniform(-1, 1, size=n)], axis=1))
            pairs.append((g0, g0.translate((0.0, float(rng.uniform(0.5, 2.0))))))
            pairs.append((g0.translate((0.0, -1.5)), g0))
        for g0, g1 in pairs:
            fill = homotopy_fill(g0, g1, BIC)
            assert abs(fill.measured_s - abs(shoelace(g0, g1))) <= 1e-13

    def test_crossing_pairs_match_a_fine_grid(self):
        rng = np.random.Generator(np.random.Philox(key=46))
        pairs = [(Polyline([[0, 0], [1, 0]]), Polyline([[1, 1], [0, 1]]))]
        while len(pairs) < 4:
            g0 = Polyline(rng.uniform(-2, 2, size=(3, 2)))
            g1 = Polyline(rng.uniform(-2, 2, size=(int(rng.integers(2, 4)), 2)))
            if midpoint_abs_det(g0, g1, n=16)[1]:
                pairs.append((g0, g1))
        for g0, g1 in pairs:
            reference, crosses = midpoint_abs_det(g0, g1)
            assert crosses
            assert abs(homotopy_fill(g0, g1, BIC).measured_s - reference) <= 1e-9


class TestBicombing:
    def test_affine_endpoints(self):
        x, y = np.array([0.0, 1.0]), np.array([2.0, -1.0])
        assert np.allclose(BIC.point(x, y, 0.0), x)
        assert np.allclose(BIC.point(x, y, 1.0), y)

    def test_affine_is_conical(self):
        assert conical_defect(BIC, seed=1, n_samples=200) <= 1e-9

    def test_tree_geodesic_is_conical(self):
        g = MetricGraph(["r", "a", "b", "c", "d"],
                        [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.5), (1, 4, 0.5)],
                        ambient="path")
        bic = GraphBicombing(g)
        assert conical_defect(bic, seed=2, n_samples=200) <= 1e-9

    def test_graph_fill_provides_only_r_side(self):
        g = MetricGraph(["a", "b", "c", "d"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                        ambient="path")
        bic = GraphBicombing(g)
        fill = homotopy_fill([0, 1], [3, 2], bic)
        assert fill.cert_s is None
        assert fill.cert_r == pytest.approx(2.0, abs=1e-12)
        assert fill.r_chain.mass() <= fill.cert_r + 1e-9
        with pytest.raises(CurrentError):
            fill.boundary_eval(standard_panel(1, count=1)[0])

    def test_deterministic_tie_breaking(self):
        # two equal-length routes 0-1-3 and 0-2-3: predecessor rule picks lower index
        g = MetricGraph(["s", "a", "b", "t"],
                        [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
                        ambient="path")
        bic = GraphBicombing(g)
        assert bic.path(0, 3) == [0, 1, 3]


class TestAffineHomotopyCurrent:
    def test_equal_maps(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        phi = AffineMap.identity()
        res = affine_homotopy_current(t, phi, phi, panel=standard_panel(4, count=6))
        assert res.cert_mass == 0.0
        assert res.boundary_residual <= 1e-9

    def test_half_scaling_certificate(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        res = affine_homotopy_current(t, AffineMap.identity(), AffineMap.scaling(0.5),
                                      panel=standard_panel(5, count=8, scale=1.5))
        assert res.cert_mass == pytest.approx(0.5, abs=1e-8)
        assert res.boundary_residual <= 1e-6

    def test_translation_certificate(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 1.0), 2.0)])
        w = (0.3, -0.4)
        res = affine_homotopy_current(t, AffineMap.identity(),
                                      AffineMap.translation(w),
                                      panel=standard_panel(6, count=8, scale=2.0))
        assert res.cert_mass == pytest.approx(2.0 * 0.5 * t.mass(), abs=1e-8)
        assert res.boundary_residual <= 1e-6

    def test_rejects_non_affine(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        with pytest.raises(CurrentError):
            affine_homotopy_current(t, AffineMap.identity(), "not a map")

    @pytest.mark.parametrize("plane", [NormedPlane("l1"), PL, NormedPlane("linf"),
                                       NormedPlane("wmax", (2.0, 1.0))],
                             ids=["l1", "l2", "linf", "wmax"])
    def test_cert_mass_bounds_a_fine_midpoint_integral(self, plane):
        # |phi - psi| is convex along a piece: midpoint sums sit below the integral,
        # the trapezoid bound above it
        rng = np.random.Generator(np.random.Philox(key=47))
        s = (np.arange(10_000) + 0.5) / 10_000
        for _ in range(10):
            pts = rng.uniform(-1.5, 1.5, size=(3, 2))
            t = Chain1.from_segments(plane, [(tuple(pts[i]), tuple(pts[i + 1]),
                                              float(rng.normal())) for i in range(2)])
            phi, psi = (AffineMap(a=tuple(map(tuple, rng.normal(size=(2, 2)))),
                                  b=tuple(rng.normal(size=2))) for _ in range(2))
            res = affine_homotopy_current(t, phi, psi)
            dm, db = phi.displacement(psi)
            integral = 0.0
            for piece in t.pieces:
                x = np.add(piece.start, s[:, None] * np.subtract(piece.end, piece.start))
                mean = float(np.mean(plane.norm_arr(x @ dm.T + db)))
                integral += abs(piece.weight) * piece.length * mean
            maxop = max(phi.op_norm(plane), psi.op_norm(plane))
            assert res.cert_mass >= 2.0 * maxop * integral * (1.0 - 1e-12)
            assert res.flat_bound == res.cert_mass + res.connectors.mass()

    def test_fuzzed_boundary_identity(self):
        rng = np.random.Generator(np.random.Philox(key=43))
        panel = standard_panel(44, count=6, scale=2.0)
        for _ in range(10):
            pts = rng.uniform(-1.5, 1.5, size=(3, 2))
            t = Chain1.from_segments(PL, [
                (tuple(pts[0]), tuple(pts[1]), float(rng.normal())),
                (tuple(pts[1]), tuple(pts[2]), float(rng.normal()))])
            phi = AffineMap(a=((1.0 + 0.1 * rng.normal(), 0.1 * rng.normal()),
                               (0.1 * rng.normal(), 1.0 + 0.1 * rng.normal())),
                            b=tuple(0.3 * rng.normal(size=2)))
            res = affine_homotopy_current(t, phi, AffineMap.identity(), panel=panel)
            assert res.boundary_residual <= 1e-6


class TestInterpolation:
    def test_single_segment_any_partition(self):
        g = Polyline([[0, 0], [2, 0]])
        res = interpolate_geodesic(g, [0.0, 0.3, 0.8, 1.0])
        assert res.chain.mass() == pytest.approx(g.length, abs=1e-12)
        assert res.d_inf <= 1e-12

    def test_semicircle_chords_strictly_shorter(self):
        theta = np.linspace(0, math.pi, 17)
        g = Polyline(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        res = interpolate_geodesic(g, np.linspace(0, 1, 5))
        assert res.chain.mass() < g.length

    def test_nested_partitions_monotone(self):
        theta = np.linspace(0, math.pi, 17)
        g = Polyline(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        masses = []
        for k in (2, 4, 8, 16, 32):
            res = interpolate_geodesic(g, np.linspace(0, 1, k + 1))
            masses.append(res.chain.mass())
            assert res.chain.mass() <= g.length + 1e-12
        assert all(masses[i] <= masses[i + 1] + 1e-12 for i in range(len(masses) - 1))

    def test_malformed_partition_rejected(self):
        g = Polyline([[0, 0], [1, 0]])
        with pytest.raises(CurrentError):
            interpolate_geodesic(g, [0.2, 0.5, 1.0])
        with pytest.raises(CurrentError):
            interpolate_geodesic(g, [0.0, 0.5, 0.5, 1.0])
