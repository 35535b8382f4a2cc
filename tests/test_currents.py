import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from current1d import (AffineMap, Ball, Box, Chain1, ClosedSet, CurrentError,
                       CurveArray, HalfPlane, MetricGraph, Molecule, NormedPlane, Piece,
                       Polyline, ScalarField, Slab, ae_norm, d_inf, d_inf_many, evaluate,
                       fat_cantor_intervals, pushforward, restrict, standard_panel)
from current1d import currents
from current1d.io import load_chain
from current1d import TestForm as Form
from current1d.currents import Fragment, FragmentChain, intervals_measure

PL = NormedPlane("l2")


def seg_chain(*segs):
    return Chain1.from_segments(PL, list(segs))


class TestMolecule:
    def test_zero_sum_enforced(self):
        with pytest.raises(CurrentError):
            Molecule([((0.0, 0.0), 1.0)])

    @pytest.mark.parametrize("w", [np.inf, np.nan])
    def test_non_finite_weight_rejected(self, w):
        # inf - inf would aggregate to nan, and a nan weight passes the zero-sum test
        with pytest.raises(CurrentError, match="must be finite"):
            Molecule([(0, w), (1, -w)], check_zero_sum=False)

    def test_aggregation(self):
        m = Molecule([((0.0, 0.0), 1.0), ((0.0, 0.0), 2.0), ((1.0, 0.0), -3.0)])
        assert m.atoms == (((0.0, 0.0), 3.0), ((1.0, 0.0), -3.0))

    def test_exact_cancellation_drops_atom(self):
        m = Molecule([((0.0, 0.0), 1.0), ((0.0, 0.0), -1.0)])
        assert m.atoms == ()

    @pytest.mark.parametrize("key", [2.5, 2.0, np.float64(1.0), True, np.bool_(True), "1", None],
                             ids=repr)
    def test_scalar_key_must_be_an_integer(self, key):
        # int(2.5) would silently move the atom to vertex 2
        with pytest.raises(CurrentError, match="integer vertex"):
            Molecule([(key, 1.0), (0, -1.0)])

    def test_truncating_key_does_not_reach_ae_norm(self):
        dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(CurrentError):
            ae_norm(Molecule([(2.5, 1.0), (0, -1.0)]), dist)

    def test_numpy_integer_key_becomes_an_int(self):
        m = Molecule([(np.int64(2), 1.0), (np.int32(0), -1.0)])
        assert m.atoms == ((0, -1.0), (2, 1.0))
        assert all(type(p) is int for p, _ in m.atoms)


class TestBoundary:
    def test_single_segment(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        assert c.boundary().atoms == (((0.0, 0.0), -1.0), ((1.0, 0.0), 1.0))

    def test_triangle_loop_telescopes_to_zero(self):
        a, b, c = (0.0, 0.0), (1.0, 0.0), (0.5, 1.0)
        loop = seg_chain((a, b, 1.0), (b, c, 1.0), (c, a, 1.0))
        assert loop.boundary().atoms == ()

    def test_two_segments_weight_two(self):
        x, y, z = (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)
        c = seg_chain((x, y, 2.0), (y, z, 2.0))
        assert c.boundary().atoms == ((x, -2.0), (z, 2.0))


class TestChainValidation:
    """Lengths from outside are checked against the endpoint distance; lengths
    the package measured itself, or the graph already checked, are not."""

    def graph(self):
        return MetricGraph([[0, 0], [1, 0], [1, 1]], [(0, 1, 1.0), (1, 2, 1.0)])

    def test_graph_edges_are_not_measured_again(self, monkeypatch):
        g = self.graph()

        def no_distance(self, u, v):
            raise AssertionError("MetricGraph.d was called")

        monkeypatch.setattr(MetricGraph, "d", no_distance)
        c = Chain1.from_graph_edges(g, [(0, 1, 2.0), (2, 1, -1.0)])
        assert c.mass() == 3.0

    def test_segments_take_their_measured_lengths(self):
        c = Chain1.from_segments(NormedPlane("l1"), [((0.0, 0.0), (3.0, 4.0), -2.0)])
        assert c.pieces == (Piece((0.0, 0.0), (3.0, 4.0), -2.0, 7.0),)

    def test_pieces_from_outside_are_validated(self):
        with pytest.raises(CurrentError, match="below endpoint distance"):
            Chain1(self.graph(), [Piece(0, 2, 1.0, 1.0)])
        with pytest.raises(CurrentError, match="below endpoint distance"):
            Chain1(PL, [Piece((0.0, 0.0), (3.0, 4.0), 1.0, 4.0)])
        with pytest.raises(CurrentError, match="below endpoint distance"):
            load_chain({"pieces": [{"start": [0, 0], "end": [3, 4], "weight": 1, "length": 4}]})


class TestMass:
    def test_empty_chain(self):
        assert Chain1.empty(PL).mass() == 0.0

    def test_negative_weight(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), -3.0))
        assert c.mass() == 3.0

    def test_fat_cantor_stage_one_fragment(self):
        poly = Polyline([[0.0, 0.0], [1.0, 0.0]])
        frag = FragmentChain([Fragment(poly, tuple(fat_cantor_intervals(1)), 1.0)])
        assert frag.mass() == 0.75

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_fragment_weight_must_be_finite_and_nonnegative(self, bad):
        poly = Polyline([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(CurrentError, match="fragment weights must be nonnegative and finite"):
            FragmentChain([Fragment(poly, ((0.0, 1.0),), 1.0), Fragment(poly, ((0.0, 0.5),), bad)])
        assert FragmentChain([Fragment(poly, ((0.0, 1.0),), 0.0)]).mass() == 0.0

    def test_fat_cantor_measures(self):
        for k in range(7):
            assert intervals_measure(fat_cantor_intervals(k)) == 0.5 + 2.0 ** (-(k + 1))


class TestEvaluate:
    def test_fundamental_theorem(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        form = Form(ScalarField("const", (1.0,)), ScalarField("affine", (1.0, 0.0, 0.0)))
        assert evaluate(c, form) == pytest.approx(1.0, abs=1e-12)

    def test_zero_f(self):
        c = seg_chain(((0.0, 0.0), (1.0, 2.0), 2.0), ((1.0, 2.0), (3.0, 1.0), -1.0))
        form = Form(ScalarField("const", (0.0,)), ScalarField("dist", (5.0, 5.0)))
        assert evaluate(c, form) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fat_cantor_fragment_measures_the_set(self, k):
        poly = Polyline([[0.0, 0.0], [1.0, 0.0]])
        frag = FragmentChain([Fragment(poly, tuple(fat_cantor_intervals(k)), 1.0)])
        form = Form(ScalarField("const", (1.0,)), ScalarField("affine", (1.0, 0.0, 0.0)))
        expected = intervals_measure(fat_cantor_intervals(k))
        assert evaluate(frag, form) == pytest.approx(expected, abs=1e-12)

    def test_linearity_in_weights(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        pts = rng.uniform(-1, 1, size=(4, 2))
        c1 = seg_chain((tuple(pts[0]), tuple(pts[1]), 1.0))
        c2 = seg_chain((tuple(pts[2]), tuple(pts[3]), 1.0))
        for form in standard_panel(5, count=8, scale=1.0):
            lhs = evaluate(c1.scale(2.5) + c2.scale(-1.5), form)
            rhs = 2.5 * evaluate(c1, form) - 1.5 * evaluate(c2, form)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_mass_bound(self):
        rng = np.random.Generator(np.random.Philox(key=4))
        for trial in range(20):
            pts = rng.uniform(-2, 2, size=(4, 2))
            c = seg_chain((tuple(pts[0]), tuple(pts[1]), float(rng.normal())),
                          (tuple(pts[2]), tuple(pts[3]), float(rng.normal())))
            for form in standard_panel(trial, count=4, scale=2.0):
                bound = form.lip_pi * form.sup_f * c.mass() + 1e-6
                assert abs(evaluate(c, form)) <= bound


class TestChainArrays:
    """``evaluate`` integrates over the arrays of a chain's pieces, or of a
    fragment chain's fragments; a used chain evaluates as a fresh one."""

    SEGS = (((0.0, 0.0), (1.0, 2.0), 2.0), ((1.0, 2.0), (3.0, 1.0), -1.0),
            ((3.0, 1.0), (3.0, 1.0), 1.0))

    def test_a_used_chain_evaluates_as_a_fresh_one(self):
        used = seg_chain(*self.SEGS)
        # the zero-length piece has no direction, so it gives no piece
        assert currents._pieces(used)[2].tolist() == [2.0, -1.0]
        panel = standard_panel(7, count=8, scale=2.0)
        first = [evaluate(used, form) for form in panel]
        assert [evaluate(used, form) for form in panel] == first
        assert [evaluate(seg_chain(*self.SEGS), form) for form in panel] == first

    def test_sums_and_scalings_use_their_own_pieces(self):
        c, d = seg_chain(*self.SEGS[:1]), seg_chain(*self.SEGS[1:])
        panel = standard_panel(8, count=8, scale=2.0)
        for form in panel:
            evaluate(c, form), evaluate(d, form)
        scaled = seg_chain(*[(s, e, -3.0 * w) for s, e, w in self.SEGS[:1]])
        for form in panel:
            assert evaluate(c + d, form) == evaluate(seg_chain(*self.SEGS), form)
            assert evaluate(c.scale(-3.0), form) == evaluate(scaled, form)

    def test_a_fragment_chain_is_evaluated_from_its_fragments(self):
        frag = FragmentChain([Fragment(Polyline([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]),
                                       ((0.0, 1.0),), 1.0)])
        assert currents._pieces(frag)[0] is not currents._pieces(frag)[0]
        chain = seg_chain(((0.0, 0.0), (1.0, 2.0), 1.0), ((1.0, 2.0), (3.0, 1.0), 1.0))
        for form in standard_panel(9, count=8, scale=2.0):
            assert evaluate(frag, form) == evaluate(chain, form)


class TestPushforward:
    def test_identity(self):
        c = seg_chain(((0.0, 0.0), (1.0, 1.0), 2.0))
        c2 = pushforward(c, AffineMap.identity())
        assert c2.pieces == c.pieces

    def test_half_scaling_halves_mass(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        c2 = pushforward(c, AffineMap.scaling(0.5))
        assert c2.mass() == pytest.approx(0.5, abs=1e-15)

    def test_translation_is_isometry(self):
        c = seg_chain(((0.0, 0.0), (1.0, 2.0), 1.5))
        c2 = pushforward(c, AffineMap.translation((3.0, -1.0)))
        assert c2.mass() == c.mass()
        assert c2.boundary().atoms == (((3.0, -1.0), -1.5), ((4.0, 1.0), 1.5))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_boundary_commutes_with_pushforward(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        pts = rng.uniform(-2, 2, size=(4, 2))
        c = seg_chain((tuple(pts[0]), tuple(pts[1]), float(rng.normal())),
                      (tuple(pts[1]), tuple(pts[2]), float(rng.normal())),
                      (tuple(pts[2]), tuple(pts[3]), float(rng.normal())))
        phi = AffineMap(a=((1.1, 0.3), (-0.2, 0.8)), b=(0.5, -0.25))
        lhs = pushforward(c, phi).boundary()
        rhs = Molecule([(phi.apply_pt(p), w) for p, w in c.boundary().atoms],
                       check_zero_sum=False)
        assert set(lhs.atoms) == set(rhs.atoms)
        for (p, w), (q, v) in zip(lhs.atoms, rhs.atoms):
            assert p == q and abs(w - v) <= 1e-12


class TestRestrict:
    def test_superset_keeps_everything(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 2.0))
        e = ClosedSet.of(Box((-1.0, -1.0), (2.0, 1.0)))
        frag = restrict(c, e)
        assert frag.mass() == c.mass()
        assert frag.fragments[0].domain == ((0.0, 1.0),)

    def test_disjoint_set_gives_empty(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        e = ClosedSet.of(Ball((5.0, 5.0), 1.0))
        assert restrict(c, e).fragments == ()

    @pytest.mark.parametrize("radius", [1.35e154, 1e308])
    def test_a_ball_whose_radius_squared_overflows_holds_every_point(self, radius):
        c = seg_chain(((0.0, 0.0), (3.0, 4.0), 2.0), ((1.0, 1.0), (1.0, 1.0), 1.0))
        frag = restrict(c, ClosedSet.of(Ball((-1.0, 2.0), radius)))
        assert [fr.domain for fr in frag.fragments] == [((0.0, 1.0),), ((0.0, 1.0),)]
        assert frag.mass() == c.mass() == 10.0

    @pytest.mark.parametrize("x", [1e200, 1e-200])
    def test_a_ball_meets_a_segment_whose_squares_leave_the_floats(self, x):
        c = seg_chain(((-x, 0.0), (x, 0.0), 1.0))
        frag = restrict(c, ClosedSet.of(Ball((0.0, 0.0), x / 2)))
        assert [fr.domain for fr in frag.fragments] == [((0.25, 0.75),)]
        assert frag.mass() == x

    def test_fat_cantor_stage_two_boxes(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        prims = tuple(Box((a, -0.5), (b, 0.5)) for a, b in fat_cantor_intervals(2))
        frag = restrict(c, ClosedSet(prims))
        assert len(frag.fragments[0].domain) == 4
        assert frag.mass() == 0.625

    def test_negative_weight_flips_orientation(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), -2.0))
        e = ClosedSet.of(Box((0.5, -1.0), (2.0, 1.0)))
        frag = restrict(c, e)
        assert frag.fragments[0].weight == 2.0
        assert frag.mass() == pytest.approx(1.0, abs=1e-15)

    def test_polyline_restriction_merges_across_breakpoints(self):
        poly = Polyline([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        e = ClosedSet.of(Box((0.5, -1.0), (1.5, 1.0)))
        frag = restrict(poly, e)
        assert frag.fragments[0].domain == ((0.25, 0.75),)
        assert frag.mass() == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_touch_is_kept_with_zero_mass(self):
        c = seg_chain(((0.0, 0.0), (1.0, 0.0), 1.0))
        e = ClosedSet.of(Slab(1.0, 0.0, 0.5, 0.5))
        frag = restrict(c, e)
        assert frag.fragments[0].domain == ((0.5, 0.5),)
        assert frag.mass() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.floats(0.1, 2.0))
    def test_monotone_in_the_set(self, seed, grow):
        rng = np.random.Generator(np.random.Philox(key=seed))
        pts = rng.uniform(-2, 2, size=(4, 2))
        c = seg_chain((tuple(pts[0]), tuple(pts[1]), 1.0),
                      (tuple(pts[2]), tuple(pts[3]), -0.5))
        cx, cy = rng.uniform(-1, 1, size=2)
        r = float(rng.uniform(0.2, 1.5))
        small = ClosedSet.of(Ball((float(cx), float(cy)), r))
        large = ClosedSet.of(Ball((float(cx), float(cy)), r + grow))
        assert restrict(c, small).mass() <= restrict(c, large).mass() + 1e-12

    @pytest.mark.parametrize("cls, args", [
        (Slab, (0.0, 1.0, 5.0, 3.0)), (Box, ((2.0, 0.0), (1.0, 10.0))),
        (Box, ((0.0, 3.0), (1.0, 2.0))), (Box, ((0.0, 0.0), (math.inf, 1.0))),
        (Ball, ((2.0, 0.0), -1.0)), (Ball, ((math.nan, 0.0), 1.0)),
        (HalfPlane, (math.nan, 1.0, 2.0)), (Slab, (0.0, 1.0, 5.0, -math.inf))],
        ids=["slab-inverted", "box-inverted-x", "box-inverted-y", "box-infinite",
             "ball-negative", "ball-nan", "halfplane-nan", "slab-infinite"])
    def test_impossible_bounds_raise(self, cls, args):
        # a negative radius would restrict like its absolute value, since the
        # ball's test squares it; an inverted slab depended on the direction
        with pytest.raises(CurrentError, match="finite numbers and ordered bounds"):
            cls(*args)

    @pytest.mark.parametrize("prim", [Box((1.0, 0.0), (1.0, 0.0)), Ball((0.0, 0.0), 0.0)],
                             ids=["box", "ball"])
    def test_degenerate_bounds_are_kept(self, prim):
        assert ClosedSet.of(prim).segment_intervals((0.0, 0.0), (4.0, 0.0)) != []

    def test_restriction_never_increases_mass(self):
        c = seg_chain(((0.0, 0.0), (2.0, 1.0), 1.5))
        e = ClosedSet.of(HalfPlane(1.0, 0.0, 1.0))
        assert restrict(c, e).mass() <= c.mass()


class TestPolyline:
    def test_constant_speed_parametrization(self):
        poly = Polyline([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert poly.length == 2.0
        assert np.allclose(poly.at(0.5), [1.0, 0.0])
        assert np.allclose(poly.at([0.25, 0.75]), [[0.5, 0.0], [1.0, 0.5]])

    def test_d_inf_exact_on_breakpoints(self):
        a = Polyline([[0.0, 0.0], [1.0, 0.0]])
        b = Polyline([[0.0, 0.1], [0.5, 0.4], [1.0, 0.1]])
        exact = d_inf(a, b)
        ts = np.linspace(0, 1, 20001)
        sampled = float(np.max(PL.norm_arr(a.at(ts) - b.at(ts))))
        assert sampled <= exact + 1e-12
        assert exact == pytest.approx(sampled, abs=1e-6)

    def test_d_inf_zero_iff_equal(self):
        a = Polyline([[0.0, 0.0], [2.0, 0.0]])
        b = Polyline([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert d_inf(a, b) == 0.0

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("n, at", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_non_finite_point_rejected_in_every_plane(self, value, n, at):
        pts = np.arange(2.0 * n).reshape(n, 2)
        pts[at, at % 2] = value
        for plane in PLANES:
            with pytest.raises(CurrentError, match="polyline points and length must be finite"):
                Polyline(pts, plane)

    @pytest.mark.parametrize("points", [[[1e308, 0.0], [-1e308, 0.0]],
                                        [[0.0, 1e308], [0.0, -1e308], [1.0, 0.0]],
                                        [[1.5e308, 0.0], [0.0, 0.0], [1.5e308, 0.0], [0.0, 0.0]]],
                             ids=["segment", "vertical", "running-sum"])
    def test_overflowing_length_rejected_without_a_warning(self, points):
        for plane in PLANES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CurrentError, match="polyline points and length must be finite"):
                    Polyline(points, plane)

    def test_cum_and_length_keep_their_bits(self):
        rng = np.random.Generator(np.random.Philox(key=80))
        for plane in [None] + PLANES:
            for n in (1, 2, 5, 40):
                pts = rng.uniform(-3.0, 3.0, size=(n, 2))
                pts[n // 2] = pts[n // 3]  # a repeated vertex
                poly = Polyline(pts, plane)
                ref = np.concatenate([[0.0], np.cumsum((plane or PL).norm_arr(np.diff(pts, axis=0)))])
                assert np.array_equal(poly.cum, ref)
                assert poly.length == ref[-1]

    def test_translate_keeps_the_plane(self):
        for plane in [None] + PLANES:
            poly = Polyline([[0.0, 0.0], [1.0, 1.0], [1.5, 0.0]], plane)
            moved = poly.translate((0.25, -2.0))
            assert moved.plane is poly.plane and moved.plane == (plane or PL)
            assert moved.length == poly.length
        # an l1 diagonal of length 2 translates to one of length 2, not sqrt(2)
        assert Polyline([[0.0, 0.0], [1.0, 1.0]], NormedPlane("l1")).translate((1, 0)).length == 2.0

    def test_builds_no_plane_per_call(self, monkeypatch):
        built = []
        monkeypatch.setattr(currents, "NormedPlane", lambda *a: built.append(a))
        assert Polyline([[0.0, 0.0], [3.0, 4.0]]).length == 5.0
        assert built == []


PLANES = [NormedPlane("l2"), NormedPlane("l1"), NormedPlane("linf"),
          NormedPlane("wmax", (0.5, 2.0))]


def mixed_family(rng, plane, n=12):
    """Polylines with unrelated breakpoints, a repeated vertex, integer
    vertices, a single point and a zero-length polyline."""
    polys = [Polyline(rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 6)), 2)), plane)
             for _ in range(n)]
    pts = np.round(rng.uniform(-2.0, 2.0, size=(4, 2)))
    pts[2] = pts[1]
    polys.insert(1, Polyline(pts, plane))
    p = rng.uniform(-2.0, 2.0, size=2)
    polys.insert(3, Polyline([p], plane))
    polys.insert(7, Polyline([p + 0.5, p + 0.5, p + 0.5], plane))
    return polys


class TestUniformDistance:
    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_at_equals_polyline_at(self, plane):
        rng = np.random.Generator(np.random.Philox(key=76))
        polys = mixed_family(rng, plane)
        curves = CurveArray(polys, plane)
        rows = rng.integers(0, len(polys), 400)
        ts = rng.uniform(-0.2, 1.2, 400)
        ts[:200] = curves.breaks[rng.integers(0, len(curves.breaks), 200)]
        ref = np.array([polys[r].at(t)[0] for r, t in zip(rows, ts)])
        assert np.array_equal(curves.at(rows, ts), ref)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_exact_at_equals_polyline_at_bit_for_bit(self, plane):
        rng = np.random.Generator(np.random.Philox(key=83))
        polys = mixed_family(rng, plane)
        n = len(polys)
        # signed zeros on vertices, where plain at() loses the sign
        polys += [Polyline([[-0.0, 0.0], [1.0, -0.0], [1.0, -0.0], [-0.0, 2.0]], plane),
                  Polyline([[-0.0, -0.0]], plane), Polyline([[-0.0, 1.0], [-0.0, 1.0]], plane)]
        curves = CurveArray(polys, plane)
        rows = np.concatenate([np.repeat(np.arange(n + 3), curves.nbreaks),
                               n + np.array([0, 0, 0, 1, 2])])
        ts = np.concatenate([curves.breaks, [0.0, 1.0, 0.5, 1.0, 0.0]])
        ts = np.concatenate([ts, rng.uniform(0.0, 1.0, 200)])
        rows = np.concatenate([rows, rng.integers(0, n + 3, 200)])
        ref = np.array([polys[r].at(t)[0] for r, t in zip(rows, ts)])
        assert curves.at(rows, ts, exact=True).tobytes() == ref.tobytes()
        plain = curves.at(rows, ts)
        assert np.array_equal(plain, ref) and plain.tobytes() != ref.tobytes()

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_plane_length_equals_polyline_length(self, plane):
        rng = np.random.Generator(np.random.Philox(key=84))
        for own in (PL, plane):  # the members' own lengths in l2, or in the plane
            polys = mixed_family(rng, own)
            curves = CurveArray(polys, plane)
            assert curves.plane_length.tolist() == [Polyline(p.points, plane).length
                                                   for p in polys]
            assert curves.length.tolist() == [p.length for p in polys]
        assert CurveArray([], plane).plane_length.shape == (0,)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_matrix_equals_pairwise(self, plane):
        rng = np.random.Generator(np.random.Philox(key=77))
        for _ in range(5):
            polys = mixed_family(rng, plane)
            idx = np.arange(len(polys))
            got = d_inf_many(CurveArray(polys, plane), idx[:, None], idx)
            ref = [[d_inf(a, b, plane) for b in polys] for a in polys]
            assert np.array_equal(got, ref)
            assert np.all(np.diag(got) == 0.0)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_d_inf_is_symmetric(self, plane):
        rng = np.random.Generator(np.random.Philox(key=78))
        polys = mixed_family(rng, plane)
        for a in polys:
            for b in polys:
                assert d_inf(a, b, plane) == d_inf(b, a, plane)

    def test_single_point_and_zero_length(self):
        dot = Polyline([[1.0, 2.0]])
        stall = Polyline([[1.0, 2.0], [1.0, 2.0]])
        seg = Polyline([[1.0, 2.0], [4.0, 6.0]])
        assert d_inf(dot, stall) == 0.0
        assert d_inf(dot, seg) == 5.0
        row = d_inf_many(CurveArray([dot, stall, seg]), 0, [1, 2])
        assert row.tolist() == [0.0, 5.0]

    def test_broadcast_shapes_and_empty(self):
        polys = [Polyline([[0.0, 0.0], [1.0, 0.0]]), Polyline([[0.0, 1.0]])]
        curves = CurveArray(polys)
        assert d_inf_many(curves, 0, []).shape == (0,)
        assert d_inf_many(curves, np.array([[0], [1]]), np.zeros(0, dtype=int)).shape == (2, 0)
        assert d_inf_many(curves, np.array([[0], [1]]), [0, 1]).shape == (2, 2)
        assert d_inf_many(curves, 1, 0).tolist() == [d_inf(polys[1], polys[0])]
        assert CurveArray([]).breaks.shape == (0,)

    @pytest.mark.parametrize("cap", [1, 5, 64])
    def test_chunked_equals_unchunked(self, cap, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=79))
        polys = mixed_family(rng, PL, n=20)
        curves = CurveArray(polys, PL)
        idx = np.arange(len(polys))
        whole = d_inf_many(curves, idx[:, None], idx)
        monkeypatch.setattr(currents, "CHUNK_SAMPLES", cap)
        samples = []
        gap = CurveArray.gap

        def counting_gap(self, x, y):
            samples.append(int(np.sum(self.bstart[y + 1] - self.bstart[y])))
            return gap(self, x, y)

        monkeypatch.setattr(CurveArray, "gap", counting_gap)
        assert np.array_equal(d_inf_many(curves, idx[:, None], idx), whole)
        # one gap pass per block samples both directions within the cap; one
        # pair is never split
        pair_max = 2 * int(np.diff(curves.bstart).max())
        assert max(samples) <= max(cap, pair_max)
        assert len(samples) > 1

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    @pytest.mark.parametrize("cap", [1, 5, 64, currents.CHUNK_SAMPLES])
    def test_one_pass_equals_pairwise_in_every_shape(self, plane, cap, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=81))
        polys = mixed_family(rng, plane, n=14)
        polys += [Polyline([[0.5, 0.5]], plane), Polyline([[0.5, 0.5], [0.5, 0.5]], plane)]
        curves = CurveArray(polys, plane)
        monkeypatch.setattr(currents, "CHUNK_SAMPLES", cap)
        calls = []
        gap = CurveArray.gap

        def counting_gap(self, x, y):
            calls.append(len(x))
            return gap(self, x, y)

        monkeypatch.setattr(CurveArray, "gap", counting_gap)
        n = len(polys)
        idx = np.arange(n)
        ref = np.array([[d_inf(a, b, plane) for b in polys] for a in polys])
        step = max(1, cap // (2 * curves.max_breaks))
        for a, b in ((idx[:, None], idx), (idx, idx[::-1]), (3, idx), (idx[:, None], 0),
                     (idx[None, :], idx[:, None])):
            calls.clear()
            got = d_inf_many(curves, a, b)
            want = ref[np.broadcast_arrays(a, b)]
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # one gap pass per block, over both directions of its pairs
            assert len(calls) == -(-got.size // step)
            assert sum(calls) == 2 * got.size

    def test_breaks_and_counts_equal_the_polylines(self):
        rng = np.random.Generator(np.random.Philox(key=82))
        for plane in PLANES:
            polys = mixed_family(rng, plane)
            curves = CurveArray(polys, plane)
            assert np.array_equal(curves.breaks, np.concatenate([p.breaks() for p in polys]))
            assert curves.nbreaks.tolist() == [len(p.breaks()) for p in polys]
            assert curves.max_breaks == max(len(p.breaks()) for p in polys)
            assert np.array_equal(curves.bstart, np.cumsum([0] + curves.nbreaks.tolist()))
        empty = CurveArray([])
        assert (empty.max_breaks, empty.bstart.tolist()) == (0, [0])


class TestTestForms:
    def test_declared_lip_bounds_sampled_quotients(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        pts = rng.uniform(-3, 3, size=(10 ** 4, 2))
        qts = rng.uniform(-3, 3, size=(10 ** 4, 2))
        for form in standard_panel(23, count=8, scale=2.0):
            dv = np.abs(form.pi.value(pts) - form.pi.value(qts))
            dd = PL.norm_arr(pts - qts)
            assert np.all(dv <= form.lip_pi * dd + 1e-9)

    def test_sup_bound_holds(self):
        rng = np.random.Generator(np.random.Philox(key=18))
        pts = rng.uniform(-3, 3, size=(2000, 2))
        for form in standard_panel(29, count=8, scale=2.0):
            assert np.all(np.abs(form.f.value(pts)) <= form.sup_f + 1e-12)

    def test_panel_is_deterministic(self):
        p1 = standard_panel(99, count=6)
        p2 = standard_panel(99, count=6)
        assert p1 == p2


class ReferenceField:
    """The per-tag ``value``, ``grad``, ``lip`` and ``sup`` that ScalarField had
    before its shape table; a bump measured |p - q| in l2 whatever its plane."""

    def __init__(self, tag, params, plane=PL):
        self.tag, self.params, self.plane = tag, params, plane

    def value(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        if self.tag == "const":
            return np.full(len(p), self.params[0])
        if self.tag == "affine":
            a, b, c = self.params
            return a * p[:, 0] + b * p[:, 1] + c
        if self.tag == "clipaffine":
            a, b, c, lo, hi = self.params
            return np.clip(a * p[:, 0] + b * p[:, 1] + c, lo, hi)
        if self.tag == "dist":
            return self.plane.norm_arr(p - np.array(self.params[:2]))
        qx, qy, m = self.params
        return np.maximum(0.0, m - np.hypot(p[:, 0] - qx, p[:, 1] - qy))

    def grad(self, pts):
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        if self.tag == "const":
            return np.zeros_like(p)
        if self.tag in ("affine", "clipaffine"):
            g = np.empty_like(p)
            g[:] = self.params[:2]
            if self.tag == "clipaffine":
                a, b, c, lo, hi = self.params
                v = a * p[:, 0] + b * p[:, 1] + c
                g[(v <= lo) | (v >= hi)] = 0.0
            return g
        if self.tag == "dist":
            return self.plane.norm_grad(p - np.array(self.params[:2]))
        qx, qy, m = self.params
        d = p - np.array([qx, qy])
        n = np.hypot(d[:, 0], d[:, 1])
        g = np.zeros_like(p)
        on = (n > 0) & (n < m)
        g[on] = -d[on] / n[on, None]
        return g

    def lip(self):
        if self.tag == "const":
            return 0.0
        if self.tag in ("affine", "clipaffine"):
            return self.plane.dual_norm(self.params[:2])
        if self.tag == "dist" or self.plane.tag in ("l1", "l2"):
            return 1.0
        w = self.plane.weights
        return math.hypot(1.0 / w[0], 1.0 / w[1])

    def sup(self):
        if self.tag == "const":
            return abs(self.params[0])
        if self.tag == "clipaffine":
            return max(abs(self.params[3]), abs(self.params[4]))
        if self.tag == "bump":
            return abs(self.params[2])
        return math.inf


def bits(x) -> np.ndarray:
    """The float64 bit patterns of x, so that signed zeros and NaNs compare too."""
    return np.asarray(x, dtype=float).view(np.int64)


PLANES = [NormedPlane("l1"), PL, NormedPlane("linf"), NormedPlane("wmax", (2.0, 0.5))]


def field_cases(rng):
    """Params for every tag, and the points on its levels and at its center:
    the ramp's clip levels, and q with the points at distance m (exactly) along
    the axes."""
    a, b, c = (float(x) for x in rng.normal(size=3))
    lo, hi = sorted(float(x) for x in rng.uniform(-2, 2, size=2))
    q, m = (0.5, -1.25), 2.0
    levels = [((lo - c) / a, 0.0), ((hi - c) / a, 0.0), (0.0, (lo - c) / b)]
    ring = [q, (q[0] + m, q[1]), (q[0], q[1] - m), (q[0] - m, q[1]), (q[0], q[1] + 3.0)]
    return [("const", (c,), []), ("const", (0.0,), []), ("affine", (a, b, c), levels),
            ("clipaffine", (a, b, c, lo, hi), levels), ("clipaffine", (1.0, 0.0, 0.5, -1.0, 2.0),
                                                        [(-1.5, 7.0), (1.5, -3.0)]),
            ("dist", q, ring), ("bump", (q[0], q[1], m), ring)]


class TestFieldShapes:
    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_bit_for_bit_with_the_per_tag_fields(self, plane):
        rng = np.random.Generator(np.random.Philox(key=61))
        for _ in range(5):
            for tag, params, special in field_cases(rng):
                if tag == "bump" and plane.tag != "l2":
                    continue
                pts = np.vstack([rng.uniform(-4, 4, size=(5000, 2)), np.reshape(special, (-1, 2))])
                new, old = ScalarField(tag, params, plane), ReferenceField(tag, params, plane)
                for method in ("value", "grad"):
                    assert np.array_equal(bits(getattr(new, method)(pts)),
                                          bits(getattr(old, method)(pts))), (tag, method)
                assert bits(new.lip()) == bits(old.lip()) and bits(new.sup()) == bits(old.sup())

    def test_bit_for_bit_on_a_panel(self):
        rng = np.random.Generator(np.random.Philox(key=62))
        pts = rng.uniform(-6, 6, size=(5000, 2))
        for form in standard_panel(7, count=20, scale=2.0):
            for new in (form.f, form.pi):
                old = ReferenceField(new.tag, new.params, new.plane)
                assert np.array_equal(bits(new.value(pts)), bits(old.value(pts)))
                assert np.array_equal(bits(new.grad(pts)), bits(old.grad(pts)))
                assert bits(new.lip()) == bits(old.lip()) and bits(new.sup()) == bits(old.sup())

    def test_bump_measures_distance_in_its_plane(self):
        plane = NormedPlane("l1")
        rng = np.random.Generator(np.random.Philox(key=63))
        pts = rng.uniform(-3, 3, size=(2000, 2))
        bump = ScalarField("bump", (0.5, -0.25, 2.0), plane)
        want = np.maximum(0.0, 2.0 - plane.norm_arr(pts - (0.5, -0.25)))
        assert np.array_equal(bump.value(pts), want)
        assert bump.lip() == 1.0 and bump.sup() == 2.0
        inside = want > 0
        assert np.array_equal(bump.grad(pts)[inside], -np.sign(pts[inside] - (0.5, -0.25)))

    @pytest.mark.parametrize("tag, params", [
        ("cone", (1.0,)), ("affine", (1.0, 2.0)), ("const", ()), ("dist", (1.0, 2.0, 3.0)),
        ("clipaffine", (1.0, 0.0, 0.0, 2.0, 1.0)), ("bump", (0.0, 0.0, -1.0)),
        ("const", (float("nan"),))])
    def test_malformed_field_is_rejected_at_construction(self, tag, params):
        with pytest.raises(CurrentError):
            ScalarField(tag, params)
