import math

import numpy as np
import pytest

from current1d import (Chain1, ClosedSet, ConvexBox, CurveMeasure, Line, MetricGraph,
                       Molecule, NormalizeResult, NormedPlane, Polyline, Slab, ae_norm,
                       approximate, fat_cantor_chain, lift_off_line, minimal_filling,
                       normalize, rectifiable_filling, rescale_interior, restrict,
                       translate_singular)
from current1d.structure import (GEOM_EPS, NoAdmissibleShift, StructureError, clears,
                                 is_admissible, line_filling, sample_support_measure)

PL = NormedPlane("l2")
AXIS = Line(0.0, 1.0, 0.0)


def line_slab(line: Line) -> ClosedSet:
    """The line thickened to half-width 1e-12 (1 + |c|): an independent route to
    N restricted to the line, through ``restrict``, for the cross-checks."""
    th = 1e-12 * (1.0 + abs(line.c))
    return ClosedSet.of(Slab(line.a, line.b, line.c - th, line.c + th))


def unit_segment(w=1.0):
    return Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), w)])


class TestRescaleInterior:
    def test_interior_chain_gets_tiny_eta(self):
        box = ConvexBox((0.0, 0.0), (1.0, 1.0))
        c = Chain1.from_segments(PL, [((-0.25, 0.0), (0.25, 0.0), 1.0)])
        p2, cert = rescale_interior(c, box, eps=1e-6)
        assert cert <= 1e-6 + 1e-15
        assert abs(p2.mass() - c.mass()) <= 1e-5

    def test_boundary_touching_chain_shrinks(self):
        box = ConvexBox((0.5, 0.0), (0.5, 0.5))
        c = unit_segment()
        p2, cert = rescale_interior(c, box, eps=0.5)
        assert p2.mass() < c.mass()
        # strictly inside: at least 1e-12 from each side of the box
        for piece in p2.pieces:
            for p in (piece.start, piece.end):
                assert abs(p[0] - box.center[0]) <= box.half_widths[0] - 1e-12
                assert abs(p[1] - box.center[1]) <= box.half_widths[1] - 1e-12

    def test_large_eps_is_capped(self):
        box = ConvexBox((0.5, 0.0), (1.0, 1.0))
        c = unit_segment()
        p2, _ = rescale_interior(c, box, eps=1e9)
        assert p2.mass() == pytest.approx(0.75 * c.mass(), abs=1e-12)  # eta cap 1/4

    def test_rejects_chain_outside_box(self):
        box = ConvexBox((0.0, 0.0), (0.25, 0.25))
        with pytest.raises(StructureError):
            rescale_interior(unit_segment(), box, eps=0.1)

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
    def test_certificate_is_the_trapezoid_bound(self, tag):
        # eta (2 sum |w| L (|a - c| + |b - c|) / 2 + sum |dw_j| |x_j - c|), summed by hand
        plane = NormedPlane(tag)
        rng = np.random.Generator(np.random.Philox(key=61))
        box = ConvexBox((0.3, -0.2), (1.0, 1.5))
        c = np.array(box.center)
        for _ in range(10):
            pts = c + rng.uniform(-0.9, 0.9, size=(4, 2)) * box.half_widths
            chain = Chain1.from_segments(plane, [(tuple(pts[i]), tuple(pts[i + 1]),
                                                  float(rng.normal())) for i in range(3)])
            rate = 0.0
            for piece in chain.pieces:
                na = plane.norm(np.subtract(piece.start, c))
                nb = plane.norm(np.subtract(piece.end, c))
                rate += 2.0 * abs(piece.weight) * piece.length * (na + nb) / 2.0
            rate += sum(abs(w) * plane.norm(np.subtract(x, c)) for x, w in chain.boundary().atoms)
            for eps in (1e-3, 1e9):
                _, cert = rescale_interior(chain, box, eps)
                assert cert == pytest.approx(min(0.25, eps / rate) * rate, rel=1e-12)


class TestTranslateSingular:
    def test_empty_measure_first_grid_point(self):
        res = translate_singular(unit_segment(), (), None, t1=0.64)
        assert res.t == pytest.approx(0.64 / 64, abs=1e-15)
        assert res.flat_cert == pytest.approx(res.t * (2 * 1.0 + 2.0), abs=1e-12)

    def test_atom_on_support_is_avoided(self):
        mu = [(0.5, 0.0)]
        res = translate_singular(unit_segment(), mu, None, t1=0.1)
        for piece in res.chain.pieces:
            a, b = piece.start, piece.end
            # distance from the atom to the shifted segment is positive
            assert not is_on_segment((0.5, 0.0), a, b)

    def test_piece_inside_line_leaves_it(self):
        res = translate_singular(unit_segment(), (), AXIS, t1=0.1)
        for piece in res.chain.pieces:
            assert abs(AXIS.signed_dist(piece.start)) > 0

    def test_connectors_close_the_boundary(self):
        c = unit_segment()
        res = translate_singular(c, (), AXIS, t1=0.05)
        total = res.chain + res.connectors
        assert total.boundary() == c.boundary()
        assert res.connectors.mass() == pytest.approx(res.t * 2.0, abs=1e-12)

    @pytest.mark.parametrize("plane", [NormedPlane("l1"), NormedPlane("wmax", (2.0, 1.0))],
                             ids=["l1", "wmax"])
    def test_certificate_measures_the_shift_in_the_plane(self, plane):
        # the direction is a euclidean unit vector, so |w| differs from 1 in these planes
        for c in (Chain1.from_segments(plane, [((0.0, 0.0), (1.0, 0.0), 1.0)]),
                  Chain1.from_segments(plane, [((0.0, 0.0), (1.0, 0.0), 1.0),
                                               ((1.0, 0.0), (1.0, 1.0), 1.0)])):
            res = translate_singular(c, (), None, t1=0.64)
            wn = plane.norm(res.w)
            assert wn > 1.0 + 1e-3
            expected = res.t * wn * (2.0 * c.mass() + c.boundary().mass0())
            assert res.flat_cert == pytest.approx(expected, abs=1e-12)
            assert res.connectors.mass() == pytest.approx(res.t * wn * c.boundary().mass0(),
                                                          abs=1e-12)

    @pytest.mark.parametrize("t1", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_budget_that_is_not_positive_and_finite(self, t1):
        with pytest.raises(StructureError, match="positive finite"):
            translate_singular(unit_segment(), [(0.5, 0.0)], AXIS, t1)

    def test_connectors_are_the_shifted_boundary_atoms(self):
        c = Chain1.from_segments(PL, [((0.0, 0.5), (1.0, 0.5), 1.5), ((1.0, 0.5), (1.0, 2.0), -0.5)])
        res = translate_singular(c, [(0.5, 0.5)], AXIS, t1=0.1)
        tv = (res.t * res.w[0], res.t * res.w[1])
        expected = Chain1.from_segments(PL, [(x, (x[0] + tv[0], x[1] + tv[1]), -w)
                                             for x, w in c.boundary().atoms])
        assert res.connectors.pieces == expected.pieces


def is_on_segment(p, a, b, tol=1e-12):
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    den = ax * ax + ay * ay
    t = max(0.0, min(1.0, (px * ax + py * ay) / den)) if den else 0.0
    return math.hypot(px - t * ax, py - t * ay) <= tol


class TestRectifiableFilling:
    def test_admissible_chain_returns_in_one_round(self):
        c = Chain1.from_segments(PL, [((0.0, 0.1), (1.0, 0.2), 1.0)])
        res = rectifiable_filling(c, 0.1, (), AXIS)
        assert len(res.rounds) == 1
        assert res.rounds[0].action == "absorb"
        assert res.chain.mass() == c.mass()
        assert res.boundary_gap == 0.0

    def test_segment_on_line_becomes_tent(self):
        c = unit_segment()
        res = rectifiable_filling(c, 0.1, (), AXIS)
        assert res.chain.boundary() == c.boundary()
        assert res.chain.mass() <= (1 + 0.1) * c.mass() + 1e-9
        assert is_admissible(res.chain, (), AXIS)

    def test_atom_collision_resolved_by_translation(self):
        c = Chain1.from_segments(PL, [((0.0, 0.5), (1.0, 0.5), 1.0)])
        mu = [(0.5, 0.5)]
        res = rectifiable_filling(c, 0.2, [(0.5, 0.5)], AXIS)
        assert res.chain.mass() <= 1.2 * c.mass() + 1e-9
        assert is_admissible(res.chain, mu, AXIS)
        # translated rounds happened and the boundary still matches exactly
        assert any(r.action == "translate" for r in res.rounds)
        assert res.chain.boundary() == c.boundary()

    def test_mass_budget_bookkeeping(self):
        c = fat_cantor_chain(2)
        mu = [(0.1, 0.0)]  # on a piece interior: forces rounds
        res = rectifiable_filling(c, 0.3, mu, AXIS)
        assert res.chain.mass() <= 1.3 * c.mass() + 1e-9
        budgets = [r.budget for r in res.rounds if r.action == "translate"]
        assert all(budgets[i + 1] <= budgets[i] / 2 + 1e-15 for i in range(len(budgets) - 1))


def reference_line_filling(m: Molecule, line: Line, plane: NormedPlane) -> Chain1:
    """The filling as a min-cost flow on the path graph of the sorted atoms."""
    if not m.atoms:
        return Chain1.empty(plane)
    direction = line.direction()
    dnorm = plane.norm(direction)
    direction = (direction[0] / dnorm, direction[1] / dnorm)
    order = sorted((p for p, _ in m.atoms),
                   key=lambda p: p[0] * direction[0] + p[1] * direction[1])
    index = {p: i for i, p in enumerate(order)}
    edges = [(i, i + 1, plane.dist(order[i], order[i + 1])) for i in range(len(order) - 1)]
    if not edges:
        return Chain1.empty(plane)
    graph = MetricGraph([list(p) for p in order], edges, ambient="path")
    fill = minimal_filling(Molecule([(index[p], w) for p, w in m.atoms]), graph)
    return Chain1.from_segments(plane, [(order[piece.start], order[piece.end], piece.weight)
                                        for piece in fill.chain.pieces])


def line_molecule(rng, line: Line, repeated: bool) -> Molecule:
    """Random atoms on the line; with ``repeated``, drawn from a few positions so
    that atoms merge and the running sum returns to zero between groups."""
    k = int(rng.integers(2, 12))
    foot = (line.a * line.c, line.b * line.c)
    if repeated:
        s = rng.choice(rng.uniform(-3.0, 3.0, size=4), size=k)
    else:
        s = rng.uniform(-3.0, 3.0, size=k)
    w = rng.normal(size=k)
    w[-1] -= w.sum()
    return Molecule([((foot[0] - line.b * t, foot[1] + line.a * t), x) for t, x in zip(s, w)])


class TestLineFilling:
    def test_fat_cantor_filling_is_the_intervals(self):
        c = fat_cantor_chain(2)
        fill = line_filling(c.boundary(), AXIS, PL)
        assert fill.mass() == pytest.approx(c.mass(), abs=1e-12)
        assert fill.boundary() == c.boundary()

    @pytest.mark.parametrize("k", range(10))
    def test_fat_cantor_boundary_equals_the_flow_route(self, k):
        c = fat_cantor_chain(k)
        fill = line_filling(c.boundary(), AXIS, PL)
        assert fill.boundary() == c.boundary()
        assert fill.boundary() == reference_line_filling(c.boundary(), AXIS, PL).boundary()

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
    def test_running_sum_matches_the_path_graph_flow(self, tag, repeated):
        plane = NormedPlane(tag)
        rng = np.random.Generator(np.random.Philox(key=251))
        for i in range(40):
            line = AXIS if i == 0 else Line(*rng.normal(size=3))
            m = line_molecule(rng, line, repeated)
            fill = line_filling(m, line, plane)
            ref = reference_line_filling(m, line, plane)
            assert [(p.start, p.end) for p in fill.pieces] == [(p.start, p.end) for p in ref.pieces]
            for p, q in zip(fill.pieces, ref.pieces):
                assert abs(p.weight - q.weight) <= 1e-12
            assert abs(fill.mass() - ref.mass()) <= 1e-12
            assert fill.mass() == pytest.approx(ae_norm(m, plane).value, abs=1e-9)

    def test_rejects_atom_off_the_line(self):
        m = Molecule([((0.0, 0.0), 1.0), ((1.0, 1e-3), -1.0)])
        with pytest.raises(StructureError, match="not on the line"):
            line_filling(m, AXIS, PL)

    def test_empty_and_cancelled_molecules_give_no_pieces(self):
        assert line_filling(Molecule([]), AXIS, PL).pieces == ()
        m = Molecule([((0.0, 0.0), 1.0), ((1.0, 0.0), -1.0), ((1.0, 0.0), 1.0),
                      ((0.0, 0.0), -1.0)])
        assert line_filling(m, AXIS, PL).pieces == ()

    def test_ae_value_matches(self):
        c = fat_cantor_chain(3)
        m = c.boundary()
        fill = line_filling(m, AXIS, PL)
        assert fill.mass() == pytest.approx(ae_norm(m, PL).value, abs=1e-9)


class TestNormalize:
    def test_a_graph_chain_is_rejected(self):
        g = MetricGraph([[0, 0], [1, 0], [1, 1]], [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(StructureError, match="normalize needs a chain on a normed plane"):
            normalize(Chain1.from_graph_edges(g, [(0, 1, 1.0)]), AXIS, 0.1)

    def test_unit_segment(self):
        t = unit_segment()
        res = normalize(t, AXIS, eps=0.1)
        assert res.boundary_residual <= 1e-9
        assert res.mass_ratio <= 2.1 + 1e-9
        frag = restrict(res.n_chain, line_slab(AXIS))
        assert abs(frag.mass() - t.mass()) <= 1e-9

    @pytest.mark.parametrize("k", [0, 1, 2, 4, 6])
    def test_fat_cantor_stages(self, k):
        t = fat_cantor_chain(k)
        assert t.mass() == 0.5 + 2.0 ** (-(k + 1))
        res = normalize(t, AXIS, eps=0.1)
        assert res.boundary_residual <= 1e-9
        assert res.n_chain.mass() <= 2.1 * t.mass() + 1e-9
        frag = restrict(res.n_chain, line_slab(AXIS))
        assert abs(frag.mass() - t.mass()) <= 1e-9

    # off the axes a fragment's l1 and linf lengths differ from its euclidean
    # length, so the restriction must be measured in the plane's norm
    @pytest.mark.parametrize("tag", ["l1", "linf"])
    @pytest.mark.parametrize("line", [AXIS, Line(0.0, 2.0, 1.4), Line(1.0, 0.0, -0.5),
                                      Line(1.0, -1.0, 0.0), Line(0.3, 1.0, 0.2)],
                             ids=["axis", "horizontal", "vertical", "diagonal", "general"])
    def test_l1_and_linf_planes(self, tag, line):
        plane = NormedPlane(tag)
        d = line.direction()
        foot = (line.a * line.c, line.b * line.c)
        pt = lambda s: (foot[0] + s * d[0], foot[1] + s * d[1])  # noqa: E731
        t = Chain1.from_segments(plane, [(pt(0.0), pt(1.0), 1.0), (pt(1.5), pt(2.5), -0.5),
                                         (pt(3.0), pt(3.25), 2.0)])
        res = normalize(t, line, eps=0.1)
        assert res.ok
        assert res.boundary_residual <= 1e-9
        assert res.mass_ratio <= 2.1 + 1e-9
        assert res.restriction_error <= 1e-9
        assert abs(res.n_chain.mass() - res.mass_ratio * t.mass()) <= 1e-12

    def test_verdict_reads_each_bound(self):
        res = normalize(fat_cantor_chain(3), AXIS, eps=0.1)
        assert res.ok and res.eps == 0.1
        for field, value in (("boundary_residual", 2e-9), ("mass_ratio", 2.1 + 2e-9),
                             ("restriction_error", 2e-9)):
            bad = NormalizeResult(**{**res.__dict__, field: value})
            assert not bad.ok
        assert NormalizeResult(**{**res.__dict__, "mass_ratio": 2.1}).ok

    def test_zero_chain(self):
        t = Chain1.empty(PL)
        res = normalize(t, AXIS, eps=0.1)
        assert res.n_chain.pieces == ()
        assert res.r_chain.pieces == ()
        assert res.ok

    def test_zero_boundary_keeps_chain(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0),
                                      ((1.0, 0.0), (0.0, 0.0), 1.0)])
        res = normalize(t, AXIS, eps=0.1)
        assert res.r_chain.pieces == ()
        assert res.mass_ratio == pytest.approx(1.0, abs=1e-12)

    def test_rejects_off_line_chain(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 1.0), 1.0)])
        with pytest.raises(StructureError):
            normalize(t, AXIS, eps=0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_eps_that_is_not_positive_and_finite(self, eps):
        box = ConvexBox((0.5, 0.0), (1.0, 1.0))
        with pytest.raises(StructureError, match="positive finite"):
            normalize(unit_segment(), AXIS, eps)
        with pytest.raises(StructureError, match="positive finite"):
            rescale_interior(unit_segment(), box, eps)
        with pytest.raises(StructureError, match="positive finite"):
            rectifiable_filling(unit_segment(), eps, (), AXIS)

    def test_support_disjointness(self):
        t = fat_cantor_chain(2)
        res = normalize(t, AXIS, eps=0.1)
        mu_pts = {p for piece in t.pieces for p in (piece.start, piece.end)}
        for piece in res.r_chain.pieces:
            a, b = piece.start, piece.end
            for lam in (0.25, 0.5, 0.75):
                q = (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))
                assert abs(AXIS.signed_dist(q)) > 0
                assert q not in mu_pts

    @pytest.mark.parametrize("k", [8, 9])
    def test_deep_fat_cantor_stages_are_ok(self, k):
        # every tent foot touches the line at one point, which carries no length
        t = fat_cantor_chain(k)
        res = normalize(t, AXIS, eps=0.1)
        assert res.ok
        assert res.restriction_error == 0.0
        assert res.boundary_residual <= 1e-9
        assert res.mass_ratio <= 2.1 + 1e-9

    def test_the_pieces_inside_the_line_are_the_chain(self):
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0),
                                      ((2.0, 0.0), (2.5, 0.0), -3.0)])
        res = normalize(t, AXIS, eps=0.1)
        inside = [p for p in res.n_chain.pieces
                  if p.start != p.end and p.start[1] == 0.0 and p.end[1] == 0.0]
        assert inside == list(t.pieces)
        assert res.restriction_error == 0.0

    def test_restriction_reproduces_pieces(self):
        t = fat_cantor_chain(1)
        res = normalize(t, AXIS, eps=0.1)
        frag = restrict(res.n_chain, line_slab(AXIS))
        whole = [f for f in frag.fragments
                 if f.domain and f.domain[0][1] - f.domain[0][0] >= 1.0 - 1e-12]
        assert len(whole) == len(t.pieces)


class TestLiftOffLine:
    def test_tent_height_solves_mass_factor(self):
        c = unit_segment()
        lifted = lift_off_line(c, AXIS, (), eps=0.2)
        assert len(lifted.pieces) == 2
        assert lifted.mass() == pytest.approx(1.2, abs=1e-9)
        assert lifted.boundary() == c.boundary()

    def test_linf_plane_uses_bisection(self):
        plane = NormedPlane("linf")
        c = Chain1.from_segments(plane, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        lifted = lift_off_line(c, AXIS, (), eps=0.2)
        assert lifted.mass() <= 1.2 + 1e-6
        assert lifted.mass() >= 1.0

    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.5])
    def test_rejects_eps_that_is_not_positive_and_finite(self, eps):
        for plane in (PL, NormedPlane("linf")):
            c = Chain1.from_segments(plane, [((0.0, 0.0), (1.0, 0.0), 1.0)])
            with pytest.raises(StructureError, match="positive finite"):
                lift_off_line(c, AXIS, (), eps)

    def test_no_clear_height_raises(self):
        # an atom on the perpendicular bisector blocks every apex on the 64-point grid
        c = unit_segment()
        h = 0.5 * math.sqrt(1.2 ** 2 - 1.0)
        mu = [(0.5, h * (1.0 - j / 64.0)) for j in range(64)]
        with pytest.raises(NoAdmissibleShift):
            lift_off_line(c, AXIS, mu, eps=0.2)

    def test_apex_dodges_atoms(self):
        c = unit_segment()
        # place an atom exactly at the default apex
        h = 0.5 * math.sqrt(1.2 ** 2 - 1.0)
        mu = [(0.5, h)]
        lifted = lift_off_line(c, AXIS, mu, eps=0.2)
        apex = lifted.pieces[0].end
        assert apex != (0.5, h)


class TestClears:
    def test_endpoint_atoms_block_unless_spared(self):
        a, b = (0.0, 1.0), (1.0, 1.0)
        assert clears(a, b, [(2.0, 1.0), (0.5, 2.0)])
        assert not clears(a, b, [a])
        assert clears(a, b, [a], spare=(a,))
        assert not clears(a, b, [b], spare=(a,))
        assert clears(a, b, [a, b], spare=(a, b))
        assert not clears(a, b, [(0.5, 1.0)], spare=(a, b))

    def test_segment_inside_the_line_never_clears(self):
        assert not clears((0.0, 0.0), (1.0, 0.0), (), AXIS)
        assert clears((0.0, 0.0), (1.0, 0.0), ())
        assert clears((0.0, 0.0), (1.0, 1.0), (), AXIS)  # touching at an endpoint is fine
        assert clears((0.0, 0.0), (0.0, 0.0), (), AXIS)  # a point carries no length

    def test_admissibility_ignores_zero_weight_pieces(self):
        c = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 0.0), ((0.0, 1.0), (1.0, 1.0), 1.0)])
        assert is_admissible(c, [(0.5, 0.0), (0.0, 1.0)], AXIS)
        assert not is_admissible(c, [(0.5, 1.0)], AXIS)


def seg_point_dist(p, a, b) -> float:
    """Scalar euclidean distance from p to the segment [a, b]: the reference for ``clears``."""
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    den = ax * ax + ay * ay
    if den == 0.0:
        return math.hypot(px, py)
    t = max(0.0, min(1.0, (px * ax + py * ay) / den))
    return math.hypot(px - t * ax, py - t * ay)


def reference_clears(a, b, mu, spare=()) -> bool:
    return not any(seg_point_dist(p, a, b) <= GEOM_EPS
                   and all(math.hypot(p[0] - q[0], p[1] - q[1]) > GEOM_EPS for q in spare)
                   for p in mu)


class TestClearsAgainstScalar:
    def test_seeded_segments_and_atoms(self):
        rng = np.random.default_rng(7)
        verdicts = []
        for _ in range(400):
            a = tuple(rng.integers(-3, 4, size=2).astype(float))
            b = a if rng.random() < 0.2 else tuple(rng.integers(-3, 4, size=2).astype(float))
            on = [(a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))
                  for s in rng.choice([0.0, 0.25, 0.5, 1.0], size=int(rng.integers(0, 3)))]
            near = [(p[0], p[1] + d) for p in on for d in (GEOM_EPS / 2, 4 * GEOM_EPS)]
            loose = [tuple(q) for q in rng.uniform(-3.0, 3.0, size=(int(rng.integers(0, 6)), 2))]
            mu = on + near + loose
            rng.shuffle(mu)
            spare = [(), (a,), (b,), (a, b), tuple(loose[:1]) + (a,)][int(rng.integers(0, 5))]
            want = reference_clears(a, b, mu, spare)
            assert clears(a, b, mu, spare=spare) == want
            assert clears(a, b, np.array(mu).reshape(-1, 2), spare=spare) == want
            verdicts.append(want)
        assert 50 <= sum(verdicts) <= 350  # both verdicts are well represented

    def test_support_measure_lists_each_atom_once_in_order(self):
        c = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0), ((1.0, 0.0), (2.0, 0.0), 1.0),
                                      ((0.5, 0.0), (1.0, 0.0), 1.0)])
        mu = sample_support_measure(c)
        assert mu.shape == (6, 2)
        assert mu.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [2.0, 0.0], [1.5, 0.0],
                               [0.75, 0.0]]
        assert sample_support_measure(Chain1.empty(PL)).shape == (0, 2)


class TestRelaxedMassSanity:
    def test_approximation_of_own_pieces_preserves_mass(self):
        t = fat_cantor_chain(2)
        entries = []
        for piece in t.pieces:
            entries.append((abs(piece.weight), Polyline([piece.start, piece.end])))
        cm = CurveMeasure.of(entries)
        for mesh in (0.5, 0.25, 0.125):
            p, cert = approximate(cm, eps=1e-6, mesh=mesh)
            assert abs(p.mass() - t.mass()) <= 1e-6


class TestNonAxisLine:
    def test_normalize_on_diagonal_line(self):
        line = Line(1.0, -1.0, 0.0)  # x = y
        t = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 1.0), 1.0),
                                      ((2.0, 2.0), (3.0, 3.0), -0.5)])
        res = normalize(t, line, eps=0.1)
        assert res.boundary_residual <= 1e-9
        assert res.n_chain.mass() <= 2.1 * t.mass() + 1e-9
        frag = restrict(res.n_chain, line_slab(line))
        assert abs(frag.mass() - t.mass()) <= 1e-9
