import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import current1d.flatnorm as flatnorm
from current1d import (Chain1, CubicalComplex, NormedPlane, Polyline, SolverError, check_flat,
                       d_inf, flat_norm, simplex_lp, snap)
from current1d.flatnorm import FlatResult, GridError, complex_covering

PL = NormedPlane("l2")


def flat_norm_lp(t: np.ndarray, complex_: CubicalComplex) -> FlatResult:
    """The flat norm LP solved by the dense simplex on [I, -I, d2, -d2]: the
    oracle for ``flat_norm``; ``iterations`` counts simplex pivots."""
    ne, nf = complex_.n_edges, complex_.n_faces
    d2 = complex_.d2_matrix()
    a = np.hstack([np.eye(ne), -np.eye(ne), d2, -d2])
    h = complex_.h
    c = np.concatenate([np.full(2 * ne, h), np.full(2 * nf, h * h)])
    res = simplex_lp(c, a, t)
    x = res.x
    r = x[:ne] - x[ne:2 * ne]
    s = x[2 * ne:2 * ne + nf] - x[2 * ne + nf:]
    return FlatResult(value=float(res.optimum), r=r, s=s, iterations=res.iterations)


def flat_upper_bound_pair(g0: Polyline, g1: Polyline) -> float:
    """Metric-exact certificate (l(g0) + l(g1) + 2) * d_inf(g0, g1) for the
    flat distance between the currents of two curves in the l2 plane."""
    return (g0.length + g1.length + 2.0) * d_inf(g0, g1, PL)


def node_id(cx: CubicalComplex, i: int, j: int) -> int:
    return j * (cx.nx + 1) + i


def edge_endpoints(cx: CubicalComplex, e: int) -> tuple[int, int]:
    if e < cx.n_h:
        j, i = divmod(e, cx.nx)
        return node_id(cx, i, j), node_id(cx, i + 1, j)
    e -= cx.n_h
    j, i = divmod(e, cx.nx + 1)
    return node_id(cx, i, j), node_id(cx, i, j + 1)


def d1_matrix(cx: CubicalComplex) -> np.ndarray:
    """Dense node-by-edge boundary matrix of the complex's edges."""
    d1 = np.zeros((cx.n_nodes, cx.n_edges), dtype=float)
    for e in range(cx.n_edges):
        a, b = edge_endpoints(cx, e)
        d1[a, e] -= 1.0
        d1[b, e] += 1.0
    return d1


def face_loop_d2(cx: CubicalComplex) -> np.ndarray:
    """Dense edge-by-face boundary matrix, face by face: bottom + right - top - left."""
    d2 = np.zeros((cx.n_edges, cx.n_faces), dtype=float)
    for j in range(cx.ny):
        for i in range(cx.nx):
            f = j * cx.nx + i
            d2[cx.h_edge(i, j), f] = 1.0
            d2[cx.v_edge(i + 1, j), f] = 1.0
            d2[cx.h_edge(i, j + 1), f] = -1.0
            d2[cx.v_edge(i, j), f] = -1.0
    return d2


def square_loop(x0, y0, k=1, w=1.0):
    return Chain1.from_segments(PL, [
        ((x0, y0), (x0 + k, y0), w), ((x0 + k, y0), (x0 + k, y0 + 1), w),
        ((x0 + k, y0 + 1), (x0, y0 + 1), w), ((x0, y0 + 1), (x0, y0), w)])


def brute_force_flat_norm(t, cx):
    """Exhaustive oracle over integer face chains s in {-1, 0, 1}^F (unit scale)."""
    d2 = cx.d2_matrix()
    best = np.inf
    for s in itertools.product((-1, 0, 1), repeat=cx.n_faces):
        s = np.array(s, dtype=float)
        r = t - d2 @ s
        best = min(best, cx.h * np.abs(r).sum() + cx.h ** 2 * np.abs(s).sum())
    return best


def random_staircase(rng, steps=4):
    pts = [np.zeros(2)]
    for k in range(steps):
        step = np.array([1.0, 0.0]) if (k + int(rng.integers(0, 2))) % 2 == 0 \
            else np.array([0.0, 1.0])
        pts.append(pts[-1] + step)
    return Polyline(np.array(pts))


class TestComplex:
    def test_d1_d2_zero(self):
        cx = CubicalComplex(h=0.5, nx=4, ny=3)
        assert np.all(d1_matrix(cx) @ cx.d2_matrix() == 0.0)

    def test_counts(self):
        cx = CubicalComplex(h=1.0, nx=3, ny=2)
        assert cx.n_edges == 3 * 3 + 4 * 2
        assert cx.n_faces == 6

    def test_apply_d2_matches_dense_matrix(self):
        rng = np.random.default_rng(3)
        for nx, ny in itertools.product(range(1, 7), range(1, 6)):
            cx = CubicalComplex(h=0.5, nx=nx, ny=ny)
            s = rng.integers(-3, 4, size=cx.n_faces).astype(float)
            assert np.array_equal(cx.apply_d2(s), face_loop_d2(cx) @ s)

    def test_d2_matrix_matches_face_loop(self):
        for nx, ny in itertools.product(range(1, 7), range(1, 6)):
            cx = CubicalComplex(h=0.5, nx=nx, ny=ny)
            d2 = cx.d2_matrix()
            assert d2.flags.c_contiguous and d2.dtype == np.float64
            assert np.array_equal(d2.view(np.int64), face_loop_d2(cx).view(np.int64))


class TestSnap:
    def test_single_horizontal_edge(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        c = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        t = snap(c, cx)
        assert t[cx.h_edge(0, 0)] == 1.0
        assert np.sum(np.abs(t)) == 1.0

    def test_square_loop_signs(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        t = snap(square_loop(0, 0), cx)
        assert np.sum(np.abs(t)) == 4.0
        d1 = d1_matrix(cx)
        assert np.all(d1 @ t == 0.0)  # a loop has no boundary

    def test_opposite_segments_cancel(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=1)
        c = Chain1.from_segments(PL, [((0.0, 0.0), (2.0, 0.0), 1.0),
                                      ((2.0, 0.0), (0.0, 0.0), 1.0)])
        assert np.all(snap(c, cx) == 0.0)

    def test_mass_preserved_per_piece(self):
        cx = CubicalComplex(h=0.5, nx=6, ny=2)
        c = Chain1.from_segments(PL, [((0.0, 0.0), (2.5, 0.0), 2.0)])
        t = snap(c, cx)
        assert np.sum(np.abs(t)) * cx.h == pytest.approx(c.mass(), abs=1e-12)

    def test_off_grid_rejected(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        c = Chain1.from_segments(PL, [((0.25, 0.0), (1.0, 0.0), 1.0)])
        with pytest.raises(GridError):
            snap(c, cx)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_off_the_grid(self, x):
        with pytest.raises(GridError, match="is not finite"):
            CubicalComplex(h=1.0, nx=2, ny=2).node_index_of((x, 0.0))

    def test_diagonal_rejected(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        c = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 1.0), 1.0)])
        with pytest.raises(GridError):
            snap(c, cx)


class TestFlatNorm:
    def test_zero_chain(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        assert flat_norm(np.zeros(cx.n_edges), cx).value == 0.0

    def test_non_finite_rejected(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        t = np.zeros(cx.n_edges)
        t[0] = np.nan
        with pytest.raises(GridError):
            flat_norm(t, cx)

    def test_a_value_that_overflows_is_rejected(self):
        cx = CubicalComplex(h=1.0, nx=2, ny=2)
        t = np.zeros(cx.n_edges)
        t[[cx.h_edge(0, 0), cx.h_edge(1, 0)]] = 1e308
        with np.errstate(over="ignore"), pytest.raises(SolverError, match="duality gap"):
            flat_norm(t, cx)

    def test_unit_square_fills_the_face(self):
        cx = CubicalComplex(h=1.0, nx=3, ny=3)
        t = snap(square_loop(1, 1), cx)
        res = flat_norm(t, cx)
        assert res.value == pytest.approx(1.0, abs=1e-8)
        # exhaustive-oracle cross-check at unit scale
        assert res.value == pytest.approx(brute_force_flat_norm(t, cx), abs=1e-8)
        # reconstruction identity
        assert np.max(np.abs(t - (res.r + cx.d2_matrix() @ res.s))) <= 1e-8

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_thin_rectangles_closed_form(self, k):
        cx = CubicalComplex(h=1.0, nx=k + 2, ny=3)
        t = snap(square_loop(1, 1, k=k), cx)
        assert flat_norm(t, cx).value == pytest.approx(min(2 + 2 * k, k), abs=1e-8)

    def test_value_at_most_mass(self):
        rng = np.random.Generator(np.random.Philox(key=31))
        cx = CubicalComplex(h=1.0, nx=4, ny=4)
        for _ in range(10):
            t = rng.integers(-2, 3, size=cx.n_edges).astype(float)
            res = flat_norm(t, cx)
            assert res.value <= np.abs(t).sum() * cx.h + 1e-8

    def test_subadditive(self):
        rng = np.random.Generator(np.random.Philox(key=32))
        cx = CubicalComplex(h=1.0, nx=4, ny=3)
        for _ in range(10):
            t1 = rng.integers(-1, 2, size=cx.n_edges).astype(float)
            t2 = rng.integers(-1, 2, size=cx.n_edges).astype(float)
            v12 = flat_norm(t1 + t2, cx).value
            assert v12 <= flat_norm(t1, cx).value + flat_norm(t2, cx).value + 1e-7

    def test_face_boundary_costs_at_most_area(self):
        cx = CubicalComplex(h=1.0, nx=3, ny=3)
        d2 = cx.d2_matrix()
        for f in range(cx.n_faces):
            t = d2[:, f].copy()
            assert flat_norm(t, cx).value <= cx.h ** 2 + 1e-8

    def test_mesh_refinement_never_increases(self):
        rng = np.random.Generator(np.random.Philox(key=33))
        for trial in range(20):
            g0 = random_staircase(rng)
            g1 = random_staircase(rng).translate((0.0, float(rng.integers(0, 2))))
            coarse = complex_covering([g0, g1])
            fine = CubicalComplex(origin=coarse.origin, h=0.5,
                                  nx=2 * coarse.nx, ny=2 * coarse.ny)
            diff_c = snap(g0.as_chain(PL), coarse) - snap(g1.as_chain(PL), coarse)
            diff_f = snap(g0.as_chain(PL), fine) - snap(g1.as_chain(PL), fine)
            assert flat_norm(diff_f, fine).value <= flat_norm(diff_c, coarse).value + 1e-7


class TestCheckFlat:
    def test_rejects_a_splitting_changed_after_solving(self):
        cx = CubicalComplex(h=1.0, nx=3, ny=3)
        t = snap(square_loop(1, 1), cx)
        res = flat_norm(t, cx)
        assert check_flat(t, cx, res) == {"reconstruction_ok": True, "mass_bound_ok": True}
        s = res.s.copy()
        s[0] += 1e-3
        assert check_flat(t, cx, dataclasses.replace(res, s=s)) \
            == {"reconstruction_ok": False, "mass_bound_ok": True}
        # the value of t itself (s = 0) is its mass 4, the most a splitting may cost
        over = dataclasses.replace(res, value=4.0 + 1e-6)
        assert check_flat(t, cx, over) == {"reconstruction_ok": True, "mass_bound_ok": False}


class TestFlowAgainstLp:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), st.integers(1, 6),
           st.sampled_from([0.5, 1.0, 2.0]))
    def test_flow_matches_lp(self, data, nx, ny, h):
        cx = CubicalComplex(h=h, nx=nx, ny=ny)
        t = np.array(data.draw(st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=cx.n_edges, max_size=cx.n_edges)))
        flow, lp = flat_norm(t, cx), flat_norm_lp(t, cx)
        assert abs(flow.value - lp.value) <= 1e-9 * max(1.0, lp.value)
        assert np.max(np.abs(t - (flow.r + cx.d2_matrix() @ flow.s))) <= 1e-8
        mass = h * np.abs(flow.r).sum() + h * h * np.abs(flow.s).sum()
        assert flow.value == pytest.approx(mass, rel=1e-12, abs=1e-12)

    def test_face_field_beyond_lp_reach(self):
        rng = np.random.Generator(np.random.Philox(key=35))
        cx = CubicalComplex(h=1.0, nx=24, ny=24)
        t = cx.d2_matrix() @ rng.integers(-2, 3, size=cx.n_faces).astype(float)
        noisy = rng.random(cx.n_edges) < 0.1
        t[noisy] += rng.choice([-1.0, 1.0], size=int(noisy.sum()))
        res = flat_norm(t, cx)
        assert np.max(np.abs(t - (res.r + cx.d2_matrix() @ res.s))) <= 1e-8
        assert res.value <= np.abs(t).sum() * cx.h + 1e-8

    @pytest.mark.parametrize("kind", ["field", "staircase"])
    def test_matches_linprog_on_the_dual_graph(self, kind):
        """HiGHS on the node-arc LP of the dual graph: max t.x over a flow x_e
        in [-h, h] across each edge (from the face on its minus side to the
        one on its plus side) and a flow y_f in [-h^2, h^2] from each face to
        the outer node, conserved at every face: d2^T x - y = 0."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.Generator(np.random.Philox(key=(21, kind == "field")))
        for _ in range(6):
            n = int(rng.integers(4, 11))
            h = float(rng.choice([0.5, 1.0, 2.0]))
            cx = CubicalComplex(h=h, nx=n, ny=n)
            if kind == "field":
                t = cx.d2_matrix() @ rng.integers(-2, 3, size=cx.n_faces).astype(float)
                noisy = rng.random(cx.n_edges) < 0.1
                t[noisy] += rng.normal(size=int(noisy.sum()))
            else:  # a staircase from node (1, 1) and the reverse of a copy 1-2 rows up
                g0 = Polyline((random_staircase(rng, steps=n - 3).points + 1.0) * h)
                g1 = g0.translate((0.0, float(rng.integers(1, 3)) * h))
                t = snap(g0.as_chain(PL), cx) - snap(g1.as_chain(PL), cx)
            ne, nf = cx.n_edges, cx.n_faces
            a_eq = np.hstack([cx.d2_matrix().T, -np.eye(nf)])
            bounds = [(-h, h)] * ne + [(-h * h, h * h)] * nf
            lp = optimize.linprog(np.concatenate([-t, np.zeros(nf)]), A_eq=a_eq,
                                  b_eq=np.zeros(nf), bounds=bounds, method="highs")
            assert lp.status == 0
            assert flat_norm(t, cx).value == pytest.approx(-lp.fun, rel=1e-9, abs=1e-12)

    def test_duality_gap_raises(self, monkeypatch):
        solve = flatnorm.min_cost_flow

        def zero_potentials(net):
            res = solve(net)
            return dataclasses.replace(res, potentials=np.zeros_like(res.potentials))

        cx = CubicalComplex(h=1.0, nx=3, ny=3)
        t = snap(square_loop(1, 1), cx)
        monkeypatch.setattr(flatnorm, "min_cost_flow", zero_potentials)
        with pytest.raises(SolverError, match="duality gap"):
            flat_norm(t, cx)


class TestPairBound:
    def test_equal_curves(self):
        g = Polyline([[0, 0], [1, 0]])
        assert flat_upper_bound_pair(g, g) == 0.0

    def test_parallel_unit_segments(self):
        g0 = Polyline([[0, 0], [1, 0]])
        g1 = Polyline([[0, 0.05], [1, 0.05]])
        assert flat_upper_bound_pair(g0, g1) == pytest.approx(0.2, abs=1e-12)

    def test_bound_dominates_lp_on_aligned_snapped_pairs(self):
        rng = np.random.Generator(np.random.Philox(key=34))
        for _ in range(50):
            g0 = random_staircase(rng)
            g1 = random_staircase(rng).translate((0.0, float(rng.integers(0, 3))))
            cx = complex_covering([g0, g1])
            diff = snap(g0.as_chain(PL), cx) - snap(g1.as_chain(PL), cx)
            lp = flat_norm(diff, cx).value
            assert flat_upper_bound_pair(g0, g1) >= lp - 1e-7
