import logging
import math

import numpy as np
import pytest

from current1d.quadrature import CHUNK_NODES, MAX_PANELS, QUAD_TOL, Quad, _TENSORS, integrate

from conftest import integrate_one

UNIT = np.array([[0.0]]), np.array([[1.0]])


def integral_1d(fn):
    q = integrate_one(lambda x, owner: fn(x[:, 0]), *UNIT, QUAD_TOL)
    return float(q.value[0])


def integral_2d(fn, sa, sb):
    q = integrate_one(lambda x, owner: fn(x[:, 0], x[:, 1]),
                      np.array([[sa, 0.0]]), np.array([[sb - sa, 1.0]]), QUAD_TOL)
    return float(q.value[0])


def cubic(t):
    return t ** 3 - 2.0 * t ** 2 + t + 1.0


def cubic2d(s, t):
    return s ** 3 * t ** 2 + s * t ** 3 + 1.0


def cubic2d_exact(sa, sb):
    return (sb ** 4 - sa ** 4) / 12.0 + (sb ** 2 - sa ** 2) / 8.0 + (sb - sa)


def poly9(t):
    return 3.0 * t ** 9 - t ** 8 + 2.0 * t ** 5 - t + 0.5


def poly9_2d(s, t):
    return s ** 9 + 4.0 * s ** 4 * t ** 5 - s * t ** 8 + 2.0


def poly9_2d_exact(sa, sb):
    return ((sb ** 10 - sa ** 10) / 10.0 + 4.0 * (sb ** 5 - sa ** 5) / 30.0
            - (sb ** 2 - sa ** 2) / 18.0 + 2.0 * (sb - sa))


def step(t):
    return (t > 1.0 / 3.0).astype(float)


def reference_integrate(fn, lo, width, tol: float) -> Quad:
    """``integrate`` level by level: one integrand call per level (chunks of at
    most CHUNK_NODES nodes), the depth-0 rule and the depth-1 halves included,
    and the per-level bookkeeping on every level."""
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(width, dtype=float)
    n_box, dim = lo.shape
    x_ref, w_ref, corners = _TENSORS[dim]
    per_box = len(w_ref)
    n_kids = len(corners)
    max_depth = round(math.log2(MAX_PANELS)) // dim
    nodes = 0

    def rule(lo, width, owner):
        nonlocal nodes
        out = np.empty(len(lo))
        step = CHUNK_NODES // per_box
        for i in range(0, len(lo), step):
            sl = slice(i, i + step)
            x = lo[sl, None, :] + width[sl, None, :] * x_ref
            f = fn(x.reshape(-1, dim), np.repeat(owner[sl], per_box))
            out[sl] = np.prod(width[sl], axis=1) * (np.reshape(f, (-1, per_box)) @ w_ref)
            nodes += x.shape[0] * per_box
        return out

    vol = np.prod(width, axis=1)
    total = float(vol.sum())
    thr = tol * vol / total if total > 0 else np.zeros(n_box)
    owner = np.arange(n_box)
    est = rule(lo, width, owner)
    value = np.zeros(n_box)
    capped = 0
    for depth in range(1, max_depth + 1):
        if not len(owner):
            break
        lo = (lo[:, None, :] + width[:, None, :] * corners).reshape(-1, dim)
        width = np.repeat(width / 2.0, n_kids, axis=0)
        owner = np.repeat(owner, n_kids)
        kids = rule(lo, width, owner)
        refined = kids.reshape(-1, n_kids).sum(axis=1)
        done = np.abs(refined - est) <= thr
        if depth == max_depth:
            capped = int(np.count_nonzero(~done))
            done[:] = True
        value += np.bincount(owner[::n_kids][done], weights=refined[done],
                             minlength=n_box)
        keep = np.repeat(~done, n_kids)
        lo, width, owner, est = lo[keep], width[keep], owner[keep], kids[keep]
        thr = np.repeat(thr[~done] / n_kids, n_kids)
    return Quad(value, nodes, capped)


def recorded(fn):
    """``fn`` with the sizes of its calls appended to ``fn.sizes``."""
    def wrapped(x, owner):
        wrapped.sizes.append(len(x))
        return fn(x, owner)
    wrapped.sizes = []
    return wrapped


def assert_same_quad(q, ref):
    assert np.array_equal(q.value, ref.value)
    assert np.array_equal(np.signbit(q.value), np.signbit(ref.value))
    assert (q.nodes, q.capped) == (ref.nodes, ref.capped)


class TestExactness:
    def test_1d_cubic(self):
        assert abs(integral_1d(cubic) - (0.25 - 2.0 / 3.0 + 0.5 + 1.0)) <= 1e-14

    @pytest.mark.parametrize("sa, sb", [(0.0, 1.0), (0.25, 0.75)])
    def test_2d_cubic(self, sa, sb):
        assert abs(integral_2d(cubic2d, sa, sb) - cubic2d_exact(sa, sb)) <= 1e-14

    def test_1d_degree_9(self):
        exact = 0.3 - 1.0 / 9.0 + 1.0 / 3.0 - 0.5 + 0.5
        assert abs(integral_1d(poly9) - exact) <= 1e-14

    @pytest.mark.parametrize("sa, sb", [(0.0, 1.0), (0.25, 0.75)])
    def test_2d_degree_9(self, sa, sb):
        assert abs(integral_2d(poly9_2d, sa, sb) - poly9_2d_exact(sa, sb)) <= 1e-14


class TestSmooth:
    def test_1d_exp(self):
        assert abs(integral_1d(np.exp) - (math.e - 1.0)) <= QUAD_TOL

    def test_2d_exp(self):
        exact = (math.exp(0.75) - math.exp(0.25)) * (math.e - 1.0)
        value = integral_2d(lambda s, t: np.exp(s) * np.exp(t), 0.25, 0.75)
        assert abs(value - exact) <= QUAD_TOL


class TestBatch:
    def test_owner_dependent_boxes_equal_separate_integrals(self):
        lo = np.array([[0.0], [0.5], [-1.0]])
        width = np.array([[1.0], [2.0], [0.25]])
        rate = np.array([1.0, -0.5, 3.0])
        q = integrate_one(lambda x, owner: np.exp(rate[owner] * x[:, 0]), lo, width,
                          3 * QUAD_TOL)
        for k in range(3):
            alone = integrate_one(lambda x, owner: np.exp(rate[k] * x[:, 0]),
                                  lo[k:k + 1], width[k:k + 1], QUAD_TOL)
            exact = (math.exp(rate[k] * (lo[k, 0] + width[k, 0]))
                     - math.exp(rate[k] * lo[k, 0])) / rate[k]
            assert q.value[k] == pytest.approx(alone.value[0], abs=1e-14)
            assert abs(q.value[k] - exact) <= QUAD_TOL
        assert q.capped == 0

    def test_empty_batch(self):
        q = integrate_one(lambda x, owner: x[:, 0], np.zeros((0, 2)), np.ones((0, 2)), QUAD_TOL)
        assert q.value.shape == (0,)
        assert (q.nodes, q.capped) == (0, 0)


class TestPanelCap:
    """A step never converges; the rule stops at the cap and says so."""

    def test_1d_step(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        q = integrate_one(lambda x, owner: step(x[:, 0]), *UNIT, QUAD_TOL)
        assert math.isfinite(q.value[0])
        assert abs(q.value[0] - 2.0 / 3.0) <= 1e-3
        assert q.capped > 0
        assert [r.name for r in caplog.records] == ["current1d.quadrature"]
        assert f"stopped {q.capped} boxes at the cap of 16384 panels" in caplog.records[0].getMessage()

    def test_2d_step(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        value = integral_2d(lambda s, t: step(s), 0.0, 1.0)
        assert math.isfinite(value)
        assert abs(value - 2.0 / 3.0) <= 1e-2
        assert [r.name for r in caplog.records] == ["current1d.quadrature"]
        assert "at the cap of 16384 panels" in caplog.records[0].getMessage()

    def test_chunks_bound_the_nodes_per_call(self):
        sizes = []

        def fn(x, owner):
            sizes.append(len(x))
            return step(x[:, 0] - owner)

        n = 50
        lo = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
        q = integrate_one(fn, lo, np.ones((n, 2)), QUAD_TOL)
        assert q.capped > 0
        assert np.all(np.isfinite(q.value))
        assert max(sizes) <= CHUNK_NODES
        assert sum(sizes) == q.nodes > CHUNK_NODES
        assert len(sizes) > 8  # more calls than the 7 call levels: some level was chunked

    def test_converged_rule_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        q = integrate_one(lambda x, owner: np.exp(x[:, 0]), *UNIT, QUAD_TOL)
        assert q.capped == 0
        assert caplog.records == []


def owner_batch(rng, dim: int, n: int):
    """Random boxes and an integrand whose smoothness varies by box: an
    exponential times a cosine, a jump in about a tenth of the boxes, zero
    width in some and a negative zero everywhere in others."""
    lo = rng.uniform(-1.0, 1.0, size=(n, dim))
    width = rng.uniform(0.05, 2.0, size=(n, dim))
    width[rng.random(n) < 0.05, 0] = 0.0
    rate = rng.uniform(-3.0, 3.0, size=n)
    freq = rng.uniform(0.0, 12.0, size=n)
    jump = np.where(rng.random(n) < 0.1, lo[:, 0] + 0.3 * width[:, 0], np.inf)
    zero = rng.random(n) < 0.05

    def fn(x, owner):
        smooth = np.exp(rate[owner] * x[:, 0]) * np.cos(freq[owner] * x[:, -1])
        f = smooth + (x[:, 0] > jump[owner])
        f[zero[owner]] = -0.0
        return f
    return fn, lo, width


class TestAgainstLevelByLevel:
    """``integrate`` evaluates depths 0 and 1 in one call and returns there when
    every box converged; its values, node and cap counts are those of the
    level-by-level rule bit for bit."""

    @pytest.mark.parametrize("dim, n", [(1, 1), (1, 7), (1, 40), (2, 1), (2, 7), (2, 40)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches(self, seed, dim, n):
        fn, lo, width = owner_batch(np.random.default_rng([seed, dim, n]), dim, n)
        for tol in (QUAD_TOL * n, 1e-4):
            assert_same_quad(integrate_one(fn, lo, width, tol),
                             reference_integrate(fn, lo, width, tol))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_depths_one_to_three_and_the_cap(self, dim):
        rate = np.array([1.0, 3.0, 5.0, 0.0])

        def fn(x, owner):
            return np.exp(rate[owner] * x[:, 0]) + (owner == 3) * step(x[:, 0])
        lo, width = np.zeros((4, dim)), np.ones((4, dim))
        depths = []
        for k in range(3):  # alone, a box takes one reference call per level
            alone = recorded(lambda x, owner: fn(x, owner + k))
            reference_integrate(alone, lo[:1], width[:1], QUAD_TOL)
            depths.append(len(alone.sizes) - 1)
        assert depths == [1, 2, 3]
        q = integrate_one(fn, lo, width, 4 * QUAD_TOL)
        assert q.capped > 0
        assert_same_quad(q, reference_integrate(fn, lo, width, 4 * QUAD_TOL))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_signed_zeros(self, dim):
        # a width of -0.0 gives a box and its halves the rule -0.0; the value is +0.0
        lo, width = np.zeros((2, dim)), np.ones((2, dim))
        width[0, 0] = -0.0
        q = integrate_one(lambda x, owner: np.exp(x[:, 0]), lo, width, QUAD_TOL)
        assert_same_quad(q, reference_integrate(lambda x, owner: np.exp(x[:, 0]),
                                                lo, width, QUAD_TOL))
        assert q.value[0] == 0.0 and not np.signbit(q.value[0])

    @pytest.mark.parametrize("dim, n", [(1, 5000), (2, 600)])
    def test_a_batch_above_the_chunk(self, dim, n):
        fn, lo, width = owner_batch(np.random.default_rng(n), dim, n)
        assert n * (1 + 2 ** dim) * 5 ** dim > CHUNK_NODES
        calls = recorded(fn)
        q = integrate_one(calls, lo, width, QUAD_TOL * n)
        assert q.capped > 0
        assert max(calls.sizes) <= CHUNK_NODES
        assert sum(calls.sizes) == q.nodes
        assert_same_quad(q, reference_integrate(fn, lo, width, QUAD_TOL * n))


class TestCalls:
    @pytest.mark.parametrize("dim, n, chunks", [(1, 3, 1), (2, 3, 1), (1, 4000, 1),
                                                (2, 500, 1), (1, 5000, 2), (2, 600, 2)])
    def test_converged_at_depth_one_is_one_call_per_chunk(self, dim, n, chunks):
        lo, width = np.repeat(np.arange(n, dtype=float)[:, None], dim, axis=1), np.ones((n, dim))
        fn = recorded(lambda x, owner: x[:, 0] - owner)
        ref = recorded(lambda x, owner: x[:, 0] - owner)
        q = integrate_one(fn, lo, width, QUAD_TOL * n)
        assert_same_quad(q, reference_integrate(ref, lo, width, QUAD_TOL * n))
        assert q.nodes == n * (1 + 2 ** dim) * 5 ** dim
        assert len(fn.sizes) == chunks == math.ceil(q.nodes / CHUNK_NODES)
        assert max(fn.sizes) <= CHUNK_NODES
        assert len(ref.sizes) == 2  # one per level



class TestSharedGeometry:
    """One ``integrate`` pass over a panel of form parts evaluates the geometry
    of each call once for all its rows, and each row equals ``integrate`` of its
    part with the geometry evaluated inside the integrand."""

    PARTS = (lambda g: g[2], lambda g: g[2] * np.cos(3.0 * g[0][:, -1]),
             lambda g: np.exp(-g[2] ** 2) + g[1] % 2)

    @pytest.mark.parametrize("dim, n", [(1, 7), (2, 7), (1, 5000)])
    def test_form_parts_share_the_geometry(self, dim, n):
        fn, lo, width = owner_batch(np.random.default_rng(n), dim, n)

        def geometry(x, owner):
            return x, owner, fn(x, owner)
        built, part_sizes = recorded(geometry), []

        def panel(g, r):
            """Rows r of the parts at the nodes of g: a column, or each node's row."""
            parts = np.stack([part(g) for part in self.PARTS])
            out = parts[r[:, 0]] if r.ndim == 2 else parts[r, np.arange(len(r))]
            part_sizes.append(out.size)
            return out
        q = integrate(panel, lo, width, QUAD_TOL * n, np.arange(len(self.PARTS)), built)
        for i, part in enumerate(self.PARTS):
            assert_same_quad(q.row(i), integrate_one(lambda x, owner: part(geometry(x, owner)),
                                                     lo, width, QUAD_TOL * n))
        # depths 0 and 1 evaluate the geometry once for every row, deeper one node is one row
        shallow = n * (1 + 2 ** dim) * 5 ** dim
        assert q.nodes.sum() > len(self.PARTS) * shallow  # some part refined deeper
        assert sum(part_sizes) == q.nodes.sum()
        assert sum(built.sizes) == shallow + q.nodes.sum() - len(self.PARTS) * shallow
        assert len(built.sizes) <= len(part_sizes)
        assert max(built.sizes) <= CHUNK_NODES and max(part_sizes) <= CHUNK_NODES
