import logging
import math

import numpy as np
import pytest

from current1d.quadrature import CHUNK_NODES, QUAD_TOL, integrate

UNIT = np.array([[0.0]]), np.array([[1.0]])


def integral_1d(fn):
    q = integrate(lambda x, owner: fn(x[:, 0]), *UNIT, QUAD_TOL)
    return float(q.value[0])


def integral_2d(fn, sa, sb):
    q = integrate(lambda x, owner: fn(x[:, 0], x[:, 1]),
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
        q = integrate(lambda x, owner: np.exp(rate[owner] * x[:, 0]), lo, width, 3 * QUAD_TOL)
        for k in range(3):
            alone = integrate(lambda x, owner: np.exp(rate[k] * x[:, 0]),
                              lo[k:k + 1], width[k:k + 1], QUAD_TOL)
            exact = (math.exp(rate[k] * (lo[k, 0] + width[k, 0]))
                     - math.exp(rate[k] * lo[k, 0])) / rate[k]
            assert q.value[k] == pytest.approx(alone.value[0], abs=1e-14)
            assert abs(q.value[k] - exact) <= QUAD_TOL
        assert q.capped == 0

    def test_empty_batch(self):
        q = integrate(lambda x, owner: x[:, 0], np.zeros((0, 2)), np.ones((0, 2)), QUAD_TOL)
        assert q.value.shape == (0,)
        assert (q.nodes, q.capped) == (0, 0)


class TestPanelCap:
    """A step never converges; the rule stops at the cap and says so."""

    def test_1d_step(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        q = integrate(lambda x, owner: step(x[:, 0]), *UNIT, QUAD_TOL)
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
        q = integrate(fn, lo, np.ones((n, 2)), QUAD_TOL)
        assert q.capped > 0
        assert np.all(np.isfinite(q.value))
        assert max(sizes) <= CHUNK_NODES
        assert sum(sizes) == q.nodes > CHUNK_NODES
        assert len(sizes) > 8  # more calls than the 8 levels: some level was chunked

    def test_converged_rule_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        q = integrate(lambda x, owner: np.exp(x[:, 0]), *UNIT, QUAD_TOL)
        assert q.capped == 0
        assert caplog.records == []
