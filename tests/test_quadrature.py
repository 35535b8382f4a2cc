import logging
import math

import numpy as np
import pytest

from current1d.quadrature import QUAD_TOL, simpson, simpson2d


def cubic(t):
    return t ** 3 - 2.0 * t ** 2 + t + 1.0


def cubic2d(s, t):
    return s[:, None] ** 3 * t[None, :] ** 2 + s[:, None] * t[None, :] ** 3 + 1.0


def cubic2d_exact(sa, sb):
    return (sb ** 4 - sa ** 4) / 12.0 + (sb ** 2 - sa ** 2) / 8.0 + (sb - sa)


class TestExactness:
    def test_1d_cubic(self):
        assert abs(simpson(cubic) - (0.25 - 2.0 / 3.0 + 0.5 + 1.0)) <= 1e-14

    @pytest.mark.parametrize("sa, sb", [(0.0, 1.0), (0.25, 0.75)])
    def test_2d_cubic(self, sa, sb):
        assert abs(simpson2d(cubic2d, sa, sb, QUAD_TOL) - cubic2d_exact(sa, sb)) <= 1e-14


class TestSmooth:
    def test_1d_exp(self):
        assert abs(simpson(np.exp) - (math.e - 1.0)) <= QUAD_TOL

    def test_2d_exp(self):
        def fn(s, t):
            return np.exp(s)[:, None] * np.exp(t)[None, :]
        exact = (math.exp(0.75) - math.exp(0.25)) * (math.e - 1.0)
        assert abs(simpson2d(fn, 0.25, 0.75, QUAD_TOL) - exact) <= QUAD_TOL


class TestPanelCap:
    """A step never converges; the rule stops at the cap and says so."""

    def test_1d_step(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        value = simpson(lambda t: (t > 1.0 / 3.0).astype(float))
        assert math.isfinite(value)
        assert abs(value - 2.0 / 3.0) <= 1e-3
        assert [r.name for r in caplog.records] == ["current1d.quadrature"]
        assert "16384 panels" in caplog.records[0].getMessage()

    def test_2d_step(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")

        def fn(s, t):
            return np.broadcast_to((s > 1.0 / 3.0).astype(float)[:, None], (len(s), len(t)))
        value = simpson2d(fn, 0.0, 1.0, QUAD_TOL)
        assert math.isfinite(value)
        assert abs(value - 2.0 / 3.0) <= 1e-2
        assert [r.name for r in caplog.records] == ["current1d.quadrature"]
        assert "128 panels" in caplog.records[0].getMessage()

    def test_converged_rule_logs_nothing(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.quadrature")
        simpson(np.exp)
        assert caplog.records == []
