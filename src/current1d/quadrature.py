"""Composite Simpson quadrature with panel doubling, the package's only rule.

Test-form actions of chains (``currents``) integrate over [0, 1] with
``simpson``; homotopy fillings (``homotopy``) integrate over the cells of the
homotopy square with ``simpson2d``. Both double the panels per axis until two
successive values differ by less than the tolerance, and stop at MAX_PANELS
panels in all, returning the last value. Stopping at the cap is logged at
``debug`` level on ``current1d.quadrature``.
"""

from __future__ import annotations

import logging

import numpy as np

QUAD_TOL = 1e-8
MAX_PANELS = 2 ** 14

log = logging.getLogger(__name__)


def _weights(n: int) -> np.ndarray:
    """Unscaled composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on n panels."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _doubling(rule, n0: int, dim: int, tol: float) -> float:
    """Value of ``rule(n)`` once doubling n changes it by less than tol.

    n counts panels per axis of a dim-dimensional tensor rule; doubling stops
    once n ** dim reaches MAX_PANELS.
    """
    n = n0
    prev = rule(n)
    change = float("nan")
    while n ** dim < MAX_PANELS:
        n *= 2
        cur = rule(n)
        change = abs(cur - prev)
        if change < tol:
            return cur
        prev = cur
    log.debug("Simpson rule stopped at the cap of %d panels per axis: "
              "last change %.3g, tolerance %.3g", n, change, tol)
    return prev


def simpson(fn) -> float:
    """Integral over [0, 1] of ``fn``, which maps an array of nodes to values."""
    def rule(n: int) -> float:
        return float(1.0 / (3 * n) * np.dot(_weights(n), fn(np.linspace(0.0, 1.0, n + 1))))
    return _doubling(rule, 64, 1, QUAD_TOL)


def simpson2d(fn, sa: float, sb: float, tol: float) -> float:
    """Integral over [sa, sb] x [0, 1] of ``fn(s, t)``, the grid of values on
    the node vectors s and t (shape ``(len(s), len(t))``)."""
    def rule(n: int) -> float:
        w = _weights(n) / 3.0
        vals = fn(np.linspace(sa, sb, n + 1), np.linspace(0.0, 1.0, n + 1))
        return float((w * (sb - sa) / n) @ vals @ (w / n))
    return _doubling(rule, 4, 2, tol)
