"""Adaptive Gauss-Legendre cubature over batches of boxes, the package's only rule.

A ``Domain`` is a batch of 1-D or 2-D boxes with a tolerance and a geometry,
what every integrand reads at a node (say, a curve's point and direction);
``Domain.integrate(fn)`` refines the boxes level by level for the form part
``fn`` of the geometry. A box is accepted when the tensor 5-point
Gauss-Legendre rule on its 2^dim halves agrees with the rule on the box within
``tol`` times its share of the batch's volume. Depths 0 and 1 share one call,
and a batch whose boxes all converge at depth 1 returns there; each deeper
level evaluates every active box in one call. Calls have at most CHUNK_NODES
nodes. The domain keeps the boxes, owners, thresholds and calls of depths 0
and 1 and, if they fit one call (about 2 MB), their geometry from its first
``integrate``. Boxes still unconverged at MAX_PANELS leaf-equivalents (depth
14 in 1-D, 7 in 2-D) are counted as capped and logged at ``debug`` level on
``current1d.quadrature``.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

QUAD_TOL = 1e-8
MAX_PANELS = 2 ** 14
CHUNK_NODES = 2 ** 16

log = logging.getLogger(__name__)

_R1 = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_R2 = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_W1 = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_W2 = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
# The 5-point Gauss-Legendre rule on [0, 1], exact for degree <= 9.
NODES = 0.5 + 0.5 * np.array([-_R2, -_R1, 0.0, _R1, _R2])
WEIGHTS = 0.5 * np.array([_W2, _W1, 128.0 / 225.0, _W1, _W2])


class Quad(NamedTuple):
    value: np.ndarray  # the integral over each input box, shape (B,)
    nodes: int         # integrand evaluations
    capped: int        # boxes accepted at the cap without converging


# Per dimension: the tensor rule's nodes (5^dim, dim) and weights on the unit
# box, and the lower corners (2^dim, dim) of its halves.
_TENSORS = {
    1: (NODES[:, None], WEIGHTS, np.array([[0.0], [0.5]])),
    2: (np.array([(a, b) for a in NODES for b in NODES]),
        np.array([a * b for a in WEIGHTS for b in WEIGHTS]),
        np.array([[0.0, 0.0], [0.0, 0.5], [0.5, 0.0], [0.5, 0.5]])),
}


def _halves(lo, width, owner):
    corners = _TENSORS[lo.shape[1]][2]
    return ((lo[:, None, :] + width[:, None, :] * corners).reshape(-1, lo.shape[1]),
            (width / 2.0).repeat(len(corners), axis=0), owner.repeat(len(corners)))


def _calls(n: int, dim: int, seam: int = 0) -> list[tuple[int, int, list]]:
    """The calls (first, last, blocks) over boxes [0, n): one call if they fit
    in CHUNK_NODES nodes, else one per block. Blocks of at most ``step`` boxes
    from 0 and from ``seam`` give every level the values of the rule applied to
    it alone, since the rows of a matrix product fix its BLAS summation order."""
    step = CHUNK_NODES // len(_TENSORS[dim][1])
    blocks = [(a, min(a + step, end)) for start, end in ((0, seam), (seam, n))
              for a in range(start, end, step)]
    return [(0, n, blocks)] if 0 < n <= step else [(a, b, [(a, b)]) for a, b in blocks]


class Domain:
    """The boxes [lo, lo + width], both (B, dim), to integrate over to ``tol``.
    ``geometry(x, owner)`` maps nodes x (N, dim) and the input box (N,) of each
    to the tuple of arrays a form part reads, each entry a function of its own
    node and owner only; its depth-0/1 arrays are cached read-only."""

    def __init__(self, lo, width, tol: float, geometry):
        lo, width = np.asarray(lo, dtype=float), np.asarray(width, dtype=float)
        self.n_box, self.dim = lo.shape
        vol = width.prod(axis=1)
        total = float(vol.sum())
        self.thr = tol * vol / total if total > 0 else np.zeros(self.n_box)
        self.tol, self.geometry, self.cached = tol, geometry, None
        owner = np.arange(self.n_box)
        self.boxes = tuple(map(np.concatenate, zip((lo, width, owner), _halves(lo, width, owner))))
        self.calls = _calls(len(self.boxes[0]), self.dim, self.n_box)

    def integrate(self, fn) -> Quad:
        """Integrals of ``fn(geometry(x, owner))``, N values, over each box; their
        errors sum to about ``tol`` at most, unless some box is capped."""
        n_box, dim = self.n_box, self.dim
        x_ref, w_ref, corners = _TENSORS[dim]
        per_box, n_kids = len(w_ref), len(corners)
        max_depth = round(math.log2(MAX_PANELS)) // dim
        nodes = 0

        def rule(boxes, calls, cache: bool = False):
            nonlocal nodes
            lo, width, owner = boxes
            sums = np.empty(len(lo))
            for first, last, blocks in calls:
                g = self.cached if cache else None
                if g is None:
                    x = lo[first:last, None, :] + width[first:last, None, :] * x_ref
                    g = self.geometry(x.reshape(-1, dim), owner[first:last].repeat(per_box))
                    if cache:
                        for a in g:
                            a.flags.writeable = False
                        self.cached = g
                f = np.reshape(fn(g), (-1, per_box))
                for a, b in blocks:
                    sums[a:b] = f[a - first:b - first] @ w_ref
                nodes += (last - first) * per_box
            return width.prod(axis=1) * sums

        both = rule(self.boxes, self.calls, cache=len(self.calls) == 1)
        est, kids = both[:n_box], both[n_box:]
        lo, width, owner = (z[n_box:] for z in self.boxes)
        thr, value, capped = self.thr, np.zeros(n_box), 0
        for depth in range(1, max_depth + 1):
            refined = kids.reshape(-1, n_kids).sum(axis=1)
            done = np.abs(refined - est) <= thr
            if depth == 1 and done.all():
                return Quad(refined + 0.0, nodes, 0)  # + 0.0: the signed zeros of the sum below
            if depth == max_depth:
                capped = int(np.count_nonzero(~done))
                done[:] = True
            value += np.bincount(owner[::n_kids][done], weights=refined[done],
                                 minlength=n_box)
            keep = np.repeat(~done, n_kids)
            lo, width, owner, est = lo[keep], width[keep], owner[keep], kids[keep]
            thr = np.repeat(thr[~done] / n_kids, n_kids)
            if not len(owner):
                break
            lo, width, owner = _halves(lo, width, owner)
            kids = rule((lo, width, owner), _calls(len(lo), dim))
        if capped:
            log.debug("quadrature stopped %d boxes at the cap of %d panels: "
                      "tolerance %.3g", capped, MAX_PANELS, self.tol)
        return Quad(value, nodes, capped)


def integrate(fn, lo, width, tol: float) -> Quad:
    """Integrals of ``fn(x, owner)`` over the boxes [lo, lo + width]: the identity geometry."""
    return Domain(lo, width, tol, lambda x, owner: (x, owner)).integrate(lambda g: fn(*g))
