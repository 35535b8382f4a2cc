"""Adaptive Gauss-Legendre cubature over batches of boxes, the package's only rule.

``integrate`` refines a batch of 1-D or 2-D boxes level by level. A box is
accepted when the tensor 5-point Gauss-Legendre rule on its 2^dim halves
agrees with the rule on the box within ``tol`` times its share of the batch's
volume. Depths 0 and 1 share one integrand call, and a batch whose boxes all
converge at depth 1 returns there; each deeper level evaluates every active
box in one call. Calls are chunks of at most CHUNK_NODES nodes; ``owner``
tells the integrand which input box a node belongs to. Boxes still
unconverged at MAX_PANELS leaf-equivalents (depth 14 in 1-D, 7 in 2-D) are
counted as capped and logged at ``debug`` level on ``current1d.quadrature``.
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


def integrate(fn, lo, width, tol: float) -> Quad:
    """Integrals of ``fn`` over the boxes [lo, lo + width], both of shape (B, dim).

    ``fn(x, owner)`` maps nodes x of shape (N, dim) and the index (N,) of the
    input box each node came from to N values, each a function of its own node
    and owner only, however the nodes are grouped. The errors of all boxes sum
    to about ``tol`` at most, unless some box is capped.
    """
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(width, dtype=float)
    n_box, dim = lo.shape
    x_ref, w_ref, corners = _TENSORS[dim]
    per_box = len(w_ref)
    n_kids = len(corners)
    step = CHUNK_NODES // per_box
    max_depth = round(math.log2(MAX_PANELS)) // dim
    nodes = 0

    def halves(lo, width, owner):
        return ((lo[:, None, :] + width[:, None, :] * corners).reshape(-1, dim),
                (width / 2.0).repeat(n_kids, axis=0), owner.repeat(n_kids))

    def rule(lo, width, owner, *seams):
        """The rule on each box (lo, width, owner), weighted in blocks of at
        most ``step`` boxes from each seam: the rows of a matrix product fix
        its BLAS summation order, so these blocks give every level the values
        of a rule applied to it alone. Consecutive blocks share an integrand
        call while it stays within CHUNK_NODES nodes."""
        nonlocal nodes
        ends = (*seams, len(lo))
        blocks = [(i, min(i + step, end)) for start, end in zip((0, *seams), ends)
                  for i in range(start, end, step)]
        sums = np.empty(len(lo))
        call = []
        for j, block in enumerate(blocks):
            call.append(block)
            if j + 1 < len(blocks) and blocks[j + 1][1] - call[0][0] <= step:
                continue
            first, last = call[0][0], block[1]
            x = lo[first:last, None, :] + width[first:last, None, :] * x_ref
            f = np.reshape(fn(x.reshape(-1, dim), owner[first:last].repeat(per_box)),
                           (-1, per_box))
            for a, b in call:
                sums[a:b] = f[a - first:b - first] @ w_ref
            nodes += x.shape[0] * per_box
            call = []
        return width.prod(axis=1) * sums

    vol = width.prod(axis=1)
    total = float(vol.sum())
    thr = tol * vol / total if total > 0 else np.zeros(n_box)
    owner = np.arange(n_box)
    kid_boxes = halves(lo, width, owner)
    both = rule(*(np.concatenate(z) for z in zip((lo, width, owner), kid_boxes)), n_box)
    est, kids = both[:n_box], both[n_box:]
    lo, width, owner = kid_boxes
    value = np.zeros(n_box)
    capped = 0
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
        lo, width, owner = halves(lo, width, owner)
        kids = rule(lo, width, owner)
    if capped:
        log.debug("quadrature stopped %d boxes at the cap of %d panels: "
                  "tolerance %.3g", capped, MAX_PANELS, tol)
    return Quad(value, nodes, capped)
