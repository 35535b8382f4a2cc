"""Adaptive Gauss-Legendre cubature over batches of boxes, the package's only rule.

``integrate`` takes a batch of 1-D or 2-D boxes, a tolerance and a geometry,
what every integrand reads at a node (say, a curve's point and direction),
and refines the boxes level by level for the form parts of all the rows of a
test-form panel in one pass. A box is accepted when the tensor 5-point
Gauss-Legendre rule on its 2^dim halves agrees with the rule on the box
within ``tol`` times its share of the batch's volume. Depths 0 and 1 share
one call, which evaluates the geometry once and every row on its nodes as
one (rows x nodes) broadcast; each deeper level evaluates the (row, box)
pairs still refining in one call. Each row keeps its own thresholds and its
own matrix-product blocks, so its values, node and cap counts are those of a
pass over it alone, bit for bit. Calls have at most CHUNK_NODES rows x nodes,
unless one row alone has more, and nothing is kept between passes. Boxes
still unconverged at MAX_PANELS leaf-equivalents (depth 14 in 1-D, 7 in 2-D)
are counted as capped, and a pass that caps any logs one ``debug`` record on
``current1d.quadrature`` with the capped boxes of each row.
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

    def row(self, i: int) -> "Quad":
        """Row i of a pass over several rows: its (B,) values and counts."""
        return Quad(self.value[i], int(self.nodes[i]), int(self.capped[i]))


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


def _calls(n: int, dim: int, seams=(0,)) -> list[tuple[int, int, list]]:
    """The calls (first, last, blocks) over boxes [0, n): one call if they fit
    in CHUNK_NODES nodes, else one per block. Blocks of at most ``step`` boxes
    from each seam give a level, or one row's boxes of a level, the values of
    the rule applied to it alone, since the rows of a matrix product fix its
    BLAS summation order."""
    step = CHUNK_NODES // len(_TENSORS[dim][1])
    blocks = [(a, min(a + step, end)) for start, end in zip(seams, [*seams[1:], n])
              for a in range(start, end, step)]
    return [(0, n, blocks)] if 0 < n <= step else [(a, b, [(a, b)]) for a, b in blocks]


def integrate(fn, lo, width, tol: float, rows, geometry) -> Quad:
    """Integrals of R form parts, the ``rows`` (R,) of a panel, over each box
    [lo, lo + width], both (B, dim); each row's errors sum to about ``tol`` at
    most, unless some box is capped. ``geometry`` maps nodes x (N, dim) and
    the input box (N,) of each to the tuple g of arrays a form part reads,
    each entry a function of its own node and owner only. ``fn(g, r)`` gives
    rows r at the nodes of g, with r a column (k, 1) against every node at
    depths 0/1 and the row of each node, (N,), deeper. Each call evaluates
    the geometry once for all its rows. Every row refines as if it were
    alone, its values, node and cap counts bit for bit, and the Quad holds
    (R, B) values and (R,) counts."""
    lo, width, rows = np.asarray(lo, dtype=float), np.asarray(width, dtype=float), np.asarray(rows)
    (n_box, dim), n_rows = lo.shape, len(rows)
    vol = width.prod(axis=1)
    total = float(vol.sum())
    thr = tol * vol / total if total > 0 else np.zeros(n_box)
    x_ref, w_ref, corners = _TENSORS[dim]
    per_box, n_kids = len(w_ref), len(corners)
    max_depth = round(math.log2(MAX_PANELS)) // dim

    def rule(boxes, calls, pos=None):
        """The rule on every box for every row, (R, n), or with ``pos``, the
        row position of each box, for that row alone, (1, n)."""
        lo, width, owner = boxes
        sums = np.empty((n_rows if pos is None else 1, len(lo)))
        for first, last, blocks in calls:
            x = lo[first:last, None, :] + width[first:last, None, :] * x_ref
            g = geometry(x.reshape(-1, dim), owner[first:last].repeat(per_box))
            # every row at every node, in groups that fit a chunk; or each node's row
            size = max(1, CHUNK_NODES // per_box // (last - first)) if pos is None else n_rows
            for k in range(0, n_rows, size):
                r = rows[k:k + size, None] if pos is None else rows[pos[first:last]].repeat(per_box)
                f = np.reshape(fn(g, r), (-1, last - first, per_box))
                for a, b in blocks:
                    sums[k:k + size, a:b] = f[:, a - first:b - first] @ w_ref
        return width.prod(axis=1) * sums

    owner = np.arange(n_box)
    boxes = tuple(map(np.concatenate, zip((lo, width, owner), _halves(lo, width, owner))))
    both = rule(boxes, _calls(len(boxes[0]), dim, (0, n_box)))
    nodes = np.full(n_rows, len(boxes[0]) * per_box)
    est, kids = both[:, :n_box].ravel(), both[:, n_box:].ravel()
    depth1 = np.tile(np.arange(n_box, len(boxes[0])), n_rows)  # for each row
    lo, width, owner = (z[depth1] for z in boxes)
    pos, thr = np.arange(n_rows).repeat(n_box), np.tile(thr, n_rows)
    value, capped = np.zeros(n_rows * n_box), np.zeros(n_rows, dtype=int)
    for depth in range(1, max_depth + 1):
        refined = kids.reshape(-1, n_kids).sum(axis=1)
        done = np.abs(refined - est) <= thr
        if depth == max_depth:
            capped = np.bincount(pos[~done], minlength=n_rows)
            done[:] = True
        value += np.bincount((pos * n_box + owner[::n_kids])[done], weights=refined[done],
                             minlength=n_rows * n_box)
        keep = np.repeat(~done, n_kids)
        lo, width, owner, est = lo[keep], width[keep], owner[keep], kids[keep]
        pos, thr = pos[~done].repeat(n_kids), np.repeat(thr[~done] / n_kids, n_kids)
        if not len(owner):
            break
        lo, width, owner = _halves(lo, width, owner)
        kid_pos = pos.repeat(n_kids)
        seams = np.unique(kid_pos, return_index=True)[1].tolist()
        kids = rule((lo, width, owner), _calls(len(lo), dim, seams), kid_pos)[0]
        nodes += np.bincount(kid_pos, minlength=n_rows) * per_box
    if capped.any():
        log.debug("quadrature stopped %d boxes at the cap of %d panels: tolerance %.3g; "
                  "capped boxes by row: %s", capped.sum(), MAX_PANELS, tol,
                  {int(r): int(c) for r, c in zip(rows, capped) if c})
    return Quad(value.reshape(n_rows, n_box), nodes, capped)
