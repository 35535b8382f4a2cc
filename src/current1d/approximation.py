"""Compress a curve-measure current into a finite geodesic chain with a
certified flat-norm error and guaranteed mass non-increase.

Pipeline: truncate long curves, greedily net the rest in the uniform distance
(centers follow input order, so results are deterministic and reproducible),
replace each cluster by its shortest member (which realizes the eta-average
inequality exactly: the min is at most the weighted mean), then interpolate
representatives by chord chains. The certificate splits into a clustering term
2 (L+1) eta(A) diam(A) per cluster and a per-representative interpolation term
from the homotopy pair bound (l0 + l1 + 2) d_inf. Masses, L and the lengths
l0, l1 are taken in the plane's norm. Interpolation is batched: the nodes of
all representatives come from one evaluation on the measure's curve array, the
chords' own arc lengths from one row-wise accumulate over the nodes (the l2
sums a chord ``Polyline`` forms, so no chord polyline is built), and their
distances to the representatives from one ``d_inf_many`` call on one curve
array built from those flat arrays. A measure whose mass in the plane is not
finite, or a certificate term that is not, is a ``CurrentError``.

The net takes every uniform distance it needs from one ``currents.CurveArray``
of the curves, many pairs per vectorized ``d_inf_many`` call. The measure
builds that array once per plane, on first use, so every ``cluster`` and
``approximate`` call on it in that plane shares it. Each pair is sampled on
the union of its two curves' breakpoints, both directions of a block of pairs
in one pass, which is exact: between consecutive points of that union the
difference of two constant-speed polylines is affine, so its norm peaks at
one of them. The values are those of the pairwise ``d_inf`` bit for bit,
whether or not the curves share breakpoints, and d(x, y) is the same float
as d(y, x).

The exact cluster diameters start from distances already known: the net's
radius r_i of each member to its center, and one measured row s_i from the
member farthest from the center. By the triangle inequality no pair i, j is
farther apart than min(r_i + r_j, s_i + s_j), so only the pairs whose bound
reaches the largest known distance, less a rounding allowance tau far above
the error of any computed distance, are measured (AESA-style pivot pruning).
The diameters are the all-pairs maxima as floats; see ``cluster``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import currents
from .currents import Chain1, CurrentError, CurveArray, Piece, Polyline, d_inf_many
# approximate calls neither, but bench/tracing.py wraps both names here
from .currents import d_inf  # noqa: F401
from .homotopy import interpolate_geodesic  # noqa: F401
from .spaces import NormedPlane

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CurveMeasure:
    """Discrete nonnegative measure over polyline curves."""

    entries: tuple[tuple[float, Polyline], ...]
    # one CurveArray of the entries' polylines per plane, built on first use
    _curves: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for w, _ in self.entries:
            if not (math.isfinite(w) and w > 0):
                raise CurrentError(f"curve-measure weights must be positive and finite: {w!r}")

    @staticmethod
    def of(pairs: Sequence[tuple[float, Polyline]]) -> "CurveMeasure":
        return CurveMeasure(tuple((float(w), p) for w, p in pairs))

    def curves(self, plane: NormedPlane) -> CurveArray:
        """The entries' polylines as one ``CurveArray`` in this plane, shared
        by every call that measures them there."""
        key = (plane.tag, tuple(plane.weights))
        if key not in self._curves:
            self._curves[key] = CurveArray([p for _, p in self.entries], plane)
        return self._curves[key]

    @property
    def length_bound(self) -> float:
        return max((p.length for _, p in self.entries), default=0.0)


def _require_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise CurrentError(f"{what} must be positive and finite: {value!r}")


def truncate(cm: CurveMeasure, cap: float) -> tuple[CurveMeasure, float]:
    """Drop entries longer than the cap; the error, the dropped mass, must be finite."""
    _require_positive("length cap", cap)
    kept = [(w, p) for w, p in cm.entries if p.length <= cap + 1e-12]
    err = float(sum(w * p.length for w, p in cm.entries if p.length > cap + 1e-12))
    if not math.isfinite(err):
        raise CurrentError(f"truncated curve-measure mass is not finite: {err!r}")
    return CurveMeasure(tuple(kept)), err


@dataclass(frozen=True)
class Cluster:
    members: tuple[int, ...]
    representative: int
    diameter: float
    weight: float


def cluster(cm: CurveMeasure, eps: float,
            plane: Optional[NormedPlane] = None) -> list[Cluster]:
    """Greedy net in input order under the exact polyline uniform distance.

    Each entry joins the first existing center strictly within eps, else
    becomes a new center. The stored diameter is the exact pairwise maximum
    within the cluster; the representative is the member of minimal length in
    the plane (``CurveArray.plane_length``), ties resolved by lowest index.

    Entries are taken in blocks, the "greedy rounds" of the debug record. A
    block of up to CHUNK_SAMPLES // (number of centers) entries is measured
    against every current center in one ``d_inf_many`` call, and each entry
    within eps of some center joins the first one (one vectorized argmax).
    The first entry left becomes a center, the entries left after it are
    measured against that one center in one more call (one extra column),
    those within eps join it, and so on to the end of the block. This is the
    one-at-a-time greedy exactly: each entry meets the centers opened before
    it in their order, and joins the first within eps. Clusters list their
    members in input order, so each center first, from one stable sort of the
    entries by cluster. The net keeps each member's radius r_i = d(c, i) to
    its center c (0 at c); ``d_inf_many`` returns max(gap(x, y), gap(y, x)),
    so d(x, y) and d(y, x) are the same float and the radius is a pair value
    of the cluster as it stands.

    The diameter prunes its pairs with two pivots, as AESA does (Vidal 1986).
    Let f be the member farthest from c (the first on ties); one row
    s_i = d(f, i) is measured per cluster of three or more, and
    best = max(max r, max s). By the triangle inequality, d(i, j) is at most
    r_i + r_j and at most s_i + s_j, so only the pairs away from c and f with
    min(r_i + r_j, s_i + s_j) >= best - tau are measured, and the diameter is
    the max of best and those values. The allowance
    tau = 2^-40 (1 + max |coordinate| + max length) max(1, plane weights)
    covers the rounding: every computed distance, radius and sum is within a
    few ulps of that scale of its exact value, so a pruned pair's computed
    distance is below best and cannot be the maximum, and the diameter is the
    all-pairs maximum as a float. Clusters whose members coincide (best = 0)
    keep every pair.

    No call measures more than ``currents.CHUNK_SAMPLES`` pairs unless one
    row alone does: a block's matrix and extra columns keep to it, and the
    pivot rows and the candidate pairs, batched over all clusters, are built
    and measured in blocks of at most that many pairs. One ``debug`` record
    on ``current1d.approximation`` per call gives the entries, clusters,
    greedy rounds (blocks) and diameter pairs measured of all.
    """
    _require_positive("cluster radius", eps)
    n = len(cm.entries)
    curves = cm.curves(plane or NormedPlane("l2"))
    centers: list[int] = []
    owner = np.zeros(n, dtype=int)  # the cluster of each entry, numbered by center
    radius = np.zeros(n)
    i, blocks = 0, 0
    while i < n:
        size = max(1, currents.CHUNK_SAMPLES // max(1, len(centers)))
        block = rest = np.arange(i, min(i + size, n))
        if centers:
            dist = d_inf_many(curves, block[:, None], np.array(centers))
            close = dist < eps
            first, near = close.argmax(axis=1), close.any(axis=1)
            owner[block[near]] = first[near]
            radius[block[near]] = dist[near, first[near]]
            rest = block[~near]
        while rest.size:  # the first entry far from every center opens one
            owner[rest[0]] = len(centers)
            centers.append(int(rest[0]))
            rest = rest[1:]
            if rest.size:
                dist = d_inf_many(curves, rest, centers[-1])
                near = dist < eps
                owner[rest[near]] = len(centers) - 1
                radius[rest[near]] = dist[near]
                rest = rest[~near]
        i += len(block)
        blocks += 1
    # members cluster by cluster, each center first; gid maps them to clusters
    members = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=len(centers))
    start = np.cumsum(sizes) - sizes
    gid = owner[members]
    r = radius[members]
    top = np.flatnonzero(r == np.maximum.reduceat(r, start)[gid])
    pivot = top[np.searchsorted(top, start)]
    s = np.zeros(n)
    rows = np.flatnonzero(sizes[gid] > 2)
    for p in range(0, len(rows), currents.CHUNK_SAMPLES):
        k = rows[p:p + currents.CHUNK_SAMPLES]
        s[k] = d_inf_many(curves, members[pivot[gid[k]]], members[k])
    diam = np.maximum.reduceat(np.maximum(r, s), start)
    with np.errstate(over="ignore"):  # a scale past the float range leaves tau inf: no pruning
        tau = (2.0 ** -40 * max(1.0, *curves.plane.weights)
               * (1.0 + np.abs(curves.points).max(initial=0.0) + curves.length.max(initial=0.0)))
    bound = diam - tau
    r[start] = s[pivot] = -np.inf  # pairs with the center or the pivot are known
    later = start[gid] + sizes[gid] - np.arange(n) - 1  # partners after each member
    cum = np.concatenate([[0], np.cumsum(later)])
    measured, p = len(rows), 0
    while p < n:
        q = max(p + 1, int(np.searchsorted(cum, cum[p] + currents.CHUNK_SAMPLES, "right")) - 1)
        a = np.repeat(np.arange(p, q), later[p:q])
        b = a + 1 + np.arange(len(a)) - np.repeat(cum[p:q] - cum[p], later[p:q])
        keep = np.minimum(r[a] + r[b], s[a] + s[b]) >= bound[gid[a]]
        a, b = a[keep], b[keep]
        np.maximum.at(diam, gid[a], d_inf_many(curves, members[a], members[b]))
        measured += len(a)
        p = q
    log.debug("cluster: %(entries)d entries, %(clusters)d clusters in %(rounds)d greedy "
              "rounds, %(measured)d of %(pairs)d diameter pairs measured",
              {"entries": n, "clusters": len(centers), "rounds": blocks, "measured": measured,
               "pairs": int((sizes * (sizes - 1) // 2).sum())})
    # each cluster's first entry by (cluster, plane length, index) is its representative
    reps = np.lexsort((np.arange(n), curves.plane_length, owner))[start].tolist()
    weights = [w for w, _ in cm.entries]
    members = members.tolist()
    out = []
    for a, b, rep, d in zip(start.tolist(), (start + sizes).tolist(), reps, diam.tolist()):
        g = members[a:b]
        out.append(Cluster(members=tuple(g), representative=rep, diameter=d,
                           weight=float(sum(weights[i] for i in g))))
    return out


@dataclass(frozen=True)
class ApproxCertificate:
    epsilon: float
    clusters: tuple[Cluster, ...] = field(repr=False)
    clustering_term: float = 0.0
    interpolation_term: float = 0.0
    flat_bound: float = 0.0
    mass_p: float = 0.0
    mass_n: float = 0.0

    @property
    def mass_ok(self) -> bool:  # mass(P) <= the measure's mass, both in the plane, to 1e-9
        return self.mass_p <= self.mass_n + 1e-9


def _uniform_partition(mesh: float) -> np.ndarray:
    n = max(1, int(np.ceil(1.0 / mesh)))
    return np.linspace(0.0, 1.0, n + 1)


def approximate(cm: CurveMeasure, eps: float, mesh: float,
                plane: Optional[NormedPlane] = None) -> tuple[Chain1, ApproxCertificate]:
    """Geodesic-chain approximation with a certified flat-norm bound.

    P is the weighted sum over clusters of the chord interpolation of the
    member shortest in the plane; mass(P) <= induced mass of the measure
    always, and the flat distance to the full superposition is at most the
    certificate.
    Masses and the lengths in the certificate are in the plane's norm.

    All representatives are interpolated at once: their nodes in one
    ``CurveArray.at`` call on the measure's curve array, and their uniform
    distances to their chord polylines (``d_inf``, bit for bit) in one
    ``d_inf_many`` call on an array of the representatives followed by their
    chords, built by ``CurveArray.from_arrays`` with each chord's own arc
    lengths those of ``Polyline(nodes)``. Each cluster adds, in node order,
    one chord of its weight per partition cell whose ends differ.

    Raises ``CurrentError`` before clustering when the measure's mass in the
    plane is not finite, and after it when a certificate term is not.
    """
    _require_positive("interpolation mesh", mesh)
    plane = plane or NormedPlane("l2")
    curves = cm.curves(plane)
    lengths = curves.plane_length.tolist()
    mass_n = float(sum(w * length for (w, _), length in zip(cm.entries, lengths)))
    if not math.isfinite(mass_n):
        raise CurrentError(f"curve-measure mass in the plane is not finite: {mass_n!r}")
    clusters = cluster(cm, eps, plane)
    cap = max(lengths, default=0.0)
    part = _uniform_partition(mesh)
    reps = [cl.representative for cl in clusters]
    k = len(reps)
    nodes = curves.at(np.repeat(np.array(reps, dtype=int), len(part)), np.tile(part, k),
                      exact=True).reshape(k, len(part), 2)
    # each chord's own arc lengths, the l2 sums Polyline(nodes[i]) forms
    cum = np.zeros((k, len(part)))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(NormedPlane("l2").norm_arr(nodes[:, 1:] - nodes[:, :-1]), axis=1,
                          out=cum[:, 1:])
    if not np.isfinite(cum[:, -1]).all():
        raise CurrentError("polyline points and length must be finite")
    polys = [cm.entries[r][1] for r in reps]
    chords = CurveArray.from_arrays(
        np.concatenate([p.points for p in polys] + [nodes.reshape(-1, 2)]),
        np.concatenate([p.cum for p in polys] + [cum.reshape(-1)]),
        [len(p.cum) for p in polys] + [len(part)] * k,
        [p.length for p in polys] + cum[:, -1].tolist(), plane)
    dist = d_inf_many(chords, np.arange(k), np.arange(k, 2 * k)).tolist()
    pieces = []
    clustering_term = 0.0
    interp_term = 0.0
    for cl, path, d, chord_length in zip(clusters, nodes.tolist(), dist,
                                         chords.plane_length[k:].tolist()):
        w = cl.weight
        pieces += [Piece(tuple(s), tuple(e), w, plane.dist(s, e))
                   for s, e in zip(path, path[1:]) if s != e]
        clustering_term += 2.0 * (cap + 1.0) * w * cl.diameter
        interp_term += w * ((lengths[cl.representative] + chord_length + 2.0) * d)
    if not math.isfinite(clustering_term + interp_term):
        raise CurrentError(f"approximation certificate is not finite: clustering term "
                           f"{clustering_term!r}, interpolation term {interp_term!r}")
    chain = Chain1(plane, pieces, validate=False)
    cert = ApproxCertificate(
        epsilon=eps,
        clusters=tuple(clusters),
        clustering_term=clustering_term,
        interpolation_term=interp_term,
        flat_bound=clustering_term + interp_term,
        mass_p=chain.mass(),
        mass_n=mass_n,
    )
    return chain, cert


def measure_as_chain(cm: CurveMeasure, plane: Optional[NormedPlane] = None) -> Chain1:
    """Expand the measure entry-by-entry into one chain (for oracle comparisons)."""
    plane = plane or NormedPlane("l2")
    out = Chain1.empty(plane)
    for w, p in cm.entries:
        out = out + p.as_chain(plane, w)
    return out
