"""Compress a curve-measure current into a finite geodesic chain with a
certified flat-norm error and guaranteed mass non-increase.

Pipeline: truncate long curves, greedily net the rest in the uniform distance
(centers follow input order, so results are deterministic and reproducible),
replace each cluster by its shortest member (which realizes the eta-average
inequality exactly: the min is at most the weighted mean), then interpolate
representatives by chord chains. The certificate splits into a clustering term
2 (L+1) eta(A) diam(A) per cluster and a per-representative interpolation term
from the homotopy pair bound.

The net takes every uniform distance it needs from one ``currents.CurveArray``
of the curves, many pairs per vectorized ``d_inf_many`` call. Each pair is
sampled on the union of its two curves' breakpoints, which is exact: between
consecutive points of that union the difference of two constant-speed
polylines is affine, so its norm peaks at one of them. The values are those
of the pairwise ``d_inf`` bit for bit, whether or not the curves share
breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import currents
from .currents import Chain1, CurrentError, CurveArray, Polyline, d_inf_many
from .currents import d_inf  # noqa: F401  kept as approximation.d_inf, which bench/tracing.py wraps
from .homotopy import interpolate_geodesic
from .flatnorm import flat_upper_bound_pair
from .spaces import NormedPlane


@dataclass(frozen=True)
class CurveMeasure:
    """Discrete nonnegative measure over polyline curves."""

    entries: tuple[tuple[float, Polyline], ...]

    def __post_init__(self):
        for w, _ in self.entries:
            if w <= 0:
                raise CurrentError("curve-measure weights must be strictly positive")

    @staticmethod
    def of(pairs: Sequence[tuple[float, Polyline]]) -> "CurveMeasure":
        return CurveMeasure(tuple((float(w), p) for w, p in pairs))

    @property
    def length_bound(self) -> float:
        return max((p.length for _, p in self.entries), default=0.0)

    @property
    def induced_mass(self) -> float:
        return float(sum(w * p.length for w, p in self.entries))


def _require_positive(what: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise CurrentError(f"{what} must be positive and finite: {value!r}")


def truncate(cm: CurveMeasure, cap: float) -> tuple[CurveMeasure, float]:
    """Drop entries longer than the cap; the mass error is the dropped mass."""
    _require_positive("length cap", cap)
    kept = [(w, p) for w, p in cm.entries if p.length <= cap + 1e-12]
    err = float(sum(w * p.length for w, p in cm.entries if p.length > cap + 1e-12))
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
    within the cluster; the representative is the member of minimal length,
    ties resolved by lowest index.

    Entries are taken in rounds. A round measures a block of entries against
    every current center in one ``d_inf_many`` call and places them in order
    up to the first entry far from all centers, which becomes a center; the
    next block is twice as long as the number of entries just placed. This is
    the one-at-a-time greedy exactly, since the centers do not change before
    that entry. Each diameter takes blocks of members against the members
    from the block on. No call measures more than ``currents.CHUNK_SAMPLES``
    pairs unless one row alone does.
    """
    _require_positive("cluster radius", eps)
    curves = CurveArray([p for _, p in cm.entries], plane)
    centers: list[int] = []
    groups: list[list[int]] = []
    i, size = 0, 1
    while i < len(cm.entries):
        block = np.arange(i, min(i + size, len(cm.entries)))
        near = d_inf_many(curves, block[:, None], np.array(centers, dtype=int)) < eps
        far = np.flatnonzero(~near.any(axis=1))
        placed = int(far[0]) if far.size else len(block)
        for k in range(placed):
            groups[int(near[k].argmax())].append(int(block[k]))
        if far.size:
            centers.append(int(block[placed]))
            groups.append([int(block[placed])])
            placed += 1
        i += placed
        size = min(2 * placed, max(1, currents.CHUNK_SAMPLES // max(1, len(centers))))
    out = []
    for g in groups:
        members = np.array(g)
        rows = max(1, currents.CHUNK_SAMPLES // len(g))
        diam = max(float(d_inf_many(curves, members[r:r + rows, None], members[r:]).max())
                   for r in range(0, len(g), rows))
        lengths = [(cm.entries[i][1].length, i) for i in g]
        rep = min(lengths)[1]
        weight = float(sum(cm.entries[i][0] for i in g))
        out.append(Cluster(members=tuple(g), representative=rep,
                           diameter=diam, weight=weight))
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


def _uniform_partition(mesh: float) -> np.ndarray:
    n = max(1, int(np.ceil(1.0 / mesh)))
    return np.linspace(0.0, 1.0, n + 1)


def approximate(cm: CurveMeasure, eps: float, mesh: float,
                plane: Optional[NormedPlane] = None) -> tuple[Chain1, ApproxCertificate]:
    """Geodesic-chain approximation with a certified flat-norm bound.

    P is the weighted sum over clusters of the chord interpolation of the
    shortest member; mass(P) <= induced mass of the measure always, and the
    flat distance to the full superposition is at most the certificate.
    """
    _require_positive("interpolation mesh", mesh)
    plane = plane or NormedPlane("l2")
    cap = cm.length_bound
    clusters = cluster(cm, eps, plane)
    part = _uniform_partition(mesh)
    pieces = Chain1.empty(plane)
    clustering_term = 0.0
    interp_term = 0.0
    for cl in clusters:
        rep = cm.entries[cl.representative][1]
        interp = interpolate_geodesic(rep, part, plane)
        pieces = pieces + interp.chain.scale(cl.weight)
        clustering_term += 2.0 * (cap + 1.0) * cl.weight * cl.diameter
        interp_term += cl.weight * flat_upper_bound_pair(rep, interp.chord_polyline, plane)
    cert = ApproxCertificate(
        epsilon=eps,
        clusters=tuple(clusters),
        clustering_term=clustering_term,
        interpolation_term=interp_term,
        flat_bound=clustering_term + interp_term,
        mass_p=pieces.mass(),
        mass_n=cm.induced_mass,
    )
    return pieces, cert


def measure_as_chain(cm: CurveMeasure, plane: Optional[NormedPlane] = None) -> Chain1:
    """Expand the measure entry-by-entry into one chain (for oracle comparisons)."""
    plane = plane or NormedPlane("l2")
    out = Chain1.empty(plane)
    for w, p in cm.entries:
        out = out + p.as_chain(plane, w)
    return out
