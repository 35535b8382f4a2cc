"""Compress a curve-measure current into a finite geodesic chain with a
certified flat-norm error and guaranteed mass non-increase.

Pipeline: truncate long curves, greedily net the rest in the uniform distance
(centers follow input order, so results are deterministic and reproducible),
replace each cluster by its shortest member (which realizes the eta-average
inequality exactly: the min is at most the weighted mean), then interpolate
representatives by chord chains. The certificate splits into a clustering term
2 (L+1) eta(A) diam(A) per cluster and a per-representative interpolation term
from the homotopy pair bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .currents import Chain1, CurrentError, Polyline, d_inf
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


def truncate(cm: CurveMeasure, cap: float) -> tuple[CurveMeasure, float]:
    """Drop entries longer than the cap; the mass error is the dropped mass."""
    if cap <= 0:
        raise CurrentError("length cap must be positive")
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
    """
    if eps <= 0:
        raise CurrentError("cluster radius must be positive")
    plane = plane or NormedPlane("l2")
    centers: list[int] = []
    groups: list[list[int]] = []
    for i, (_, poly) in enumerate(cm.entries):
        placed = False
        for k, c in enumerate(centers):
            if d_inf(poly, cm.entries[c][1], plane) < eps:
                groups[k].append(i)
                placed = True
                break
        if not placed:
            centers.append(i)
            groups.append([i])
    out = []
    for k, g in enumerate(groups):
        diam = 0.0
        for a in range(len(g)):
            for b in range(a + 1, len(g)):
                diam = max(diam, d_inf(cm.entries[g[a]][1], cm.entries[g[b]][1], plane))
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
    plane = plane or NormedPlane("l2")
    if mesh <= 0:
        raise CurrentError("interpolation mesh must be positive")
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
