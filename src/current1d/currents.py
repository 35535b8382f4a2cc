"""Molecules, polyhedral 1-chains, polylines, curve fragments, and test forms.

Everything here has pure value semantics: every operation is a deterministic
function of its inputs, so concurrent use is safe.

Point keys: planar chains use ``(x, y)`` float tuples, graph chains use vertex
indices. Molecule aggregation is by exact key equality; cancellation between
a chain and its lift is therefore exact whenever the same floats flow through.
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .quadrature import QUAD_TOL, Quad, integrate
from .spaces import MetricGraph, NormedPlane

TOL = 1e-9

PointKey = Union[tuple, int]


class CurrentError(ValueError):
    """Raised on malformed chains, molecules, or geometry mismatches."""


def _pt(p) -> tuple[float, float]:
    return (float(p[0]), float(p[1]))


# ---------------------------------------------------------------------------
# molecules


class Molecule:
    """Finitely supported signed measure with zero total mass."""

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[tuple[PointKey, float]], check_zero_sum: bool = True):
        agg: dict[PointKey, float] = {}
        for p, w in atoms:
            if isinstance(p, (tuple, list, np.ndarray)):
                key = _pt(p)
            elif isinstance(p, (int, np.integer)) and not isinstance(p, bool):
                key = int(p)
            else:
                raise CurrentError(f"molecule atom {p!r} is neither a point nor an integer vertex")
            agg[key] = agg.get(key, 0.0) + float(w)
        bad = [w for w in agg.values() if not math.isfinite(w)]
        if bad:
            raise CurrentError(f"molecule weights must be finite, not {bad}")
        items = [(k, w) for k, w in agg.items() if w != 0.0]
        items.sort(key=lambda kw: (repr(type(kw[0])), kw[0]))
        self.atoms = tuple(items)
        if check_zero_sum and abs(self.total()) > TOL * max(1.0, self.mass0()):
            raise CurrentError(f"molecule weights sum to {self.total()}, not 0")

    def total(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def mass0(self) -> float:
        """Mass as a 0-current: sum of absolute weights."""
        return float(sum(abs(w) for _, w in self.atoms))

    def pairing(self, f: Callable[[PointKey], float]) -> float:
        """Integral of f against the molecule."""
        return float(sum(w * f(p) for p, w in self.atoms))

    def positive_part(self):
        return [(p, w) for p, w in self.atoms if w > 0]

    def negative_part(self):
        return [(p, -w) for p, w in self.atoms if w < 0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Molecule) and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"Molecule({list(self.atoms)!r})"


# ---------------------------------------------------------------------------
# chains


class Piece(NamedTuple):
    start: PointKey
    end: PointKey
    weight: float
    length: float


class Chain1:
    """Finite weighted list of oriented geodesic pieces.

    Planar pieces are straight segments between coordinate endpoints; graph
    pieces reference vertices of the ambient graph and carry the edge length.
    """

    __slots__ = ("space", "pieces", "_quads")

    def __init__(self, space, pieces: Sequence[Piece], validate: bool = True):
        self.space = space
        self.pieces = tuple(pieces)
        self._quads = None  # (panel, its quads on this chain): see panel_row
        if validate:
            for p in self.pieces:
                d = self._endpoint_dist(p.start, p.end)
                if p.length < d - TOL:
                    raise CurrentError(f"piece length {p.length} below endpoint distance {d}")

    @property
    def plane(self) -> NormedPlane:
        """The chain's normed plane; the euclidean plane for a graph chain."""
        return self.space if isinstance(self.space, NormedPlane) else NormedPlane("l2")

    def _endpoint_dist(self, a, b) -> float:
        if isinstance(self.space, NormedPlane):
            return self.space.dist(a, b)
        if isinstance(self.space, MetricGraph):
            return self.space.d(a, b)
        return 0.0

    @classmethod
    def from_segments(cls, plane: NormedPlane, segs: Sequence[tuple]) -> "Chain1":
        """Build a planar chain from (start, end, weight) triples."""
        pieces = []
        for s, e, w in segs:
            s, e = _pt(s), _pt(e)
            pieces.append(Piece(s, e, float(w), plane.dist(s, e)))
        # each length is the endpoint distance itself, so validation could not fail
        return cls(plane, pieces, validate=False)

    @classmethod
    def from_graph_edges(cls, g: MetricGraph, flows: Sequence[tuple[int, int, float]]) -> "Chain1":
        """Build a graph chain from (u, v, weight) triples on existing edges."""
        # MetricGraph already checked every edge length against d to the same TOL
        return cls(g, [Piece(int(u), int(v), float(w), g.edge_length(u, v))
                       for u, v, w in flows], validate=False)

    @staticmethod
    def empty(space=None) -> "Chain1":
        return Chain1(space, ())

    def coords_of(self, key: PointKey) -> tuple[float, float]:
        if isinstance(key, tuple):
            return key
        g = self.space
        if isinstance(g, MetricGraph) and g.coords is not None:
            return _pt(g.coords[key])
        raise CurrentError("chain has no coordinate embedding")

    def mass(self) -> float:
        return float(sum(abs(p.weight) * p.length for p in self.pieces))

    def boundary(self) -> Molecule:
        atoms = []
        for p in self.pieces:
            atoms.append((p.end, p.weight))
            atoms.append((p.start, -p.weight))
        return Molecule(atoms, check_zero_sum=False)

    def __add__(self, other: "Chain1") -> "Chain1":
        space = self.space if self.space is not None else other.space
        return Chain1(space, self.pieces + other.pieces, validate=False)

    def scale(self, a: float) -> "Chain1":
        return Chain1(self.space, [Piece(p.start, p.end, a * p.weight, p.length) for p in self.pieces],
                      validate=False)

    def __repr__(self) -> str:
        return f"Chain1({len(self.pieces)} pieces, mass={self.mass():.6g})"


# ---------------------------------------------------------------------------
# polylines


_L2 = NormedPlane("l2")


class Polyline:
    """Ordered plane points with the implied constant-speed parametrization on
    [0,1]; ``length`` is measured in ``plane``, l2 by default."""

    __slots__ = ("points", "plane", "cum", "length")

    def __init__(self, points, plane: Optional[NormedPlane] = None):
        self.points = pts = np.asarray(points, dtype=float).reshape(-1, 2)
        self.plane = plane = plane or _L2
        if len(pts) < 1:
            raise CurrentError("polyline needs at least one point")
        self.cum = np.zeros(len(pts))
        # segments that overflow, or meet inf - inf, leave a non-finite length
        # and are rejected below, so numpy need not warn of them
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.accumulate(plane.norm_arr(pts[1:] - pts[:-1]), out=self.cum[1:])
        self.length = float(self.cum[-1])
        # a non-finite coordinate makes some segment, so the length, non-finite
        if not (math.isfinite(self.length) if len(pts) > 1 else np.isfinite(pts[0]).all()):
            raise CurrentError("polyline points and length must be finite")

    def breaks(self) -> np.ndarray:
        """Breakpoint parameters of the constant-speed parametrization."""
        if self.length == 0:
            return np.array([0.0, 1.0])
        return self.cum / self.length

    def at(self, t) -> np.ndarray:
        """Point(s) at parameter t (vectorized, constant speed)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.length == 0:
            out = np.repeat(self.points[:1], len(t), axis=0)
        else:
            s = np.clip(t, 0.0, 1.0) * self.length
            x = np.interp(s, self.cum, self.points[:, 0])
            y = np.interp(s, self.cum, self.points[:, 1])
            out = np.stack([x, y], axis=-1)
        return out

    def start(self) -> tuple[float, float]:
        return _pt(self.points[0])

    def end(self) -> tuple[float, float]:
        return _pt(self.points[-1])

    def translate(self, v) -> "Polyline":
        return Polyline(self.points + np.asarray(v, dtype=float), self.plane)

    def segments(self):
        """Yield (t0, t1, p, q) per segment in the global parametrization."""
        br = self.breaks()
        for i in range(len(self.points) - 1):
            yield float(br[i]), float(br[i + 1]), self.points[i], self.points[i + 1]

    def as_chain(self, plane: NormedPlane, weight: float = 1.0) -> Chain1:
        segs = [(self.points[i], self.points[i + 1], weight)
                for i in range(len(self.points) - 1)
                if not np.array_equal(self.points[i], self.points[i + 1])]
        return Chain1.from_segments(plane, segs)

    def __repr__(self) -> str:
        return f"Polyline({len(self.points)} pts, len={self.length:.6g})"


# ---------------------------------------------------------------------------
# uniform distance

CHUNK_SAMPLES = 2 ** 12  # curve samples evaluated at once by d_inf_many
_UNIT = np.array([0.0, 1.0])


class CurveArray:
    """A family of polylines held as flat arrays for batched evaluation.

    ``keys`` pairs each member index with the arc lengths ``cum`` of its
    vertices as the complex number ``member + 1j * cum``; numpy orders complex
    numbers lexicographically, so one ``searchsorted`` finds the segment of
    any (member, parameter) query. A member of length zero keeps only its
    first vertex. ``breaks`` and ``own`` hold every member's breakpoint
    parameters and its points there, member k in ``bstart[k]:bstart[k + 1]``;
    ``nbreaks`` and ``max_breaks`` are their counts. ``length`` is each
    member's own length, which sets its parametrization, and
    ``plane_length`` its length in the array's plane, the float that
    ``Polyline(points, plane).length`` gives.
    """

    __slots__ = ("plane", "keys", "cum", "points", "slope", "length", "plane_length",
                 "breaks", "bstart", "nbreaks", "max_breaks", "own")

    def __init__(self, polys: Sequence[Polyline], plane: Optional[NormedPlane] = None):
        self.plane = plane or _L2
        polys = list(polys)
        verts = [len(p.cum) if p.length else 1 for p in polys]
        self.cum = np.concatenate([p.cum[:k] for p, k in zip(polys, verts)] + [[]])
        self.points = np.concatenate([p.points[:k] for p, k in zip(polys, verts)]
                                     + [np.zeros((0, 2))])
        member = np.arange(len(polys))
        self.keys = np.repeat(member, verts) + 1j * self.cum
        # np.interp's slopes; 0 at a member's last vertex and at a vertex with
        # the arc length of the next, which searchsorted never returns
        last = np.cumsum(verts, dtype=int) - 1
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = (np.diff(self.points, axis=0, append=0.0)
                          / np.diff(self.cum, append=0.0)[:, None])
        self.slope[last] = 0.0
        self.slope[~np.isfinite(self.slope)] = 0.0
        self.length = np.array([p.length for p in polys])
        # the segment norms of member k in row k, padded with zeros, and
        # summed in order along the row as Polyline sums them
        counts = np.array([len(p.points) for p in polys], dtype=int)
        pts = np.concatenate([p.points for p in polys] + [np.zeros((0, 2))])
        local = np.arange(len(pts)) - np.repeat(np.cumsum(counts) - counts, counts)
        inner = np.flatnonzero(local > 0)
        norms = np.zeros((len(polys), counts.max(initial=1)))
        with np.errstate(over="ignore", invalid="ignore"):
            norms[np.repeat(member, counts)[inner], local[inner]] = \
                self.plane.norm_arr(pts[inner] - pts[inner - 1])
        self.plane_length = np.add.accumulate(norms, axis=1)[:, -1]
        # Polyline.breaks of every member in one division: cum / length, and
        # [0, 1] / 1 for a member of length zero
        self.nbreaks = np.array([len(p.cum) if p.length else 2 for p in polys], dtype=int)
        self.breaks = (np.concatenate([p.cum if p.length else _UNIT for p in polys] + [[]])
                       / np.repeat(np.where(self.length > 0, self.length, 1.0), self.nbreaks))
        self.bstart = np.concatenate([[0], np.cumsum(self.nbreaks)])
        self.max_breaks = int(self.nbreaks.max(initial=0))
        self.own = self.at(np.repeat(member, self.nbreaks), self.breaks)

    def at(self, rows: np.ndarray, ts: np.ndarray, exact: bool = False) -> np.ndarray:
        """Point of member ``rows[k]`` at parameter ``ts[k]``, shape (len(ts), 2).

        The floating-point steps are those of ``Polyline.at`` (``np.interp``:
        slope * (s - cum[j]) + point[j] in segment j), so the values are the
        same up to the sign of a zero coordinate. With ``exact`` a parameter
        on a vertex takes that vertex's point, as ``np.interp`` does, and the
        values are the same bit for bit, signed zeros too.
        """
        s = np.clip(ts, 0.0, 1.0) * self.length[rows]
        j = np.searchsorted(self.keys, rows + 1j * s, side="right") - 1
        # take gathers whole rows several times faster than indexing with j
        base = self.points.take(j, axis=0)
        out = self.slope.take(j, axis=0) * (s - self.cum[j])[:, None] + base
        if exact:
            np.copyto(out, base, where=(s == self.cum[j])[:, None])
        return out

    def gap(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """max over the breakpoints t of member y[k] of |x[k](t) - y[k](t)|, per k."""
        sizes = self.nbreaks[y]
        firsts = np.cumsum(sizes) - sizes
        idx = np.repeat(self.bstart[y] - firsts, sizes) + np.arange(sizes.sum())
        diff = self.at(np.repeat(x, sizes), self.breaks[idx]) - self.own.take(idx, axis=0)
        return np.maximum.reduceat(self.plane.norm_arr(diff), firsts)


def d_inf_many(curves: CurveArray, a, b) -> np.ndarray:
    """Exact uniform distances between members ``a`` and ``b`` of a curve
    array, broadcast together like a numpy ufunc.

    Each pair is sampled on the union of its two members' breakpoints, which
    is exact (see ``d_inf``): member b at the breakpoints of a, and member a
    at those of b, so every entry equals ``d_inf`` of its pair bit for bit.
    Both directions of a block of pairs are sampled in one ``gap`` pass, and
    each pair takes the larger of its two halves. The pairs are taken in
    blocks of at most CHUNK_SAMPLES samples; a single pair is never split.
    """
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=int)),
                               np.atleast_1d(np.asarray(b, dtype=int)))
    out = np.empty(a.shape)
    flat = out.reshape(-1)
    if flat.size:
        a, b = a.reshape(-1), b.reshape(-1)
        step = max(1, CHUNK_SAMPLES // (2 * curves.max_breaks))
        for p in range(0, flat.size, step):
            x, y = a[p:p + step], b[p:p + step]
            both = curves.gap(np.concatenate([x, y]), np.concatenate([y, x]))
            np.maximum(both[:len(x)], both[len(x):], out=flat[p:p + len(x)])
    return out


def d_inf(a: Polyline, b: Polyline, plane: Optional[NormedPlane] = None) -> float:
    """Exact uniform distance between two constant-speed polylines.

    On the merged breakpoint partition the pointwise difference is affine per
    subinterval, so its norm is convex there and attains its max at breakpoints.
    """
    plane = plane or NormedPlane("l2")
    ts = np.union1d(a.breaks(), b.breaks())
    return float(np.max(plane.norm_arr(a.at(ts) - b.at(ts))))


# ---------------------------------------------------------------------------
# closed sets (finite unions of convex primitives)


def _slab_interval(lo: float, hi: float, a: float, b: float) -> Optional[tuple[float, float]]:
    """Parameter interval where lo <= a + t*b <= hi, intersected with [0,1], or None."""
    if b == 0.0:
        return (0.0, 1.0) if lo <= a <= hi else None
    t0, t1 = (lo - a) / b, (hi - a) / b
    if t0 > t1:
        t0, t1 = t1, t0
    t0, t1 = max(t0, 0.0), min(t1, 1.0)
    if t0 > t1:
        return None
    return (t0, t1)


def _primitive(ordered: Callable[..., bool] = lambda prim: True) -> Callable[[type], type]:
    """Make a class a frozen dataclass of a closed-set primitive whose construction
    raises CurrentError unless its numbers are finite and ``ordered(self)`` holds."""
    def make(cls: type) -> type:
        def __post_init__(self):
            if not (ordered(self) and np.isfinite(np.hstack(astuple(self))).all()):
                raise CurrentError(f"{self!r} needs finite numbers and ordered bounds")
        cls.__post_init__ = __post_init__
        return dataclass(frozen=True)(cls)
    return make


def _meet(i, j):
    if i is None or j is None:
        return None
    t0, t1 = max(i[0], j[0]), min(i[1], j[1])
    return (t0, t1) if t0 <= t1 else None


@_primitive(lambda box: box.lo[0] <= box.hi[0] and box.lo[1] <= box.hi[1])
class Box:
    lo: tuple[float, float]
    hi: tuple[float, float]

    def segment_interval(self, p, q):
        d = (q[0] - p[0], q[1] - p[1])
        ix = _slab_interval(self.lo[0], self.hi[0], p[0], d[0])
        iy = _slab_interval(self.lo[1], self.hi[1], p[1], d[1])
        return _meet(ix, iy)


@_primitive(lambda ball: ball.radius >= 0)
class Ball:
    center: tuple[float, float]
    radius: float

    def segment_interval(self, p, q):
        # the quadratic in units of 2^k, the magnitude of the largest number, cannot
        # overflow; a power of two scales exactly, so t keeps its bits
        px, py, qx, qy, cx, cy = map(float, (*p, *q, *self.center))
        k = max(math.frexp(max(map(abs, (px, py, qx, qy, cx, cy, self.radius))))[1], -1021)
        unit = math.ldexp(1.0, -k)
        px, py, qx, qy, cx, cy = (x * unit for x in (px, py, qx, qy, cx, cy))
        dx, dy = qx - px, qy - py
        fx, fy = px - cx, py - cy
        a = dx * dx + dy * dy
        b = 2.0 * (fx * dx + fy * dy)
        try:  # r ** 2 is not always r * r: square before scaling where it stays normal
            r2 = self.radius ** 2
        except OverflowError:
            r2 = math.inf
        r2 = (math.ldexp(r2, -2 * k) if sys.float_info.min <= r2 < math.inf
              else (self.radius * unit) ** 2)
        c = fx * fx + fy * fy - r2
        if a == 0.0:
            return (0.0, 1.0) if c <= 0 else None
        disc = b * b - 4 * a * c
        if disc < 0:
            return None
        s = math.sqrt(disc)
        return _meet(((-b - s) / (2 * a), (-b + s) / (2 * a)), (0.0, 1.0))


@_primitive()
class HalfPlane:
    """Points with a*x + b*y <= c."""
    a: float
    b: float
    c: float

    def segment_interval(self, p, q):
        v0 = self.a * p[0] + self.b * p[1]
        dv = self.a * (q[0] - p[0]) + self.b * (q[1] - p[1])
        return _slab_interval(-math.inf, self.c, v0, dv)


@_primitive(lambda slab: slab.c1 <= slab.c2)
class Slab:
    """Points with c1 <= a*x + b*y <= c2; c1 == c2 encodes a line."""
    a: float
    b: float
    c1: float
    c2: float

    def segment_interval(self, p, q):
        v0 = self.a * p[0] + self.b * p[1]
        dv = self.a * (q[0] - p[0]) + self.b * (q[1] - p[1])
        return _slab_interval(self.c1, self.c2, v0, dv)


Primitive = Union[Box, Ball, HalfPlane, Slab]


@dataclass(frozen=True)
class ClosedSet:
    """Finite union of closed convex primitives."""
    primitives: tuple[Primitive, ...]

    @staticmethod
    def of(*prims: Primitive) -> "ClosedSet":
        return ClosedSet(tuple(prims))

    def segment_intervals(self, p, q) -> list[tuple[float, float]]:
        """Closure of the preimage of the set along segment p->q, as merged intervals."""
        ivs = []
        for prim in self.primitives:
            iv = prim.segment_interval(p, q)
            if iv is not None:
                ivs.append(iv)
        return merge_intervals(ivs)


def merge_intervals(ivs: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals; touching intervals merge, degenerate points survive."""
    out: list[tuple[float, float]] = []
    for a, b in sorted(ivs):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def intervals_measure(ivs: Sequence[tuple[float, float]]) -> float:
    return float(sum(b - a for a, b in ivs))


def fat_cantor_intervals(k: int) -> list[tuple[float, float]]:
    """Stage-k Smith-Volterra-Cantor set: remove the open middle 4^-j at step j.

    All endpoints are dyadic rationals, hence exact in binary floating point;
    the stage-k measure is 1/2 + 2^-(k+1).
    """
    ivs = [(0.0, 1.0)]
    for j in range(1, k + 1):
        gap = 4.0 ** (-j)
        nxt = []
        for a, b in ivs:
            mid = (a + b) / 2.0
            nxt.append((a, mid - gap / 2.0))
            nxt.append((mid + gap / 2.0, b))
        ivs = nxt
    return ivs


# ---------------------------------------------------------------------------
# fragments


class Fragment(NamedTuple):
    polyline: Polyline
    domain: tuple[tuple[float, float], ...]
    weight: float  # nonnegative


class FragmentChain:
    """Weighted curve fragments: polylines restricted to finite unions of closed intervals."""

    __slots__ = ("fragments", "_quads")

    def __init__(self, fragments: Sequence[Fragment]):
        self.fragments = tuple(fragments)
        self._quads = None  # (panel, its quads on this chain): see panel_row
        for fr in self.fragments:
            if not (math.isfinite(fr.weight) and fr.weight >= 0):
                raise CurrentError(f"fragment weights must be nonnegative and finite: {fr.weight!r}")
            for a, b in fr.domain:
                if not (0.0 - 1e-12 <= a <= b <= 1.0 + 1e-12):
                    raise CurrentError(f"domain interval ({a},{b}) outside [0,1]")

    def mass(self) -> float:
        """Sum over fragments of weight * speed * |domain| (constant-speed metric derivative)."""
        tot = 0.0
        for fr in self.fragments:
            tot += fr.weight * fr.polyline.length * intervals_measure(fr.domain)
        return float(tot)

    def __repr__(self) -> str:
        return f"FragmentChain({len(self.fragments)} fragments, mass={self.mass():.6g})"


# ---------------------------------------------------------------------------
# test forms


# a field tag -> the shape (cone, v, s, c, lo, hi) its params give; see ScalarField
_SHAPES = {
    "const": lambda c: (False, (0.0, 0.0), 1.0, c, c, c),
    "affine": lambda a, b, c: (False, (a, b), 1.0, c, -math.inf, math.inf),
    "clipaffine": lambda a, b, c, lo, hi: (False, (a, b), 1.0, c, lo, hi),
    "dist": lambda qx, qy: (True, (qx, qy), 1.0, 0.0, -math.inf, math.inf),
    "bump": lambda qx, qy, m: (True, (qx, qy), -1.0, m, 0.0, m),
}


@dataclass(frozen=True)
class ScalarField:
    """Closed-form scalar field with an a.e. gradient; vectorized over (n,2) arrays.

    Each tag is one shape clip(base + c, lo, hi), with the base a ramp v . p or
    a cone s |p - v|, the distance measured in ``plane``:
    'const' (c): ramp (0, 0), offset c, levels [c, c];
    'affine' (a, b, c): ramp (a, b), offset c, levels (-inf, inf);
    'clipaffine' (a, b, c, lo, hi): ramp (a, b), offset c, levels [lo, hi];
    'dist' (qx, qy): cone q with s = 1, offset 0, levels (-inf, inf);
    'bump' (qx, qy, m): cone q with s = -1, offset m, levels [0, m].
    The gradient is the base's, and 0 where a finite level is reached (so a
    bump's is 0 at q). An unknown tag, a wrong number of params or lo > hi is
    a CurrentError at construction. ``value`` and ``grad`` evaluate the field
    as a one-row ``FieldRows``.
    """

    tag: str
    params: tuple[float, ...]
    plane: NormedPlane = NormedPlane("l2")
    _shape: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = _SHAPES.get(self.tag)
        if shape is None or len(self.params) != shape.__code__.co_argcount:
            raise CurrentError(f"no field {self.tag!r} with {len(self.params)} params")
        cone, v, s, c, lo, hi = shape(*map(float, self.params))
        if not lo <= hi:
            raise CurrentError(f"field {self.tag!r} needs levels lo <= hi: {self.params}")
        object.__setattr__(self, "_shape", (cone, v, s, c, lo, hi))

    @cached_property
    def _rows(self) -> "FieldRows":
        return FieldRows([self])

    def value(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        return self._rows.value(p, np.zeros((1, 1), dtype=int))[0]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        p = np.asarray(pts, dtype=float).reshape(-1, 2)
        return self._rows.grad(p, np.zeros((1, 1), dtype=int))[0]

    def lip(self) -> float:
        """Declared Lipschitz upper bound w.r.t. the field's plane norm."""
        cone, v, s = self._shape[:3]
        return abs(s) if cone else self.plane.dual_norm(v)

    def sup(self) -> float:
        lo, hi = self._shape[4:]
        return max(abs(lo), abs(hi))


class FieldRows:
    """The shapes (cone, v, s, c, lo, hi) of fields in one plane as arrays, one row
    per field. ``value`` and ``grad`` take points (..., 2) and the rows r to
    evaluate: a column (k, 1) of rows against every point, giving (k, n), or
    the row of each point. Each run of ramp rows or of cone rows in r takes one
    evaluator, and every row gets the bits of its field's own shape."""

    def __init__(self, fields: Sequence[ScalarField]):
        self.plane = fields[0].plane
        if any(f.plane != self.plane for f in fields):
            raise CurrentError("the fields of a panel share one plane")
        cone, v, s, c, lo, hi = zip(*(f._shape for f in fields))
        self.cone, self.v = np.array(cone, dtype=bool), np.array(v, dtype=float)
        self.s, self.c, self.lo, self.hi = (np.array(a, dtype=float) for a in (s, c, lo, hi))
        self.levels = np.isfinite(self.lo) | np.isfinite(self.hi)

    def _runs(self, p: np.ndarray, r: np.ndarray):
        """(where, points, rows, cone) of each run of rows of one kind in r."""
        cone = self.cone.take(r[:, 0] if r.ndim == 2 else r)
        cuts = [0, *(np.flatnonzero(cone[1:] != cone[:-1]) + 1).tolist(), len(cone)]
        for a, b in zip(cuts, cuts[1:] if len(cone) else []):
            yield slice(a, b), p if r.ndim == 2 else p[a:b], r[a:b], cone[a]

    def _base(self, p: np.ndarray, r: np.ndarray, cone: bool) -> np.ndarray:
        if cone:
            return self.s.take(r) * self.plane.norm_arr(p - self.v.take(r, axis=0))
        return self.v[:, 0].take(r) * p[..., 0] + self.v[:, 1].take(r) * p[..., 1]

    def value(self, p: np.ndarray, r: np.ndarray) -> np.ndarray:
        out = np.empty(np.broadcast_shapes(r.shape, p.shape[:-1]))
        for at, q, rr, cone in self._runs(p, r):
            out[at] = np.clip(self._base(q, rr, cone) + self.c.take(rr),
                              self.lo.take(rr), self.hi.take(rr))
        return out

    def grad(self, p: np.ndarray, r: np.ndarray) -> np.ndarray:
        out = np.empty(np.broadcast_shapes(r.shape, p.shape[:-1]) + (2,))
        for at, q, rr, cone in self._runs(p, r):
            v = self.v.take(rr, axis=0)
            out[at] = self.s.take(rr)[..., None] * self.plane.norm_grad(q - v) if cone else v
            if self.levels.take(rr).any():
                val = self._base(q, rr, cone) + self.c.take(rr)
                out[at][(val <= self.lo.take(rr)) | (val >= self.hi.take(rr))] = 0.0
        return out


@dataclass(frozen=True)
class TestForm:
    """A pair (f, pi) of Lipschitz test functions with declared bounds: row ``row``
    of ``panel``. A form built by hand is the one row of its own panel."""

    f: ScalarField
    pi: ScalarField
    panel: Optional["Panel"] = field(default=None, repr=False, compare=False)
    row: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.panel is None:
            object.__setattr__(self, "panel", Panel([(self.f, self.pi)]))

    @property
    def sup_f(self) -> float:
        return self.f.sup()

    @property
    def lip_pi(self) -> float:
        return self.pi.lip()


class Panel:
    """Test forms (f, pi), ``forms``, with their shape rows ``f`` and ``pi`` as
    arrays, so that a chain or a fill integrates every row in one quadrature
    pass. Rows with an affine pi and a constant or affine f act on a chain in
    closed form (``closed``)."""

    def __init__(self, pairs: Sequence[tuple[ScalarField, ScalarField]]):
        # rows in the Gray order of (f is a cone, pi is a cone), so that the
        # kinds of each table form at most three runs
        order = sorted(range(len(pairs)), key=lambda i: 2 * pairs[i][0]._shape[0]
                       + (pairs[i][0]._shape[0] != pairs[i][1]._shape[0]))
        table = [pairs[i] for i in order]
        self.f, self.pi = FieldRows([f for f, _ in table]), FieldRows([pi for _, pi in table])
        self.closed = np.array([pi.tag == "affine" and f.tag in ("const", "affine")
                                for f, pi in table], dtype=bool)
        self.forms = [None] * len(pairs)
        for row, i in enumerate(order):
            self.forms[i] = TestForm(*pairs[i], self, row)

    def act(self, starts, dirs, weights) -> Quad:
        """The weighted action of each piece g: p -> p + d on every form: (R, n)
        values and (R,) counts. A closed row is slope * f(midpoint); the others
        integrate (f o g)(pi o g)' over the pieces' points and directions in one
        pass, each to QUAD_TOL per piece."""
        def geometry(x: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            d = dirs[owner]
            return starts[owner] + x * d, d
        closed, n = self.closed, len(weights)
        q = integrate(lambda g, r: self.f.value(g[0], r) * np.einsum(
            "...j,...j->...", self.pi.grad(g[0], r), g[1]), np.zeros((n, 1)), np.ones((n, 1)),
            QUAD_TOL * n, np.flatnonzero(~closed), geometry)
        r = np.flatnonzero(closed)[:, None]
        slope = self.pi.v[r, 0] * dirs[:, 0] + self.pi.v[r, 1] * dirs[:, 1]
        value = np.empty((len(closed), n))
        value[closed] = weights * slope * self.f.value(starts + 0.5 * dirs, r)
        value[~closed] = weights * q.value
        counts = np.zeros((2, len(closed)), dtype=int)
        counts[:, ~closed] = q.nodes, q.capped
        return Quad(value, *counts)


def panel_row(owner, form: TestForm, run: Callable[[Panel], Quad]) -> Quad:
    """Row ``form.row`` of ``run(form.panel)``, the quads of the whole panel. The
    owner, a (fragment) chain or a fill, keeps them in one slot, ``_quads``, for
    the last panel it saw, so the other forms of that panel run no quadrature."""
    if owner._quads is None or owner._quads[0] is not form.panel:
        q = run(form.panel)
        q.value.flags.writeable = False
        object.__setattr__(owner, "_quads", (form.panel, q))
    return owner._quads[1].row(form.row)


def standard_panel(seed: int, count: int = 20, scale: float = 2.0) -> list[TestForm]:
    """Deterministic seeded panel of bounded test forms for a working box of
    half-width `scale` around the origin, the rows of one ``Panel``.

    Distance centers sit on a ring outside the box and clip levels exceed the
    affine range over the box, so every form is bounded and Lipschitz globally
    but smooth where chains of that scale are integrated; quadratures then
    converge fast without losing the clipped/distance semantics.
    """
    plane = NormedPlane("l2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = []
    box_reach = 1.5 * scale  # max |p| (euclidean) of points we integrate over
    for i in range(count):
        kind = i % 4
        theta = rng.uniform(0, 2 * math.pi)
        ring = 2.5 * scale
        qx, qy = ring * math.cos(theta), ring * math.sin(theta)
        a, b = rng.normal(size=2)
        nrm = math.hypot(a, b) or 1.0
        a, b = a / nrm, b / nrm
        c = rng.uniform(-1, 1)
        clip = float(2.0 * box_reach + abs(c) + rng.uniform(0.5, 1.5))
        if kind == 0:
            f = ScalarField("const", (1.0,), plane)
            pi = ScalarField("affine", (a, b, c), plane)
        elif kind == 1:
            m = float(ring + 2.0 * box_reach + rng.uniform(1.0, 2.0) * scale)
            f = ScalarField("bump", (qx, qy, m), plane)
            pi = ScalarField("affine", (a, b, c), plane)
        elif kind == 2:
            f = ScalarField("clipaffine", (a, b, c, -clip, clip), plane)
            pi = ScalarField("dist", (qx, qy), plane)
        else:
            f = ScalarField("clipaffine", (b, -a, c, -clip, clip), plane)
            pi = ScalarField("affine", (a, b, 0.0), plane)
        pairs.append((f, pi))
    return Panel(pairs).forms


# ---------------------------------------------------------------------------
# evaluation


def _pieces(c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start points (n, 2), directions (n, 2) and weights (n,) of the straight
    pieces of a chain, or of the domain sub-segments of a fragment chain, each
    parametrized over [0, 1]. A chain's panel slot keeps the quads built on
    them, so they are built once per panel."""
    rows = []
    if isinstance(c, Chain1):
        for piece in c.pieces:
            a = c.coords_of(piece.start)
            b = c.coords_of(piece.end)
            if a != b:
                rows.append((a[0], a[1], b[0] - a[0], b[1] - a[1], piece.weight))
    else:
        for fr in c.fragments:
            for t0, t1, p, q in fr.polyline.segments():
                if t1 <= t0:
                    continue
                for a, b in fr.domain:
                    lo, hi = max(a, t0), min(b, t1)
                    if hi <= lo:
                        continue
                    pa = p + (lo - t0) / (t1 - t0) * (q - p)
                    pb = p + (hi - t0) / (t1 - t0) * (q - p)
                    rows.append((pa[0], pa[1], pb[0] - pa[0], pb[1] - pa[1], fr.weight))
    arr = np.array(rows, dtype=float).reshape(-1, 5)
    return arr[:, :2], arr[:, 2:4], arr[:, 4]


def action(c, form: TestForm) -> Quad:
    """The weighted action of each piece of ``c``, a chain or a fragment chain,
    on a test form, with the quadrature's node and cap counts; ``evaluate`` is
    its sum.

    The first form of a panel runs ``Panel.act`` for the whole panel on the
    chain's pieces, and the chain keeps those quads for that panel
    (``panel_row``).
    """
    if not isinstance(c, (Chain1, FragmentChain)):
        raise CurrentError(f"cannot evaluate {type(c)}")
    return panel_row(c, form, lambda panel: panel.act(*_pieces(c)))


def evaluate(c, form: TestForm, plane: Optional[NormedPlane] = None) -> float:
    """Action of a chain or fragment chain on a test form.

    Satisfies |evaluate| <= lip(pi) * sup|f| * mass within quadrature tolerance,
    and is linear in the chain weights: each piece is integrated to QUAD_TOL
    whatever the other pieces are. The action does not depend on ``plane``.
    It is the sum of ``action``, so the first form of a panel evaluated on a
    chain runs the panel's one pass, and the rest read the chain's slot.
    """
    return float(action(c, form).value.sum())


# ---------------------------------------------------------------------------
# pushforward and restriction


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b on the plane."""

    a: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))
    b: tuple[float, float] = (0.0, 0.0)

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap()

    @staticmethod
    def translation(v) -> "AffineMap":
        return AffineMap(b=(float(v[0]), float(v[1])))

    @staticmethod
    def scaling(t: float, center=(0.0, 0.0)) -> "AffineMap":
        cx, cy = float(center[0]), float(center[1])
        return AffineMap(a=((t, 0.0), (0.0, t)), b=(cx - t * cx, cy - t * cy))

    def matrix(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def apply_pt(self, p) -> tuple[float, float]:
        m = self.matrix()
        return (float(m[0, 0] * p[0] + m[0, 1] * p[1] + self.b[0]),
                float(m[1, 0] * p[0] + m[1, 1] * p[1] + self.b[1]))

    def op_norm(self, plane: NormedPlane) -> float:
        return plane.op_norm(self.matrix())

    def displacement(self, other: "AffineMap"):
        """Field x -> self(x) - other(x), affine; returns (matrix, offset)."""
        return (self.matrix() - other.matrix(),
                np.asarray(self.b) - np.asarray(other.b))


def pushforward(c: Chain1, phi: AffineMap) -> Chain1:
    """Pushforward of a planar chain under an affine map.

    Straight pieces map to straight pieces; each piece length scales by
    |A dir| / |dir| in the chain's plane norm.
    """
    if not isinstance(phi, AffineMap):
        raise CurrentError("only affine pushforwards are supported")
    plane = c.plane
    m = phi.matrix()
    pieces = []
    for p in c.pieces:
        s = c.coords_of(p.start)
        e = c.coords_of(p.end)
        d = (e[0] - s[0], e[1] - s[1])
        nd = plane.norm(d)
        if nd == 0.0:
            factor = 0.0
        else:
            factor = plane.norm((m[0, 0] * d[0] + m[0, 1] * d[1],
                                 m[1, 0] * d[0] + m[1, 1] * d[1])) / nd
        pieces.append(Piece(phi.apply_pt(s), phi.apply_pt(e), p.weight, p.length * factor))
    return Chain1(plane, pieces, validate=False)


def restrict(obj, e: ClosedSet) -> FragmentChain:
    """Restriction map Phi: keep the closure of the preimage of a closed set.

    Accepts a planar Chain1 or a Polyline (of weight 1). The domains come out exactly
    from affine-segment/convex-primitive interval arithmetic; degenerate
    single-point intervals are kept (zero mass, closure semantics).
    """
    frags: list[Fragment] = []
    if isinstance(obj, Chain1):
        for piece in obj.pieces:
            p = obj.coords_of(piece.start)
            q = obj.coords_of(piece.end)
            w = piece.weight
            if w < 0:
                p, q, w = q, p, -w
            ivs = e.segment_intervals(p, q)
            if ivs:
                frags.append(Fragment(Polyline([p, q], obj.plane), tuple(ivs), w))
        return FragmentChain(frags)
    if isinstance(obj, Polyline):
        ivs_global: list[tuple[float, float]] = []
        for t0, t1, p, q in obj.segments():
            for a, b in e.segment_intervals(p, q):
                ivs_global.append((t0 + a * (t1 - t0), t0 + b * (t1 - t0)))
        merged = merge_intervals(ivs_global)
        if merged:
            frags.append(Fragment(obj, tuple(merged), 1.0))
        return FragmentChain(frags)
    raise CurrentError(f"cannot restrict {type(obj)}")
