"""Hyperplane normalization pipeline: rescale into the interior, translate off
finitely many atoms, iterate to a rectifiable filling with the same boundary
and (1+eps) mass, and normalize a line-supported chain into a boundaryless one
whose restriction to the line reproduces it.

Mutual singularity is rendered finitely: an atomic measure is singular to a
chain when no atom sits on the relative interior of a piece, and a chain is
singular to the line when no positive-length piece lies inside it (touching
the line at finitely many endpoints carries zero length). Both conditions
are one test on a segment, ``clears``. Remainders of the affine-homotopy
translation are exact chains: the connector segments at the boundary atoms,
which lets the iteration close the boundary exactly instead of leaving a
flat-norm tail. The connectors and the flat certificates of the rescaling and
of each translation all come from ``homotopy.affine_homotopy_current``.

The filling of a boundary inside the line needs no flow: with the atoms
sorted along the line, the segment after each atom carries minus the running
sum of the weights so far, the path case of the tree formula for the
Arens-Eells norm (Godard, Proc. AMS 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .currents import AffineMap, Chain1, Molecule, Piece, fat_cantor_intervals, pushforward
from .homotopy import affine_homotopy_current
from .spaces import NormedPlane
from .transport import ae_norm

TOL = 1e-9
GEOM_EPS = 1e-12

Points = np.ndarray  # an atomic measure of unit atoms: the (n, 2) array of its points


class StructureError(ValueError):
    pass


class NoAdmissibleShift(StructureError):
    pass


def _check_eps(value: float, what: str = "eps") -> None:
    if not (math.isfinite(value) and value > 0):
        raise StructureError(f"{what} must be a positive finite number: {value!r}")


# ---------------------------------------------------------------------------
# geometry helpers


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y = c with (a, b) euclidean-normalized."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        n = math.hypot(self.a, self.b)
        if n == 0:
            raise StructureError("degenerate line normal")
        object.__setattr__(self, "a", self.a / n)
        object.__setattr__(self, "b", self.b / n)
        object.__setattr__(self, "c", self.c / n)

    def signed_dist(self, p) -> float:
        return self.a * p[0] + self.b * p[1] - self.c

    def normal(self) -> tuple[float, float]:
        return (self.a, self.b)

    def direction(self) -> tuple[float, float]:
        return (-self.b, self.a)

    def contains(self, p, tol: float = TOL) -> bool:
        return abs(self.signed_dist(p)) <= tol


@dataclass(frozen=True)
class ConvexBox:
    center: tuple[float, float]
    half_widths: tuple[float, float]

    def __post_init__(self):
        if min(self.half_widths) <= 0:
            raise StructureError("half-widths must be positive")

    def contains(self, p) -> bool:
        return (abs(p[0] - self.center[0]) <= self.half_widths[0]
                and abs(p[1] - self.center[1]) <= self.half_widths[1])


def _piece_coords(chain: Chain1, piece: Piece):
    return chain.coords_of(piece.start), chain.coords_of(piece.end)


def piece_inside_line(a, b, line: Line, tol: float = GEOM_EPS) -> bool:
    """Positive-length segment entirely inside the line."""
    if a == b:
        return False
    return abs(line.signed_dist(a)) <= tol and abs(line.signed_dist(b)) <= tol


def clears(a, b, mu: Points, line: Optional[Line] = None, spare=()) -> bool:
    """Segment (a, b) is not inside the line and no atom of mu lies on it,
    except atoms at a point of ``spare`` (pass (a, b) to test the relative
    interior only). All atoms are measured in one numpy pass."""
    if line is not None and piece_inside_line(a, b, line):
        return False
    mu = np.asarray(mu, dtype=float).reshape(-1, 2)
    ax, ay = b[0] - a[0], b[1] - a[1]
    px, py = mu[:, 0] - a[0], mu[:, 1] - a[1]
    den = ax * ax + ay * ay
    t = np.clip((px * ax + py * ay) / den, 0.0, 1.0) if den else 0.0
    on = mu[np.hypot(px - t * ax, py - t * ay) <= GEOM_EPS]
    return all(any(math.hypot(p[0] - q[0], p[1] - q[1]) <= GEOM_EPS for q in spare) for p in on)


def is_admissible(chain: Chain1, mu: Points, line: Optional[Line]) -> bool:
    """Desk-scale mutual singularity: no mu atom on a piece's relative interior,
    no positive-length piece inside the line."""
    for piece in chain.pieces:
        a, b = _piece_coords(chain, piece)
        if piece.weight != 0.0 and not clears(a, b, mu, line, spare=(a, b)):
            return False
    return True


# ---------------------------------------------------------------------------
# rescale into the interior


def rescale_interior(p_chain: Chain1, box: ConvexBox, eps: float) -> tuple[Chain1, float]:
    """Shrink a chain toward the box center so its support is strictly interior.

    Returns (P', flat certificate). The scaling h_{1-eta} moves x by eta (x - c),
    so its affine-homotopy flat bound against the identity is eta times the
    rate, the ``flat_bound`` of the constant map to the center c:
    2 int |x - c| d|P| + sum |dw_j| |x_j - c|. eta is chosen to keep the
    certificate at most eps, capped at 1/4, floored at 1e-9 to guarantee a
    strictly positive interior margin.
    """
    _check_eps(eps)
    for piece in p_chain.pieces:
        a, b = _piece_coords(p_chain, piece)
        if not box.contains(a) or not box.contains(b):
            raise StructureError("chain support must lie inside the box")
    rate = affine_homotopy_current(p_chain, AffineMap.identity(),
                                   AffineMap.scaling(0.0, center=box.center)).flat_bound
    eta = min(0.25, eps / rate) if rate > 0 else 0.25
    eta = max(eta, 1e-9)
    scaled = pushforward(p_chain, AffineMap.scaling(1.0 - eta, center=box.center))
    return scaled, float(eta * rate)


# ---------------------------------------------------------------------------
# translate off the singular set


@dataclass(frozen=True)
class TranslateResult:
    chain: Chain1
    t: float
    w: tuple[float, float]
    flat_cert: float
    connectors: Chain1 = field(repr=False, default=None)


def _candidate_direction(p_chain: Chain1, line: Optional[Line]):
    """First euclidean unit direction transverse to the line and to every piece direction."""
    dirs = []
    for piece in p_chain.pieces:
        a, b = _piece_coords(p_chain, piece)
        dx, dy = b[0] - a[0], b[1] - a[1]
        n = math.hypot(dx, dy)
        if n > 0:
            dirs.append((dx / n, dy / n))
    ncand = 64 + 8 * len(dirs)
    for k in range(ncand):
        th = math.pi * (2 * k + 1) / (2 * ncand)
        w = (math.cos(th), math.sin(th))
        if line is not None and abs(w[0] * line.a + w[1] * line.b) < 1e-6:
            continue
        if any(abs(w[0] * dy - w[1] * dx) < 1e-9 for dx, dy in dirs):
            continue
        return w
    raise NoAdmissibleShift("no direction clears the line and all piece directions")


def translate_singular(p_chain: Chain1, mu: Points, line: Optional[Line],
                       t1: float) -> TranslateResult:
    """Translate the chain by t*w, t in (0, t1], so its support avoids the atoms
    of mu and no piece lies inside the line.

    Scans a 64-point grid on (0, t1], refining twice on failure. With the
    homotopy H from the identity to tau_t, the connector chain -H(dT) (segments
    from the boundary atoms to their shifts, weighted -w_j) is the exact
    remainder T - tau_t T = d(-H(T)) + connectors, and the flat cost
    certificate is the homotopy's ``flat_bound``, t |w| (2 mass + boundary
    mass) with |w| measured in the chain's plane.
    """
    _check_eps(t1, "the translation budget t1")
    w = _candidate_direction(p_chain, line)

    for level in range(3):
        grid = 64 ** (level + 1)
        for j in range(1, 65):
            t = t1 * j / grid
            shift = AffineMap.translation((t * w[0], t * w[1]))
            cand = pushforward(p_chain, shift)
            if all(clears(*_piece_coords(cand, piece), mu, line) for piece in cand.pieces):
                hom = affine_homotopy_current(p_chain, shift, AffineMap.identity())
                return TranslateResult(chain=cand, t=t, w=w, flat_cert=hom.flat_bound,
                                       connectors=hom.connectors.scale(-1.0))
    raise NoAdmissibleShift("all grid shifts hit the atoms or the line after 3 refinements")


# ---------------------------------------------------------------------------
# tent lift off a line


def _tent_height(length: float, eps: float, plane: NormedPlane, a, b, nrm) -> float:
    """Height h with tent length (via the apex at mid + h n) = (1 + eps) * base length."""
    if plane.tag == "l2":
        return 0.5 * length * math.sqrt((1.0 + eps) ** 2 - 1.0)
    mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)

    def factor(h):
        apex = (mid[0] + h * nrm[0], mid[1] + h * nrm[1])
        return (plane.dist(a, apex) + plane.dist(apex, b)) / length

    lo, hi = 0.0, 2.0 * length
    while factor(hi) < 1.0 + eps:
        hi *= 2.0
    for _ in range(80):
        midh = (lo + hi) / 2
        if factor(midh) < 1.0 + eps:
            lo = midh
        else:
            hi = midh
    return lo


def lift_off_line(chain: Chain1, line: Line, mu: Points, eps: float) -> Chain1:
    """Replace every positive-length piece inside the line by an isoceles tent.

    The apex sits at height h off the line, with h solved from the (1 + eps)
    mass factor (sqrt(L^2 + 4 h^2) <= (1+eps) L in the euclidean plane); the
    height is walked down a 64-point grid if a tent segment hits an atom of mu.
    Pieces not inside the line pass through unchanged.
    """
    _check_eps(eps)
    plane = chain.plane
    nrm = line.normal()
    out = []
    for piece in chain.pieces:
        a, b = _piece_coords(chain, piece)
        if not piece_inside_line(a, b, line, tol=TOL) or piece.weight == 0.0:
            out.append(piece)
            continue
        length = plane.dist(a, b)
        h0 = _tent_height(length, eps, plane, a, b, nrm)
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        for j in range(64):
            h = h0 * (1.0 - j / 64.0)
            apex = (mid[0] + h * nrm[0], mid[1] + h * nrm[1])
            if h > 0 and clears(a, apex, mu, spare=(a,)) and clears(apex, b, mu, spare=(b,)):
                out.append(Piece(a, apex, piece.weight, plane.dist(a, apex)))
                out.append(Piece(apex, b, piece.weight, plane.dist(apex, b)))
                break
        else:
            raise NoAdmissibleShift("no tent height clears the atomic measure")
    return Chain1(plane, out, validate=False)


# ---------------------------------------------------------------------------
# rectifiable filling


@dataclass(frozen=True)
class FillingRound:
    index: int
    action: str
    added_mass: float
    remainder_mass: float
    budget: float


@dataclass(frozen=True)
class RectifiableFilling:
    chain: Chain1
    rounds: tuple[FillingRound, ...]
    boundary_gap: float  # AE norm of d(R) - d(T); 0 when the tail was absorbed


def rectifiable_filling(t_chain: Chain1, eps: float, mu: Points,
                        line: Optional[Line]) -> RectifiableFilling:
    """Chain R with dR = dT, mass(R) <= (1 + eps) mass(T), support avoiding the
    atoms of mu (piece interiors) and never lying inside the line.

    Round structure: pieces inside the line are first tent-lifted (boundary
    preserved exactly, mass factor 1 + eps/2); remaining atom collisions are
    resolved by translating the current remainder and keeping the exact
    connector chains as the next remainder, with geometrically shrinking
    budgets. The final remainder is absorbed exactly once admissible, so the
    boundary gap is zero in the generic case. At most 40 rounds are run.
    """
    _check_eps(eps)
    plane = t_chain.plane
    total_mass = t_chain.mass()
    if total_mass == 0.0:
        return RectifiableFilling(Chain1.empty(plane), (), 0.0)

    remaining = t_chain
    if line is not None and not is_admissible(t_chain, (), line):
        remaining = lift_off_line(t_chain, line, mu, eps / 2.0)

    acc: list[Piece] = []
    rounds: list[FillingRound] = []
    budget_total = total_mass * eps / 4.0
    for n in range(40):
        if is_admissible(remaining, mu, line):
            acc.extend(remaining.pieces)
            rounds.append(FillingRound(n, "absorb", remaining.mass(), 0.0, 0.0))
            return RectifiableFilling(Chain1(plane, acc, validate=False),
                                      tuple(rounds), 0.0)
        eps_n = budget_total * 2.0 ** (-(n + 1))
        m0 = remaining.boundary().mass0()
        t1 = eps_n / (2.0 * remaining.mass() + m0) if (remaining.mass() + m0) > 0 else eps_n
        res = translate_singular(remaining, mu, line, t1)
        acc.extend(res.chain.pieces)
        remaining = res.connectors
        rounds.append(FillingRound(n, "translate", res.chain.mass(),
                                   remaining.mass(), eps_n))
        if remaining.mass() <= 1e-9 * total_mass:
            mb = remaining.boundary()
            gap = ae_norm(mb, plane).value if mb.atoms else 0.0
            acc_chain = Chain1(plane, acc, validate=False)
            return RectifiableFilling(acc_chain, tuple(rounds), float(gap))
    raise StructureError("IterationBudget: 40 rounds were not enough")


# ---------------------------------------------------------------------------
# normalization (hyperplane case)


@dataclass(frozen=True)
class NormalizeResult:
    n_chain: Chain1
    r_chain: Chain1
    mass_ratio: float
    boundary_residual: float
    rounds: tuple[FillingRound, ...] = ()
    restriction_error: float = 0.0  # |mass of N's pieces inside the line - mass(T)|
    eps: float = 0.0

    @property
    def ok(self) -> bool:
        """The theorem's verdict: dN = 0, mass(N) <= (2 + eps) mass(T) and N
        restricted to the line equal to T, each to TOL."""
        return (self.boundary_residual <= TOL and self.mass_ratio <= 2.0 + self.eps + TOL
                and self.restriction_error <= TOL)


def line_filling(m: Molecule, line: Line, plane: NormedPlane) -> Chain1:
    """Minimal filling of a molecule supported on a line, within the line.

    The filling of a molecule on a line is unique: with the atoms sorted along
    the line, the segment from each atom to the next carries minus the running
    sum of the weights up to that atom, and segments with |weight| <= 1e-12
    are dropped. Its mass is the AE norm under the line metric.
    """
    dx, dy = line.direction()
    for p, _ in m.atoms:
        if not line.contains(p, tol=1e-7):
            raise StructureError(f"atom {p} is not on the line")
    atoms = sorted(m.atoms, key=lambda pw: pw[0][0] * dx + pw[0][1] * dy)
    segs = []
    run = 0.0
    for (a, w), (b, _) in zip(atoms, atoms[1:]):
        run -= w
        if abs(run) > 1e-12:
            segs.append((a, b, run))
    return Chain1.from_segments(plane, segs)


def sample_support_measure(t_chain: Chain1) -> Points:
    """Atoms sampling the support of the chain: piece endpoints and midpoints,
    each once, in order of first appearance."""
    atoms: dict[tuple[float, float], None] = {}
    for piece in t_chain.pieces:
        a, b = _piece_coords(t_chain, piece)
        for p in (a, b, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)):
            atoms[p] = None
    return np.array(list(atoms), dtype=float).reshape(-1, 2)


def normalize(t_chain: Chain1, line: Line, eps: float) -> NormalizeResult:
    """Theorem of the hyperplane case: N = T - R with dN = 0,
    mass(N) <= (2 + eps) mass(T), and N restricted to the line equal to T.

    R fills dT inside the line at minimal mass (at most mass(T), since the
    boundary operator has norm one), lifted off the line by tents whose mass
    factor is 1 + 0.9 eps; R touches the line only at finitely many endpoints,
    so the restriction of N to the line reproduces T exactly. Its mass is that
    of N's pieces inside the line: any other segment meets it in one point.
    """
    _check_eps(eps)
    if not isinstance(t_chain.space, NormedPlane):
        raise StructureError("normalize needs a chain on a normed plane")
    plane = t_chain.plane
    for piece in t_chain.pieces:
        a, b = _piece_coords(t_chain, piece)
        if not (line.contains(a, tol=TOL) and line.contains(b, tol=TOL)):
            raise StructureError("chain must be supported on the line")

    mu = sample_support_measure(t_chain)
    base = line_filling(t_chain.boundary(), line, plane)
    lifted = lift_off_line(base, line, mu, 0.9 * eps)
    r = rectifiable_filling(lifted, 0.1 * eps, mu, line)
    n_chain = t_chain + r.chain.scale(-1.0)
    bres = ae_norm(n_chain.boundary(), plane).value if n_chain.boundary().atoms else 0.0
    ratio = n_chain.mass() / t_chain.mass() if t_chain.mass() > 0 else 0.0
    inside = sum(abs(p.weight) * p.length for p in n_chain.pieces
                 if piece_inside_line(*_piece_coords(n_chain, p), line))
    return NormalizeResult(n_chain=n_chain, r_chain=r.chain, mass_ratio=float(ratio),
                           boundary_residual=float(bres), rounds=r.rounds,
                           restriction_error=abs(inside - t_chain.mass()), eps=eps)


def fat_cantor_chain(k: int) -> Chain1:
    """Stage-k fat-Cantor intervals on the x-axis as a euclidean chain of unit weight."""
    segs = [((a, 0.0), (b, 0.0), 1.0) for a, b in fat_cantor_intervals(k)]
    return Chain1.from_segments(NormedPlane("l2"), segs)
