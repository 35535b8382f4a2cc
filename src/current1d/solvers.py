"""In-house optimization engines: two min-cost flow engines and a dense tableau simplex.

All are deterministic: the flow engines order arcs by input index and break
ties by lowest index; the simplex uses Bland's rule, which also precludes
cycling. Desk-scale instances only (a few thousand variables).

Each flow caller picks its engine by measurement (best of 3 per network on
the benchmark's flows, 2-vCPU host). ``ae_norm`` uses ``network_simplex``:
0.14 s against the phases' 0.98 s on its 36 dense networks (seeds 1-2);
``minimal_filling`` routes its coupling and solves no flow. The phases serve
``flat_norm``: degenerate pivots made the simplex take 0.072 s against their
0.039 s on its 18 dual grids (seeds 1-2).

``min_cost_flow`` is primal-dual (Ahuja, Magnanti and Orlin, *Network Flows*,
1993, ch. 9): successive shortest paths with Johnson potentials, where each
phase is one Dijkstra search from all sources at once. Each reached node
carries the source whose tree reached it, and each settled deficit node
claims min(supply left at that source, its deficit), or nothing once that
supply is all claimed. The search runs until every deficit node is settled
or the heap is empty. Settled nodes get pi += dist and all others
pi += d_stop, the last settled distance, so every residual reduced cost stays
>= 0 and every tree arc has reduced cost 0. An arc that matches its head's
distance to the 1e-15 relaxation margin without improving it is a tie. The
claimed sinks' tree paths are augmented in settle order; then, while supply
is left and there are ties, a blocking flow goes depth first from each source
over the tree arcs and the ties still admissible under the final distances.
All of those arcs have reduced cost 0 to the margin (exactly 0 with integer
costs), so the potentials stay feasible. Every path goes through
``_augment``, which re-reads its bottleneck and skips a path that earlier
ones blocked; the first tree path never is, and a phase that moves no flow
raises IterationLimit. ``check_flow`` certifies a result in O(m) from its
flows and potentials alone.

``FlowNetwork`` states the flow problem once: an (m, 4) arc table, its
columns, the supply tolerance eps and the arc floor eps * 1e-3, at or below
which a capacity or a residual counts as none. Both engines and
``check_flow`` read these, so all three see the same arcs: the phases never
make an arc at or below the floor live and the simplex never prices one.
The phases loop on plain lists, where numpy scalars would cost more.
Residual arc 2k is arc k forward and 2k + 1 its reverse, with heads and
signed costs in lists indexed by a; a >> 1 and a & 1 recover the arc and the
direction. A residual capacity is read fresh as cap - flow or flow. A search
scans only ``live[u]``: the residual arcs leaving u whose residual is above
the arc floor, in arc order (on dense bipartite networks most reverse
arcs carry no flow, so most arcs are dead). Only the arcs of an augmented
path change flow, so after each augmentation both residual arcs of each of
them are re-tested, then inserted at their bisection point, which keeps arc
order and so the tie-breaking among parallel arcs, or removed. Every float
operation keeps one fixed order (du + (c + pi[u] - pi[v]), the 1e-15
relaxation margin, the arc floor, the cost as a dot product with the
contiguous cost column), so flows, potentials, cost and the counts are
bit for bit reproducible; ``tests/golden/engine_digests.json`` pins them.
"""

from __future__ import annotations

import bisect
import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
log = logging.getLogger("current1d.solvers")


class SolverError(RuntimeError):
    pass


class Infeasible(SolverError):
    pass


class Unbounded(SolverError):
    pass


class IterationLimit(SolverError):
    pass


# ---------------------------------------------------------------------------
# min-cost flow: primal-dual phases of one search and a blocking flow each


class FlowNetwork:
    """A read-only float table ``arcs`` of rows (tail, head, cost, capacity),
    from any (m, 4) array-like, and n read-only node divergences.

    Endpoints are integers in [0, n), costs finite and >= 0, capacities in
    (0, inf]. divergence[v] > 0 is supply leaving v, < 0 is demand arriving
    at v; they are finite and sum to zero. Read-only columns ``tail``, ``head``
    (intp), ``cost`` (contiguous: np.dot sums a strided view in another order)
    and ``cap``; ``eps`` = TOL * max(1, total supply) and ``floor`` = eps * 1e-3.
    """

    def __init__(self, n: int, arcs, divergence):
        arcs, div = np.array(arcs, dtype=float), np.array(divergence, dtype=float)
        if arcs.shape == (0,):  # an empty sequence: no arcs
            arcs = arcs.reshape(0, 4)
        arcs.flags.writeable = div.flags.writeable = False
        self.n, self.arcs, self.divergence = n, arcs, div
        if arcs.ndim != 2 or arcs.shape[1] != 4:
            raise SolverError(f"arcs must be an (m, 4) table, not {arcs.shape}")
        if div.shape != (n,) or not np.all(np.isfinite(div)):
            raise SolverError(f"need {n} finite divergences")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum fails below
            supply, tot = float(div[div > 0].sum()), float(div.sum())
        if not supply < math.inf:  # else eps, and every test against it, is vacuous
            raise SolverError(f"total supply {supply!r} is not finite")
        size = float((TOL * np.abs(div)).sum())  # TOL sum |div| may overflow; this cannot
        if not abs(tot) <= max(TOL, size) or tot == -math.inf:  # the demand overflowed
            raise SolverError(f"divergences sum to {tot}, not 0")
        ends, cost, cap = arcs[:, :2], arcs[:, 2], arcs[:, 3]
        if np.any((ends != np.floor(ends)) | (ends < 0) | (ends >= n)):
            raise SolverError(f"arc endpoints must be integers in [0, {n})")
        if not np.all((cost >= 0) & (cost < math.inf) & (cap > 0)):
            raise SolverError("need finite cost >= 0 and capacity > 0")
        self.tail, self.head = ends[:, 0].astype(np.intp), ends[:, 1].astype(np.intp)
        self.cost, self.cap = cost.copy(), cap
        for col in (self.tail, self.head, self.cost):
            col.flags.writeable = False
        self.eps = TOL * max(1.0, supply)
        self.floor = self.eps * 1e-3

    @classmethod
    def transportation(cls, cost, supply, demand) -> FlowNetwork:
        """Sources 0..ns-1 with ``supply``, then sinks ns..ns+nd-1 with ``demand``,
        and one uncapacitated arc from source i to sink ns + j per finite entry
        of the (ns, nd) ``cost``, in row-major order: a transportation network."""
        cost, ns = np.asarray(cost, dtype=float), len(supply)
        i, j = np.nonzero(np.isfinite(cost))
        arcs = np.column_stack([i, j + ns, cost[i, j], np.full(len(i), math.inf)])
        return cls(ns + len(demand), arcs, np.concatenate([supply, np.negative(demand)]))

    def program(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(c, a, b)`` of the node-arc program min c.x s.t. a x = b, x >= 0: the
        costs, +1 at each arc's tail and -1 at its head (a self-loop's column is
        0) and the divergences. Callers pass the capacities as bounds."""
        k = np.arange(len(self.arcs))
        a = np.zeros((self.n, len(k)))
        a[self.tail, k] += 1.0
        a[self.head, k] -= 1.0
        return self.cost, a, self.divergence


@dataclass(frozen=True, eq=False)
class FlowResult:
    flows: np.ndarray = field(repr=False)
    total_cost: float = 0.0
    potentials: np.ndarray = field(default=None, repr=False)
    augmentations: int = 0
    searches: int = 0
    scans: int = 0
    pivots: int = 0


def _augment(path: list[int], source: int, target: int, excess: list[float],
             flow: list[float], cap: list[float], live: list[list[int]],
             rhead: list[int], eps: float, floor: float) -> float:
    """Push min(supply at source, demand at target, residual of each arc) along
    the residual arcs ``path`` and re-test both residual arcs of each arc on it
    in ``live``; returns the units pushed, or 0.0 if the path is blocked."""
    bottleneck = min(excess[source], -excess[target])
    if bottleneck <= eps:
        return 0.0
    for a in path:
        k = a >> 1
        bottleneck = min(bottleneck, flow[k] if a & 1 else cap[k] - flow[k])
    if bottleneck <= floor:
        return 0.0
    bisect_left = bisect.bisect_left
    for a in path:
        k = a >> 1
        flow[k] += -bottleneck if a & 1 else bottleneck
        for b in (2 * k, 2 * k + 1):  # re-test both residual arcs of k
            out = live[rhead[b ^ 1]]
            i = bisect_left(out, b)
            on = i < len(out) and out[i] == b
            if (flow[k] if b & 1 else cap[k] - flow[k]) > floor:
                if not on:
                    out.insert(i, b)
            elif on:
                del out[i]
    excess[source] -= bottleneck
    excess[target] += bottleneck
    log.debug("augment %s -> %s: %.17g units over %d arcs",
              source, target, bottleneck, len(path))
    return bottleneck


def _blocking_flow(adm: dict[int, list[int]], sources: list[int], excess: list[float],
                   flow: list[float], cap: list[float], live: list[list[int]],
                   rhead: list[int], eps: float, floor: float) -> int:
    """Augment depth first from each source with supply left to nodes with
    demand, over the residual arcs ``adm`` (by tail) that keep a residual above
    the floor; returns the paths augmented. A node whose arcs are all used up
    is dead and never entered again, and no path enters a node twice."""
    augmented = 0
    dead = set()
    for s in sources:
        path, nodes = [], [s]
        while excess[s] > eps:
            u = nodes[-1]
            if excess[u] < -eps:
                if not _augment(path, s, u, excess, flow, cap, live, rhead, eps, floor):
                    break
                augmented += 1
                path, nodes = [], [s]
                continue
            out = adm.get(u, [])  # untried arcs, the last tried first
            while out:
                a = out[-1]
                v, k = rhead[a], a >> 1
                if (v not in dead and v not in nodes
                        and (flow[k] if a & 1 else cap[k] - flow[k]) > floor):
                    break
                out.pop()
            if out:
                path.append(a)
                nodes.append(v)
            else:
                dead.add(u)
                if u == s:
                    break
                path.pop()
                nodes.pop()
    return augmented


def min_cost_flow(net: FlowNetwork) -> FlowResult:
    """Route all supply to demand at minimum cost.

    Returns per-arc flows, the optimal cost, and node potentials pi that are
    feasible duals: cost(u,v) + pi(u) - pi(v) >= 0 on every arc with residual
    capacity, and on its reverse (-cost) while it carries flow. So every arc
    of an uncapacitated network is covered, and complementary slackness holds
    on flow-carrying arcs. ``augmentations`` counts the augmenting paths,
    ``searches`` the shortest-path searches (one per phase) that found them
    and ``scans`` the residual arcs those searches examined. Raises
    IterationLimit if a phase moves no flow.
    """
    n, m, eps, floor = net.n, len(net.arcs), net.eps, net.floor
    # residual arc a = 2k is arc k forward (capacity cap[k] - flow[k], cost c),
    # a = 2k + 1 its reverse (capacity flow[k], cost -c); the tail of a is
    # the head of its partner a ^ 1
    rcost = np.column_stack([net.cost, -net.cost]).ravel().tolist()
    rhead = np.column_stack([net.head, net.tail]).ravel().tolist()
    cap = net.cap.tolist()
    flow = [0.0] * m
    excess = net.divergence.tolist()
    heappush, heappop = heapq.heappush, heapq.heappop
    # with no flow yet, the live arcs are the forward arcs above the floor
    live: list[list[int]] = [[] for _ in range(n)]
    for k in np.flatnonzero(net.cap > floor).tolist():
        live[rhead[2 * k + 1]].append(2 * k)

    # zero potentials are feasible: FlowNetwork rejects negative costs
    pi = [0.0] * n
    augmentations = searches = scans = 0

    while True:
        sources = [v for v in range(n) if excess[v] > eps]
        if not sources:
            if m == 0 and any(x < -eps for x in excess):
                raise Infeasible("demand with no arcs")
            break
        deficits = sum(1 for x in excess if x < -eps)
        dist = [math.inf] * n
        pred = [-1] * n
        root = list(range(n))  # the source whose tree reached v
        left = excess[:]  # supply of each source not yet claimed by a sink
        settled = [False] * n
        heap = [(0.0, s) for s in sources]  # sorted, so already a heap
        for s in sources:
            dist[s] = 0.0
        sinks = []
        ties = []  # residual arcs that matched, but did not improve, their head's distance
        d_stop = 0.0
        searches += 1
        while heap:
            du, u = heappop(heap)
            if settled[u] or du > dist[u]:
                continue
            d_stop = du
            settled[u] = True
            if excess[u] < -eps:
                r = root[u]
                if left[r] > eps:  # else u is settled but not claimed
                    left[r] -= min(left[r], -excess[u])
                    sinks.append(u)
                deficits -= 1
                if not deficits:
                    break
            piu, ru, out = pi[u], root[u], live[u]
            scans += len(out)
            for a in out:
                v = rhead[a]
                if settled[v]:
                    continue
                nd = du + (rcost[a] + piu - pi[v])
                if nd <= dist[v] + 1e-15:
                    if nd < dist[v] - 1e-15:
                        dist[v] = nd
                        pred[v] = a
                        root[v] = ru
                        heappush(heap, (nd, v))
                    else:
                        ties.append(a)
        if not sinks:
            raise Infeasible("supply cannot reach demand under the given arcs")
        # settled v gets pi[v] += dist[v]; every other v, reached or not, d_stop
        old_pi = pi
        pi = [p + (d if s else d_stop) for p, d, s in zip(pi, dist, settled)]
        moved = augmentations
        for target in sinks:
            # trace the tree path back to its source; earlier augmentations
            # may have used up its supply, its demand or an arc on it
            path = []
            v = target
            while pred[v] >= 0:
                a = pred[v]
                path.append(a)
                v = rhead[a ^ 1]
            if _augment(path, v, target, excess, flow, cap, live, rhead, eps, floor):
                augmentations += 1
        if ties and any(excess[s] > eps for s in sources):
            # blocking flow over the tree arcs and the ties still admissible:
            # the head settled too (the tail was, to be scanned) and
            # dist[u] + rc(a) <= dist[v] under the potentials the search ran with
            adm: dict[int, list[int]] = {}
            for v in range(n):
                if settled[v] and pred[v] >= 0:
                    adm.setdefault(rhead[pred[v] ^ 1], []).append(pred[v])
            for a in ties:
                u, v = rhead[a ^ 1], rhead[a]
                if settled[v] and (
                        dist[u] + (rcost[a] + old_pi[u] - old_pi[v]) <= dist[v] + 1e-15):
                    adm.setdefault(u, []).append(a)
            augmentations += _blocking_flow(adm, sources, excess, flow, cap, live, rhead,
                                            eps, floor)
        if augmentations == moved:
            raise IterationLimit(f"min_cost_flow moved no flow in search {searches}")

    flows = np.array(flow, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf, not a warning
        total = float(np.dot(flows, net.cost)) if m else 0.0
    return FlowResult(flows=flows, total_cost=total, potentials=np.array(pi, dtype=float),
                      augmentations=augmentations, searches=searches, scans=scans)


def check_flow(net: FlowNetwork, res: FlowResult) -> None:
    """Certify ``res`` as an optimal flow of ``net`` in O(m), or raise SolverError.

    Checks conservation to max(TOL, sum TOL |div|), 0 <= flow <= capacity,
    reduced cost c + pi(u) - pi(v) >= -tol on every residual arc (forward while
    the flow is below capacity, reverse while it is positive; a residual at or
    below ``net.floor`` counts as none), and strong duality: the cost equals
    -sum(div pi) - sum(cap max(0, -rc)) to tol times the size of its terms.
    Each check is written so that a NaN, as from an overflowed inf - inf, fails.
    """
    n, m, div, cost, cap = net.n, len(net.arcs), net.divergence, net.cost, net.cap
    x, pi = np.asarray(res.flows, dtype=float), np.asarray(res.potentials, dtype=float)
    if x.shape != (m,) or pi.shape != (n,):
        raise SolverError("flow result does not match the network")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(pi))):
        raise SolverError("flow result has non-finite entries")
    eps = max(TOL, float((TOL * np.abs(div)).sum()))  # cannot overflow
    imbalance = np.bincount(net.tail, x, n) - np.bincount(net.head, x, n) - div
    worst = float(np.max(np.abs(imbalance), initial=0.0))
    if not worst <= eps:
        raise SolverError(f"flow breaks conservation by {worst!r}")
    if not np.all((x >= -eps) & (x <= cap + eps)):
        raise SolverError("flow outside [0, capacity]")
    rc = cost + pi[net.tail] - pi[net.head]
    tol = TOL * max(1.0, float(np.max(np.abs(cost), initial=0.0)),
                    float(np.max(np.abs(pi), initial=0.0)))
    worst = min(float(np.min(rc[cap - x > net.floor], initial=math.inf)),
                float(np.min(-rc[x > net.floor], initial=math.inf)))
    if not worst >= -tol:
        raise SolverError(f"reduced cost {worst!r} on a residual arc")
    finite = np.isfinite(cap)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or nan, not a warning
        primal = float(cost @ x)
        dual = -float(div @ pi) + float(cap[finite] @ np.minimum(rc[finite], 0.0))
        scale = float(np.abs(div) @ np.abs(pi))
    if not abs(primal - dual) <= TOL * max(1.0, abs(primal), scale):
        raise SolverError(f"flow duality gap: primal {primal!r}, dual {dual!r}")


# ---------------------------------------------------------------------------
# primal network simplex with block pricing

_BLOCK = 1024


def network_simplex(net: FlowNetwork) -> FlowResult:
    """``min_cost_flow``'s contract by primal network simplex (Ahuja, Magnanti
    and Orlin, ch. 11); ``pivots`` counts the tree pivots.

    The start tree hangs each node v from an artificial root by one arc of
    integer cost big > (n - 1) * max cost, v -> root carrying divergence[v] if
    that is >= 0, else root -> v: a strongly feasible tree. A pivot enters the
    arc of least state * (cost + pi[tail] - pi[head]) below -1e-12 big in the
    next cyclic block of _BLOCK arcs that has one, the first on ties; the last
    blocking arc of its cycle from the apex leaves (Cunningham, Math.
    Programming 11, 1976), so pivots never cycle; an arc at or below
    ``net.floor`` is never priced. Flow above eps left on an artificial arc
    raises Infeasible. Then those arcs get cost and capacity 0, the potentials
    are summed afresh down the tree, and pivots go on to -1e-12 max(1, max
    cost): each violated arc between two root subtrees pivots out an
    artificial arc, so |pi| <= (n - 1) * max cost with no big offset.
    Raises IterationLimit after _MAX_PIVOTS pivots.
    """
    n, m, root, div = net.n, len(net.arcs), net.n, net.divergence
    top = float(net.cost.max(initial=0.0))
    big = float(n * (math.floor(top) + 1))
    up = (div >= 0).tolist()
    # arcs m + v are the artificial ones; the tree is parent, pred (the arc to
    # the parent), depth and children lists, with node n the root
    tail = net.tail.tolist() + [v if u else root for v, u in enumerate(up)]
    head = net.head.tolist() + [root if u else v for v, u in enumerate(up)]
    cost = net.cost.tolist() + [big] * n
    cap = net.cap.tolist() + [math.inf] * n
    flow = [0.0] * m + np.abs(div).tolist()
    parent, pred, depth = [root] * n + [-1], list(range(m, m + n)) + [-1], [1] * n + [0]
    children = [[] for _ in range(n)] + [list(range(n))]
    pi = np.array([-big if u else big for u in up] + [0.0])
    # priced on the real arcs above the floor only, so the others carry no flow
    state = np.concatenate([net.cap > net.floor, np.ones(n)])
    blocks = [(lo, net.cost[lo:lo + _BLOCK], net.tail[lo:lo + _BLOCK],
               net.head[lo:lo + _BLOCK], state[lo:min(lo + _BLOCK, m)])
              for lo in range(0, m, _BLOCK)]
    pivots = degenerate = 0

    def run(tol: float) -> None:
        nonlocal pivots, degenerate
        b = idle = 0
        while idle < len(blocks):
            lo, c, t, h, s = blocks[b]
            b = (b + 1) % len(blocks)
            rc = s * (c + pi[t] - pi[h])
            j = int(rc.argmin())
            if rc[j] >= -tol:
                idle += 1
                continue
            if pivots == _MAX_PIVOTS:
                raise IterationLimit(f"network_simplex exceeded {_MAX_PIVOTS} pivots")
            idle, pivots, e = 0, pivots + 1, lo + j
            u, v, along = tail[e], head[e], s[j] > 0
            first, second = (u, v) if along else (v, u)
            # the cycle runs apex -> first -> e -> second -> apex and its last
            # blocking arc leaves: ties go against first's side, to second's
            delta, out, side = cap[e], -1, 0
            a, z = first, second
            while a != z:
                if depth[a] >= depth[z]:
                    k = pred[a]
                    r = flow[k] if tail[k] == a else cap[k] - flow[k]
                    if r < delta:
                        delta, out, side = r, a, 1
                    a = parent[a]
                else:
                    k = pred[z]
                    r = cap[k] - flow[k] if tail[k] == z else flow[k]
                    if r <= delta:
                        delta, out, side = r, z, 2
                    z = parent[z]
            degenerate += delta == 0
            if delta > 0:
                flow[e] += delta if along else -delta
                for w, sign in ((first, -delta), (second, delta)):
                    while w != a:
                        k = pred[w]
                        flow[k] += sign if tail[k] == w else -sign
                        w = parent[w]
            k = e if out < 0 else pred[out]
            full = along if out < 0 else (tail[k] == out) == (side == 2)
            flow[k] = cap[k] if full else 0.0  # exactly at the bound it hit
            state[k] = -1.0 if full else 1.0
            if out < 0:
                continue
            # hang the subtree below the leaving arc from the other end of e,
            # and shift its potentials to make e tight
            state[e] = 0.0
            q, p = (first, second) if side == 1 else (second, first)
            sigma = float(cost[e] + pi[u] - pi[v])
            w, new_parent, new_pred = q, p, e
            while True:
                old_parent, old_pred = parent[w], pred[w]
                children[old_parent].remove(w)
                children[new_parent].append(w)
                parent[w], pred[w] = new_parent, new_pred
                if w == out:
                    break
                w, new_parent, new_pred = old_parent, w, old_pred
            nodes = [q]
            for w in nodes:
                if children[w]:
                    nodes += children[w]
            for w in nodes:
                depth[w] = depth[parent[w]] + 1
            pi[np.fromiter(nodes, np.intp, len(nodes))] += sigma if q == v else -sigma

    run(1e-12 * big)
    if any(x > net.eps for x in flow[m:]):
        raise Infeasible("supply cannot reach demand under the given arcs")
    flow[m:] = cap[m:] = cost[m:] = [0.0] * n
    order = [root]
    for w in order:
        order += children[w]
    for w in order[1:]:  # a tree arc w -> parent has cost + pi[w] - pi[parent] = 0
        pi[w] = pi[parent[w]] + (-cost[pred[w]] if tail[pred[w]] == w else cost[pred[w]])
    run(1e-12 * max(1.0, top))
    log.debug("network simplex: %d pivots, %d of them degenerate", pivots, degenerate)
    flows = np.array(flow[:m])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives inf, not a warning
        total = float(np.dot(flows, net.cost))
    return FlowResult(flows=flows, total_cost=total, potentials=pi[:n].copy(), pivots=pivots)


# ---------------------------------------------------------------------------
# dense tableau simplex with Bland's rule


@dataclass(frozen=True)
class LpResult:
    optimum: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    iterations: int = 0


_MAX_PIVOTS = 10 ** 5


def _pivot(t: np.ndarray, cols: list[int], row: int, col: int) -> None:
    """Make column ``col`` of the tableau ``t`` basic in ``row`` by one rank-1 step.

    It becomes an exact unit column (x / x is 1.0, v - v * 1.0 is 0.0), and
    every other basic column stays one, so a basic column's reduced cost is 0.
    """
    t[row] /= t[row, col]
    d = t[:, col].copy()
    d[row] = 0.0
    t -= np.outer(d, t[row])
    cols[row] = col


def _run_phase(t: np.ndarray, cols: list[int], c: np.ndarray, allow: np.ndarray,
               max_iters: int) -> int:
    """Pivot the tableau t = [B^-1 A | B^-1 b] under Bland's rule until optimal;
    returns the pivots made."""
    it = 0
    while True:
        if it >= max_iters:
            raise IterationLimit("simplex exceeded the pivot budget")
        red = c - c[cols] @ t[:, :-1]
        eligible = np.flatnonzero(allow & (red < -1e-9))
        if not len(eligible):
            return it
        enter = int(eligible[0])
        d, xb = t[:, enter], t[:, -1]
        best = math.inf
        leave = -1
        for i in range(len(cols)):
            if d[i] > 1e-11:
                r = max(xb[i], 0.0) / d[i]
                if r < best - 1e-15 or (r <= best + 1e-15 and leave >= 0
                                        and cols[i] < cols[leave]):
                    best = r
                    leave = i
        if leave < 0:
            raise Unbounded("unbounded direction in simplex")
        log.debug("pivot %d: col %d enters, row %d (col %d) leaves, ratio %.17g",
                  it, enter, leave, cols[leave], best)
        _pivot(t, cols, leave, enter)
        it += 1


def simplex_lp(c, a, b) -> LpResult:
    """min c.x s.t. a x = b, x >= 0 (free variables must be pre-split) by a
    two-phase tableau simplex with Bland's rule.

    Returns the optimum, primal solution, and dual vector y = c_B B^-1, read
    off the artificial columns (sign adjusted for rows flipped to nonnegative
    rhs), so strong duality |c.x - b.y| <= 1e-7 (1 + |optimum|) holds at the
    reported solution. Redundant equality rows leave an artificial pinned at
    zero in the basis; the optimum matches the program with the row removed.
    """
    c, a, b = (np.asarray(v, dtype=float) for v in (c, a, b))
    sign = np.where(b < 0, -1.0, 1.0)  # rows flipped to a nonnegative rhs
    m, n = a.shape
    t = np.hstack([a * sign[:, None], np.eye(m), (b * sign)[:, None]])
    cols = list(range(n, n + m))
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    it1 = _run_phase(t, cols, c1, np.ones(n + m, dtype=bool), _MAX_PIVOTS)
    art = [i for i, col in enumerate(cols) if col >= n]
    art_val = float(np.abs(t[art, -1]).sum())
    if art_val > 1e-8 * max(1.0, float(np.abs(b).sum())):
        raise Infeasible(f"phase-1 optimum {art_val} > 0")

    # drive artificials out of the basis where a pivot exists
    for i in art:
        j = np.flatnonzero(np.abs(t[i, :n]) > 1e-9)
        if len(j):
            _pivot(t, cols, i, int(j[0]))
        # otherwise the row is redundant; the artificial stays at level 0

    c2 = np.concatenate([c, np.zeros(m)])
    it2 = _run_phase(t, cols, c2, np.arange(n + m) < n, _MAX_PIVOTS - it1)

    basis = np.array(cols, dtype=np.intp)
    x = np.zeros(n)
    x[basis[basis < n]] = np.maximum(t[basis < n, -1], 0.0)
    y = (c2[basis] @ t[:, n:n + m]) * sign
    return LpResult(optimum=float(c @ x), x=x, y=y, iterations=it1 + it2)
