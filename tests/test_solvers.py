import dataclasses
import heapq
import importlib.util
import json
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from current1d import (FlowNetwork, Infeasible, IterationLimit, LinearProgram, Molecule,
                       SolverError, Unbounded, ae_norm, check_flow, decompose_flow,
                       min_cost_flow, network_simplex, simplex_lp)
from current1d.solvers import TOL, FlowResult

INF = math.inf
GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_engine_digests",
                                               GOLDEN / "make_engine_digests.py")
engine_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_digests)
DIGESTS = json.loads((GOLDEN / "engine_digests.json").read_text())


class TestMinCostFlow:
    def test_single_arc(self):
        net = FlowNetwork(2, ((0, 1, 2.5, INF),), (1.0, -1.0))
        res = min_cost_flow(net)
        assert res.total_cost == pytest.approx(2.5, abs=1e-12)
        assert res.flows[0] == pytest.approx(1.0, abs=1e-12)
        assert res.augmentations == 1

    def test_three_node_line(self):
        # line 0 - 1 - 3 with costs 1 and 2; both ends supply one unit into the middle
        arcs = ((0, 1, 1.0, INF), (1, 0, 1.0, INF), (2, 1, 2.0, INF), (1, 2, 2.0, INF))
        net = FlowNetwork(3, arcs, (1.0, -2.0, 1.0))
        res = min_cost_flow(net)
        assert res.total_cost == pytest.approx(3.0, abs=1e-12)

    def test_zero_divergence(self):
        net = FlowNetwork(3, ((0, 1, 1.0, INF), (1, 2, 1.0, INF)), (0.0, 0.0, 0.0))
        res = min_cost_flow(net)
        assert res.total_cost == 0.0
        assert np.all(res.flows == 0.0)

    def test_infeasible_when_disconnected(self):
        net = FlowNetwork(3, ((0, 1, 1.0, INF),), (1.0, 0.0, -1.0))
        with pytest.raises(Infeasible):
            min_cost_flow(net)

    def test_complementary_slackness_and_dual_feasibility(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        for _ in range(25):
            n = int(rng.integers(3, 9))
            arcs = []
            for u in range(n):
                for v in range(n):
                    if u != v and rng.uniform() < 0.5:
                        arcs.append((u, v, float(rng.uniform(0.1, 4.0)), INF))
            if not arcs:
                continue
            div = rng.uniform(-1, 1, size=n)
            div -= div.mean()
            net = FlowNetwork(n, tuple(arcs), tuple(div))
            try:
                res = min_cost_flow(net)
            except Infeasible:
                continue
            for k, (u, v, c, _) in enumerate(arcs):
                red = c + res.potentials[u] - res.potentials[v]
                assert red >= -1e-9
                if res.flows[k] > 1e-9:
                    assert red <= 1e-9
            assert res.total_cost == pytest.approx(
                float(np.dot(res.flows, [a[2] for a in arcs])), abs=1e-9)

    def test_respects_capacities(self):
        arcs = ((0, 1, 1.0, 0.5), (0, 2, 2.0, INF), (2, 1, 1.0, INF))
        net = FlowNetwork(3, arcs, (1.0, -1.0, 0.0))
        res = min_cost_flow(net)
        assert res.flows[0] <= 0.5 + 1e-12
        assert res.total_cost == pytest.approx(0.5 * 1.0 + 0.5 * 3.0, abs=1e-9)


class TestFlowNetwork:
    """The arc table is validated column by column at construction."""

    def test_holds_a_read_only_table(self):
        arcs = ((0, 1, 1.0, INF), (1, 2, 2.0, 0.5), (2, 0, 0.0, 3.0))
        net = FlowNetwork(3, arcs, (1.0, 0.0, -1.0))
        assert net.arcs.shape == (len(arcs), 4)
        assert not net.arcs.flags.writeable and not net.divergence.flags.writeable
        np.testing.assert_array_equal(net.arcs, np.array(arcs))
        assert FlowNetwork(2, (), (0.0, 0.0)).arcs.shape == (0, 4)

    def test_derives_read_only_columns_and_the_arc_floor(self):
        arcs = ((0, 1, 1.0, INF), (1, 2, 2.0, 0.5), (2, 0, 0.0, 3.0))
        net = FlowNetwork(3, arcs, (2.5, 0.5, -3.0))
        for col, want in ((net.tail, [0, 1, 2]), (net.head, [1, 2, 0]),
                          (net.cost, [1.0, 2.0, 0.0]), (net.cap, [INF, 0.5, 3.0])):
            assert col.tolist() == want and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1
        assert net.tail.dtype == net.head.dtype == np.intp and net.cost.flags.c_contiguous
        assert (net.eps, net.floor) == (TOL * 3.0, TOL * 3.0 * 1e-3)
        assert FlowNetwork(2, (), (0.25, -0.25)).eps == TOL

    def test_equality_is_identity(self):
        # array fields would make a field-wise == raise on truth testing
        arcs, div = ((0, 1, 1.0, INF), (1, 2, 1.0, INF)), (1.0, 0.0, -1.0)
        net = FlowNetwork(3, arcs, div)
        res = min_cost_flow(net)
        assert net == net and net != FlowNetwork(3, arcs, div)
        assert res == res and res != dataclasses.replace(res)

    @pytest.mark.parametrize("arcs, div, needle", [
        (((0, 0.5, 1.0, INF),), (1.0, -1.0), "integers in"),
        (((0, 1, math.nan, INF),), (1.0, -1.0), "cost"),
        (((0, 1, INF, INF),), (1.0, -1.0), "cost"),
        (((0, 1, 1.0, math.nan),), (1.0, -1.0), "capacity"),
        (((0, 1, 1.0, INF),), (math.nan, math.nan), "finite divergences"),
        (((0, 1, 1.0, INF),), (INF, -1.0), "finite divergences"),
        (((0, 1, 1.0),), (1.0, -1.0), "(m, 4)"),
        (((0, 1, 1.0, INF, 0.0),), (1.0, -1.0), "(m, 4)"),
        ((0, 1, 1.0, INF), (1.0, -1.0), "(m, 4)"),
        (((0, 2, 1.0, INF),), (1.0, -1.0), "in [0, 2)"),
        (((0, 1, 1.0, INF),), (1.0,), "2 finite divergences"),
    ], ids=["half-endpoint", "nan-cost", "inf-cost", "nan-capacity", "nan-divergence",
            "inf-divergence", "three-columns", "five-columns", "flat-row",
            "endpoint-out-of-range", "short-divergence"])
    def test_rejects_a_malformed_table(self, arcs, div, needle):
        with pytest.raises(SolverError, match=re.escape(needle)):
            FlowNetwork(2, arcs, div)

    @pytest.mark.parametrize("div, needle", [
        ((1e308, 1e308, -1e308, -1e308), "total supply inf is not finite"),
        ((1e308, -1e308, -1e308, -1e308), "divergences sum to -inf"),
    ], ids=["supply", "demand"])
    def test_rejects_a_sum_that_overflows(self, div, needle):
        """An infinite supply would make eps, and every test against it, vacuous;
        an infinite demand would pass the zero-sum test against an infinite size."""
        with pytest.raises(SolverError, match=re.escape(needle)):
            FlowNetwork(4, ((0, 2, 1.0, INF), (1, 3, 1.0, INF)), div)


class TestSearches:
    """One shortest-path search serves several sinks; each augmentation still
    writes one ``augment`` debug record, which the benchmark tracer counts."""

    @pytest.mark.parametrize("name", ["ae_plane_k60", "ae_lattice_k40", "filling_n120_k24",
                                      "flat_field_8x8", "mixed_caps_n30"])
    def test_one_augment_record_per_augmentation(self, name, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.solvers")
        res = min_cost_flow(engine_digests.NETWORKS[name]())
        records = [r for r in caplog.records if r.msg.startswith("augment")]
        assert len(records) == res.augmentations
        assert 1 <= res.searches <= res.augmentations
        # a path that earlier augmentations blocked is skipped, not run with 0 units
        assert min(record.args[2] for record in records) > 0.0

    def test_a_search_serves_several_sinks_on_a_bipartite_network(self):
        res = min_cost_flow(engine_digests._bipartite(60, 60, lattice=False))
        assert res.searches < res.augmentations

    @pytest.mark.parametrize("k", [3, 8])
    def test_zero_cost_arcs_serve_every_sink_in_one_search(self, k):
        # k unit sources and k unit sinks joined through a hub by free unit arcs:
        # the tree serves one sink, the blocking flow over the tied arcs into
        # the hub the others (a search that stops at its first sink it cannot
        # claim, as before phases, serves one sink per search)
        arcs = tuple((i, 2 * k, 0.0, 1.0) for i in range(k)) + tuple(
            (2 * k, k + j, 0.0, 1.0) for j in range(k))
        net = FlowNetwork(2 * k + 1, arcs, (1.0,) * k + (-1.0,) * k + (0.0,))
        res = min_cost_flow(net)
        assert (res.searches, res.augmentations, res.total_cost) == (1, k, 0.0)
        check_flow(net, res)

    @pytest.mark.parametrize("name, before, share", [("flat_staircase_12x12", 14, 3),
                                                     ("flat_field_8x8", 37, 2)])
    def test_flat_norm_networks_need_fewer_searches(self, name, before, share):
        # ``before``: the searches when each search stopped at its first sink
        # it could not claim; the staircase's integer costs tie often, the
        # field's normal costs rarely
        res = min_cost_flow(engine_digests.NETWORKS[name]())
        assert res.searches <= before // share


def reference_min_cost_flow(net: FlowNetwork, snapshots: list | None = None) -> FlowResult:
    """``min_cost_flow`` with full scans: every search walks each scanned node's
    full residual adjacency and tests each arc's residual in turn, with the
    same float operations in the same order, and so does each phase's
    blocking flow. Its ``scans`` counts those full adjacencies; ``snapshots``,
    if given, receives a copy of the flows after each phase's augmentations."""
    n, arcs = net.n, net.arcs
    m = len(arcs)
    cost = arcs[:, 2].copy()
    rcost = np.column_stack([cost, -cost]).ravel().tolist()
    rhead = arcs[:, [1, 0]].astype(np.intp).ravel().tolist()
    adj = [[] for _ in range(n)]
    for a in range(2 * m):
        adj[rhead[a ^ 1]].append(a)
    cap = arcs[:, 3].tolist()
    flow = [0.0] * m
    excess = net.divergence.tolist()
    eps = TOL * max(1.0, float(np.sum([x for x in excess if x > 0])))
    floor = eps * 1e-3

    def residual(a):
        return flow[a >> 1] if a & 1 else cap[a >> 1] - flow[a >> 1]

    def push(path, source, target):
        bottleneck = min(excess[source], -excess[target])
        if bottleneck <= eps:
            return False
        for a in path:
            bottleneck = min(bottleneck, residual(a))
        if bottleneck <= floor:
            return False
        for a in path:
            flow[a >> 1] += -bottleneck if a & 1 else bottleneck
        excess[source] -= bottleneck
        excess[target] += bottleneck
        return True

    pi = [0.0] * n
    augmentations = searches = scans = 0
    while True:
        sources = [v for v in range(n) if excess[v] > eps]
        if not sources:
            if m == 0 and any(x < -eps for x in excess):
                raise Infeasible("demand with no arcs")
            break
        deficits = sum(1 for x in excess if x < -eps)
        dist, pred, root, left = [INF] * n, [-1] * n, list(range(n)), excess[:]
        settled = [False] * n
        heap = [(0.0, s) for s in sources]
        for s in sources:
            dist[s] = 0.0
        sinks, ties = [], []
        d_stop = 0.0
        searches += 1
        while heap:
            du, u = heapq.heappop(heap)
            if settled[u] or du > dist[u]:
                continue
            d_stop = du
            settled[u] = True
            if excess[u] < -eps:
                r = root[u]
                if left[r] > eps:
                    left[r] -= min(left[r], -excess[u])
                    sinks.append(u)
                deficits -= 1
                if not deficits:
                    break
            scans += len(adj[u])
            for a in adj[u]:
                if residual(a) <= floor:
                    continue
                v = rhead[a]
                if settled[v]:
                    continue
                nd = du + (rcost[a] + pi[u] - pi[v])
                if nd < dist[v] - 1e-15:
                    dist[v], pred[v], root[v] = nd, a, root[u]
                    heapq.heappush(heap, (nd, v))
                elif nd <= dist[v] + 1e-15:
                    ties.append(a)
        if not sinks:
            raise Infeasible("supply cannot reach demand under the given arcs")
        old_pi = pi
        pi = [p + (d if s else d_stop) for p, d, s in zip(pi, dist, settled)]
        moved = augmentations
        for target in sinks:
            path = []
            v = target
            while pred[v] >= 0:
                path.append(pred[v])
                v = rhead[pred[v] ^ 1]
            augmentations += push(path, v, target)
        if ties and any(excess[s] > eps for s in sources):
            adm = {}
            for v in range(n):
                if settled[v] and pred[v] >= 0:
                    adm.setdefault(rhead[pred[v] ^ 1], []).append(pred[v])
            for a in ties:
                u, v = rhead[a ^ 1], rhead[a]
                if settled[v] and dist[u] + (rcost[a] + old_pi[u] - old_pi[v]) <= dist[v] + 1e-15:
                    adm.setdefault(u, []).append(a)
            dead = set()
            for s in sources:
                path, nodes = [], [s]
                while excess[s] > eps:
                    u = nodes[-1]
                    if excess[u] < -eps:
                        if not push(path, s, u):
                            break
                        augmentations += 1
                        path, nodes = [], [s]
                        continue
                    out = adm.get(u, [])
                    while out and (rhead[out[-1]] in dead or rhead[out[-1]] in nodes
                                   or residual(out[-1]) <= floor):
                        out.pop()
                    if out:
                        path.append(out[-1])
                        nodes.append(rhead[out[-1]])
                    else:
                        dead.add(u)
                        if u == s:
                            break
                        path.pop()
                        nodes.pop()
        if augmentations == moved:
            raise IterationLimit(f"min_cost_flow moved no flow in search {searches}")
        if snapshots is not None:
            snapshots.append(np.array(flow))
    flows = np.array(flow, dtype=float)
    total = float(np.dot(flows, cost)) if m else 0.0
    return FlowResult(flows=flows, total_cost=total, potentials=np.array(pi, dtype=float),
                      augmentations=augmentations, searches=searches, scans=scans)


def assert_matches_reference(net: FlowNetwork, snapshots: list | None = None) -> FlowResult:
    """The engine's result is the reference's bit for bit, and it scans no
    more residual arcs than the reference's full adjacencies."""
    try:
        ref = reference_min_cost_flow(net, snapshots)
    except Infeasible as exc:
        with pytest.raises(Infeasible, match=re.escape(str(exc))):
            min_cost_flow(net)
        return None
    res = min_cost_flow(net)
    assert np.array_equal(res.flows, ref.flows)
    assert np.array_equal(res.potentials, ref.potentials)
    assert (res.total_cost, res.augmentations, res.searches) == (
        ref.total_cost, ref.augmentations, ref.searches)
    assert res.scans <= ref.scans
    return ref


def _fuzz_network(rng, floor_caps: bool = False) -> FlowNetwork:
    """A spanning cycle plus random chords: finite capacities that saturate and
    are later pushed back, zero costs, parallel and antiparallel copies of
    arcs, and, with ``floor_caps``, capacities at or just around the arc floor."""
    n = int(rng.integers(4, 16))
    div = rng.uniform(-1.0, 1.0, size=n)
    div -= div.mean()
    floor = TOL * max(1.0, float(div[div > 0].sum())) * 1e-3
    arcs = [(u, (u + 1) % n, float(rng.uniform(0.5, 3.0)), INF) for u in range(n)]
    for u, v in rng.integers(0, n, size=(3 * n, 2)).tolist():
        if u == v:
            continue
        c = 0.0 if rng.uniform() < 0.2 else float(rng.uniform(0.0, 3.0))
        cap = float(rng.uniform(0.05, 0.6)) if rng.uniform() < 0.6 else INF
        if floor_caps and rng.uniform() < 0.3:
            cap = floor * float(rng.choice([0.5, 1.0, 1.5]))
        arcs.append((u, v, c, cap))
        if rng.uniform() < 0.25:  # a parallel copy, cheaper or dearer
            arcs.append((u, v, float(rng.choice([c, 0.0, c + 0.5])), cap))
        if rng.uniform() < 0.25:  # an antiparallel arc
            arcs.append((v, u, c, float(rng.uniform(0.05, 0.6))))
    return FlowNetwork(n, tuple(arcs), tuple(div.tolist()))


class TestLiveArcs:
    """Searches scan only the live residual arcs, and the engine stays the
    full-scan reference engine's bit for bit."""

    def test_seeded_networks_with_capacities_match_the_reference(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        revived = solved = 0
        for _ in range(60):
            snapshots = []
            net = _fuzz_network(rng)
            if assert_matches_reference(net, snapshots) is None:
                continue
            solved += 1
            cap = net.arcs[:, 3]
            # a finite arc saturated after one search and below capacity after a later one
            full = np.array([f >= cap for f in snapshots[:-1]])
            below = np.array([f < cap for f in snapshots[1:]])
            revived += bool(np.any(np.logical_or.accumulate(full, axis=0) & below))
        assert solved >= 40 and revived >= 10

    def test_capacities_at_or_below_the_arc_floor(self):
        rng = np.random.Generator(np.random.Philox(key=24))
        for _ in range(40):
            assert_matches_reference(_fuzz_network(rng, floor_caps=True))

    def test_zero_cost_and_parallel_arcs(self):
        # three parallel 0 -> 1 arcs (two free, one dear), their antiparallel twins
        arcs = ((0, 1, 0.0, 0.5), (0, 1, 1.0, INF), (0, 1, 0.0, 0.25), (1, 0, 0.0, INF),
                (1, 2, 0.0, 1.0), (2, 1, 0.0, 1.0), (0, 2, 2.0, INF), (2, 3, 0.0, 0.5),
                (1, 3, 0.5, INF))
        for div in ((2.0, 0.0, 0.0, -2.0), (1.0, 0.5, -0.5, -1.0), (0.5, 1.5, -1.0, -1.0)):
            assert_matches_reference(FlowNetwork(4, arcs, div))

    @pytest.mark.parametrize("lattice", [False, True], ids=["plane", "lattice"])
    def test_dense_ae_norm_networks(self, lattice):
        for seed in range(6):
            assert_matches_reference(engine_digests._bipartite(100 + seed, 30 + 5 * seed, lattice))

    def test_sparse_filling_networks(self):
        for seed in range(6):
            assert_matches_reference(engine_digests._sparse(200 + seed, 60 + 20 * seed, 12 + seed))

    @pytest.mark.parametrize("name", sorted(engine_digests.NETWORKS))
    def test_digest_networks(self, name):
        assert_matches_reference(engine_digests.NETWORKS[name]())

    def test_scans_equal_full_adjacencies_when_no_reverse_arc_is_scanned(self):
        # supplies 0..7 send to the one sink 8 over uncapacitated parallel arcs:
        # every search scans only supplies, which have no reverse arcs, and
        # ends at the sink, whose reverse arcs go live but are never scanned
        rng = np.random.Generator(np.random.Philox(key=25))
        arcs = tuple((u, 8, float(rng.uniform(0.1, 5.0)), INF) for u in range(8) for _ in range(3))
        net = FlowNetwork(9, arcs, tuple([0.25] * 8 + [-2.0]))
        ref = assert_matches_reference(net)
        res = min_cost_flow(net)
        assert res.searches == 8 and res.scans == ref.scans == 3 * (8 + 7 + 6 + 5 + 4 + 3 + 2 + 1)
        # on an ae_norm network the searches skip the reverse arcs that carry no flow
        dense = engine_digests.NETWORKS["ae_plane_k60"]()
        assert min_cost_flow(dense).scans < assert_matches_reference(dense).scans


class TestCheckFlow:
    """``check_flow`` accepts the engine's results and rejects perturbed ones."""

    @pytest.mark.parametrize("name", sorted(set(engine_digests.NETWORKS) - {"infeasible_caps"}))
    def test_accepts_engine_results(self, name):
        net = engine_digests.NETWORKS[name]()
        check_flow(net, min_cost_flow(net))

    def test_rejects_a_flow_that_breaks_conservation(self):
        net = engine_digests.NETWORKS["ae_plane_k60"]()
        res = min_cost_flow(net)
        flows = res.flows.copy()
        flows[int(np.argmax(flows))] *= 1.0 + 1e-6
        with pytest.raises(SolverError, match="conservation"):
            check_flow(net, dataclasses.replace(res, flows=flows))

    def test_rejects_a_flow_above_capacity(self):
        net = FlowNetwork(3, ((0, 1, 1.0, 0.5), (0, 2, 2.0, INF), (2, 1, 1.0, INF)),
                          (1.0, -1.0, 0.0))
        res = min_cost_flow(net)
        # one unit straight over the capped arc conserves flow but breaks its capacity
        over = dataclasses.replace(res, flows=np.array([1.0, 0.0, 0.0]))
        with pytest.raises(SolverError, match="capacity"):
            check_flow(net, over)

    def test_rejects_a_flow_that_is_not_optimal(self):
        net = engine_digests.NETWORKS["mixed_caps_n30"]()
        res = min_cost_flow(net)
        # push 0.1 around the spanning cycle 0 -> 1 -> ... -> 0 (arcs 0..n-1):
        # conservation holds, the cost grows
        flows = res.flows.copy()
        flows[:net.n] += 0.1
        with pytest.raises(SolverError, match="duality gap|reduced cost"):
            check_flow(net, dataclasses.replace(res, flows=flows))

    @pytest.mark.parametrize("name", ["ae_plane_k60", "filling_n120_k24", "flat_field_8x8"])
    def test_rejects_a_perturbed_potential(self, name):
        net = engine_digests.NETWORKS[name]()
        res = min_cost_flow(net)
        pi = res.potentials.copy()
        pi[int(np.argmax(net.divergence))] -= 1e-3
        with pytest.raises(SolverError, match="reduced cost|duality gap"):
            check_flow(net, dataclasses.replace(res, potentials=pi))

    @pytest.mark.parametrize("engine", [min_cost_flow, network_simplex])
    def test_rejects_a_cost_that_overflows(self, engine):
        # 1e308 units at cost 2 cost inf; primal and dual are both inf, and
        # their gap inf - inf is NaN, which no tolerance may accept
        with np.errstate(over="ignore"):
            net = FlowNetwork(2, ((0, 1, 2.0, INF),), (1e308, -1e308))
            res = engine(net)
            assert res.total_cost == INF
            with pytest.raises(SolverError, match="duality gap: primal inf, dual inf"):
                check_flow(net, res)


    def test_tolerances_do_not_overflow(self):
        """Each conservation tolerance is a sum of TOL |div|, which stays finite
        where TOL sum |div| overflows to inf and accepts any imbalance."""
        with pytest.raises(SolverError, match="divergences sum to"):
            FlowNetwork(2, ((0, 1, 1.0, INF),), (1e308, -9e307))
        net = FlowNetwork(2, ((0, 1, 1.0, INF),), (1e308, -1e308))
        res = min_cost_flow(net)
        check_flow(net, res)
        with pytest.raises(SolverError, match="conservation"):
            check_flow(net, dataclasses.replace(res, flows=np.zeros(1)))


def assert_simplex_agrees(net: FlowNetwork) -> FlowResult:
    """``network_simplex`` matches ``min_cost_flow``'s cost to 1e-12 relative,
    passes ``check_flow`` with potentials |pi| <= n * max cost, and a rerun
    is bit for bit the same; both engines raise Infeasible together."""
    try:
        ref = min_cost_flow(net)
    except Infeasible:
        with pytest.raises(Infeasible):
            network_simplex(net)
        return None
    res = network_simplex(net)
    assert res.total_cost == pytest.approx(ref.total_cost, rel=1e-12, abs=1e-12)
    check_flow(net, res)
    assert np.max(np.abs(res.potentials), initial=0.0) <= net.n * np.max(net.cost, initial=0.0)
    again = network_simplex(net)
    assert np.array_equal(again.flows, res.flows)
    assert np.array_equal(again.potentials, res.potentials)
    assert (again.total_cost, again.pivots) == (res.total_cost, res.pivots)
    return res


class TestNetworkSimplex:
    """The primal network simplex against the primal-dual phases."""

    @pytest.mark.parametrize("name", sorted(engine_digests.NETWORKS))
    def test_digest_networks(self, name):
        assert_simplex_agrees(engine_digests.NETWORKS[name]())

    @pytest.mark.parametrize("lattice", [False, True], ids=["plane", "lattice"])
    def test_dense_ae_norm_networks(self, lattice):
        for seed in range(6):
            res = assert_simplex_agrees(
                engine_digests._bipartite(100 + seed, 30 + 5 * seed, lattice))
            assert res.pivots > 0 and res.augmentations == res.searches == 0

    def test_seeded_networks_with_capacities(self):
        rng = np.random.Generator(np.random.Philox(key=26))
        solved = 0
        for _ in range(80):
            solved += assert_simplex_agrees(_fuzz_network(rng)) is not None
        assert solved >= 50

    def test_capacities_at_or_below_the_arc_floor(self):
        # both engines leave out the same arcs, so they agree as on any network
        rng = np.random.Generator(np.random.Philox(key=26))
        for _ in range(60):
            net = _fuzz_network(rng, floor_caps=True)
            res = assert_simplex_agrees(net)
            assert not np.any(res.flows[net.cap <= net.floor])

    def test_an_arc_at_or_below_the_floor_carries_no_flow(self):
        floor = TOL * 1e-3
        # two free shortcuts 0 -> 1, at and below the floor, beside a dear arc
        arcs = ((0, 1, 0.0, floor), (0, 1, 0.0, 0.5 * floor), (0, 1, 1.0, INF))
        net = FlowNetwork(2, arcs, (1.0, -1.0))
        assert net.floor == floor
        for res in (min_cost_flow(net), network_simplex(net)):
            assert res.flows.tolist() == [0.0, 0.0, 1.0] and res.total_cost == 1.0
            check_flow(net, res)

    def test_zero_cost_and_parallel_arcs(self):
        arcs = ((0, 1, 0.0, 0.5), (0, 1, 1.0, INF), (0, 1, 0.0, 0.25), (1, 0, 0.0, INF),
                (1, 2, 0.0, 1.0), (2, 1, 0.0, 1.0), (0, 2, 2.0, INF), (2, 3, 0.0, 0.5),
                (1, 3, 0.5, INF))
        for div in ((2.0, 0.0, 0.0, -2.0), (1.0, 0.5, -0.5, -1.0), (0.5, 1.5, -1.0, -1.0)):
            assert_simplex_agrees(FlowNetwork(4, arcs, div))

    def test_rounding_left_on_an_artificial_arc(self):
        # 0.3 - 0.1 leaves 0.19999999999999998 at node 0, so node 2's
        # artificial arc keeps 2.8e-17 units (below eps) and its subtree sits
        # 2 big above node 3's; summed afresh, arc 0 -> 3 is violated and
        # pivots out node 3's artificial arc
        net = FlowNetwork(4, ((0, 1, 1.0, INF), (0, 2, 1.0, INF), (0, 3, 0.5, INF)),
                          (0.3, -0.1, -0.2, 0.0))
        res = assert_simplex_agrees(net)
        assert res.pivots == 3 and res.potentials[3] - res.potentials[0] == 0.5

    def test_zero_divergence_needs_no_pivot(self):
        net = FlowNetwork(3, ((0, 1, 1.0, INF), (1, 2, 1.0, INF)), (0.0, 0.0, 0.0))
        res = network_simplex(net)
        assert (res.total_cost, res.pivots) == (0.0, 0)
        assert np.all(res.flows == 0.0) and np.all(res.potentials == 0.0)

    def test_infeasible_networks(self):
        with pytest.raises(Infeasible):
            network_simplex(engine_digests.NETWORKS["infeasible_caps"]())
        with pytest.raises(Infeasible):
            network_simplex(FlowNetwork(2, (), (1.0, -1.0)))

    def test_disconnected_path_metric(self):
        g = engine_digests._graph(10, 80, parts=3)
        far = np.flatnonzero(np.isinf(g.path_dist[0]))
        assert far.size
        with pytest.raises(Infeasible):
            ae_norm(Molecule([(0, 1.0), (int(far[0]), -1.0)]), g.path_dist)
        # each part balanced on its own: the parts are solved side by side
        near = np.flatnonzero(np.isfinite(g.path_dist[0]))
        mol = Molecule([(0, 1.0), (int(near[-1]), -1.0), (int(far[0]), 0.5),
                        (int(far[-1]), -0.5)])
        assert ae_norm(mol, g.path_dist).value == pytest.approx(
            g.path_dist[0, near[-1]] + 0.5 * g.path_dist[far[0], far[-1]], rel=1e-12)

    def test_pivot_budget_is_enforced(self, monkeypatch):
        import current1d.solvers as solvers
        monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
        with pytest.raises(IterationLimit, match="network_simplex exceeded 1 pivots"):
            solvers.network_simplex(engine_digests.NETWORKS["ae_plane_k60"]())

    def test_one_debug_record_per_solve(self, caplog):
        # not an "augment" record, which the benchmark tracer counts
        caplog.set_level(logging.DEBUG, logger="current1d.solvers")
        res = network_simplex(engine_digests.NETWORKS["flat_staircase_12x12"]())
        (record,) = caplog.records
        assert record.args[0] == res.pivots and 0 < record.args[1] < res.pivots
        assert not record.getMessage().startswith("augment")


class TestSimplex:
    def test_fixed_variable(self):
        lp = LinearProgram(c=np.array([1.0]), a=np.array([[1.0]]), b=np.array([1.0]))
        res = simplex_lp(lp)
        assert res.optimum == pytest.approx(1.0, abs=1e-12)

    def test_transportation_matches_flow_example(self):
        # same instance as the 3-node line: supplies (1, 1), demand 2
        c = np.array([1.0, 2.0])
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0, 2.0])
        res = simplex_lp(LinearProgram(c=c, a=a, b=b))
        assert res.optimum == pytest.approx(3.0, abs=1e-9)

    def test_redundant_row_same_optimum(self):
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        full = simplex_lp(LinearProgram(c=c, a=a, b=b))
        reduced = simplex_lp(LinearProgram(c=c, a=a[:1], b=b[:1]))
        assert full.optimum == pytest.approx(reduced.optimum, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(c=np.array([1.0]), a=np.array([[1.0], [1.0]]),
                           b=np.array([1.0, 2.0]))
        with pytest.raises(Infeasible):
            simplex_lp(lp)

    def test_unbounded(self):
        lp = LinearProgram(c=np.array([-1.0, 0.0]), a=np.array([[1.0, -1.0]]),
                           b=np.array([0.0]))
        with pytest.raises(Unbounded):
            simplex_lp(lp)

    def test_beale_cycling_example(self):
        # Beale (1955): Dantzig's largest-coefficient rule cycles here; Bland's does not
        c = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
        a = np.array([[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                      [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]])
        res = simplex_lp(LinearProgram(c=c, a=a, b=np.array([0.0, 0.0, 1.0])))
        assert res.optimum == pytest.approx(-1.25, abs=1e-12)
        assert res.x == pytest.approx([0.75, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_criterion_8_pivot_path_is_pinned(self):
        """The 100 transportation LPs of suite criterion 8 (Philox key 808) keep
        the pivot counts and optima recorded in ``golden/simplex_criterion8.json``."""
        pins = json.loads((GOLDEN / "simplex_criterion8.json").read_text())
        rng = np.random.Generator(np.random.Philox(key=808))
        iterations, optima = [], []
        for _ in range(100):
            ns, nd = int(rng.integers(2, 11)), int(rng.integers(2, 11))
            cost = rng.uniform(0.1, 5.0, size=(ns, nd))
            sup = rng.uniform(0.1, 2.0, size=ns)
            dem = rng.uniform(0.1, 2.0, size=nd)
            dem *= sup.sum() / dem.sum()
            k = np.arange(ns * nd)
            i, j = divmod(k, nd)
            a = np.zeros((ns + nd, ns * nd))
            a[i, k] = a[ns + j, k] = 1.0
            res = simplex_lp(LinearProgram(c=cost.flatten(), a=a,
                                           b=np.concatenate([sup, dem])))
            iterations.append(res.iterations)
            optima.append(res.optimum)
        assert iterations == pins["iterations"]
        assert (sum(iterations), max(iterations)) == (4334, 141)
        assert optima == pytest.approx(pins["optima"], rel=1e-12, abs=0)

    def test_primal_feasibility_and_duality(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for _ in range(25):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(m, 10))
            a = rng.uniform(-1, 1, size=(m, n))
            x0 = rng.uniform(0, 1, size=n)
            b = a @ x0  # feasible by construction
            c = rng.uniform(0.1, 1.0, size=n)
            res = simplex_lp(LinearProgram(c=c, a=a, b=b))
            assert np.max(np.abs(a @ res.x - b)) <= 1e-8
            assert np.min(res.x) >= -1e-9
            gap = abs(res.optimum - float(b @ res.y))
            assert gap <= 1e-7 * (1 + abs(res.optimum))


class TestCrossValidation:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_flow_equals_lp_on_transportation(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        ns, nd = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        cost = rng.uniform(0.1, 3.0, size=(ns, nd))
        sup = rng.uniform(0.1, 2.0, size=ns)
        dem = rng.uniform(0.1, 2.0, size=nd)
        dem *= sup.sum() / dem.sum()
        arcs = tuple((i, ns + j, float(cost[i, j]), INF)
                     for i in range(ns) for j in range(nd))
        net = FlowNetwork(ns + nd, arcs, tuple(np.concatenate([sup, -dem])))
        fres = min_cost_flow(net)
        a = np.zeros((ns + nd, ns * nd))
        for i in range(ns):
            for j in range(nd):
                a[i, i * nd + j] = 1.0
                a[ns + j, i * nd + j] = 1.0
        lres = simplex_lp(LinearProgram(c=cost.flatten(), a=a,
                                        b=np.concatenate([sup, dem])))
        assert fres.total_cost == pytest.approx(lres.optimum, abs=1e-7)


class TestIterationLimit:
    def test_pivot_budget_is_enforced(self, monkeypatch):
        import current1d.solvers as solvers
        monkeypatch.setattr(solvers, "_MAX_PIVOTS", 1)
        rng = np.random.Generator(np.random.Philox(key=77))
        a = rng.uniform(0.5, 1.5, size=(4, 12))
        x0 = rng.uniform(0.5, 1.0, size=12)
        lp = LinearProgram(c=rng.uniform(1, 2, size=12), a=a, b=a @ x0)
        with pytest.raises(IterationLimit):
            solvers.simplex_lp(lp)


class TestFlowProgressGuard:
    def test_a_phase_that_moves_no_flow_raises(self, monkeypatch):
        import current1d.solvers as solvers
        monkeypatch.setattr(solvers, "_augment", lambda *args: 0.0)  # every path blocked
        with pytest.raises(IterationLimit, match="no flow in search 1$"):
            min_cost_flow(engine_digests.NETWORKS["flat_field_8x8"]())


class TestEngineDigests:
    """``tests/golden/make_engine_digests.py`` replays seeded networks, graphs,
    curve pairs and graph flows; both flow engines, the all-pairs Dijkstra, the
    quadrature and the flow decomposition reproduce them bit for bit."""

    @pytest.mark.parametrize("name", sorted(DIGESTS["networks"]))
    def test_flow_is_bit_identical(self, name):
        net = engine_digests.NETWORKS[name]()
        assert engine_digests.flow_digest(net) == DIGESTS["networks"][name]

    @pytest.mark.parametrize("name", sorted(DIGESTS["simplex"]))
    def test_simplex_is_bit_identical(self, name):
        net = engine_digests.NETWORKS[name]()
        assert engine_digests.simplex_digest(net) == DIGESTS["simplex"][name]

    @pytest.mark.parametrize("name", sorted(DIGESTS["graphs"]))
    def test_path_dist_is_bit_identical(self, name):
        g = engine_digests.GRAPHS[name]()
        assert engine_digests.graph_digest(g) == DIGESTS["graphs"][name]

    def test_quadrature_is_bit_identical(self):
        """Every form's quads on 30 fills, their 90 chains and a fragment chain."""
        assert engine_digests.quadrature_digests() == DIGESTS["quadrature"]

    def test_decomposition_is_bit_identical(self):
        """Paths, cycles and fragment representations of 120 graph flows, 22 of
        which peel cycles."""
        assert engine_digests.decomposition_digests() == DIGESTS["decomposition"]
        assert sum(bool(decompose_flow(engine_digests._flow(k)).cycles)
                   for k in range(engine_digests.FLOWS)) == 22


class TestHighsOracle:
    """Both flow engines against HiGHS on the node-arc LP: min c.x subject to
    out-flow minus in-flow = divergence at every node and 0 <= x <= capacity."""

    @staticmethod
    def _random_network(rng) -> FlowNetwork:
        n = int(rng.integers(3, 13))
        ends = rng.integers(0, n, size=(int(rng.integers(n, 4 * n)), 2)).tolist()
        arcs = []
        for u, v in [(u, (u + 1) % n) for u in range(n)] + ends:  # a cycle, then chords
            if u != v:
                cap = float(rng.uniform(0.1, 1.5)) if rng.uniform() < 0.5 else INF
                arcs.append((u, v, float(rng.uniform(0.0, 3.0)), cap))
        div = rng.uniform(-1.0, 1.0, size=n)
        div -= div.mean()
        return FlowNetwork(n, tuple(arcs), tuple(div.tolist()))

    def test_cost_matches_linprog(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.Generator(np.random.Philox(key=18))
        solved = infeasible = 0
        for _ in range(60):
            net = self._random_network(rng)
            tail, head, cost, caps = net.arcs.T
            k = np.arange(len(net.arcs))
            a_eq = np.zeros((net.n, len(net.arcs)))
            np.add.at(a_eq, (tail.astype(int), k), 1.0)
            np.add.at(a_eq, (head.astype(int), k), -1.0)
            lp = optimize.linprog(cost, A_eq=a_eq, b_eq=net.divergence, method="highs",
                                  bounds=[(0.0, None if cap == INF else cap)
                                          for cap in caps.tolist()])
            assert lp.status in (0, 2)
            if lp.status == 2:
                with pytest.raises(Infeasible):
                    min_cost_flow(net)
                with pytest.raises(Infeasible):
                    network_simplex(net)
                infeasible += 1
                continue
            for res in (min_cost_flow(net), network_simplex(net)):
                assert res.total_cost == pytest.approx(lp.fun, rel=1e-9, abs=1e-9)
            solved += 1
        assert solved >= 40 and infeasible >= 3
