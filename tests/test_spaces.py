import heapq
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from current1d import (FiniteMetricSpace, GeometryError, MetricGraph,
                       NormedPlane, qc_constants)
from current1d.io import load_space

from conftest import floyd_warshall, make_v_detour, random_connected_graph

INF = math.inf


def dump_space(space) -> dict:
    """The space document of a normed plane or a metric graph."""
    if isinstance(space, NormedPlane):
        return {"kind": "plane", "norm": space.tag}
    amb = space.ambient
    if isinstance(amb, tuple):
        amb = {"d_alpha": amb[1]}
    return {"kind": "graph", "vertices": [list(map(float, v)) for v in space.coords],
            "edges": [[u, v, float(w)] for u, v, w in space.edges], "ambient": amb}


class TestPathMetric:
    def test_path_graph(self):
        g = MetricGraph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)], ambient="path")
        assert g.path_dist[0, 2] == 2.0

    def test_isolated_vertices(self):
        g = MetricGraph(["a", "b"], [], ambient="path")
        assert g.path_dist[0, 1] == INF

    def test_four_cycle_vs_floyd_warshall(self):
        g = MetricGraph([[0, 0], [1, 0], [1, 1], [0, 1]],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                        ambient="euclidean")
        assert g.path_dist[0, 2] == 2.0
        assert np.allclose(g.path_dist, floyd_warshall(g), atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_dijkstra_matches_floyd_warshall(self, seed):
        g = random_connected_graph(np.random.Generator(np.random.Philox(key=seed)))
        assert np.allclose(g.path_dist, floyd_warshall(g), atol=1e-9)


def reference_dijkstra(g: MetricGraph, src: int) -> np.ndarray:
    """Heap Dijkstra over the edges in listed order, the package's accumulation order."""
    adj = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = np.full(g.n, INF)
    dist[src] = 0.0
    done = [False] * g.n
    heap = [(0.0, src)]
    while heap:
        du, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in adj[u]:
            if du + w < dist[v]:
                dist[v] = du + w
                heapq.heappush(heap, (du + w, v))
    return dist


def grid_graph(rng: np.random.Generator) -> MetricGraph:
    """Unit integer grid with some edges dropped, shuffled and flipped: exact l1 ties."""
    nx, ny = (int(k) for k in rng.integers(2, 7, size=2))
    edges = []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if i + 1 < nx:
                edges.append((k, k + 1, 1.0))
            if j + 1 < ny:
                edges.append((k, k + nx, 1.0))
    edges = [edges[p] if rng.uniform() < 0.5 else (edges[p][1], edges[p][0], 1.0)
             for p in rng.permutation(len(edges)) if rng.uniform() > 0.15]
    return MetricGraph([(i, j) for j in range(ny) for i in range(nx)], edges,
                       ambient="path")


def transport_graph(rng: np.random.Generator, n: int) -> MetricGraph:
    """A random spanning path plus n random chords on uniform points, as the
    transport benchmark builds its graphs."""
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    order = rng.permutation(n).tolist()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order[:-1], order[1:])}
    pairs |= {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, size=(n, 2)).tolist()
              if a != b}
    edges = [(a, b, float(np.hypot(*(pts[a] - pts[b])))) for a, b in sorted(pairs)]
    return MetricGraph(pts.tolist(), edges, ambient="euclidean")


def integer_graph(rng: np.random.Generator, n: int, isolated: int = 0) -> MetricGraph:
    """About 1.5 (n - isolated) random edges of length 1, 2 or 3 among the first
    n - isolated vertices: many equal sums, edges longer than a detour, possibly
    several components, and isolated vertices."""
    k = n - isolated
    pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, k, size=(3 * k // 2, 2)).tolist()
             if a != b}
    edges = [(b, a, float(rng.integers(1, 4))) for a, b in sorted(pairs)]
    return MetricGraph(list(map(str, range(n))), edges, ambient="path")


def assert_matches_reference(g: MetricGraph):
    ref = np.array([reference_dijkstra(g, s) for s in range(g.n)]).reshape(g.n, g.n)
    assert np.array_equal(g.path_dist, ref)


class TestAllPairs:
    """path_dist is heap Dijkstra's, bit for bit, on every source."""

    @pytest.mark.parametrize("n", [100, 250, 400])
    def test_transport_graphs(self, n):
        assert_matches_reference(transport_graph(np.random.Generator(np.random.Philox(key=n)), n))

    def test_disconnected_graphs_with_isolated_vertices(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        for n in (5, 12, 30, 60):
            g = integer_graph(rng, n, isolated=n // 5)
            assert np.isinf(g.path_dist[-1, :-1]).all() and g.path_dist[-1, -1] == 0.0
            assert_matches_reference(g)

    def test_integer_lengths_with_ties(self):
        rng = np.random.Generator(np.random.Philox(key=14))
        for n in (8, 40, 120):
            assert_matches_reference(integer_graph(rng, n))
        for _ in range(5):
            assert_matches_reference(grid_graph(rng))

    def test_long_edge_waits_for_a_shorter_detour(self):
        # after the source, the open u at 1 could still improve v from 10 to 2
        g = MetricGraph(["s", "u", "v"], [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 1.0)],
                        ambient="path")
        assert g.path_dist[0].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_edges(self, n):
        g = MetricGraph(list(map(str, range(n))), [], ambient="path")
        assert g.path_dist.shape == (n, n)
        assert_matches_reference(g)

    def test_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.Generator(np.random.Philox(key=15))
        for g in (transport_graph(rng, 150), integer_graph(rng, 50, isolated=5)):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_weighted_edges_from(g.edges)
            want = np.full((g.n, g.n), INF)
            for s, row in nx.all_pairs_dijkstra_path_length(h):
                want[s, list(row)] = list(row.values())
            assert np.allclose(g.path_dist, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, edges, phases", [
        (5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], 5),
        (4, [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)], 2),
        (0, [], 0),
    ], ids=["path", "complete", "empty"])
    def test_one_debug_record_with_the_phase_count(self, caplog, n, edges, phases):
        caplog.set_level(logging.DEBUG, logger="current1d.spaces")
        MetricGraph(list(map(str, range(n))), edges, ambient="path")
        assert [(r.name, r.levelno, r.args) for r in caplog.records] == [
            ("current1d.spaces", logging.DEBUG, (n, phases))]


class TestShortestPathTrees:
    def test_path_dist_bit_identical_to_reference_dijkstra(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(20):
            assert_matches_reference(random_connected_graph(rng))

    def test_predecessors_lowest_index_tight_neighbour_on_grids(self):
        rng = np.random.Generator(np.random.Philox(key=12))
        for _ in range(20):
            g = grid_graph(rng)
            for src in range(g.n):
                d = g.path_dist[src]
                pred = g.predecessors(src)
                for v in range(g.n):
                    tight = [a for a, b, w in g.edges + [(b, a, w) for a, b, w in g.edges]
                             if b == v and d[a] < d[v] and d[a] + w == d[v]]
                    assert pred[v] == (min(tight) if tight else -1)
                    if not math.isfinite(d[v]):
                        continue
                    chain = [v]
                    while chain[-1] != src:
                        chain.append(int(pred[chain[-1]]))
                        assert len(chain) <= g.n
                    assert g.route_length(chain) == d[v]


    def test_a_vertex_no_arc_reaches_at_its_distance_raises(self):
        """fl(1 + 1e-20) = 1, so vertex 2 lies at distance 1 from vertex 0 like
        vertex 1, and no tight arc enters it: a walk up the tree would not end."""
        g = MetricGraph([[0, 0], [1, 0], [1, 0]], [(0, 1, 1.0), (1, 2, 1e-20)])
        with pytest.raises(GeometryError, match="vertex 2 has no shortest-path predecessor"):
            g.predecessors(0)
        assert g.predecessors(2).tolist() == [1, 2, -1]


class TestQuasiconvexity:
    def test_geodesic_space_is_exactly_one(self):
        g = MetricGraph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 2.0)], ambient="path")
        assert qc_constants(g).qc_space == 1.0

    def test_v_detour(self):
        rep = qc_constants(make_v_detour(2.0))
        assert rep.qc_space == pytest.approx(2.0, abs=1e-12)
        assert rep.qc_pair[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_disconnected_is_inf(self):
        g = MetricGraph(["a", "b"], [], ambient="path")
        assert qc_constants(g).qc_space == INF

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_pairs_at_least_one(self, seed):
        g = random_connected_graph(np.random.Generator(np.random.Philox(key=seed)))
        assert np.min(qc_constants(g).qc_pair) >= 1.0 - 1e-9


class TestValidation:
    def test_edge_shorter_than_ambient_rejected(self):
        with pytest.raises(GeometryError):
            MetricGraph([[0, 0], [2, 0]], [(0, 1, 1.0)], ambient="euclidean")

    def test_nonpositive_edge_rejected(self):
        with pytest.raises(GeometryError):
            MetricGraph(["a", "b"], [(0, 1, 0.0)], ambient="path")

    def test_nan_length_rejected(self):
        with pytest.raises(GeometryError, match="positive"):
            MetricGraph(["a", "b"], [(0, 1, math.nan)], ambient="path")

    @pytest.mark.parametrize("length", [math.inf, -math.inf])
    def test_infinite_length_rejected_naming_the_edge(self, length):
        with pytest.raises(GeometryError,
                           match=rf"edge \(1,2\) needs a positive finite length, not {length}"):
            MetricGraph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, length)], ambient="path")

    @pytest.mark.parametrize("edges, needle", [
        ([(0, 1, 1.0), (1, 1.5, 1.0)], r"edge \(1,1.5\) needs integer endpoints"),
        ([(0, 1, 1.0), (2, 2, 1.0), (1, 1, 1.0)], r"edge 1 = \(2,2\) is a self-loop"),
        ([(0, 1, 1.0), (1, 2, 1.0), (2, 1, 2.0), (0, 1, 3.0)],
         r"edge 2 = \(2,1\) joins the same vertices as edge 1"),
    ], ids=["fractional-endpoint", "self-loop", "parallel"])
    def test_edges_that_are_not_simple_graph_edges_rejected(self, edges, needle):
        with pytest.raises(GeometryError, match=needle):
            MetricGraph(["a", "b", "c"], edges, ambient="path")

    def test_integral_float_endpoints_become_ints(self):
        g = MetricGraph(["a", "b"], [(0.0, 1.0, 2.0)], ambient="path")
        assert g.edges == [(0, 1, 2.0)] and type(g.edges[0][0]) is int
        assert g.signed_edge(1, 0) == (0, -1)

    def test_finite_space_asymmetric_rejected(self):
        with pytest.raises(GeometryError):
            FiniteMetricSpace(["a", "b"], [[0.0, 1.0], [2.0, 0.0]])

    def test_finite_space_triangle_violation_rejected(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(GeometryError, match=re.escape(
                "triangle inequality violated beyond 1e-9: d(0,2) = 5 > d(0,1) + d(1,2) = 2")):
            FiniteMetricSpace(["a", "b", "c"], d)

    def test_finite_space_valid(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        s = FiniteMetricSpace(["a", "b", "c"], d)
        assert s.d(0, 2) == 2.0

    def test_finite_space_of_zero_or_one_point(self):
        # the off-diagonal minimum of an empty matrix is inf, not a numpy error
        assert FiniteMetricSpace([], np.zeros((0, 0))).n == 0
        s = FiniteMetricSpace(["a"], [[0.0]])
        assert s.n == 1 and s.d(0, 0) == 0.0
        with pytest.raises(GeometryError, match="diagonal"):
            FiniteMetricSpace(["a"], [[1.0]])

    def test_path_metric_dominates_ambient(self):
        g = make_v_detour(3.0)
        assert np.all(g.path_dist >= g.ambient_dist - 1e-9)

    def test_finite_space_inf_entry_hides_no_triangle_violation(self):
        # d(a, c) = 5 > d(a, b) + d(b, c) = 2, next to a disconnected point d
        d = np.array([[0.0, 1.0, 5.0, INF], [1.0, 0.0, 1.0, INF],
                      [5.0, 1.0, 0.0, INF], [INF, INF, INF, 0.0]])
        with pytest.raises(GeometryError, match="triangle"):
            FiniteMetricSpace(["a", "b", "c", "d"], d)
        d[0, 2] = d[2, 0] = 2.0
        assert FiniteMetricSpace(["a", "b", "c", "d"], d).d(0, 3) == INF

    def test_path_check_catches_tolerances_adding_up(self):
        # each edge passes the per-edge check, their sum falls 1.8e-9 below d(0, 2)
        w = 1.0 - 0.9e-9
        with pytest.raises(GeometryError, match="path metric below ambient"):
            MetricGraph([[0, 0], [1, 0], [2, 0]], [(0, 1, w), (1, 2, w)],
                        ambient="euclidean")


def per_k_triangle_ok(d: np.ndarray) -> bool:
    """The per-k triangle check that FiniteMetricSpace ran before it tested
    each triple once: all n^2 ordered pairs against each k in turn."""
    with np.errstate(invalid="ignore"):
        return not any(np.any(d[:, k, None] + d[None, k, :] - d < -1e-9)
                       for k in range(len(d)))


def fuzz_metric(rng: np.random.Generator, n: int) -> np.ndarray:
    """An exactly symmetric matrix on n points: a line or l1 grid metric with
    exact float sums, so many triples are tight; sometimes points split off at
    distance inf, and then one pair perturbed, often by about 1e-9."""
    if rng.random() < 0.5:
        x = rng.choice(40, size=n, replace=False) * 0.5
        d = np.abs(x[:, None] - x[None, :])
    else:
        flat = rng.choice(64, size=n, replace=False)
        p = np.stack([flat // 8, flat % 8], axis=1) * 0.5
        d = np.abs(p[:, None] - p[None, :]).sum(axis=2)
    if rng.random() < 0.3:
        split = rng.random(n) < 0.3
        d[split[:, None] != split[None, :]] = INF
    if n >= 2 and rng.random() < 0.9:
        i, j = rng.choice(n, size=2, replace=False)
        delta = rng.choice([1e-12, 0.9e-9, 0.99e-9, 1.01e-9, 1.1e-9, 1e-6, 0.3, INF])
        d[i, j] = d[j, i] = d[i, j] + (delta if delta == INF else rng.choice([-1, 1]) * delta)
    return d


class TestTriangleCheck:
    def test_matches_the_per_k_loop_on_fuzzed_matrices(self):
        rng = np.random.Generator(np.random.Philox(key=27))
        verdicts = []
        for _ in range(3000):
            d = fuzz_metric(rng, int(rng.integers(0, 9)))
            try:
                FiniteMetricSpace(range(len(d)), d)
                ok = True
            except GeometryError as exc:
                assert str(exc).startswith("triangle inequality violated beyond 1e-9: d(")
                ok = False
            assert ok == per_k_triangle_ok(d), d
            verdicts.append(ok)
        assert 0.2 < np.mean(verdicts) < 0.8

    @pytest.mark.parametrize("long_side, message", [
        ((0, 2), "d(0,2) = 5 > d(0,1) + d(1,2) = 2"),
        ((0, 1), "d(0,1) = 5 > d(0,2) + d(2,1) = 2"),
        ((1, 2), "d(1,2) = 5 > d(1,0) + d(0,2) = 2"),
    ], ids=["i-k", "i-j", "j-k"])
    def test_each_orientation_of_a_violation_is_named(self, long_side, message):
        # the triple (0, 1, 2) has largest index k = 2; point 3 lies 10 from the rest
        d = np.ones((4, 4))
        d[3, :] = d[:, 3] = 10.0
        np.fill_diagonal(d, 0.0)
        d[long_side] = d[long_side[::-1]] = 5.0
        with pytest.raises(GeometryError, match=re.escape(message)):
            FiniteMetricSpace(range(4), d)

    def test_the_lowest_k_then_the_first_row_major_cell_is_named(self):
        # on the line 0..4, d(1,3) = 5 breaks triples at k = 3 (cells (1,0) and
        # (1,2)) and d(2,4) = 0.5 breaks triple (1,2,4) at k = 4
        x = np.arange(5.0)
        d = np.abs(x[:, None] - x[None, :])
        d[1, 3] = d[3, 1] = 5.0
        d[2, 4] = d[4, 2] = 0.5
        with pytest.raises(GeometryError, match=re.escape("d(1,3) = 5 > d(1,0) + d(0,3) = 4")):
            FiniteMetricSpace(range(5), d)

    def test_exactly_symmetric_input_is_stored_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=28))
        p = rng.uniform(0.0, 1.0, size=(30, 2))
        d = np.hypot(*(p[:, None] - p[None, :]).transpose(2, 0, 1))
        d[25:, :25] = d[:25, 25:] = INF
        assert np.array_equal(FiniteMetricSpace(range(30), d).dist, d)

    def test_input_asymmetric_within_tolerance_stores_its_symmetric_part(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0 + 4e-10, 0.0, 1.0], [2.0, 1.0 - 6e-10, 0.0]])
        s = FiniteMetricSpace(["a", "b", "c"], d)
        assert np.array_equal(s.dist, 0.5 * (d + d.T))
        assert np.array_equal(s.dist, s.dist.T) and s.d(1, 0) == s.d(0, 1) == 1.0 + 2e-10

    @pytest.mark.parametrize("d", [np.zeros((0, 0)), [[0.0]], [[0.0, 1.5], [1.5, 0.0]],
                                   [[0.0, INF], [INF, 0.0]]], ids=["n0", "n1", "n2", "n2-inf"])
    def test_zero_one_or_two_points_accepted(self, d):
        s = FiniteMetricSpace(range(len(d)), d)
        assert np.array_equal(s.dist, np.asarray(d, dtype=float))


class TestNormedPlane:
    @pytest.mark.parametrize("tag", ["l1", "l2", "linf", "wmax"])
    def test_norm_axioms_fuzzed(self, tag):
        plane = (NormedPlane(tag, weights=(1.5, 0.7)) if tag == "wmax"
                 else NormedPlane(tag))
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(1000):
            u, v = rng.uniform(-3, 3, size=(2, 2))
            lam = float(rng.uniform(-2, 2))
            assert plane.norm(u + v) <= plane.norm(u) + plane.norm(v) + 1e-12
            assert abs(plane.norm(lam * u) - abs(lam) * plane.norm(u)) <= 1e-12
            assert plane.norm(u) >= 0.0
        assert plane.norm((0.0, 0.0)) == 0.0

    def test_dual_norm_is_lipschitz_constant(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for tag in ("l1", "l2", "linf"):
            plane = NormedPlane(tag)
            a, b = 0.8, -1.3
            lip = plane.dual_norm((a, b))
            pts = rng.uniform(-2, 2, size=(200, 2))
            qts = rng.uniform(-2, 2, size=(200, 2))
            vals = a * (pts[:, 0] - qts[:, 0]) + b * (pts[:, 1] - qts[:, 1])
            dists = plane.norm_arr(pts - qts)
            ok = np.abs(vals) <= lip * dists + 1e-12
            assert np.all(ok)

    def test_rejects_unknown_tag(self):
        with pytest.raises(GeometryError):
            NormedPlane("l3")

    def test_linf_is_the_weighted_max_norm_with_unit_weights(self):
        plane = NormedPlane("linf", weights=(2.0, 0.5))
        assert plane.weights == (1.0, 1.0) and plane == NormedPlane("linf")
        rng = np.random.Generator(np.random.Philox(key=10))
        pts = rng.standard_normal((200, 2))
        assert np.array_equal(plane.norm_arr(pts), np.abs(pts).max(axis=1))
        for x, y in pts[:20].tolist():
            assert plane.norm((x, y)) == max(abs(x), abs(y))
            assert plane.dual_norm((x, y)) == abs(x) + abs(y)
        for a in rng.standard_normal((200, 2, 2)):
            assert plane.op_norm(a) == float(np.max(np.abs(a).sum(axis=1)))

    def test_op_norm_matches_sampled_sup(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        a = np.array([[1.0, 2.0], [-0.5, 0.25]])
        for tag in ("l1", "l2", "linf"):
            plane = NormedPlane(tag)
            theta = rng.uniform(0, 2 * np.pi, size=500)
            vs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            ratios = plane.norm_arr(vs @ a.T) / plane.norm_arr(vs)
            assert plane.op_norm(a) >= np.max(ratios) - 1e-9


class TestSpaceJson:
    def test_graph_round_trip(self):
        g = make_v_detour(2.0)
        doc = dump_space(g)
        g2 = load_space(doc)
        assert np.allclose(g2.path_dist, g.path_dist)
        assert g2.ambient == g.ambient

    def test_d_alpha_round_trip(self):
        g = MetricGraph([[0, 0], [0, 1]], [(0, 1, 1.0)], ambient=("d_alpha", 0.5))
        g2 = load_space(dump_space(g))
        assert g2.ambient == ("d_alpha", 0.5)

    def test_plane_round_trip(self):
        doc = dump_space(NormedPlane("linf"))
        assert load_space(doc).tag == "linf"
