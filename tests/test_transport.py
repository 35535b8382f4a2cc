import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from current1d import (Chain1, FiniteMetricSpace, FillingResult, Infeasible, MetricGraph,
                       Molecule, NormedPlane, ae_norm, check_filling, edge_weights,
                       isomorphism_check, minimal_filling, network_simplex, qc_constants,
                       transport)
from current1d.transport import TransportError

from conftest import make_v_detour, random_connected_graph

_spec = importlib.util.spec_from_file_location(
    "make_engine_digests", Path(__file__).resolve().parent / "golden" / "make_engine_digests.py")
engine_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(engine_digests)

PL = NormedPlane("l2")


def check_ae_invariants(m, metric, res):
    coupled = sum(w for _, _, w in res.coupling)
    cost = 0.0
    for p, q, w in res.coupling:
        d = metric[p, q] if isinstance(metric, np.ndarray) else metric.dist(p, q)
        cost += w * d
    assert cost == pytest.approx(res.value, abs=1e-9 * max(1.0, res.value))
    pts = list(res.potential)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d = metric[p, q] if isinstance(metric, np.ndarray) else metric.dist(p, q)
            if math.isfinite(d):
                assert abs(res.potential[p] - res.potential[q]) <= d + 1e-9
    pairing = sum(w * res.potential[p] for p, w in m.atoms)
    assert pairing >= res.value - 1e-7 * max(1.0, res.value)
    return coupled


class TestAeNorm:
    def test_dipole_is_distance(self):
        g = make_v_detour(2.0)
        m = Molecule([(1, 1.0), (0, -1.0)])
        res = ae_norm(m, g.ambient_dist)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        check_ae_invariants(m, g.ambient_dist, res)

    def test_line_points_zero_one_three(self):
        s = FiniteMetricSpace(["0", "1", "3"],
                              np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0],
                                        [3.0, 2.0, 0.0]]))
        m = Molecule([(0, 1.0), (1, -2.0), (2, 1.0)])
        res = ae_norm(m, s.dist)
        assert res.value == pytest.approx(3.0, abs=1e-9)
        check_ae_invariants(m, s.dist, res)

    def test_zero_molecule(self):
        assert ae_norm(Molecule([]), PL).value == 0.0

    @pytest.mark.parametrize("key", [-1, 2, 5, (0.0, 0.0)])
    def test_atom_key_outside_the_matrix_raises(self, key):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TransportError, match="not a point of the space"):
            ae_norm(Molecule([(key, 1.0), (0, -1.0)]), dist)

    def test_vertex_key_in_a_plane_raises(self):
        # integer keys sort first, so the first non-point is vertex 0
        m = Molecule([((1.0, 0.0), 1.0), (2, -0.5), (0, -0.5)])
        with pytest.raises(TransportError, match=r"^molecule atom 0 is not a point of the plane$"):
            ae_norm(m, PL)

    def test_planar_molecule(self):
        m = Molecule([((0.0, 0.0), -1.0), ((3.0, 4.0), 1.0)])
        res = ae_norm(m, PL)
        assert res.value == pytest.approx(5.0, abs=1e-12)
        check_ae_invariants(m, PL, res)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_invariants_on_random_graph_molecules(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        g = random_connected_graph(rng, max_n=12)
        k = int(rng.integers(2, 6))
        verts = rng.choice(g.n, size=min(k, g.n), replace=False)
        wts = rng.normal(size=len(verts))
        wts[-1] -= wts.sum()
        m = Molecule([(int(v), float(w)) for v, w in zip(verts, wts)])
        res = ae_norm(m, g.ambient_dist)
        check_ae_invariants(m, g.ambient_dist, res)

    @pytest.mark.parametrize("tag", ["l1", "l2", "linf"])
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_plane_equals_its_distance_matrix_bit_for_bit(self, tag, seed):
        plane = NormedPlane(tag)
        rng = np.random.Generator(np.random.Philox(key=seed))
        k = int(rng.integers(3, 25))
        wts = rng.normal(size=k)
        wts[-1] -= wts.sum()
        m = Molecule(list(zip(map(tuple, rng.uniform(-3.0, 3.0, size=(k, 2)).tolist()),
                              wts.tolist())))
        # index i stands for the i-th atom, so both molecules list atoms alike
        pts = [p for p, _ in m.atoms]
        dist = np.array([[plane.dist(p, q) for q in pts] for p in pts])
        by_point = ae_norm(m, plane)
        by_index = ae_norm(Molecule([(i, w) for i, (_, w) in enumerate(m.atoms)]), dist)
        # repr tells 0.0 from -0.0, so equal reprs are equal bits
        assert repr(by_point.value) == repr(by_index.value)
        assert repr(by_point.coupling) \
            == repr(tuple((pts[i], pts[j], w) for i, j, w in by_index.coupling))
        assert repr(list(by_point.potential.items())) \
            == repr([(pts[i], v) for i, v in by_index.potential.items()])


class TestMinimalFilling:
    def test_unit_edge(self):
        g = MetricGraph(["x", "y"], [(0, 1, 1.0)], ambient="path")
        m = Molecule([(1, 1.0), (0, -1.0)])
        res = minimal_filling(m, g)
        assert res.mass_value == pytest.approx(1.0, abs=1e-12)
        assert res.chain.boundary() == m

    def test_four_cycle(self):
        g = MetricGraph(["a", "b", "c", "d"],
                        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                        ambient="path")
        m = Molecule([(2, 1.0), (0, -1.0)])
        assert minimal_filling(m, g).mass_value == pytest.approx(2.0, abs=1e-12)

    def test_v_detour_filling_exceeds_ambient_ae(self):
        g = make_v_detour(2.0)
        m = Molecule([(1, 1.0), (0, -1.0)])
        fill = minimal_filling(m, g)
        assert fill.mass_value == pytest.approx(2.0, abs=1e-12)
        assert ae_norm(m, g.ambient_dist).value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_across_components(self):
        g = MetricGraph(["a", "b"], [], ambient="path")
        m = Molecule([(0, 1.0), (1, -1.0)])
        with pytest.raises(Infeasible):
            minimal_filling(m, g)

    def test_components_with_edges(self):
        """On two components that both have edges, mass crossing between them
        is infeasible, and a molecule balanced on each fills each on its own."""
        rng = np.random.Generator(np.random.Philox(key=11))
        for _ in range(5):
            g1, g2 = random_connected_graph(rng, max_n=12), random_connected_graph(rng, max_n=12)
            g = MetricGraph(g1.vertices + g2.vertices,
                            g1.edges + [(u + g1.n, v + g1.n, w) for u, v, w in g2.edges],
                            ambient="euclidean")
            a1, b1 = rng.choice(g1.n, size=2, replace=False).tolist()
            a2, b2 = rng.choice(g2.n, size=2, replace=False).tolist()
            w1, w2 = rng.uniform(0.5, 2.0, size=2).tolist()
            crossing = Molecule([(a1, w1), (b1, -w2), (a2 + g1.n, w2), (b2 + g1.n, -w1)])
            with pytest.raises(Infeasible, match="not balanceable within components"):
                minimal_filling(crossing, g)
            m1, m2 = Molecule([(a1, w1), (b1, -w1)]), Molecule([(a2, w2), (b2, -w2)])
            both = Molecule(list(m1.atoms) + [(p + g1.n, w) for p, w in m2.atoms])
            want = minimal_filling(m1, g1).mass_value + minimal_filling(m2, g2).mass_value
            assert minimal_filling(both, g).mass_value == pytest.approx(want, rel=1e-12)

    def test_boundary_matches_molecule(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(10):
            g = random_connected_graph(rng, max_n=10)
            verts = rng.choice(g.n, size=3, replace=False)
            m = Molecule([(int(verts[0]), 1.5), (int(verts[1]), -1.0),
                          (int(verts[2]), -0.5)])
            fill = minimal_filling(m, g)
            got = dict(fill.chain.boundary().atoms)
            want = dict(m.atoms)
            assert set(got) == set(want)
            for k in got:
                assert got[k] == pytest.approx(want[k], abs=1e-9)


def balanced_weights(rng, k: int) -> np.ndarray:
    w = rng.uniform(-2.0, 2.0, size=k)
    w[-1] -= w.sum()
    return w


class TestHighsOracle:
    """``ae_norm`` and ``minimal_filling`` against HiGHS on their node-arc LPs:
    the bipartite transport LP between the positive and negative atoms, and
    the edge LP min sum l(e) x(e) over both orientations of every edge with
    boundary = molecule."""

    @staticmethod
    def _transport_lp(optimize, m: Molecule, dist: np.ndarray) -> float:
        pos = [(p, w) for p, w in m.atoms if w > 0]
        neg = [(q, -w) for q, w in m.atoms if w < 0]
        a_eq = np.zeros((len(pos) + len(neg), len(pos) * len(neg)))
        cost = np.zeros(len(pos) * len(neg))
        for i, (p, _) in enumerate(pos):
            for j, (q, _) in enumerate(neg):
                col = i * len(neg) + j
                a_eq[i, col] = a_eq[len(pos) + j, col] = 1.0
                cost[col] = dist[p, q]
        b_eq = [w for _, w in pos] + [w for _, w in neg]
        lp = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        assert lp.status == 0
        return lp.fun

    @pytest.mark.parametrize("family", ["plane_l2", "lattice_l1"])
    def test_ae_norm_matches_linprog(self, family):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.Generator(np.random.Philox(key=(19, family == "lattice_l1")))
        for _ in range(12):
            k = int(rng.integers(2, 41))
            if family == "lattice_l1":  # integer points under l1: many equal costs
                pts = rng.integers(0, 5, size=(k, 2)).astype(float)
                dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
            else:
                pts = rng.uniform(0.0, 10.0, size=(k, 2))
                dist = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
            m = Molecule(list(zip(rng.permutation(k).tolist(),
                                  balanced_weights(rng, k).tolist())))
            want = self._transport_lp(optimize, m, dist)
            assert ae_norm(m, dist).value == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_minimal_filling_matches_linprog(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.Generator(np.random.Philox(key=20))
        for _ in range(15):
            g = random_connected_graph(rng, max_n=40)
            k = int(rng.integers(2, g.n + 1))
            m = Molecule(list(zip(rng.choice(g.n, size=k, replace=False).tolist(),
                                  balanced_weights(rng, k).tolist())))
            # column 2i is edge i from u to v, 2i + 1 from v to u; a unit on
            # u -> v adds +1 to the boundary at v and -1 at u
            a_eq = np.zeros((g.n, 2 * len(g.edges)))
            for i, (u, v, _) in enumerate(g.edges):
                a_eq[v, 2 * i] = a_eq[u, 2 * i + 1] = 1.0
                a_eq[u, 2 * i] = a_eq[v, 2 * i + 1] = -1.0
            b_eq = np.zeros(g.n)
            for p, w in m.atoms:
                b_eq[p] += w
            cost = np.repeat([length for _, _, length in g.edges], 2)
            lp = optimize.linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None),
                                  method="highs")
            assert lp.status == 0
            assert minimal_filling(m, g).mass_value == pytest.approx(lp.fun, rel=1e-9,
                                                                     abs=1e-12)


def seeded_filling(seed: int, scale: float = 1.0):
    """Seeded graph, molecule of weights times ``scale``, and its minimal filling."""
    rng = np.random.Generator(np.random.Philox(key=(41, seed)))
    g = random_connected_graph(rng, max_n=60)
    k = int(rng.integers(2, min(g.n, 16) + 1))
    m = Molecule(list(zip(rng.choice(g.n, size=k, replace=False).tolist(),
                          (scale * balanced_weights(rng, k)).tolist())))
    return g, m, minimal_filling(m, g)


def corrupted(m: Molecule, g: MetricGraph, fill: FillingResult, how: str) -> FillingResult:
    """``fill`` with its heaviest piece scaled by 1 + 1e-6, sign-flipped or
    dropped, or with the potential of its heaviest positive atom lowered by
    1e-6 times the graph's diameter."""
    pieces = list(fill.chain.pieces)
    i = max(range(len(pieces)), key=lambda j: abs(pieces[j].weight))
    ae = fill.ae
    if how == "scaled":
        pieces[i] = pieces[i]._replace(weight=pieces[i].weight * (1 + 1e-6))
    elif how == "flipped":
        pieces[i] = pieces[i]._replace(weight=-pieces[i].weight)
    elif how == "dropped":
        del pieces[i]
    else:
        p = max(m.atoms, key=lambda pw: pw[1])[0]
        moved = ae.potential[p] - 1e-6 * float(np.max(g.path_dist))
        ae = dataclasses.replace(ae, potential={**ae.potential, p: moved})
    return FillingResult(Chain1(g, pieces, validate=False), fill.mass_value, ae)


class TestRoutedFilling:
    """``minimal_filling`` routes ``ae_norm``'s coupling on shortest paths;
    Beckmann's network solved by the flow engine is its reference, and
    ``check_filling`` its certificate."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_beckmann_network(self, seed):
        g, m, fill = seeded_filling(seed)
        res = network_simplex(engine_digests.beckmann(m, g))
        assert fill.mass_value == pytest.approx(res.total_cost, rel=1e-12)
        flow = res.flows[0::2] - res.flows[1::2]  # arc 2k is edge k, 2k + 1 its reverse
        weights = edge_weights(fill.chain)
        assert (np.flatnonzero(weights).tolist()
                == np.flatnonzero(np.abs(flow) > 1e-12).tolist())
        np.testing.assert_allclose(weights, flow, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [-30, 0, 30])
    @pytest.mark.parametrize("how", ["scaled", "flipped", "dropped", "potential"])
    def test_the_certificate_rejects_a_corrupted_filling(self, how, k):
        for seed in range(6):
            g, m, fill = seeded_filling(seed, 2.0 ** k)
            check_filling(m, g, fill)
            with pytest.raises(TransportError, match="filling"):
                check_filling(m, g, corrupted(m, g, fill, how))

    def test_the_certificate_rejects_a_path_metric_above_the_edges(self):
        """A potential 1-Lipschitz for a path metric 1e-6 too long breaks an edge."""
        for seed in range(6):
            g, m, fill = seeded_filling(seed)
            g.path_dist = g.path_dist * (1 + 1e-6)
            with pytest.raises(TransportError, match="exceeds an edge length"):
                check_filling(m, g, fill)

    @pytest.mark.parametrize("scale", [1e-6, 1e-10])
    def test_boundary_is_the_molecule_at_small_weights(self, scale):
        """At weights near 1e-9 and below, every coupled flow is under TOL, so a
        coupling cut at TOL instead of the engine's arc floor routes nothing."""
        for seed in range(6):
            g, m, fill = seeded_filling(seed, scale)
            got, want = dict(fill.chain.boundary().atoms), dict(m.atoms)
            for p in got.keys() | want.keys():
                assert got.get(p, 0.0) == pytest.approx(want.get(p, 0.0), rel=1e-9,
                                                        abs=1e-12 * scale)
            assert fill.mass_value == pytest.approx(scale * seeded_filling(seed)[2].mass_value,
                                                    rel=1e-9)

    def test_routes_on_a_graph_scaled_by_2_to_the_minus_40(self):
        """The shortest-path trees take exact ties. Edges here are about 1e-11
        long, so a tie margin of 1e-12 let arcs off every shortest path into
        the trees, and the certificate rejected the routed filling."""
        for seed in range(40):
            rng = np.random.Generator(np.random.Philox(key=seed))
            g = random_connected_graph(rng, max_n=30)
            g = MetricGraph((g.coords * 2.0 ** -40).tolist(),
                            [(u, v, w * 2.0 ** -40) for u, v, w in g.edges])
            m = Molecule(list(zip(rng.choice(g.n, size=4, replace=False).tolist(),
                                  balanced_weights(rng, 4).tolist())))
            fill = minimal_filling(m, g)
            assert fill.mass_value == pytest.approx(fill.ae.value, rel=1e-9)

    def test_an_empty_filling_is_checked(self):
        g, m, _ = seeded_filling(0)
        fill = minimal_filling(Molecule([]), g)
        assert fill.chain.pieces == () and fill.mass_value == 0.0
        with pytest.raises(TransportError, match="boundary misses the molecule"):
            check_filling(m, g, fill)

    def test_one_flow_solve_per_filling(self, monkeypatch):
        """The filling and its identity come from one solve; iso-check adds the
        ambient one."""
        nets, solve = [], transport.network_simplex

        def counted(net):
            nets.append(net)
            return solve(net)
        monkeypatch.setattr(transport, "network_simplex", counted)
        g, m, _ = seeded_filling(0)
        nets.clear()
        minimal_filling(m, g)
        assert len(nets) == 1
        nets.clear()
        assert isomorphism_check(m, g).all_ok()
        assert len(nets) == 2


class TestIsomorphismCheck:
    def test_geodesic_graph_equality(self):
        g = MetricGraph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 2.0)], ambient="path")
        t = Chain1.from_graph_edges(g, [(0, 1, 1.0), (1, 2, 1.0)])
        rep = isomorphism_check(t.boundary(), g)
        assert rep.all_ok()
        assert rep.filling_mass == pytest.approx(rep.ae_ambient, abs=1e-7)

    def test_v_detour_both_bounds_tight(self):
        g = make_v_detour(2.0)
        t = Chain1.from_graph_edges(g, [(0, 2, 1.0), (2, 1, 1.0)])
        rep = isomorphism_check(t.boundary(), g)
        assert rep.all_ok()
        assert rep.ae_ambient == pytest.approx(1.0, abs=1e-12)
        assert rep.filling_mass == pytest.approx(2.0, abs=1e-12)
        assert rep.qc == pytest.approx(2.0, abs=1e-12)
        assert rep.ratio == pytest.approx(rep.qc, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_instances(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        g = random_connected_graph(rng, max_n=15)
        flows = []
        for _ in range(int(rng.integers(1, 5))):
            u, v, _ = g.edges[int(rng.integers(0, len(g.edges)))]
            flows.append((u, v, float(rng.normal())))
        t = Chain1.from_graph_edges(g, flows)
        assert isomorphism_check(t.boundary(), g).all_ok()


class TestInvariants:
    def test_scale_equivariance(self):
        rng = np.random.Generator(np.random.Philox(key=21))
        g = random_connected_graph(rng, max_n=10)
        m = Molecule([(0, 1.0), (g.n - 1, -1.0)])
        lam = 3.75
        scaled = MetricGraph(
            (g.coords * lam).tolist(),
            [(u, v, w * lam) for u, v, w in g.edges], ambient="euclidean")
        assert ae_norm(m, scaled.ambient_dist).value == pytest.approx(
            lam * ae_norm(m, g.ambient_dist).value, abs=1e-9 * lam)
        assert minimal_filling(m, scaled).mass_value == pytest.approx(
            lam * minimal_filling(m, g).mass_value, abs=1e-9 * lam)

    def test_boundary_operator_norm_at_most_one(self):
        # AE norm of a chain boundary never exceeds its mass (fuzz 100 chains)
        rng = np.random.Generator(np.random.Philox(key=22))
        for _ in range(50):
            pts = rng.uniform(-3, 3, size=(4, 2))
            c = Chain1.from_segments(PL, [
                (tuple(pts[0]), tuple(pts[1]), float(rng.normal())),
                (tuple(pts[1]), tuple(pts[2]), float(rng.normal())),
                (tuple(pts[2]), tuple(pts[3]), float(rng.normal()))])
            assert ae_norm(c.boundary(), PL).value <= c.mass() + 1e-9
        for _ in range(50):
            g = random_connected_graph(rng, max_n=8)
            flows = [(u, v, float(rng.normal())) for u, v, _ in g.edges[:3]]
            c = Chain1.from_graph_edges(g, flows)
            assert ae_norm(c.boundary(), g.ambient_dist).value <= c.mass() + 1e-9

    def test_sandwich_chain(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        for _ in range(20):
            g = random_connected_graph(rng, max_n=12)
            verts = rng.choice(g.n, size=2, replace=False)
            m = Molecule([(int(verts[0]), 1.0), (int(verts[1]), -1.0)])
            aed = ae_norm(m, g.ambient_dist).value
            aedl = ae_norm(m, g.path_dist).value
            fill = minimal_filling(m, g).mass_value
            qc = qc_constants(g).qc_space
            assert aed / qc <= fill + 1e-7
            assert fill <= qc * aed + 1e-7
            assert fill == pytest.approx(aedl, abs=1e-7 * max(1.0, fill))


def random_tree(rng, n: int, reach: int) -> tuple[MetricGraph, list[int]]:
    """A Euclidean tree on n plane points; vertex i > 0 hangs from a parent
    drawn among the ``reach`` vertices before it (reach n: bushy, small: long)."""
    pts = rng.uniform(0.0, 10.0, size=(n, 2))
    parent = [-1] + [int(rng.integers(max(0, i - reach), i)) for i in range(1, n)]
    edges = [(parent[i], i, float(np.hypot(*(pts[i] - pts[parent[i]]))))
             for i in range(1, n)]
    return MetricGraph(pts.tolist(), edges, ambient="euclidean"), parent


class TestTreeClosedForm:
    """On a metric tree ae(m) = sum over edges of l(e) |m(subtree below e)|, and
    the minimal filling is unique, with that flux on every edge (Godard, Proc.
    AMS 2010)."""

    @pytest.mark.parametrize("reach", [3, 1000])
    @pytest.mark.parametrize("seed", range(4))
    def test_ae_and_filling_equal_subtree_sum(self, seed, reach):
        rng = np.random.Generator(np.random.Philox(key=(seed, reach)))
        n = int(rng.integers(20, 200))
        g, parent = random_tree(rng, n, reach)
        k = int(rng.integers(2, min(n, 60) + 1))
        w = balanced_weights(rng, k)
        m = Molecule(list(zip(rng.choice(n, size=k, replace=False).tolist(), w.tolist())))
        below = np.zeros(n)  # m(subtree of i); parents precede children
        for p, x in m.atoms:
            below[p] += x
        for i in range(n - 1, 0, -1):
            below[parent[i]] += below[i]
        lengths = np.array([length for _, _, length in g.edges])
        closed = float(np.sum(lengths * np.abs(below[1:])))

        ae = ae_norm(m, g.path_dist)
        assert ae.value == pytest.approx(closed, rel=1e-12)
        # the potential, extended to every vertex by u(x) = min_y u(y) + d(x, y)
        # (1-Lipschitz, equal to u on the atoms), is tight on every edge that
        # carries flux: such an edge lies on a geodesic the coupling uses
        keys = list(ae.potential)
        u = (np.array([ae.potential[y] for y in keys]) + g.path_dist[:, keys]).min(axis=1)
        scale = max(1.0, float(np.max(g.path_dist)))
        carries = np.abs(below[1:]) > 1e-12 * max(1.0, m.mass0())
        steps = np.abs(u[1:] - u[parent[1:]])
        assert carries.any()
        assert np.allclose(steps[carries], lengths[carries], rtol=0, atol=1e-12 * scale)
        fill = minimal_filling(m, g)
        assert fill.mass_value == pytest.approx(closed, rel=1e-12)
        flux = np.zeros(n)  # signed weight of the filling on edge parent(i) -> i
        for piece in fill.chain.pieces:
            if parent[piece.end] == piece.start:
                flux[piece.end] += piece.weight
            else:
                flux[piece.start] -= piece.weight
        assert np.allclose(flux[1:], below[1:], rtol=0, atol=1e-12 * max(1.0, m.mass0()))
