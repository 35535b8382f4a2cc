import numpy as np
import pytest

from current1d import (Box, Chain1, ClosedSet, CurrentError, MetricGraph,
                       Molecule, NormedPlane, Polyline, decompose_flow,
                       edge_weights, evaluate, fat_cantor_intervals,
                       fragment_representation, minimal_filling, rug_grid,
                       standard_panel)
from current1d.decomposition import boundary_marginals, route_chain

from conftest import engine_digests, random_connected_graph

reassembled = engine_digests.reassembled

PL = NormedPlane("l2")


def path_mass(d) -> float:
    return route_chain(d.graph, d.paths).mass()


def cycle_mass(d) -> float:
    return route_chain(d.graph, d.cycles).mass()


def edge_flow(g, weights) -> Chain1:
    """The chain with one piece per nonzero weight, along its edge."""
    return Chain1.from_graph_edges(g, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)
                                       if w != 0.0])


def line_graph(n=3, spacing=1.0):
    verts = [[i * spacing, 0.0] for i in range(n)]
    edges = [(i, i + 1, spacing) for i in range(n - 1)]
    return MetricGraph(verts, edges, ambient="euclidean")


def four_cycle():
    return MetricGraph([[0, 0], [1, 0], [1, 1], [0, 1]],
                       [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                       ambient="euclidean")


class TestDecomposeFlow:
    def test_unit_path(self):
        d = decompose_flow(edge_flow(line_graph(3), (1.0, 1.0)))
        assert d.paths == ((1.0, (0, 1, 2)),)
        assert d.cycles == ()
        assert path_mass(d) == pytest.approx(2.0, abs=1e-12)
        assert abs(d.mass_defect) <= 1e-12

    def test_pure_circulation(self):
        d = decompose_flow(edge_flow(four_cycle(), (1.0, 1.0, 1.0, 1.0)))
        assert d.paths == ()
        assert len(d.cycles) == 1
        assert d.cycles[0][0] == pytest.approx(1.0, abs=1e-12)
        assert abs(d.mass_defect) <= 1e-12

    def test_superposed_crossing_flows_against_enumeration(self):
        # 5-node graph: two crossing routes sharing the middle vertex
        g = MetricGraph([[0, 0], [2, 0], [1, 1], [0, 2], [2, 2]],
                        [(0, 2, np.sqrt(2)), (1, 2, np.sqrt(2)),
                         (2, 3, np.sqrt(2)), (2, 4, np.sqrt(2))],
                        ambient="euclidean")
        w = (1.0, 2.0, 1.0, 2.0)  # 0->2->3 carries 1, 1->2->4 carries 2
        d = decompose_flow(edge_flow(g, w))
        assert np.max(np.abs(reassembled(d) - np.array(w))) <= 1e-12
        assert abs(d.mass_defect) <= 1e-12
        # brute force: all ways to route the boundary as two paths
        starts, ends = boundary_marginals(d)
        assert dict(starts.atoms) == {0: 1.0, 1: 2.0}
        assert dict(ends.atoms) == {3: 1.0, 4: 2.0}
        # enumerate all residual-consistent path multisets and check ours appears
        valid = {((1.0, (0, 2, 3)), (2.0, (1, 2, 4))),
                 ((2.0, (1, 2, 4)), (1.0, (0, 2, 3)))}
        assert tuple(sorted(d.paths)) in {tuple(sorted(v)) for v in valid}

    def test_reassembly_and_marginals_fuzz(self):
        rng = np.random.Generator(np.random.Philox(key=61))
        for _ in range(25):
            g = random_connected_graph(rng, max_n=10)
            verts = rng.choice(g.n, size=3, replace=False)
            m = Molecule([(int(verts[0]), 2.0), (int(verts[1]), -1.25),
                          (int(verts[2]), -0.75)])
            fill = minimal_filling(m, g)
            w = edge_weights(fill.chain)
            d = decompose_flow(fill.chain)
            assert np.max(np.abs(reassembled(d) - w)) <= 1e-9
            assert d.reassembly_error == float(np.max(np.abs(reassembled(d) - w)))
            assert abs(d.mass_defect) <= 1e-9
            assert path_mass(d) + cycle_mass(d) == pytest.approx(edge_flow(g, w).mass(), abs=1e-9)
            starts, ends = boundary_marginals(d)
            for p, w in starts.atoms:
                assert w == pytest.approx(1.25 if p == verts[1] else 0.75, abs=1e-9)
            for p, w in ends.atoms:
                assert p == verts[0] and w == pytest.approx(2.0, abs=1e-9)

    def test_edge_weights_inverts_the_edge_chain(self):
        rng = np.random.Generator(np.random.Philox(key=64))
        for _ in range(10):
            g = random_connected_graph(rng, max_n=12)
            w = rng.normal(size=len(g.edges))
            w[rng.uniform(size=len(g.edges)) < 0.3] = 0.0
            assert tuple(edge_weights(edge_flow(g, w))) == tuple(w)

    def test_a_planar_chain_is_refused(self):
        chain = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 0.0), 1.0)])
        with pytest.raises(CurrentError, match="^edge flows need a chain on a metric graph$"):
            decompose_flow(chain)

    def test_opposite_pieces_decompose_as_their_edge_sum(self):
        # 0->1 of weight 1.0 and 1->0 of weight 0.25 sum to 0.75 along edge (0, 1)
        g = line_graph(3)
        both = Chain1.from_graph_edges(g, [(0, 1, 1.0), (1, 0, 0.25), (1, 2, 0.75)])
        summed = edge_flow(g, edge_weights(both))
        assert summed.pieces == edge_flow(g, (0.75, 0.75)).pieces
        a, b = decompose_flow(both), decompose_flow(summed)
        assert (a.paths, a.cycles, a.mass_defect, a.reassembly_error) == \
            (b.paths, b.cycles, b.mass_defect, b.reassembly_error)
        assert a.paths == ((0.75, (0, 1, 2)),) and a.mass_defect == 0.0


class TestFragmentRepresentation:
    def test_whole_space_keeps_whole_curves(self):
        d = decompose_flow(edge_flow(line_graph(3), (1.0, 1.0)))
        e = ClosedSet.of(Box((-10.0, -10.0), (10.0, 10.0)))
        rep = fragment_representation(d, e)
        assert rep.mass_identity_residual <= 1e-12
        assert rep.fragments[0][1].fragments[0].domain == ((0.0, 1.0),)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fat_cantor_boxes_measure_the_set(self, k):
        # horizontal unit line current restricted to stage-k boxes
        n = 2 ** k + 1
        g = line_graph(2, spacing=1.0)
        d = decompose_flow(edge_flow(g, (1.0,)))
        prims = tuple(Box((a, -1.0), (b, 1.0)) for a, b in fat_cantor_intervals(k))
        rep = fragment_representation(d, ClosedSet(prims))
        expected = 0.5 + 2.0 ** (-(k + 1))
        assert rep.restricted_mass == pytest.approx(expected, abs=1e-12)
        assert rep.mass_identity_residual <= 1e-9

    def test_unit_speed_normalization(self):
        # constant-speed parametrization: metric derivative equals the length
        d = decompose_flow(edge_flow(line_graph(4, spacing=0.5), (1.0, 1.0, 1.0)))
        e = ClosedSet.of(Box((-10.0, -10.0), (10.0, 10.0)))
        rep = fragment_representation(d, e)
        w, frag = rep.fragments[0]
        fr = frag.fragments[0]
        ell = fr.polyline.length
        # after rescaling the domain by the speed, |gamma'| = 1 a.e.
        speeds = np.linalg.norm(np.diff(fr.polyline.points, axis=0), axis=1)
        params = np.diff(fr.polyline.breaks())
        assert np.allclose(speeds / (params * ell), 1.0)

    def test_evaluation_consistency(self):
        rng = np.random.Generator(np.random.Philox(key=62))
        g = random_connected_graph(rng, max_n=8)
        verts = rng.choice(g.n, size=2, replace=False)
        m = Molecule([(int(verts[0]), 1.0), (int(verts[1]), -1.0)])
        fill = minimal_filling(m, g)
        d = decompose_flow(fill.chain)
        chain = Chain1.from_segments(PL, [
            (tuple(g.coords[piece.start]), tuple(g.coords[piece.end]), piece.weight)
            for piece in edge_flow(g, edge_weights(fill.chain)).pieces])
        panel = standard_panel(63, count=20, scale=10.0)
        for form in panel:
            direct = evaluate(chain, form)
            via_curves = sum(w * evaluate(Polyline(g.coords[list(v)]).as_chain(PL), form)
                             for w, v in d.paths + d.cycles)
            assert direct == pytest.approx(via_curves, abs=1e-6 * (1 + abs(direct)))


class TestRickmanRegression:
    def test_lower_bound_two_on_grid(self):
        rows = rug_grid(s_count=32, n=32, alpha=0.5)
        assert len(rows) == 32
        for row in rows:
            assert row.ae_intrinsic == pytest.approx(2.0, abs=1e-6)
            assert row.mass == pytest.approx(2.0, abs=1e-12)
            assert row.qc == np.inf
        # ambient AE shrinks with s: the isomorphism genuinely fails
        assert rows[0].ae_ambient < rows[-1].ae_ambient <= 2.0
