import numpy as np
import pytest

from current1d import (Box, Chain1, ClosedSet, EdgeFlow, MetricGraph,
                       Molecule, NormedPlane, decompose_flow, evaluate,
                       fat_cantor_intervals, fragment_representation,
                       minimal_filling, rug_grid, standard_panel)
from current1d.decomposition import _route_mass, boundary_marginals

from conftest import random_connected_graph

PL = NormedPlane("l2")


def path_mass(d) -> float:
    return _route_mass(d.graph, d.paths)


def cycle_mass(d) -> float:
    return _route_mass(d.graph, d.cycles)


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
        ef = EdgeFlow(line_graph(3), (1.0, 1.0))
        d = decompose_flow(ef)
        assert d.paths == ((1.0, (0, 1, 2)),)
        assert d.cycles == ()
        assert path_mass(d) == pytest.approx(2.0, abs=1e-12)
        assert abs(d.mass_defect) <= 1e-12

    def test_pure_circulation(self):
        ef = EdgeFlow(four_cycle(), (1.0, 1.0, 1.0, 1.0))
        d = decompose_flow(ef)
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
        ef = EdgeFlow(g, w)
        d = decompose_flow(ef)
        assert np.max(np.abs(d.reassembled() - np.array(w))) <= 1e-12
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
            ef = EdgeFlow.from_chain(fill.chain)
            d = decompose_flow(ef)
            assert np.max(np.abs(d.reassembled() - ef.weights)) <= 1e-9
            assert d.reassembly_error == float(np.max(np.abs(d.reassembled() - ef.weights)))
            assert abs(d.mass_defect) <= 1e-9
            assert path_mass(d) + cycle_mass(d) == pytest.approx(ef.mass(), abs=1e-9)
            starts, ends = boundary_marginals(d)
            for p, w in starts.atoms:
                assert w == pytest.approx(1.25 if p == verts[1] else 0.75, abs=1e-9)
            for p, w in ends.atoms:
                assert p == verts[0] and w == pytest.approx(2.0, abs=1e-9)


    def test_from_chain_inverts_as_chain(self):
        rng = np.random.Generator(np.random.Philox(key=64))
        for _ in range(10):
            g = random_connected_graph(rng, max_n=12)
            w = rng.normal(size=len(g.edges))
            w[rng.uniform(size=len(g.edges)) < 0.3] = 0.0
            ef = EdgeFlow(g, tuple(w))
            assert EdgeFlow.from_chain(ef.as_chain()).weights == ef.weights


class TestFragmentRepresentation:
    def test_whole_space_keeps_whole_curves(self):
        ef = EdgeFlow(line_graph(3), (1.0, 1.0))
        d = decompose_flow(ef)
        e = ClosedSet.of(Box((-10.0, -10.0), (10.0, 10.0)))
        rep = fragment_representation(d, e)
        assert rep.mass_identity_residual <= 1e-12
        assert rep.fragments[0][1].fragments[0].domain == ((0.0, 1.0),)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fat_cantor_boxes_measure_the_set(self, k):
        # horizontal unit line current restricted to stage-k boxes
        n = 2 ** k + 1
        g = line_graph(2, spacing=1.0)
        ef = EdgeFlow(g, (1.0,))
        d = decompose_flow(ef)
        prims = tuple(Box((a, -1.0), (b, 1.0)) for a, b in fat_cantor_intervals(k))
        rep = fragment_representation(d, ClosedSet(prims))
        expected = 0.5 + 2.0 ** (-(k + 1))
        assert rep.restricted_mass == pytest.approx(expected, abs=1e-12)
        assert rep.mass_identity_residual <= 1e-9

    def test_unit_speed_normalization(self):
        # constant-speed parametrization: metric derivative equals the length
        ef = EdgeFlow(line_graph(4, spacing=0.5), (1.0, 1.0, 1.0))
        d = decompose_flow(ef)
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
        ef = EdgeFlow.from_chain(fill.chain)
        d = decompose_flow(ef)
        chain = Chain1.from_segments(PL, [
            (tuple(g.coords[piece.start]), tuple(g.coords[piece.end]), piece.weight)
            for piece in ef.as_chain().pieces])
        from current1d.decomposition import curve_polyline
        panel = standard_panel(63, count=20, scale=10.0)
        for form in panel:
            direct = evaluate(chain, form)
            via_curves = sum(w * evaluate(curve_polyline(d, v).as_chain(PL), form)
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
