import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from current1d import (FlowNetwork, Infeasible, LinearProgram, Unbounded,
                       min_cost_flow, simplex_lp)

INF = math.inf


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
        from current1d import IterationLimit
        with pytest.raises(IterationLimit):
            solvers.simplex_lp(lp)
