import math

import numpy as np
import pytest

from current1d import (Cluster, CurrentError, CurveMeasure, NormedPlane, Polyline,
                       approximate, cluster, currents, d_inf, d_inf_many, flat_norm, snap,
                       truncate)
from current1d import approximation
from current1d.approximation import measure_as_chain
from current1d.flatnorm import CubicalComplex

PL = NormedPlane("l2")
PLANES = [NormedPlane("l2"), NormedPlane("l1"), NormedPlane("linf"),
          NormedPlane("wmax", (0.5, 2.0))]
BAD_VALUES = [0.0, -1.0, math.nan, math.inf, -math.inf]


def seg(y, x0=0.0, x1=1.0):
    return Polyline([[x0, y], [x1, y]])


def pairwise_cluster(cm, eps, plane):
    """Reference greedy net: one d_inf call per entry-center and member pair."""
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
    for g in groups:
        diam = 0.0
        for a in range(len(g)):
            for b in range(a + 1, len(g)):
                diam = max(diam, d_inf(cm.entries[g[a]][1], cm.entries[g[b]][1], plane))
        rep = min((cm.entries[i][1].length, i) for i in g)[1]
        weight = float(sum(cm.entries[i][0] for i in g))
        out.append(Cluster(members=tuple(g), representative=rep,
                           diameter=diam, weight=weight))
    return out


def translates(rng, count, span, plane):
    """Vertical translates of one random polyline, in jittered order of offset."""
    base = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2))
    step = span / count
    offsets = np.sort(step * np.arange(count) + rng.uniform(-0.1 * step, 0.1 * step, count))
    return CurveMeasure.of([(float(w), Polyline(base + [0.0, off], plane))
                            for w, off in zip(rng.uniform(0.5, 1.5, count), offsets)])


def scattered(rng, count, plane):
    """Unrelated short polylines (breakpoints differ), some single points."""
    return CurveMeasure.of([(float(rng.uniform(0.2, 2.0)),
                             Polyline(0.3 * rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 6)), 2))
                                      + rng.uniform(-0.3, 0.3, size=2), plane))
                            for _ in range(count)])


def assert_same_clusters(got, ref):
    # d_inf_many equals d_inf bit for bit, so the diameters are equal too
    assert got == ref


class TestTruncate:
    def test_all_short_is_identity(self):
        cm = CurveMeasure.of([(1.0, seg(0.0)), (2.0, seg(1.0))])
        out, err = truncate(cm, 2.0)
        assert out.entries == cm.entries
        assert err == 0.0

    def test_single_long_curve_dropped(self):
        cm = CurveMeasure.of([(0.5, Polyline([[0, 0], [4, 0]]))])
        out, err = truncate(cm, 2.0)
        assert out.entries == ()
        assert err == pytest.approx(0.5 * 4.0, abs=1e-12)

    def test_mixed_error_is_dropped_mass(self):
        cm = CurveMeasure.of([(1.0, seg(0.0)), (2.0, Polyline([[0, 0], [3, 0]])),
                              (0.25, Polyline([[0, 0], [5, 0]]))])
        out, err = truncate(cm, 1.5)
        assert len(out.entries) == 1
        assert err == pytest.approx(2.0 * 3.0 + 0.25 * 5.0, abs=1e-12)


class TestCluster:
    def test_single_curve_singleton(self):
        cm = CurveMeasure.of([(1.0, seg(0.0))])
        cl = cluster(cm, 0.1)
        assert len(cl) == 1
        assert cl[0].members == (0,)
        assert cl[0].diameter == 0.0

    def test_two_parallel_segments_merge(self):
        cm = CurveMeasure.of([(1.0, seg(0.0)), (1.0, seg(0.05))])
        cl = cluster(cm, 0.1)
        assert len(cl) == 1
        assert cl[0].representative == 0  # equal lengths, lowest index wins
        assert cl[0].diameter == pytest.approx(0.05, abs=1e-15)

    def test_separated_curves_stay_singletons(self):
        eps = 0.1
        cm = CurveMeasure.of([(1.0, seg(0.0)), (1.0, seg(3 * eps))])
        cl = cluster(cm, eps)
        assert len(cl) == 2
        assert all(c.diameter == 0.0 for c in cl)

    def test_representative_is_shortest_member(self):
        tent = Polyline([[0, 0], [0.5, 0.04], [1, 0]])  # longer than the segment
        cm = CurveMeasure.of([(1.0, tent), (1.0, seg(0.0))])
        cl = cluster(cm, 0.1)
        assert len(cl) == 1
        assert cl[0].representative == 1


class TestClusterAgainstPairwise:
    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_translate_families(self, plane):
        rng = np.random.Generator(np.random.Philox(key=91))
        for count in (20, 80):
            cm = translates(rng, count, 2.0, plane)
            for eps in (0.4, 0.2, 0.05):
                assert_same_clusters(cluster(cm, eps, plane), pairwise_cluster(cm, eps, plane))

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_scattered_families(self, plane):
        rng = np.random.Generator(np.random.Philox(key=92))
        for _ in range(3):
            cm = scattered(rng, 40, plane)
            for eps in (0.5, 0.25, 0.1):
                assert_same_clusters(cluster(cm, eps, plane), pairwise_cluster(cm, eps, plane))

    def test_integer_staircase_translates(self):
        base = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]], dtype=float)
        cm = CurveMeasure.of([(1.0, Polyline(base + [dx, dy]))
                              for dx, dy in [(0, 0), (3, 1), (8, 0), (0, 8), (5, 5), (16, 0)]])
        assert_same_clusters(cluster(cm, 8.0, PL), pairwise_cluster(cm, 8.0, PL))

    @pytest.mark.parametrize("eps", [1e-9, 1e9])
    def test_all_singletons_and_one_cluster(self, eps):
        rng = np.random.Generator(np.random.Philox(key=94))
        cm = scattered(rng, 50, PL)
        got = cluster(cm, eps, PL)
        assert len(got) == (50 if eps < 1 else 1)
        assert_same_clusters(got, pairwise_cluster(cm, eps, PL))

    def test_chunked_equals_unchunked(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=93))
        cm = scattered(rng, 30, PL)
        whole = cluster(cm, 0.3, PL)
        monkeypatch.setattr(currents, "CHUNK_SAMPLES", 16)
        shapes = []

        def recording(curves, a, b):
            out = d_inf_many(curves, a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(approximation, "d_inf_many", recording)
        assert cluster(cm, 0.3, PL) == whole
        # no call measures more than the cap in pairs, unless one row does
        assert all(math.prod(s) <= max(16, s[-1]) for s in shapes)
        assert max(s[0] for s in shapes) > 1


class TestParameterValidation:
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_cluster_rejects_eps(self, bad):
        with pytest.raises(CurrentError, match="cluster radius"):
            cluster(CurveMeasure.of([(1.0, seg(0.0))]), bad)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_approximate_rejects_eps_and_mesh(self, bad):
        cm = CurveMeasure.of([(1.0, seg(0.0))])
        with pytest.raises(CurrentError, match="cluster radius"):
            approximate(cm, eps=bad, mesh=0.25)
        with pytest.raises(CurrentError, match="interpolation mesh"):
            approximate(cm, eps=0.1, mesh=bad)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_truncate_rejects_cap(self, bad):
        with pytest.raises(CurrentError, match="length cap"):
            truncate(CurveMeasure.of([(1.0, seg(0.0))]), bad)


class TestApproximate:
    def test_single_segment_exact(self):
        cm = CurveMeasure.of([(2.0, seg(0.0))])
        p, cert = approximate(cm, eps=0.3, mesh=0.25)
        assert p.mass() == pytest.approx(2.0, abs=1e-12)
        assert cert.flat_bound == 0.0

    def test_two_parallel_unit_segments(self):
        cm = CurveMeasure.of([(1.0, seg(0.0)), (1.0, seg(0.05))])
        p, cert = approximate(cm, eps=0.1, mesh=0.5)
        assert p.mass() == pytest.approx(2.0, abs=1e-12)
        assert cert.mass_n == pytest.approx(2.0, abs=1e-12)
        assert cert.clustering_term == pytest.approx(0.4, abs=1e-12)
        assert cert.interpolation_term == 0.0
        # LP ground truth on the h = 0.05 grid: fills the sliver for 0.15 <= 0.4
        cx = CubicalComplex(origin=(0.0, 0.0), h=0.05, nx=20, ny=2)
        diff = snap(measure_as_chain(cm, PL), cx) - snap(p, cx)
        lp = flat_norm(diff, cx)
        assert lp.value == pytest.approx(0.15, abs=1e-8)
        assert lp.value <= cert.flat_bound + 1e-6

    def test_semicircle_mesh_halving_decreases_bound(self):
        theta = np.linspace(0, math.pi, 33)
        arc = Polyline(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        cm = CurveMeasure.of([(1.0, arc)])
        bounds = []
        for mesh in (0.5, 0.25, 0.125, 0.0625):
            p, cert = approximate(cm, eps=0.1, mesh=mesh)
            bounds.append(cert.flat_bound)
            assert p.mass() <= cm.induced_mass + 1e-9
            assert cert.clustering_term == 0.0
        assert all(bounds[i] >= bounds[i + 1] - 1e-12 for i in range(len(bounds) - 1))

    def test_mass_never_increases(self):
        rng = np.random.Generator(np.random.Philox(key=51))
        for _ in range(20):
            entries = []
            for _ in range(int(rng.integers(1, 12))):
                n = int(rng.integers(2, 5))
                entries.append((float(rng.uniform(0.1, 2.0)),
                                Polyline(rng.uniform(-2, 2, size=(n, 2)))))
            cm = CurveMeasure.of(entries)
            p, cert = approximate(cm, eps=float(rng.uniform(0.05, 1.0)),
                                  mesh=float(rng.uniform(0.1, 0.5)))
            assert p.mass() <= cm.induced_mass + 1e-9
            assert cert.mass_p == pytest.approx(p.mass(), abs=1e-12)

    def test_deterministic_bit_for_bit(self):
        cm = CurveMeasure.of([(1.0, seg(0.0)), (1.5, seg(0.03)), (0.5, seg(0.4))])
        p1, c1 = approximate(cm, eps=0.1, mesh=0.25)
        p2, c2 = approximate(cm, eps=0.1, mesh=0.25)
        assert p1.pieces == p2.pieces
        assert c1 == c2

    def test_rejects_bad_parameters(self):
        cm = CurveMeasure.of([(1.0, seg(0.0))])
        with pytest.raises(Exception):
            approximate(cm, eps=0.0, mesh=0.25)
        with pytest.raises(Exception):
            approximate(cm, eps=0.1, mesh=0.0)
        with pytest.raises(Exception):
            CurveMeasure.of([(0.0, seg(0.0))])
