import logging
import math
import re
import warnings

import numpy as np
import pytest

from current1d import (Chain1, Cluster, CurrentError, CurveMeasure, NormedPlane, Polyline,
                       approximate, cluster, currents, d_inf, d_inf_many, flat_norm,
                       interpolate_geodesic, snap, truncate)
from current1d import approximation
from current1d.approximation import ApproxCertificate, measure_as_chain
from current1d.flatnorm import CubicalComplex

PL = NormedPlane("l2")
PLANES = [NormedPlane("l2"), NormedPlane("l1"), NormedPlane("linf"),
          NormedPlane("wmax", (0.5, 2.0))]
BAD_VALUES = [0.0, -1.0, math.nan, math.inf, -math.inf]


def seg(y, x0=0.0, x1=1.0):
    return Polyline([[x0, y], [x1, y]])


def induced_mass(cm: CurveMeasure) -> float:
    """The measure's mass from its polylines' own (l2) lengths."""
    return float(sum(w * p.length for w, p in cm.entries))


def pairwise_cluster(cm, eps, plane):
    """Reference greedy net: one d_inf call per entry-center and member pair;
    the representative is the member shortest in ``plane``."""
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
        rep = min((Polyline(cm.entries[i][1].points, plane).length, i) for i in g)[1]
        weight = float(sum(cm.entries[i][0] for i in g))
        out.append(Cluster(members=tuple(g), representative=rep,
                           diameter=diam, weight=weight))
    return out


def reference_approximate(cm, eps, mesh, plane):
    """Reference chord chain: one interpolate_geodesic and one d_inf call and
    one chain sum per cluster, every length in the plane's norm."""
    def length(poly):
        return Polyline(poly.points, plane).length

    cap = max((length(p) for _, p in cm.entries), default=0.0)
    clusters = cluster(cm, eps, plane)
    part = approximation._uniform_partition(mesh)
    pieces = Chain1.empty(plane)
    clustering_term = 0.0
    interp_term = 0.0
    for cl in clusters:
        rep = cm.entries[cl.representative][1]
        interp = interpolate_geodesic(rep, part, plane)
        pieces = pieces + interp.chain.scale(cl.weight)
        clustering_term += 2.0 * (cap + 1.0) * cl.weight * cl.diameter
        chord = interp.chord_polyline
        interp_term += cl.weight * ((length(rep) + length(chord) + 2.0)
                                    * d_inf(rep, chord, plane))
    return pieces, ApproxCertificate(
        epsilon=eps, clusters=tuple(clusters), clustering_term=clustering_term,
        interpolation_term=interp_term, flat_bound=clustering_term + interp_term,
        mass_p=pieces.mass(), mass_n=float(sum(w * length(p) for w, p in cm.entries)))


def assert_same_approximation(cm, eps, mesh, plane):
    (got, cert), (ref, ref_cert) = (approximate(cm, eps, mesh, plane),
                                    reference_approximate(cm, eps, mesh, plane))
    assert got.space == ref.space == plane
    assert got.pieces == ref.pieces
    assert repr(got.pieces) == repr(ref.pieces)  # signed zeros too
    assert cert == ref_cert
    assert repr(cert) == repr(ref_cert)
    return got, cert


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


def record_call_shapes(monkeypatch):
    """Record the shape of every d_inf_many call that cluster makes."""
    shapes = []

    def recording(curves, a, b):
        out = d_inf_many(curves, a, b)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(approximation, "d_inf_many", recording)
    return shapes


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

    def test_dropped_mass_past_the_float_range_is_an_error(self):
        # each dropped length and weight is finite, their product is not
        cm = CurveMeasure.of([(1.0, seg(0.0)), (1e300, Polyline([[0, 0], [1e10, 0]]))])
        with pytest.raises(CurrentError, match="truncated curve-measure mass is not finite: inf"):
            truncate(cm, 2.0)


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
        shapes = record_call_shapes(monkeypatch)
        assert cluster(cm, 0.3, PL) == whole
        # no call measures more than the cap in pairs, unless one row does
        assert all(math.prod(s) <= max(16, s[-1]) for s in shapes)
        assert max(s[0] for s in shapes) > 1
        # the pivot rows and candidate pairs (1-D calls) keep to the cap too
        assert any(len(s) == 1 for s in shapes)
        assert all(s[0] <= 16 for s in shapes if len(s) == 1)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_shuffled_collinear_integer_translates(self, plane):
        # translates by integer multiples of one vector: d(i, j) is exactly
        # r_i + r_j for members on either side of their center
        rng = np.random.Generator(np.random.Philox(key=96))
        for _ in range(4):
            base = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), 2)).astype(float)
            step = rng.integers(-2, 3, size=2).astype(float)
            offsets = rng.permutation(np.arange(-15, 15))
            cm = CurveMeasure.of([(1.0, Polyline(base + k * step, plane)) for k in offsets])
            for eps in (2.5, 7.0, 20.0, 1e9):
                assert_same_clusters(cluster(cm, eps, plane), pairwise_cluster(cm, eps, plane))

    def test_duplicate_curves(self):
        rng = np.random.Generator(np.random.Philox(key=97))
        distinct = [Polyline(rng.uniform(-1.0, 1.0, size=(3, 2))) for _ in range(3)]
        cm = CurveMeasure.of([(1.0, distinct[int(k)]) for k in rng.integers(0, 3, 30)])
        for eps in (1e-6, 0.5, 1e9):
            got = cluster(cm, eps, PL)
            assert_same_clusters(got, pairwise_cluster(cm, eps, PL))
        assert all(c.diameter == 0.0 for c in cluster(cm, 1e-6, PL))

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_single_point_members(self, plane):
        rng = np.random.Generator(np.random.Philox(key=98))
        points = rng.uniform(-1.0, 1.0, size=(40, 2))
        points[20:] = points[rng.integers(0, 20, 20)]  # half of them repeated
        cm = CurveMeasure.of([(1.0, Polyline(p[None, :], plane)) for p in points])
        for eps in (0.3, 1.0, 1e9):
            assert_same_clusters(cluster(cm, eps, plane), pairwise_cluster(cm, eps, plane))

    def test_wmax_plane_with_far_apart_weights(self):
        plane = NormedPlane("wmax", (1e3, 1e-3))
        rng = np.random.Generator(np.random.Philox(key=99))
        for cm in (translates(rng, 60, 2.0, plane), scattered(rng, 40, plane)):
            for eps in (0.05, 1.0, 50.0, 1e9):
                assert_same_clusters(cluster(cm, eps, plane), pairwise_cluster(cm, eps, plane))

    @pytest.mark.parametrize("cap", [currents.CHUNK_SAMPLES, 16])
    def test_one_cluster_of_150_curves(self, monkeypatch, cap):
        rng = np.random.Generator(np.random.Philox(key=100))
        cm = scattered(rng, 150, PL)
        monkeypatch.setattr(currents, "CHUNK_SAMPLES", cap)
        shapes = record_call_shapes(monkeypatch)
        got = cluster(cm, 1e9, PL)
        assert [len(c.members) for c in got] == [150]
        assert_same_clusters(got, pairwise_cluster(cm, 1e9, PL))
        # a block of candidate rows keeps to the cap unless its one row
        # (up to 149 pairs) alone exceeds it
        assert all(s[0] <= max(cap, 149) for s in shapes if len(s) == 1)

    def test_empty_measure(self):
        cm = CurveMeasure(())
        assert cluster(cm, 0.5, PL) == pairwise_cluster(cm, 0.5, PL) == []
        p, cert = approximate(cm, eps=0.5, mesh=0.25)
        assert p.pieces == () and cert.clusters == () and cert.flat_bound == 0.0


class TestNetBlocks:
    """The net places a whole block, opening one extra column per new center."""

    @staticmethod
    def record_calls(monkeypatch):
        """Record (shape of a, shape of b, pairs) of every d_inf_many call."""
        calls = []

        def recording(curves, a, b):
            out = d_inf_many(curves, a, b)
            calls.append((np.shape(a), np.shape(b), out.size))
            return out

        monkeypatch.setattr(approximation, "d_inf_many", recording)
        return calls

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_several_centers_in_one_block(self, plane, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.approximation")
        rng = np.random.Generator(np.random.Philox(key=102))
        cases = []
        for count in (30, 90):
            cm = translates(rng, count, 2.0, plane)
            shuffled = CurveMeasure.of([cm.entries[k] for k in rng.permutation(count)])
            cases += [(m, eps, pairwise_cluster(m, eps, plane))
                      for m in (cm, shuffled) for eps in (0.2, 0.03)]
        calls = self.record_calls(monkeypatch)
        default = currents.CHUNK_SAMPLES
        for cap in (default, 64, 16):
            monkeypatch.setattr(currents, "CHUNK_SAMPLES", cap)
            runs, rounds = [], []
            for cm, eps, ref in cases:
                caplog.clear()
                calls.clear()
                got = cluster(cm, eps, plane)
                assert_same_clusters(got, ref)
                assert caplog.records[0].args["clusters"] == len(got)
                rounds.append(caplog.records[0].args["rounds"])
                # the longest run of extra columns (entries against one center)
                kinds = "".join("c" if b == () else "m" if len(a) == 2 else "d"
                                for a, b, _ in calls)
                runs.append(max(map(len, re.findall("c+", kinds)), default=0))
            assert max(runs) >= 3  # some block opened four centers or more
            if cap == default:  # every family fits in one block
                assert rounds == [1] * len(rounds)
            else:
                assert max(rounds) > 1  # and later blocks meet the centers in a matrix

    def test_extra_columns_keep_to_the_cap(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=103))
        cm = translates(rng, 100, 2.0, PL)
        whole = cluster(cm, 0.05, PL)
        monkeypatch.setattr(currents, "CHUNK_SAMPLES", 16)
        calls = self.record_calls(monkeypatch)
        assert cluster(cm, 0.05, PL) == whole
        columns = [pairs for a, b, pairs in calls if b == ()]  # entries against one center
        matrices = [(a, b) for a, b, _ in calls if len(a) == 2]
        assert len(columns) > 1 and len(matrices) > 1
        assert all(pairs <= 16 for pairs in columns)
        assert all(a[0] * b[0] <= max(16, b[0]) for a, b in matrices)


class TestSharedCurveArray:
    @staticmethod
    def count_builds(monkeypatch):
        """Record (members, plane) of every curve array built, from polylines
        or from flat arrays: both constructors build through ``_build``."""
        built = []
        build = currents.CurveArray._build

        def counting(self, points, cum, counts, length, plane):
            built.append((len(counts), plane))
            build(self, points, cum, counts, length, plane)

        monkeypatch.setattr(currents.CurveArray, "_build", counting)
        return built

    def test_two_approximate_calls_build_one_array(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=105))
        cm = translates(rng, 80, 2.0, PL)
        first = [approximate(cm, eps=eps, mesh=0.25, plane=PL)[1] for eps in (0.4, 0.2)]
        # the measure's array once, and per call one array of its
        # representatives followed by their chords
        chords = [(2 * len(cert.clusters), PL) for cert in first]
        assert len(first[1].clusters) > len(first[0].clusters) > 1
        assert built == [(80, PL)] + chords
        # a fresh measure builds its own array, and the certificates are the same
        again = CurveMeasure(cm.entries)
        assert [approximate(again, eps=eps, mesh=0.25, plane=PL)[1] for eps in (0.4, 0.2)] == first
        assert built == ([(80, PL)] + chords) * 2

    def test_no_chord_polyline_is_built(self, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=108))
        cm = translates(rng, 80, 2.0, PL)
        init, made = Polyline.__init__, []

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polyline, "__init__", counting)
        _, cert = approximate(cm, eps=0.2, mesh=0.25, plane=PL)
        assert len(cert.clusters) > 1 and made == []

    def test_one_array_per_plane(self, monkeypatch):
        built = self.count_builds(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=106))
        cm = scattered(rng, 30, PL)
        for plane in PLANES + PLANES:
            assert cm.curves(plane).plane == plane
            assert_same_clusters(cluster(cm, 0.3, plane), pairwise_cluster(cm, 0.3, plane))
        assert built == [(30, plane) for plane in PLANES]
        cluster(cm, 0.3)  # the default plane is l2
        assert len(built) == len(PLANES)

    @staticmethod
    def chord_arrays(monkeypatch):
        """Capture every curve array built from flat arrays."""
        arrays = []
        from_arrays = currents.CurveArray.from_arrays.__func__

        def capturing(cls, *args):
            arrays.append(from_arrays(cls, *args))
            return arrays[-1]

        monkeypatch.setattr(currents.CurveArray, "from_arrays", classmethod(capturing))
        return arrays

    @staticmethod
    def assert_same_arrays(got, want):
        for name in currents.CurveArray.__slots__:
            a, b = getattr(got, name), getattr(want, name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            else:
                assert type(a) is type(b) and a == b, name

    def assert_chords_from_polylines(self, cm, eps, mesh, plane, arrays):
        """The chord array of one approximate call equals the array of its
        representatives and their chord polylines, field by field."""
        arrays.clear()
        _, cert = approximate(cm, eps=eps, mesh=mesh, plane=plane)
        reps = [cm.entries[cl.representative][1] for cl in cert.clusters]
        part = approximation._uniform_partition(mesh)
        want = currents.CurveArray(reps + [Polyline(p.at(part)) for p in reps], plane)
        assert len(arrays) == 1
        self.assert_same_arrays(arrays[0], want)
        return want

    @pytest.mark.parametrize("plane", PLANES[:3], ids=lambda p: p.tag)
    def test_chord_array_equals_the_polyline_array(self, plane, monkeypatch):
        arrays = self.chord_arrays(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=109))
        for count in (80, 160, 320):  # the bench's approx sizes
            for own in (PL, plane):
                cm = translates(rng, count, 2.0, own)
                for eps in (0.4, 0.2):
                    self.assert_chords_from_polylines(cm, eps, 0.25, plane, arrays)
        # a zero-length representative, and chords whose nodes coincide
        square = Polyline([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], plane)
        back = Polyline([[2, 0], [3, 0], [2, 0], [3, 0], [2, 0]])
        cm = CurveMeasure.of([(1.0, Polyline([[5.0, -0.25]])), (1.0, square), (0.5, back),
                              (2.0, Polyline([[7.0, 1.0], [7.0, 1.0]], plane))])
        for mesh in (1.0, 0.5, 0.25):
            want = self.assert_chords_from_polylines(cm, 0.1, mesh, plane, arrays)
            assert 0.0 in want.length[4:]

    def test_the_array_is_not_part_of_the_value(self):
        rng = np.random.Generator(np.random.Philox(key=107))
        cm = scattered(rng, 10, PL)
        fresh = CurveMeasure(cm.entries)
        cluster(cm, 0.3, PL)
        assert cm == fresh and hash(cm) == hash(fresh)
        assert repr(cm) == repr(fresh)


class TestClusterLog:
    def test_one_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="current1d.approximation")
        rng = np.random.Generator(np.random.Philox(key=101))
        cm = translates(rng, 80, 2.0, PL)
        got = cluster(cm, 0.4, PL)
        assert [r.name for r in caplog.records] == ["current1d.approximation"]
        args = caplog.records[0].args
        assert args["entries"] == 80
        assert args["clusters"] == len(got)
        assert 1 <= args["rounds"] <= 80
        sizes = [len(c.members) for c in got]
        assert args["pairs"] == sum(m * (m - 1) // 2 for m in sizes)
        assert 0 < args["measured"] < args["pairs"]
        assert caplog.records[0].getMessage() == (
            f"cluster: 80 entries, {len(got)} clusters in {args['rounds']} greedy rounds, "
            f"{args['measured']} of {args['pairs']} diameter pairs measured")


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
    def test_curve_measure_rejects_weight(self, bad):
        with pytest.raises(CurrentError, match="curve-measure weights must be positive and finite"):
            CurveMeasure.of([(1.0, seg(0.0)), (bad, seg(1.0))])

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
            assert p.mass() <= induced_mass(cm) + 1e-9
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
            assert p.mass() <= induced_mass(cm) + 1e-9
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


class TestApproximateAgainstReference:
    """The batched pass equals the loop of one interpolation per cluster."""

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_translate_families(self, plane):
        rng = np.random.Generator(np.random.Philox(key=110))
        for count in (20, 80):
            # built in the plane, and built in l2 with lengths then taken in the plane
            for cm in (translates(rng, count, 2.0, plane), translates(rng, count, 2.0, PL)):
                for eps in (0.4, 0.2, 0.05):
                    for mesh in (0.25, 0.3):
                        assert_same_approximation(cm, eps, mesh, plane)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_scattered_families(self, plane):
        rng = np.random.Generator(np.random.Philox(key=111))
        for own in (plane, PL):
            cm = scattered(rng, 40, own)
            for eps in (0.5, 0.1, 1e9):
                for mesh in (1.0, 0.5, 0.1):
                    assert_same_approximation(cm, eps, mesh, plane)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_one_entry_measure(self, plane):
        theta = np.linspace(0.0, math.pi, 9)
        cm = CurveMeasure.of([(1.5, Polyline(np.stack([np.cos(theta), np.sin(theta)], axis=1)))])
        for mesh in (1.0, 0.5, 0.25, 0.07):
            p, cert = assert_same_approximation(cm, 0.1, mesh, plane)
            assert len(p.pieces) == math.ceil(1.0 / mesh) and cert.interpolation_term > 0.0

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_zero_length_curves(self, plane):
        cm = CurveMeasure.of([(1.0, Polyline([[0.5, -0.25]])),
                              (2.0, Polyline([[0.5, -0.25], [0.5, -0.25]])),
                              (0.5, Polyline([[3.0, 1.0], [3.0, 1.0], [3.0, 1.0]]))])
        for eps in (0.1, 1e9):
            p, cert = assert_same_approximation(cm, eps, 0.25, plane)
            assert p.pieces == () and cert.mass_n == 0.0 and cert.interpolation_term == 0.0

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_coinciding_nodes_drop_their_chords(self, plane):
        # a closed square and a path there and back twice: at mesh 1 both
        # lose their one chord, at mesh 0.5 the path loses both of its
        square = Polyline([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]])
        back = Polyline([[2, 0], [3, 0], [2, 0], [3, 0], [2, 0]])
        cm = CurveMeasure.of([(1.0, square), (0.5, back), (2.0, seg(5.0))])
        dropped = []
        for mesh in (1.0, 0.5, 0.25, 0.2):
            p, _ = assert_same_approximation(cm, 0.1, mesh, plane)
            dropped.append(3 * math.ceil(1.0 / mesh) - len(p.pieces))
        assert dropped == [2, 2, 0, 0]

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_signed_zero_vertices(self, plane):
        # nodes on vertices with a coordinate -0.0 keep the sign, as Polyline.at does
        cm = CurveMeasure.of([(1.0, Polyline([[-0.0, 0.0], [1.0, -0.0], [1.0, 1.0], [-0.0, 1.0]])),
                              (1.0, Polyline([[-0.0, -0.0]])),
                              (2.0, Polyline([[4.0, -0.0], [-0.0, -0.0]]))])
        for mesh in (1.0, 0.5):
            p, _ = assert_same_approximation(cm, 0.1, mesh, plane)
            assert "-0.0" in repr(p.pieces)


class TestOverflow:
    """Curves near the float range: distances past it are inf, no numpy
    warning is raised, and a certificate that cannot be finite is an error."""

    @staticmethod
    def vertical(x, own=PL):
        return Polyline([[x, 0.0], [x, 1.0]], own)

    def test_distances_past_the_float_range_are_inf(self):
        a, b = self.vertical(1e308), self.vertical(-1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d_inf(a, b) == d_inf(b, a) == math.inf
            curves = currents.CurveArray([a, b, self.vertical(1.5e308)])
            assert d_inf_many(curves, [0, 1, 2], [1, 2, 0]).tolist() == [math.inf, math.inf, 5e307]

    def test_a_valid_far_pair_runs_without_warnings(self):
        cm = CurveMeasure.of([(1.0, self.vertical(1e308)), (1.0, self.vertical(-1e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, cert = approximate(cm, eps=0.1, mesh=0.25)
        assert len(cert.clusters) == 2 and cert.flat_bound == 0.0
        assert cert.mass_p == cert.mass_n == 2.0 and len(p.pieces) == 8

    def test_an_infinite_mass_raises_before_clustering(self, monkeypatch):
        cm = CurveMeasure.of([(1.0, Polyline([[0, 0], [1e308, 0]])),
                              (1.0, Polyline([[0, 1], [-1e308, 1]]))])
        monkeypatch.setattr(approximation, "cluster", None)  # not reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurrentError, match="^curve-measure mass in the plane is not "
                                                   "finite: inf$"):
                approximate(cm, eps=0.1, mesh=0.25)

    def test_an_infinite_certificate_term_raises(self):
        # one cluster of diameter 1.6e308, so the clustering term overflows
        cm = CurveMeasure.of([(1.0, self.vertical(0.8e308)), (1.0, self.vertical(-0.8e308))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurrentError, match="^approximation certificate is not finite: "
                                                   "clustering term inf"):
                approximate(cm, eps=1.7e308, mesh=0.25)

    def test_a_chord_longer_than_the_float_range_raises(self):
        # 1.6e308 long in linf, but its chords' own lengths are euclidean
        linf = NormedPlane("linf")
        cm = CurveMeasure.of([(1.0, Polyline([[-0.8e308, -0.8e308], [0.8e308, 0.8e308]], linf))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurrentError, match="^polyline points and length must be finite$"):
                approximate(cm, eps=0.1, mesh=0.25, plane=linf)


class TestPlaneLengths:
    """Masses, the length cap and the interpolation term use the plane's norm."""

    @pytest.mark.parametrize("tag, mass, cap", [("l1", 4.0, 2.0), ("linf", 2.0, 1.0)])
    def test_two_diagonal_segments(self, tag, mass, cap):
        # built without a plane, so their own lengths are euclidean (sqrt 2)
        cm = CurveMeasure.of([(1.0, Polyline([[0, 0], [1, 1]])),
                              (1.0, Polyline([[0, 0.01], [1, 1.01]]))])
        p, cert = approximate(cm, eps=0.1, mesh=0.5, plane=NormedPlane(tag))
        assert cert.mass_n == pytest.approx(mass, abs=1e-12)
        assert cert.mass_p == p.mass() == pytest.approx(mass, abs=1e-12)
        assert cert.mass_p <= cert.mass_n
        # one cluster of weight 2 and diameter 0.01 in every norm
        assert cert.clustering_term == pytest.approx(2.0 * (cap + 1.0) * 2.0 * 0.01, abs=1e-12)

    @pytest.mark.parametrize("plane", PLANES, ids=lambda p: p.tag)
    def test_mass_never_increases_in_any_plane(self, plane):
        rng = np.random.Generator(np.random.Philox(key=112))
        for _ in range(20):
            cm = translates(rng, int(rng.integers(2, 30)), 1.0, PL)
            p, cert = approximate(cm, eps=float(rng.uniform(0.05, 1.0)),
                                  mesh=float(rng.uniform(0.1, 0.5)), plane=plane)
            assert cert.mass_n == pytest.approx(
                sum(w * Polyline(c.points, plane).length for w, c in cm.entries), abs=1e-12)
            assert p.mass() <= cert.mass_n + 1e-9

    def test_representative_is_shortest_in_the_plane(self):
        # euclidean lengths 1 and 1.01, l1 lengths 1.414 and 1.01: the
        # diagonal as representative made P heavier than the measure
        cm = CurveMeasure.of([(1.0, Polyline([[0, 0], [0.7071, 0.7071]])),
                              (1.0, Polyline([[0, 0], [1.01, 0]]))])
        p, cert = approximate(cm, eps=1.1, mesh=0.5, plane=NormedPlane("l1"))
        assert [cl.representative for cl in cert.clusters] == [1]
        assert cert.mass_n == pytest.approx(2.4242, abs=1e-12)
        assert cert.mass_p == p.mass() == pytest.approx(2.02, abs=1e-12)

    def test_l2_lengths_are_the_polylines_own(self):
        rng = np.random.Generator(np.random.Philox(key=113))
        cm = scattered(rng, 30, PL)
        _, cert = approximate(cm, eps=0.2, mesh=0.25, plane=PL)
        assert cert.mass_n == induced_mass(cm)
        _, default = approximate(cm, eps=0.2, mesh=0.25)
        assert default == cert
