import json
import math

import numpy as np
import pytest

from current1d import Chain1, ClosedSet, Molecule, NormedPlane, Polyline, Slab
from current1d.approximation import CurveMeasure
from current1d.io import (InputError, canonical_json, dump_chain, dump_closedset,
                          dump_curvemeasure, dump_molecule, fmt_float,
                          load_chain, load_closedset, load_curvemeasure,
                          load_molecule, load_space, csv_rows)

PL = NormedPlane("l2")


class TestCanonicalJson:
    def test_sorted_keys_and_17_digits(self):
        text = canonical_json({"b": math.pi, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "3.1415926535897931" in text

    def test_round_trip_equality(self):
        doc = {"x": [1.0, 0.1, 1e-17], "y": {"z": -2.5}, "s": "txt", "t": True}
        reparsed = json.loads(canonical_json(doc))
        assert reparsed == doc

    def test_inf_and_nan_encoded_as_strings(self):
        assert fmt_float(math.inf) == '"inf"'
        assert fmt_float(-math.inf) == '"-inf"'
        assert fmt_float(math.nan) == '"nan"'

    def test_numpy_scalars(self):
        text = canonical_json({"v": np.float64(0.5), "n": np.int64(3)})
        assert json.loads(text) == {"v": 0.5, "n": 3}


class TestDocumentRoundTrips:
    def test_molecule(self):
        m = Molecule([((0.5, 0.25), 1.0), ((1.0, -1.0), -1.0)])
        assert load_molecule(dump_molecule(m)) == m

    def test_graph_molecule(self):
        m = Molecule([(0, 2.0), (3, -2.0)])
        assert load_molecule(dump_molecule(m)) == m

    def test_chain(self):
        c = Chain1.from_segments(PL, [((0.0, 0.0), (1.0, 2.0), -1.5)])
        c2 = load_chain(dump_chain(c))
        assert c2.pieces == c.pieces

    def test_closedset(self):
        e = ClosedSet.of(Slab(0.0, 1.0, 0.0, 0.0))
        e2 = load_closedset(dump_closedset(e))
        assert e2 == e

    def test_curvemeasure(self):
        cm = CurveMeasure.of([(1.5, Polyline([[0, 0], [1, 0], [1, 1]]))])
        cm2 = load_curvemeasure(dump_curvemeasure(cm))
        assert cm2.entries[0][0] == 1.5
        assert np.array_equal(cm2.entries[0][1].points, cm.entries[0][1].points)

    def test_polyline_chain_document(self):
        poly = load_chain({"polyline": [[0, 0], [2, 0]]})
        assert isinstance(poly, Polyline)
        assert poly.length == 2.0


class TestMissingKeys:
    @pytest.mark.parametrize("load, doc", [
        (load_curvemeasure, {}),
        (load_curvemeasure, {"entries": [{"weight": 1, "points": [[0, 0], [1, 0]]}]}),
        (load_curvemeasure, {"entries": [{"w": 1}]}),
        (load_curvemeasure, {"entries": [[1, [[0, 0], [1, 0]]]]}),
        (load_molecule, {"points": []}),
        (load_molecule, {"atoms": [[0, 1.0, 2.0]]}),
        (load_chain, {"pieces": [{"start": [0, 0], "end": [1, 0]}]}),
        (load_closedset, {"prims": []}),
        (load_space, {"kind": "finite", "points": [0, 1]}),
        (load_space, {"kind": "graph", "vertices": [[0, 0]]}),
        (load_space, {"kind": "graph", "vertices": [[0, 0]], "edges": [],
                      "ambient": {"alpha": 0.5}}),
    ])
    def test_input_error(self, load, doc):
        with pytest.raises(InputError):
            load(doc)


class TestCsv:
    def test_deterministic_rows(self):
        rows = [{"a": 1.0 / 3.0, "b": "x"}, {"a": 2.0, "b": "y"}]
        text = csv_rows(rows, ["a", "b"])
        assert text.splitlines()[0] == "a,b"
        assert "0.33333333333333331" in text
