import json
import logging
import math
import os
import subprocess
import sys

import pytest

from current1d import cli
from current1d.cli import main
from current1d.io import canonical_json, load_chain, load_closedset, load_molecule


@pytest.fixture
def fixtures(tmp_path):
    h = math.sqrt(3) / 2
    paths = {}

    def put(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    put("vdetour.json", {"kind": "graph", "vertices": [[0, 0], [1, 0], [0.5, h]],
                         "edges": [[0, 2, 1.0], [2, 1, 1.0]], "ambient": "euclidean"})
    put("chain.json", {"pieces": [{"start": 0, "end": 2, "weight": 1.0},
                                  {"start": 2, "end": 1, "weight": 1.0}]})
    put("mol.json", {"atoms": [[1, 1.0], [0, -1.0]]})
    put("c0.json", {"polyline": [[0, 0], [1, 0]]})
    put("c1.json", {"polyline": [[0, 1], [1, 1]]})
    put("square.json", {"pieces": [
        {"start": [1.0, 1.0], "end": [2.0, 1.0], "weight": 1.0},
        {"start": [2.0, 1.0], "end": [2.0, 2.0], "weight": 1.0},
        {"start": [2.0, 2.0], "end": [1.0, 2.0], "weight": 1.0},
        {"start": [1.0, 2.0], "end": [1.0, 1.0], "weight": 1.0}]})
    put("cm.json", {"entries": [{"w": 1.0, "polyline": [[0, 0], [1, 0]]},
                                {"w": 1.0, "polyline": [[0, 0.05], [1, 0.05]]}]})
    put("seg.json", {"pieces": [{"start": [0.0, 0.0], "end": [1.0, 0.0],
                                 "weight": 1.0}]})
    put("pathgraph.json", {"kind": "graph", "vertices": [[0, 0], [1, 0], [2, 0]],
                           "edges": [[0, 1, 1.0], [1, 2, 1.0]],
                           "ambient": "euclidean"})
    put("flow.json", {"weights": [1.0, 1.0]})
    put("cantorset.json", {"primitives": [
        {"box": [a, -1.0, b, 1.0]} for a, b in
        [(0.0, 0.375), (0.625, 1.0)]]})
    paths["dir"] = str(tmp_path)
    return paths


def run_cli(args):
    return main(args)


class TestSubcommands:
    def test_iso_check_v_detour(self, fixtures, capsys):
        code = run_cli(["iso-check", "--space", fixtures["vdetour.json"],
                        "--chain", fixtures["chain.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["qc"] == pytest.approx(2.0)
        assert out["lower_ok"] and out["upper_ok"] and out["identity_ok"]

    def test_ae_norm(self, fixtures, capsys):
        code = run_cli(["ae-norm", "--space", fixtures["vdetour.json"],
                        "--molecule", fixtures["mol.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(1.0)
        assert out["duality_ok"] and out["lipschitz_ok"]

    @pytest.mark.parametrize("space, atoms", [
        (None, [[1, 1.0], [0, -1.0]]),
        ({"kind": "plane", "norm": "l1"}, [[[0, 0], -1.0], [[1, 2], 0.5], [[2, 0], 0.5]])])
    def test_ae_norm_lipschitz_check_fails_on_a_steep_potential(
            self, fixtures, capsys, monkeypatch, tmp_path, space, atoms):
        import dataclasses

        import current1d.cli as cli
        space_path = fixtures["vdetour.json"]
        if space is not None:
            space_path = str(tmp_path / "plane.json")
            with open(space_path, "w") as fh:
                json.dump(space, fh)
        mol_path = str(tmp_path / "atoms.json")
        with open(mol_path, "w") as fh:
            json.dump({"atoms": atoms}, fh)
        args = ["ae-norm", "--space", space_path, "--molecule", mol_path]
        assert run_cli(args) == 0
        assert json.loads(capsys.readouterr().out)["lipschitz_ok"]

        real = cli.ae_norm

        def steep(m, metric):
            res = real(m, metric)
            return dataclasses.replace(res, potential={k: 3.0 * v
                                                       for k, v in res.potential.items()})
        monkeypatch.setattr(cli, "ae_norm", steep)
        assert run_cli(args) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["lipschitz_ok"]
        assert out["duality_ok"]

    def test_filling(self, fixtures, capsys):
        code = run_cli(["filling", "--space", fixtures["vdetour.json"],
                        "--molecule", fixtures["mol.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["mass"] == pytest.approx(2.0)
        assert out["identity_ok"] and out["boundary_ok"]

    def test_flatnorm(self, fixtures, capsys):
        code = run_cli(["flatnorm", "--grid", "3,3,1",
                        "--chain", fixtures["square.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] == pytest.approx(1.0)

    def test_flatnorm_needs_no_dense_d2(self, fixtures, capsys, monkeypatch):
        from current1d.flatnorm import CubicalComplex

        args = ["flatnorm", "--grid", "3,3,1", "--chain", fixtures["square.json"]]
        assert run_cli(args) == 0
        report = capsys.readouterr().out

        def no_dense(self):
            raise AssertionError("dense d2_matrix built")
        monkeypatch.setattr(CubicalComplex, "d2_matrix", no_dense)
        assert run_cli(args) == 0
        assert capsys.readouterr().out == report

    def test_homotopy(self, fixtures, capsys):
        code = run_cli(["homotopy", "--curve0", fixtures["c0.json"],
                        "--curve1", fixtures["c1.json"], "--panel-seed", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["cert_s"] == pytest.approx(2.0)
        assert out["bounds_ok"]

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
    def test_homotopy_rejects_bad_quad_tol(self, fixtures, capsys, tol):
        code = run_cli(["homotopy", "--curve0", fixtures["c0.json"],
                        "--curve1", fixtures["c1.json"], f"--quad-tol={tol}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("--quad-tol must be a positive finite number")

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan", "inf"])
    def test_iso_check_rejects_bad_tol(self, fixtures, capsys, tol):
        code = run_cli(["iso-check", "--space", fixtures["vdetour.json"],
                        "--chain", fixtures["chain.json"], f"--tol={tol}"])
        assert code == 1
        assert "--tol" in capsys.readouterr().err

    def test_vertex_piece_off_the_graph_is_input_error(self, fixtures, tmp_path, capsys):
        chain = tmp_path / "offgraph.json"
        chain.write_text(json.dumps({"pieces": [{"start": 0, "end": 1, "weight": 1.0}]}))
        code = run_cli(["iso-check", "--space", fixtures["vdetour.json"],
                        "--chain", str(chain)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GeometryError"
        assert "not an edge" in err["message"]
        # the same piece on the default plane has no graph to look up
        assert run_cli(["flatnorm", "--grid", "4,4,1", "--chain", str(chain)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("chain, needle", [
        ("c0.json", "a polyline lies in the plane"),
        ("seg.json", "coordinate pieces need a plane space")])
    def test_iso_check_chain_in_the_plane_is_input_error(self, fixtures, capsys, chain, needle):
        code = run_cli(["iso-check", "--space", fixtures["vdetour.json"],
                        "--chain", fixtures[chain]])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert needle in err["message"]

    @pytest.mark.parametrize("argv, flag", [
        (["approx", "--input", "cm.json", "--mesh", "1e-300"], "--mesh"),
        (["approx", "--input", "cm.json", "--mesh", "9.9e-6"], "--mesh"),
        (["flatnorm", "--chain", "square.json", "--grid", "100000,100000,1"], "--grid"),
        (["flatnorm", "--chain", "square.json", "--grid", "250001,1,1"], "--grid"),
        (["normalize", "--chain", "seg.json", "--hyperplane", "0,1,0", "--eps", "1e308"],
         "--eps"),
        (["rickman", "--n", "100000"], "--n"), (["rickman", "--n", "1001"], "--n"),
        (["rickman", "--s-grid", "1001"], "--s-grid")])
    def test_sizes_above_their_cap_are_input_errors(self, fixtures, capsys, argv, flag):
        """Each cap is checked before anything of that size is allocated."""
        assert run_cli([fixtures.get(a, a) for a in argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CliInputError"
        assert err["message"].startswith(f"{flag}: ") and "is above the cap" in err["message"]

    @pytest.mark.parametrize("argv, code", [(["--n", "1001"], 1), (["--s-grid", "1001"], 1),
                                            (["--n", "1000", "--s-grid", "1000"], 0)])
    def test_rug_caps_come_before_the_grid(self, capsys, monkeypatch, argv, code):
        """A rickman size above its cap never reaches ``rug_grid``; one at its cap does."""
        calls = []
        monkeypatch.setattr(cli, "rug_grid", lambda **kw: calls.append(kw) or [])
        assert run_cli(["rickman"] + argv) == code
        assert calls == ([] if code else [{"s_count": 1000, "n": 1000, "alpha": 0.5}])

    def test_eps_at_its_cap_is_accepted(self, fixtures, capsys):
        assert run_cli(["normalize", "--chain", fixtures["seg.json"], "--hyperplane", "0,1,0",
                        "--eps", "1e6"]) == 0

    @pytest.mark.parametrize("extra", [["--seed", "1"], ["--tol", "1e-3"]])
    def test_options_nothing_reads_are_rejected(self, capsys, extra):
        assert run_cli(["rickman", "--s-grid", "2"] + extra) == 1

    def test_approx(self, fixtures, capsys):
        code = run_cli(["approx", "--input", fixtures["cm.json"],
                        "--eps", "0.1", "--mesh", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["clustering_term"] == pytest.approx(0.4)
        assert out["mass_ok"]

    @pytest.mark.parametrize("flag", ["--eps", "--mesh", "--length-cap"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_approx_rejects_bad_parameters(self, fixtures, capsys, flag, value):
        code = run_cli(["approx", "--input", fixtures["cm.json"], f"{flag}={value}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith(f"{flag} must be a positive finite number")

    @pytest.mark.parametrize("missing", ["w", "polyline"])
    def test_approx_entry_without_a_key_is_input_error(self, tmp_path, capsys, missing):
        entry = {"w": 1.0, "polyline": [[0, 0], [1, 0]]}
        del entry[missing]
        doc = tmp_path / "cm.json"
        doc.write_text(json.dumps({"entries": [entry]}))
        assert run_cli(["approx", "--input", str(doc)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert repr(missing) in err["message"]

    @pytest.mark.parametrize("weight", ["NaN", "Infinity", '"inf"', "0", "-1"])
    def test_approx_rejects_bad_curve_weight(self, tmp_path, capsys, weight):
        doc = tmp_path / "cm.json"
        doc.write_text('{"entries": [{"w": %s, "polyline": [[0, 0], [1, 0]]}]}' % weight)
        assert run_cli(["approx", "--input", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert "curve-measure weights must be positive and finite" in err["message"]

    @pytest.mark.parametrize("point", ['"inf"', '"-inf"', "NaN", "Infinity"])
    def test_approx_rejects_a_non_finite_point(self, tmp_path, capsys, point):
        doc = tmp_path / "cm.json"
        doc.write_text('{"entries": [{"w": 1.0, "polyline": [[%s, 0], [1, 0]]}, '
                       '{"w": 1.0, "polyline": [[0, 0.05], [1, 0.05]]}]}' % point)
        assert run_cli(["approx", "--input", str(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        value = float(json.loads(point) if point.startswith('"') else point.lower())
        assert json.loads(captured.err) == {
            "error": "InputError",
            "message": f"a point of a curve-measure polyline must be finite: [{value!r}, 0.0]"}

    def test_approx_on_infinite_points_writes_only_the_error(self, tmp_path):
        # inf - inf along the polyline would be a numpy warning ahead of the report
        doc = tmp_path / "cm.json"
        doc.write_text('{"entries": [{"w": 1.0, "polyline": [["inf", 0], ["inf", 1]]}]}')
        proc = subprocess.run([sys.executable, "-m", "current1d.cli", "approx", "--input",
                               str(doc)], capture_output=True, text=True,
                              env=dict(os.environ, CURRENT1D_LOG="off"))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {
            "error": "InputError",
            "message": "a point of a curve-measure polyline must be finite: [inf, 0.0]"}

    def test_approx_on_an_overflowing_segment_writes_only_the_error(self, tmp_path):
        # finite points whose difference overflows: numpy must not warn ahead of the report
        doc = tmp_path / "cm.json"
        doc.write_text('{"entries": [{"w": 1.0, "polyline": [[1e308, 0], [-1e308, 0]]}]}')
        proc = subprocess.run([sys.executable, "-m", "current1d.cli", "approx", "--input",
                               str(doc)], capture_output=True, text=True,
                              env=dict(os.environ, CURRENT1D_LOG="off"))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert json.loads(proc.stderr) == {
            "error": "CurrentError", "message": "polyline points and length must be finite"}

    def test_ae_norm_names_the_violating_triple(self, fixtures, tmp_path, capsys):
        space = tmp_path / "finite.json"
        space.write_text(json.dumps({"kind": "finite", "points": ["a", "b", "c"],
                                     "dist": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}))
        assert run_cli(["ae-norm", "--space", str(space), "--molecule", fixtures["mol.json"]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "GeometryError",
            "message": "triangle inequality violated beyond 1e-9: d(0,2) = 5 > d(0,1) + d(1,2) = 2"}

    def test_normalize(self, fixtures, capsys):
        code = run_cli(["normalize", "--chain", fixtures["seg.json"],
                        "--hyperplane", "0,1,0", "--eps", "0.1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"]
        assert out["mass_ratio"] <= 2.1 + 1e-9

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_normalize_rejects_bad_eps(self, fixtures, capsys, value):
        code = run_cli(["normalize", "--chain", fixtures["seg.json"],
                        "--hyperplane", "0,1,0", f"--eps={value}"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("--eps must be a positive finite number")

    def test_decompose(self, fixtures, capsys):
        code = run_cli(["decompose", "--space", fixtures["pathgraph.json"],
                        "--flow", fixtures["flow.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["paths"] == [[1.0, [0, 1, 2]]]

    def test_fragments(self, fixtures, capsys):
        code = run_cli(["fragments", "--space", fixtures["pathgraph.json"],
                        "--flow", fixtures["flow.json"],
                        "--closedset", fixtures["cantorset.json"]])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"]

    def test_rickman_rows(self, fixtures, capsys):
        code = run_cli(["rickman", "--s-grid", "8", "--n", "16"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["rows"]) == 8
        assert all(abs(r["ae_intrinsic"] - 2.0) <= 1e-6 for r in out["rows"])

    def test_rickman_csv(self, fixtures, capsys):
        code = run_cli(["rickman", "--s-grid", "4", "--n", "8",
                        "--format", "csv"])
        text = capsys.readouterr().out
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "s,ae_intrinsic,ae_ambient,mass,qc"
        assert len(lines) == 5


class TestMalformedValues:
    """Malformed coordinates and primitive arities exit 1 with an InputError."""

    def expect_input_error(self, capsys, args, needle):
        assert run_cli(args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert needle in err["message"]

    def test_planar_piece_with_one_coordinate(self, tmp_path, capsys):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"pieces": [
            {"start": [0.0], "end": [1.0, 0.0], "weight": 1.0}]}))
        self.expect_input_error(capsys, ["flatnorm", "--grid", "4,4,1", "--chain", str(chain)],
                                "a piece start must be a list of 2 numbers")

    def test_curve_measure_point_that_is_not_a_number(self, tmp_path, capsys):
        cm = tmp_path / "cm.json"
        cm.write_text(json.dumps({"entries": [{"w": 1.0, "polyline": [[0, 0], [0, "a"]]}]}))
        self.expect_input_error(capsys, ["approx", "--input", str(cm)],
                                "must be a list of 2 numbers: [0, 'a']")

    def test_box_with_two_numbers(self, fixtures, tmp_path, capsys):
        cs = tmp_path / "cs.json"
        cs.write_text(json.dumps({"primitives": [{"box": [0, 1]}]}))
        self.expect_input_error(capsys, ["fragments", "--space", fixtures["pathgraph.json"],
                                         "--flow", fixtures["flow.json"],
                                         "--closedset", str(cs)],
                                "a box must be a list of 4 numbers")

    @pytest.mark.parametrize("prim", [
        '{"ball": [5, 5, NaN]}', '{"ball": [5, 5, -3]}', '{"slab": [0, 1, 5, -Infinity]}',
        '{"halfplane": [NaN, 1, 2]}', '{"box": [2, 0, 1, 10]}', '{"box": [0, 3, 1, 2]}',
        '{"slab": [0, 1, 5, 3]}', '{"box": [0, 0, Infinity, 1]}'])
    def test_closed_set_primitive_with_impossible_bounds(self, fixtures, tmp_path, capsys, prim):
        cs = tmp_path / "cs.json"
        cs.write_text('{"primitives": [{"ball": [0, 0, 1]}, %s]}' % prim)
        self.expect_input_error(capsys, ["fragments", "--space", fixtures["pathgraph.json"],
                                         "--flow", fixtures["flow.json"],
                                         "--closedset", str(cs)],
                                "closed-set primitive 1 must be finite numbers")

    def test_molecule_point_of_the_wrong_length(self, fixtures, tmp_path, capsys):
        mol = tmp_path / "mol.json"
        mol.write_text(json.dumps({"atoms": [[[0.0, 0.0, 1.0], 1.0], [[1.0, 0.0], -1.0]]}))
        plane = tmp_path / "plane.json"
        plane.write_text(json.dumps({"kind": "plane", "norm": "l2"}))
        self.expect_input_error(capsys, ["ae-norm", "--space", str(plane),
                                         "--molecule", str(mol)],
                                "a molecule point must be a list of 2 numbers")

    @pytest.mark.parametrize("piece, command, needle", [
        ('"start": [NaN, 0], "end": [2, 0], "weight": 1', "flatnorm", "finite ends"),
        ('"start": [Infinity, 0], "end": [2, 0], "weight": 1', "flatnorm", "finite ends"),
        ('"start": [1, 0], "end": [2, 0], "weight": 1, "length": NaN', "flatnorm",
         "a finite weight and length"),
        ('"start": [1, 0], "end": [2, 0], "weight": 1, "length": NaN', "normalize",
         "a finite weight and length"),
        ('"start": [1, 0], "end": [2, 0], "weight": -Infinity', "flatnorm",
         "a finite weight and length"),
    ], ids=["nan-start", "inf-start", "nan-length", "nan-length-normalize", "inf-weight"])
    def test_non_finite_piece_is_input_error(self, tmp_path, capsys, piece, command, needle):
        chain = tmp_path / "chain.json"
        chain.write_text('{"pieces": [{"start": [0, 0], "end": [1, 0], "weight": 1}, {%s}]}'
                         % piece)
        extra = (["--grid", "3,3,1"] if command == "flatnorm"
                 else ["--hyperplane", "0,1,0", "--eps", "0.1"])
        assert run_cli([command, "--chain", str(chain)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "InputError"
        assert err["message"].startswith(f"piece 1 must have {needle}: {{'start': ")

    @pytest.mark.parametrize("doc_name, doc, argv, needle", [
        ("mol.json", {"atoms": [[[0, 0], "a"], [[1, 0], -1.0]]},
         ["ae-norm", "--space", "vdetour.json", "--molecule", "mol.json"],
         "a molecule weight must be a number: 'a'"),
        ("mol.json", {"atoms": [["x", 1.0], [1, -1.0]]},
         ["ae-norm", "--space", "vdetour.json", "--molecule", "mol.json"],
         "a molecule vertex must be a number: 'x'"),
        ("space.json", {"kind": "graph", "vertices": [[0, 0], [1, 0]], "edges": [[0, 1, "z"]]},
         ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "a graph edge must be a list of 3 numbers: [0, 1, 'z']"),
        ("space.json", {"kind": "graph", "vertices": [[0, "a"], [1, 0]], "edges": [[0, 1, 1.0]]},
         ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "a graph vertex must be a list of 2 numbers: [0, 'a']"),
        ("space.json", {"kind": "finite", "points": ["a", "b"], "dist": [[0, "q"], ["q", 0]]},
         ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "a finite-space distance must be a number: 'q'"),
        ("chain.json", {"pieces": [{"start": [0, 0], "end": [1, 0], "weight": "w"}]},
         ["flatnorm", "--grid", "4,4,1", "--chain", "chain.json"],
         "a piece weight must be a number: 'w'"),
        ("cm.json", {"entries": [{"w": "x", "polyline": [[0, 0], [1, 0]]}]},
         ["approx", "--input", "cm.json"],
         "a curve weight must be a number: 'x'"),
        ("flow.json", {"weights": [1.0, "y"]},
         ["decompose", "--space", "pathgraph.json", "--flow", "flow.json"],
         "the weights of a flow must be a list of 2 numbers: [1.0, 'y']"),
    ], ids=["molecule-weight", "molecule-vertex", "graph-edge", "graph-vertex", "finite-distance",
            "piece-weight", "curve-measure-weight", "flow-weight"])
    def test_scalar_that_is_not_a_number(self, fixtures, tmp_path, capsys,
                                         doc_name, doc, argv, needle):
        (tmp_path / doc_name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        self.expect_input_error(capsys, argv, needle)

    @pytest.mark.parametrize("doc_name, doc, argv, needle", [
        ("space.json", [1, 2], ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "a space must be a JSON object, not list"),
        ("space.json", {"kind": "finite", "points": ["a", "b"], "dist": 5},
         ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "the 'dist' of a finite space must be a list, not int"),
        ("space.json", {"kind": "finite", "points": ["a", "b"], "dist": [[0, 1], 1]},
         ["ae-norm", "--space", "space.json", "--molecule", "mol.json"],
         "the 'dist' of a finite space must be a square list of lists"),
        ("chain.json", [1, 2], ["flatnorm", "--grid", "3,3,1", "--chain", "chain.json"],
         "a chain must be a JSON object, not list"),
        ("mol.json", [1, 2], ["ae-norm", "--space", "vdetour.json", "--molecule", "mol.json"],
         "a molecule must be a JSON object, not list"),
        ("flow.json", "w", ["decompose", "--space", "pathgraph.json", "--flow", "flow.json"],
         "a flow must be a JSON object, not str"),
        ("cs.json", {"primitives": ["box"]},
         ["fragments", "--space", "pathgraph.json", "--flow", "flow.json", "--closedset",
          "cs.json"], "a closed-set primitive must be a JSON object, not str"),
        ("cm.json", {"entries": 3}, ["approx", "--input", "cm.json"],
         "the 'entries' of a curve measure must be a list, not int"),
    ], ids=["space", "finite-dist-scalar", "finite-dist-ragged", "chain", "molecule", "flow",
            "closedset", "curve-measure"])
    def test_document_of_the_wrong_type(self, fixtures, tmp_path, capsys,
                                        doc_name, doc, argv, needle):
        (tmp_path / doc_name).write_text(json.dumps(doc))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        self.expect_input_error(capsys, argv, needle)

    @pytest.mark.parametrize("atoms, needle", [
        ([[1.5, 1], [0, -1]], "a molecule vertex must be an integer: 1.5"),
        ([["1", 1], [0, -1]], "a molecule vertex must be a number: '1'"),
        ([[True, 1], [0, -1]], "a molecule vertex must be an integer: True"),
        ([[1, math.inf], [0, -math.inf]], "molecule weights must be finite, not [inf, -inf]"),
        ([[1, math.nan], [0, math.nan]], "molecule weights must be finite, not [nan, nan]"),
    ], ids=["float-vertex", "string-vertex", "bool-vertex", "infinite-weight", "nan-weight"])
    def test_molecule_atom_on_a_finite_space(self, tmp_path, capsys, atoms, needle):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"kind": "finite", "points": ["a", "b"],
                                     "dist": [[0, 1], [1, 0]]}))
        mol = tmp_path / "mol.json"
        mol.write_text(json.dumps({"atoms": atoms}))
        self.expect_input_error(capsys, ["ae-norm", "--space", str(space),
                                         "--molecule", str(mol)], needle)

    @pytest.mark.parametrize("vertices, edges, needle", [
        ([[0, 0], [1, 0], [2, 0]], [[0, 1.5, 1.0], [1, 2, 1.0]],
         "a graph edge end must be an integer: 1.5"),
        ([[0, 0], [1, 0]], [[0, 1, 1.0], [0, 1, 2.0]],
         "bad graph: edge 1 = (0,1) joins the same vertices as edge 0"),
        ([[0, 0], [1, 0]], [[0, 1, 1.0], [1, 1, 1.0]], "bad graph: edge 1 = (1,1) is a self-loop"),
        ([[0, 0], [1, 0]], [[0, 1, math.inf]],
         "bad graph: edge (0,1) needs a positive finite length, not inf"),
    ], ids=["fractional-end", "parallel-edges", "self-loop", "infinite-length"])
    def test_graph_edge_that_is_not_a_simple_edge(self, fixtures, tmp_path, capsys,
                                                  vertices, edges, needle):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"kind": "graph", "vertices": vertices, "edges": edges,
                                     "ambient": "euclidean"}))
        self.expect_input_error(capsys, ["filling", "--space", str(space),
                                         "--molecule", fixtures["mol.json"]], needle)


class TestErrorHandling:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(["definitely-not-a-command"]) == 1

    @pytest.mark.parametrize("key", [-1, 5], ids=["negative", "past-the-end"])
    def test_atom_key_outside_a_finite_space_exits_one(self, tmp_path, capsys, key):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"kind": "finite", "points": ["a", "b"],
                                     "dist": [[0, 1], [1, 0]]}))
        mol = tmp_path / "mol.json"
        mol.write_text(json.dumps({"atoms": [[key, 1], [0, -1]]}))
        assert run_cli(["ae-norm", "--space", str(space), "--molecule", str(mol)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "TransportError"
        assert f"molecule atom {key} is not a point of the space" in err["message"]

    def test_no_subcommand_exits_one(self, capsys):
        assert run_cli([]) == 1

    def test_missing_file(self, capsys):
        code = run_cli(["ae-norm", "--space", "/nonexistent.json",
                        "--molecule", "/nonexistent.json"])
        assert code == 1
        assert "no such file" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "graph",\n  broken')
        code = run_cli(["ae-norm", "--space", str(bad),
                        "--molecule", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_config_keys_rejected(self, tmp_path, fixtures, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"surprise": 1}')
        code = run_cli(["--config", str(cfg), "rickman", "--s-grid", "2"])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_keys_of_other_subcommands_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tol": -5, "quad_tol": "x"}')
        code = run_cli(["--config", str(cfg), "rickman", "--s-grid", "2"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "unknown config keys: ['quad_tol', 'tol']"

    def test_config_fills_the_subcommand_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"s_grid": 3, "n": 8}')
        assert run_cli(["--config", str(cfg), "rickman"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 3

    def test_normalize_of_a_graph_chain_exits_one(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({
            "space": {"kind": "graph", "vertices": [[0, 0], [1, 0], [1, 1]],
                      "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
            "pieces": [{"start": 0, "end": 1, "weight": 1.0}]}))
        assert run_cli(["normalize", "--chain", str(chain), "--hyperplane", "0,1,0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "StructureError",
                                            "message": "normalize needs a chain on a normed plane"}

    def test_a_ball_whose_radius_squared_overflows_holds_the_flow(self, tmp_path, capsys):
        space, flow, ball = (tmp_path / name for name in ("g.json", "flow.json", "e.json"))
        space.write_text(json.dumps({"kind": "graph", "vertices": [[0, 0], [1, 0], [1, 1]],
                                     "edges": [[0, 1, 1.0], [1, 2, 1.0]]}))
        flow.write_text(json.dumps({"weights": [1.0, 1.0]}))
        ball.write_text(json.dumps({"primitives": [{"ball": [0, 0, 1e308]}]}))
        assert run_cli(["fragments", "--space", str(space), "--flow", str(flow),
                        "--closedset", str(ball)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["restricted_mass"] == 2 and out["mass_identity_residual"] == 0 and out["ok"]

    def test_a_ball_meets_an_edge_whose_squares_overflow(self, tmp_path, capsys):
        space, flow, ball = (tmp_path / name for name in ("g.json", "flow.json", "e.json"))
        space.write_text(json.dumps({"kind": "graph", "vertices": [[-1e200, 0], [1e200, 0]],
                                     "edges": [[0, 1, 2e200]]}))
        flow.write_text(json.dumps({"weights": [1.0]}))
        ball.write_text(json.dumps({"primitives": [{"ball": [0, 0, 5e199]}]}))
        assert run_cli(["fragments", "--space", str(space), "--flow", str(flow),
                        "--closedset", str(ball)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["restricted_mass"] == 1e200 and out["mass_identity_residual"] == 0
        assert out["curves"][0]["fragment_mass"] == 1e200 and out["ok"]

    def test_a_flat_norm_that_overflows_exits_one(self, tmp_path, capsys):
        chain = tmp_path / "c.json"
        chain.write_text(json.dumps({"pieces": [
            {"start": [0, 0], "end": [1, 0], "weight": 1e308},
            {"start": [1, 0], "end": [2, 0], "weight": 1e308}]}))
        assert run_cli(["flatnorm", "--grid", "2,2,1", "--chain", str(chain)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "SolverError" and "duality gap" in err["message"]

    def test_ae_norm_of_vertices_in_a_plane_exits_one(self, capsys):
        golden = os.path.join(os.path.dirname(__file__), "golden")
        assert run_cli(["ae-norm", "--space", os.path.join(golden, "plane_l2.json"),
                        "--molecule", os.path.join(golden, "mol_graph.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err == {"error": "TransportError",
                       "message": "molecule atom 0 is not a point of the plane"}

    def test_infeasible_molecule_is_input_error(self, tmp_path, fixtures, capsys):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                   "edges": [], "ambient": "path"}))
        mol = tmp_path / "m.json"
        mol.write_text(json.dumps({"atoms": [[0, 1.0], [1, -1.0]]}))
        code = run_cli(["filling", "--space", str(iso), "--molecule", str(mol)])
        assert code == 1


class TestFlagValidation:
    """Numeric flags are checked after the config merge: a bad value exits 1
    with a JSON error, given as a flag or, for an optional flag, through --config."""

    def expect_rejected(self, capsys, tmp_path, argv, key, value):
        flag = "--" + key.replace("_", "-")
        assert run_cli(argv + [f"{flag}={value}"]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
        if key in ("grid", "hyperplane"):
            return  # required flags cannot come from the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli(["--config", str(cfg)] + argv) == 1
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["3,3,nan", "3,3,inf", "3,3,0", "0,3,1", "3,3", "3,x,1"])
    def test_grid(self, fixtures, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["flatnorm", "--chain", fixtures["square.json"]],
                             "grid", value)

    @pytest.mark.parametrize("value", ["1", "1,x", "1,nan", "inf,0", "1,2,3"])
    def test_origin(self, fixtures, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["flatnorm", "--grid", "3,3,1", "--chain",
                                                fixtures["square.json"]], "origin", value)

    @pytest.mark.parametrize("value", ["0,1", "0,1,nan", "inf,1,0", "0,x,0"])
    def test_hyperplane(self, fixtures, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["normalize", "--chain", fixtures["seg.json"]],
                             "hyperplane", value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_s_grid(self, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["rickman", "--n", "4"], "s_grid", value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_n(self, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["rickman", "--s-grid", "2"], "n", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -0.5, 1.5])
    def test_alpha(self, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["rickman", "--s-grid", "2", "--n", "4"],
                             "alpha", value)

    @pytest.mark.parametrize("value", [-1, 2 ** 128])
    def test_panel_seed(self, fixtures, tmp_path, capsys, value):
        self.expect_rejected(capsys, tmp_path, ["homotopy", "--curve0", fixtures["c0.json"],
                                                "--curve1", fixtures["c1.json"]],
                             "panel_seed", value)

    @pytest.mark.parametrize("value", [1.5, "7", True])
    def test_config_panel_seed_must_be_an_integer(self, fixtures, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"panel_seed": value}))
        assert run_cli(["--config", str(cfg), "homotopy", "--curve0", fixtures["c0.json"],
                        "--curve1", fixtures["c1.json"]]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("--panel-seed must be an integer in [0, 2^128)")

    @pytest.mark.parametrize("key, argv", [
        ("s_grid", ["rickman", "--n", "4"]), ("n", ["rickman", "--s-grid", "2"]),
        ("alpha", ["rickman", "--s-grid", "2", "--n", "4"]),
        ("eps", ["approx", "--input", "cm.json"]), ("mesh", ["approx", "--input", "cm.json"]),
        ("length_cap", ["approx", "--input", "cm.json"]),
        ("eps", ["normalize", "--chain", "seg.json", "--hyperplane", "0,1,0"]),
        ("tol", ["iso-check", "--space", "vdetour.json", "--chain", "chain.json"]),
        ("quad_tol", ["homotopy", "--curve0", "c0.json", "--curve1", "c1.json"]),
        ("panel_seed", ["homotopy", "--curve0", "c0.json", "--curve1", "c1.json"])])
    def test_config_booleans_are_not_numbers(self, fixtures, tmp_path, capsys, key, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: True}))
        argv = [fixtures.get(a, a) for a in argv]
        assert run_cli(["--config", str(cfg)] + argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("--" + key.replace("_", "-") + " must be")

    def test_config_sizes_must_be_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 2.5}')
        assert run_cli(["--config", str(cfg), "rickman", "--s-grid", "2"]) == 1
        assert "--n must be a positive integer" in capsys.readouterr().err

    def test_format_only_where_a_csv_form_exists(self, fixtures, capsys):
        assert run_cli(["ae-norm", "--space", fixtures["vdetour.json"],
                        "--molecule", fixtures["mol.json"], "--format", "csv"]) == 1


class TestDeterminism:
    def test_reports_byte_identical(self, fixtures, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            run_cli(["iso-check", "--space", fixtures["vdetour.json"],
                     "--chain", fixtures["chain.json"], "--out", str(out)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_documents(self, fixtures):
        for name, loader in (("mol.json", load_molecule),
                             ("seg.json", load_chain),
                             ("cantorset.json", load_closedset)):
            doc = json.loads(open(fixtures[name]).read())
            obj = loader(doc)
            assert obj is not None

    def test_canonical_json_17_digits(self):
        text = canonical_json({"x": 1.0 / 3.0, "flag": True, "n": 3})
        assert "0.33333333333333331" in text
        reparsed = json.loads(text)
        assert reparsed["x"] == 1.0 / 3.0

    def test_console_entry_point(self, fixtures):
        env = dict(os.environ, CURRENT1D_LOG="off")
        proc = subprocess.run(
            [sys.executable, "-m", "current1d.cli", "rickman", "--s-grid", "2",
             "--n", "4"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["lower_bound_ok"]


class TestLogging:
    def test_main_leaves_other_loggers_enabled(self, fixtures, caplog, capsys, monkeypatch):
        monkeypatch.delenv("CURRENT1D_LOG", raising=False)
        assert run_cli(["flatnorm", "--grid", "3,3,1",
                        "--chain", fixtures["square.json"]]) == 0
        capsys.readouterr()
        logging.getLogger("current1d.solvers").warning("package record")
        logging.getLogger("elsewhere").warning("other record")
        assert [r.getMessage() for r in caplog.records] == ["other record"]


class TestSuiteAggregation:
    def test_suite_exit_codes(self, monkeypatch, capsys):
        from current1d.suite import CriterionResult

        def fake_all(verbose=True):
            return [CriterionResult(1, "a", True, 0.0),
                    CriterionResult(2, "b", False, 0.0)]

        import current1d.suite
        monkeypatch.setattr(current1d.suite, "run_all", fake_all)
        assert run_cli(["suite"]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["passed"] == 1 and out["failed"] == 1
        assert "seconds" not in json.dumps(out)

    def test_suite_all_green_exits_zero(self, monkeypatch, capsys):
        from current1d.suite import CriterionResult
        import current1d.suite
        monkeypatch.setattr(current1d.suite, "run_all",
                            lambda verbose=True: [CriterionResult(1, "a", True, 0.0)])
        assert run_cli(["suite"]) == 0
        capsys.readouterr()
