import json
import logging
import math
import os
import subprocess
import sys

import pytest

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

    def test_normalize(self, fixtures, capsys):
        code = run_cli(["normalize", "--chain", fixtures["seg.json"],
                        "--hyperplane", "0,1,0", "--eps", "0.1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"]
        assert out["mass_ratio"] <= 2.1 + 1e-9

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


class TestErrorHandling:
    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(["definitely-not-a-command"]) == 1

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

    def test_infeasible_molecule_is_input_error(self, tmp_path, fixtures, capsys):
        iso = tmp_path / "iso.json"
        iso.write_text(json.dumps({"kind": "graph", "vertices": ["a", "b"],
                                   "edges": [], "ambient": "path"}))
        mol = tmp_path / "m.json"
        mol.write_text(json.dumps({"atoms": [[0, 1.0], [1, -1.0]]}))
        code = run_cli(["filling", "--space", str(iso), "--molecule", str(mol)])
        assert code == 1


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
