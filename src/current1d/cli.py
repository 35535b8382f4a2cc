"""Batch front-end: subcommand dispatch, JSON/CSV I/O, deterministic reports.

Exit codes: 0 success, 1 input error, 2 invariant violation. Reports are
byte-identical across runs with identical configuration; every fuzzed report
embeds its seed. Logging level comes from CURRENT1D_LOG in {off, info, debug}.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import io as cio
from .approximation import approximate, truncate
from .currents import Chain1, CurrentError, Polyline, standard_panel
from .decomposition import decompose_flow, fragment_representation
from .flatnorm import CubicalComplex, GridError, check_flat, flat_norm, snap
from .homotopy import AffineBicombing, check_fill, homotopy_fill
from .quadrature import QUAD_TOL
from .rickman import rug_grid
from .spaces import GeometryError, MetricGraph, NormedPlane
from .solvers import Infeasible, IterationLimit, SolverError
from .structure import Line, StructureError, normalize
from .transport import (IDENT_TOL, TransportError, ae_norm, check_ae, isomorphism_check,
                        minimal_filling)

log = logging.getLogger("current1d")

class CliInputError(ValueError):
    pass


_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO}


def _setup_logging():
    """Set the level of the package logger only; other loggers are untouched."""
    level = _LOG_LEVELS.get(os.environ.get("CURRENT1D_LOG", "off").lower())
    if level is None:
        log.setLevel(logging.CRITICAL + 1)
    else:
        logging.basicConfig()
        log.setLevel(level)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise CliInputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _emit(args, report, rows=None, columns=None) -> None:
    """Write the report, or its rows under ``--format csv``, to --out or stdout."""
    csv = getattr(args, "format", "json") == "csv"
    text = cio.csv_rows(rows, columns) if csv else cio.dump_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_WANT = {  # what a numeric flag may be, and its test
    "a positive finite number": lambda v: math.isfinite(v) and v > 0,
    "a positive integer": lambda v: isinstance(v, int) and v > 0,
    "an integer in [0, 2^128)": lambda v: isinstance(v, int) and 0 <= v < 2 ** 128,
    "in (0, 1]": lambda v: 0 < v <= 1,
}


def _flag(flag: str, value, default, want: str = "a positive finite number"):
    """The value of a numeric flag: ``default`` when unset, else a number (not a
    bool) that is ``want``."""
    value = default if value is None else value
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and _WANT[want](value)):
        raise CliInputError(f"{flag} must be {want}: {value!r}")
    return value


# size caps, checked before anything is allocated (docs/formats.md)
MAX_CURVE_CELLS = 10 ** 5  # approx: ceil(1 / mesh) cells, one more node, per curve
MAX_GRID_CELLS = 250_000  # flatnorm: nx * ny faces
MAX_NORMALIZE_EPS = 1e6  # normalize: a tent rises about eps / 2 times its base
MAX_RUG_N = 1000  # rickman: segments per line; each graph keeps (2n + 2)^2 distances
MAX_RUG_ROWS = 1000  # rickman: --s-grid rows, one graph each


def _capped(flag: str, size: float, cap: float, what: str) -> None:
    """Reject a flag that asks for more ``what`` than ``cap``."""
    if size > cap:
        raise CliInputError(f"{flag}: {what} = {size:g} is above the cap {cap:g}")


def _reals(flag: str, text, want: str) -> list[float]:
    """A comma-separated flag value as one finite number per name in ``want``."""
    try:
        vals = [float(x) for x in text.split(",")]
    except (AttributeError, ValueError):
        vals = []
    if len(vals) != want.count(",") + 1 or not all(map(math.isfinite, vals)):
        raise CliInputError(f"bad {flag} (want {want}): {text!r}")
    return vals


def _apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the --config document; a key must name an option of the subcommand."""
    if getattr(args, "config", None):
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise CliInputError(f"{args.config}: a config must be a JSON object")
        unknown = set(doc) - (set(vars(args)) - {"config", "command"})
        if unknown:
            raise CliInputError(f"unknown config keys: {sorted(unknown)}")
        for k, v in doc.items():
            if getattr(args, k, None) in (None, argparse.SUPPRESS):
                setattr(args, k, v)
    return args


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (verdict, report[, rows, columns]), and
# ``main`` writes the report and exits 0 on a true verdict, else 2


def _load_graph(args) -> MetricGraph:
    g = cio.load_space(_load_json(args.space))
    if not isinstance(g, MetricGraph):
        raise CliInputError(f"{args.command} needs a graph space")
    return g


def _load_plane_chain(args) -> Chain1:
    """The --chain document, a polyline as a chain in the l2 plane."""
    chain = cio.load_chain(_load_json(args.chain))
    return chain.as_chain(NormedPlane("l2")) if isinstance(chain, Polyline) else chain


def _cmd_ae_norm(args):
    space = cio.load_space(_load_json(args.space))
    m = cio.load_molecule(_load_json(args.molecule))
    if isinstance(space, MetricGraph):
        metric = space.path_dist if args.metric == "path" else space.ambient_dist
    else:
        metric = space if isinstance(space, NormedPlane) else space.dist
    res = ae_norm(m, metric)
    checks = check_ae(m, metric, res)
    report = {
        "value": res.value,
        "coupling": [[list(p) if isinstance(p, tuple) else p,
                      list(q) if isinstance(q, tuple) else q, w]
                     for p, q, w in res.coupling],
        "potential": {str(k): v for k, v in res.potential.items()},
        **checks,
    }
    return all(checks.values()), report


def _cmd_filling(args):
    g = _load_graph(args)
    fill = minimal_filling(cio.load_molecule(_load_json(args.molecule)), g)
    report = {
        "mass": fill.mass_value,
        "ae_intrinsic": fill.ae.value,
        "identity_ok": fill.identity_ok(),
        "boundary_ok": True,  # minimal_filling raises unless check_filling certifies it
        "chain": cio.dump_chain(fill.chain),
    }
    return report["identity_ok"], report


def _cmd_iso_check(args):
    g = _load_graph(args)
    t = cio.load_chain(_load_json(args.chain), space=g)
    rep = isomorphism_check(t.boundary(), g, tol=_flag("--tol", args.tol, IDENT_TOL))
    return rep.all_ok(), asdict(rep)


def _cmd_flatnorm(args):
    try:
        nx, ny, h = args.grid.split(",")
        nx, ny, h = int(nx), int(ny), float(h)
    except (AttributeError, ValueError) as exc:
        raise CliInputError(f"bad --grid (want nx,ny,h): {args.grid!r}") from exc
    origin = _reals("--origin", args.origin, "x,y") if args.origin else (0.0, 0.0)
    cx = CubicalComplex(origin=origin, h=h, nx=nx, ny=ny)
    _capped("--grid", cx.n_faces, MAX_GRID_CELLS, "grid cells")
    t = snap(_load_plane_chain(args), cx)
    res = flat_norm(t, cx)
    checks = check_flat(t, cx, res)
    report = {
        "value": res.value,
        "label": "complex flat norm",  # an upper approximation of the continuum value
        "residual_edges": [[int(e), float(v)] for e, v in enumerate(res.r) if abs(v) > 1e-12],
        "faces": [[int(f), float(v)] for f, v in enumerate(res.s) if abs(v) > 1e-12],
        **checks,
        "iterations": res.iterations,
    }
    return all(checks.values()), report


def _cmd_homotopy(args):
    g0 = cio.load_chain(_load_json(args.curve0))
    g1 = cio.load_chain(_load_json(args.curve1))
    if not isinstance(g0, Polyline) or not isinstance(g1, Polyline):
        raise CliInputError("homotopy expects polyline documents")
    quad_tol = _flag("--quad-tol", args.quad_tol, QUAD_TOL)
    seed = _flag("--panel-seed", args.panel_seed, 0, "an integer in [0, 2^128)")
    plane = NormedPlane("l2")
    fill = homotopy_fill(g0, g1, AffineBicombing(plane), quad_tol=quad_tol)
    scale = float(np.abs(np.vstack([g0.points, g1.points])).max() or 1.0)
    chk = check_fill(g0, g1, fill, standard_panel(seed, count=20, scale=scale), plane)
    return chk.ok, {
        "seed": seed,
        "cert_s": fill.cert_s, "cert_r": fill.cert_r,
        "measured_s": fill.measured_s, "measured_r": fill.measured_r,
        "d_inf": fill.d_inf, "worst_residual": chk.worst_residual,
        "capped_subcells": chk.capped, "bounds_ok": chk.ok,
    }


def _cmd_approx(args):
    eps = float(_flag("--eps", args.eps, 0.1))
    mesh = float(_flag("--mesh", args.mesh, 0.25))
    _capped("--mesh", 1.0 / mesh, MAX_CURVE_CELLS, "cells per curve")
    cm = cio.load_curvemeasure(_load_json(args.input))
    trunc_err = 0.0
    if args.length_cap is not None:
        cm, trunc_err = truncate(cm, float(_flag("--length-cap", args.length_cap, None)))
    p, cert = approximate(cm, eps=eps, mesh=mesh)
    return cert.mass_ok, {
        "eps": eps, "mesh": mesh,
        "truncation_error": trunc_err,
        "clustering_term": cert.clustering_term,
        "interpolation_term": cert.interpolation_term,
        "flat_bound": cert.flat_bound + trunc_err,
        "mass_p": cert.mass_p, "mass_n": cert.mass_n,
        "mass_ok": cert.mass_ok,
        "n_clusters": len(cert.clusters),
        "chain": cio.dump_chain(p),
    }


def _cmd_normalize(args):
    eps = float(_flag("--eps", args.eps, 0.1))
    _capped("--eps", eps, MAX_NORMALIZE_EPS, "eps")
    res = normalize(_load_plane_chain(args),
                    Line(*_reals("--hyperplane", args.hyperplane, "a,b,c")), eps)
    return res.ok, {
        "eps": eps,
        "mass_ratio": res.mass_ratio,
        "boundary_residual": res.boundary_residual,
        "restriction_mass_error": res.restriction_error,
        "rounds": [asdict(r) for r in res.rounds],
        "n_chain": cio.dump_chain(res.n_chain),
        "r_chain": cio.dump_chain(res.r_chain),
        "ok": res.ok,
    }


def _load_flow(args) -> Chain1:
    g = _load_graph(args)
    return cio.load_flow(_load_json(args.flow), g)


def _cmd_decompose(args):
    d = decompose_flow(_load_flow(args))
    rows = [{"kind": kind, "weight": w, "length": d.graph.route_length(v),
             "n_vertices": len(v)}
            for kind, routes in (("path", d.paths), ("cycle", d.cycles))
            for w, v in routes]
    report = {
        "paths": [[w, list(v)] for w, v in d.paths],
        "cycles": [[w, list(v)] for w, v in d.cycles],
        "mass_defect": d.mass_defect,
        "reassembly_error": d.reassembly_error,
        "ok": d.ok,
    }
    return d.ok, report, rows, ["kind", "weight", "length", "n_vertices"]


def _cmd_fragments(args):
    flow = _load_flow(args)
    e = cio.load_closedset(_load_json(args.closedset))
    rep = fragment_representation(decompose_flow(flow), e)
    rows = [{"weight": w,
             "length": frag.fragments[0].polyline.length if frag.fragments else 0.0,
             "n_fragments": sum(len(f.domain) for f in frag.fragments),
             "fragment_mass": frag.mass()} for w, frag in rep.fragments]
    report = {
        "mass_identity_residual": rep.mass_identity_residual,
        "restricted_mass": rep.restricted_mass,
        "curves": rows,
        "ok": rep.ok,
    }
    return rep.ok, report, rows, ["weight", "length", "n_fragments", "fragment_mass"]


def _cmd_rickman(args):
    s_count = _flag("--s-grid", args.s_grid, 32, "a positive integer")
    n = _flag("--n", args.n, 32, "a positive integer")
    alpha = float(_flag("--alpha", args.alpha, 0.5, "in (0, 1]"))
    _capped("--n", n, MAX_RUG_N, "segments per line")
    _capped("--s-grid", s_count, MAX_RUG_ROWS, "rows")
    rows = rug_grid(s_count=s_count, n=n, alpha=alpha)
    ok = all(r.lower_bound_ok for r in rows)
    row_dicts = [asdict(r) for r in rows]
    report = {"alpha": alpha, "n": n, "rows": row_dicts, "lower_bound_ok": ok}
    return ok, report, row_dicts, ["s", "ae_intrinsic", "ae_ambient", "mass", "qc"]


def _cmd_suite(args):
    from .suite import run_all
    results = run_all()
    for r in results:
        sys.stderr.write(r.line() + "\n")
    passed = sum(1 for r in results if r.passed)
    # timing stays on stderr so the report is byte-identical across runs
    return passed == len(results), {
        "passed": passed,
        "failed": len(results) - passed,
        "criteria": [{"index": r.index, "name": r.name, "passed": r.passed}
                     for r in results],
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="current1d",
        description="Desk-scale computations with 1-dimensional metric currents.")
    ap.add_argument("--config", help="JSON config merged into the arguments")
    sub = ap.add_subparsers(dest="command")

    def common(p, csv=False):
        p.add_argument("--out", default=None)
        if csv:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("ae-norm", help="Arens-Eells norm of a molecule")
    p.add_argument("--space", required=True)
    p.add_argument("--molecule", required=True)
    p.add_argument("--metric", choices=["ambient", "path"], default="ambient")
    common(p)

    p = sub.add_parser("filling", help="minimal-mass filling of a molecule on a graph")
    p.add_argument("--space", required=True)
    p.add_argument("--molecule", required=True)
    common(p)

    p = sub.add_parser("iso-check", help="quasiconvexity sandwich for a chain's boundary")
    p.add_argument("--space", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("flatnorm", help="flat norm on a cubical complex")
    p.add_argument("--grid", required=True, help="nx,ny,h")
    p.add_argument("--origin", default=None, help="x,y of the grid origin")
    p.add_argument("--chain", required=True)
    common(p)

    p = sub.add_parser("homotopy", help="certified filling of two polylines")
    p.add_argument("--curve0", required=True)
    p.add_argument("--curve1", required=True)
    p.add_argument("--panel-seed", dest="panel_seed", type=int, default=None)
    p.add_argument("--quad-tol", dest="quad_tol", type=float, default=None)
    common(p)

    p = sub.add_parser("approx", help="geodesic approximation of a curve measure")
    p.add_argument("--input", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mesh", type=float, default=None)
    p.add_argument("--length-cap", dest="length_cap", type=float, default=None)
    common(p)

    p = sub.add_parser("normalize", help="boundaryless extension off a hyperplane")
    p.add_argument("--chain", required=True)
    p.add_argument("--hyperplane", required=True, help="a,b,c for the line ax+by=c")
    p.add_argument("--eps", type=float, default=None)
    common(p)

    p = sub.add_parser("decompose", help="flow decomposition into paths and cycles")
    p.add_argument("--space", required=True)
    p.add_argument("--flow", required=True)
    common(p, csv=True)

    p = sub.add_parser("fragments", help="restrict decomposed curves to a closed set")
    p.add_argument("--space", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--closedset", required=True)
    common(p, csv=True)

    p = sub.add_parser("rickman", help="Rickman rug regression grid")
    p.add_argument("--s-grid", dest="s_grid", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    common(p, csv=True)

    p = sub.add_parser("suite", help="run the acceptance battery")
    common(p)

    return ap


_HANDLERS = {
    "ae-norm": _cmd_ae_norm,
    "filling": _cmd_filling,
    "iso-check": _cmd_iso_check,
    "flatnorm": _cmd_flatnorm,
    "homotopy": _cmd_homotopy,
    "approx": _cmd_approx,
    "normalize": _cmd_normalize,
    "decompose": _cmd_decompose,
    "fragments": _cmd_fragments,
    "rickman": _cmd_rickman,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if not args.command:
        ap.print_usage(sys.stderr)
        return 1
    try:
        args = _apply_config(args)
        log.info("running %s", args.command)
        ok, report, *table = _HANDLERS[args.command](args)
        _emit(args, report, *table)
        return 0 if ok else 2
    except (CliInputError, cio.InputError, GeometryError, CurrentError,
            GridError, TransportError, StructureError, Infeasible,
            IterationLimit, SolverError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(cio.dump_report(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
