"""Run one workload in this process and print its measurements as one JSON line.

Started by ``run.py`` in a fresh process per workload, with ``src`` on the
path and the BLAS pinned to one thread. Set-up is importing ``current1d``
plus one untimed warm-up instance; the benchmark's own modules are imported
outside that window. No cached bytecode is read for ``current1d`` or for
anything it imports first, so every set-up compiles the same sources,
whatever ``__pycache__`` directories the workspace holds.

Untraced (``--trace 0``): a closed loop, one instance at a time, over the
whole cycles of the workload's sizes that fill ``--seconds`` at the nominal
cycle time (or over ``--instances``). A fixed count, not a deadline, so every
run does the same work. Each instance is generated, then timed through its
pipeline, then checked.

Traced (``--trace 1``): the first half as many cycles, so that the counts
repeat exactly at a seed. Each instance runs once untraced and once traced;
the ratio of the two wall-time sums is the tracing overhead.
"""

import argparse
import gc
import json
import math
import os
import resource
import sys
import time

import numpy as np

import calibrate
import tracing

# A cache directory that is never written, so it is always empty and every
# module imported from here on is compiled from source.
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "out", "no-bytecode")
_T0 = time.perf_counter()
import current1d  # noqa: E402,F401
from current1d import SolverError  # noqa: E402
_IMPORT_S = time.perf_counter() - _T0

from workloads import WORKLOADS  # noqa: E402

WARMUP_INDEX = 2 ** 31


def _make(wl, seed, i):
    return wl.make(seed, i, **wl.cycle[i % len(wl.cycle)])


def _run_one(wl, seed, i, tr, inp=None):
    """One instance: (wall seconds, ok, worst check ratio, check seconds, out, error)."""
    inp = inp if inp is not None else _make(wl, seed, i)
    gc.collect()
    err = out = None
    t0 = time.perf_counter()
    try:
        out = wl.run(inp, tr)
    except Exception as exc:  # counted as a failed instance, never retried
        err = exc
    dt = time.perf_counter() - t0
    c0 = time.perf_counter()
    ok, ratio = False, math.inf
    if err is None:
        try:
            ok, ratio = wl.check(inp, out)
        except Exception as exc:
            err = exc
    return dt, ok, ratio, time.perf_counter() - c0, out, err


def _describe(err):
    return None if err is None else f"{type(err).__name__}: {err}"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _count(wl, seconds, instances):
    return instances or len(wl.cycle) * max(1, round(seconds / wl.cycle_s))


def untraced(wl, seed, seconds, instances):
    times, oks, ratios, errors, refs = [], [], [], [], []
    for i in range(_count(wl, seconds, instances)):
        refs.append(calibrate.reference_s())
        dt, ok, ratio, _, _, err = _run_one(wl, seed, i, tracing.NULL)
        times.append(dt)
        oks.append(ok)
        ratios.append(ratio)
        if err is not None:
            errors.append([i, _describe(err)])
    refs.append(calibrate.reference_s())
    n_ok = sum(oks)

    def summary(arr):
        return {"throughput_per_s": n_ok / float(arr.sum()),
                "instance_s.p50": float(np.median(arr)),
                "instance_s.tail": float(np.percentile(arr, wl.tail_pct))}

    cal = np.array(calibrate.calibrated(times, refs))
    detail = {"instances": len(times), "tail_percentile": wl.tail_pct,
              "tail_instances_beyond": int(np.sum(cal > np.percentile(cal, wl.tail_pct))),
              "timed_s": sum(times), "worst_check_ratio": max(ratios), "errors": errors,
              "raw": summary(np.array(times)), "instance_s": times,
              "calibrated_instance_s": cal.tolist(), "reference_s": refs}
    return summary(cal), len(times), len(times) - n_ok, detail


def _untraced_pass(wl, seed, i, inp, times):
    """Time instance i without tracing; returns 1 if it failed."""
    dt, ok, *_ = _run_one(wl, seed, i, tracing.NULL, inp)
    times.append(dt)
    return int(not ok)


def traced(wl, seed, seconds, instances, spans_path):
    count = _count(wl, seconds / 2, instances)
    tr = tracing.Tracer()
    failed, errors, base = 0, [], []
    walls, checks, ratios = [], [], []
    atoms = pivots = forms = 0
    lp_mb = 0.0
    solver_errors = 0
    for i in range(count):
        inp = _make(wl, seed, i)
        # Each instance runs untraced and traced back to back, in alternating
        # order, so both see the same host speed and neither always runs second.
        if i % 2:
            failed += _untraced_pass(wl, seed, i, inp, base)
        tr.instance = i
        with tracing.patched(tr):
            dt, ok, ratio, check_s, out, err = _run_one(wl, seed, i, tr, inp)
        if not i % 2:
            failed += _untraced_pass(wl, seed, i, inp, base)
        walls.append(dt)
        checks.append(check_s)
        ratios.append(ratio)
        failed += not ok
        if err is not None:
            errors.append([i, _describe(err)])
            solver_errors += isinstance(err, SolverError)
            continue
        atoms += out.get("atoms", 0)
        forms += len(out.get("panel", ()))
        if "res" in out:
            pivots += out["res"].iterations
            ne, nf = out["cx"].n_edges, out["cx"].n_faces
            lp_mb = max(lp_mb, ne * (2 * ne + 2 * nf) * 8 / 1e6)
    tr.dump(spans_path)
    busy, self_s, top = tracing.layer_times(tr.spans)
    calls = {name: 0 for name in ("solvers.min_cost_flow", "currents.d_inf")}
    for name, *_ in tr.spans:
        if name in calls:
            calls[name] += 1
    augs = tr.counts["solvers.min_cost_flow.augmentations"]
    points = tr.counts["currents.field_points"]
    per = 1.0 / count
    metrics = {f"{name}.busy_s": busy.get(name, 0.0) * per for name in (
        "spaces.MetricGraph", "spaces.FiniteMetricSpace", "transport.ae_norm",
        "solvers.min_cost_flow.dense", "solvers.min_cost_flow.sparse",
        "transport.minimal_filling", "spaces.qc_constants",
        "homotopy.boundary_eval", "homotopy.homotopy_fill", "currents.evaluate",
        "currents.d_inf", "solvers.simplex_lp", "flatnorm.flat_norm", "flatnorm.snap",
        "approximation.cluster", "approximation.approximate",
        "homotopy.interpolate_geodesic")}
    metrics.update({
        "transport.ae_norm.self_s": self_s.get("transport.ae_norm", 0.0) * per,
        "flatnorm.flat_norm.self_s": self_s.get("flatnorm.flat_norm", 0.0) * per,
        "approximation.approximate.self_s": self_s.get("approximation.approximate", 0.0) * per,
        "solvers.min_cost_flow.calls": calls["solvers.min_cost_flow"] * per,
        "solvers.min_cost_flow.arcs": tr.counts["solvers.min_cost_flow.arcs"] * per,
        "solvers.min_cost_flow.augmentations": augs * per,
        "solvers.min_cost_flow.augmentations_per_atom": augs / atoms if atoms else 0.0,
        "solvers.errors": solver_errors,
        "solvers.simplex_lp.pivots": pivots * per,
        "flatnorm.lp_matrix_mb": lp_mb,
        "currents.d_inf.calls": calls["currents.d_inf"] * per,
        "currents.field_points": points * per,
        "currents.field_points_per_form": points / forms if forms else 0.0,
        "check.busy_s": sum(checks) * per,
        "check.worst_ratio": max(ratios),
        "trace.overhead_frac": sum(walls) / sum(base) - 1.0,
        "trace.coverage_frac": top / sum(walls),
    })
    detail = {"instances": count, "untraced_s": sum(base), "traced_s": sum(walls),
              "spans": len(tr.spans), "spans_file": spans_path, "errors": errors,
              "wait_s": "none: each layer runs single-threaded in a closed loop, no queues"}
    return metrics, 2 * count, failed, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=0,
                    help="run this many instances instead of filling --seconds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=os.devnull, help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    dt, ok, ratio, _, _, err = _run_one(wl, args.seed, WARMUP_INDEX, tracing.NULL,
                                        wl.make(args.seed, WARMUP_INDEX, **wl.warmup))
    setup_s = _IMPORT_S + time.perf_counter() - t0
    if not ok:
        sys.exit(f"warm-up instance failed: {_describe(err) or f'check ratio {ratio}'}")
    refs = [calibrate.reference_s() for _ in range(3)]
    result = {"setup_s": calibrate.at_nominal(setup_s, refs), "raw_setup_s": setup_s,
              "numpy": np.__version__, "blas": _blas()}
    if not args.setup_only:
        if args.trace:
            metrics, attempted, failed, detail = traced(wl, args.seed, args.seconds,
                                                        args.instances, args.spans)
        else:
            metrics, attempted, failed, detail = untraced(wl, args.seed, args.seconds,
                                                          args.instances)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(metrics=metrics, attempted=attempted, failed=failed, detail=detail,
                      peak_rss_mb=peak_kb / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
