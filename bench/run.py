"""current1d benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload transport --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --all --seed 1            # every workload, one table
    python3 bench/run.py --all --repeat 10         # seeds 1..10, medians and spreads
    python3 bench/run.py --smoke                   # a few instances each, self-test

A single-workload run prints one JSON object as its last line, with the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer metrics
(``--trace 1``). Each workload runs in a fresh worker process with the BLAS
pinned to one thread; in an untraced run, set-up is measured in that worker
and in two more fresh processes, one before and one after it, and the median
is reported. Instance and
set-up times are calibrated to host speed (``calibrate.py``); the raw values
are printed too.
Full results, with the machine facts and sample counts, go to ``bench/out/``.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
SMOKE_INSTANCES = 2  # instances per --smoke run
RUN_TIMEOUT_S = 170  # one workload run, set-up probes included
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Deterministic counts: two traced runs at one seed must report them exactly.
EXACT_COUNTS = ("solvers.simplex_lp.pivots", "solvers.min_cost_flow.augmentations",
                "currents.d_inf.calls", "currents.field_points")


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_sha():
    """HEAD of the checkout; None outside a git repository or without git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_facts(worker: dict) -> dict:
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": worker.get("numpy"),
            "blas": worker.get("blas"),
            "blas_threads": {k: child_env()[k] for k in PINNED_THREADS},
            "git_sha": git_sha()}


def _worker(args: list, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER] + args, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 instances: int = 0) -> dict:
    """Measure one workload; returns the full result (metrics without units)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # Set-up probes, untraced runs only: one before the run and one after it,
    # so that the three set-up samples fall in different phases of host speed.
    probes = [] if trace else [_worker(common + ["--setup-only"], deadline)]
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"{workload}-seed{seed}-spans.json")
    res = _worker(common + ["--trace", str(trace), "--instances", str(instances),
                            "--spans", spans], deadline)
    if not trace:
        probes.append(_worker(common + ["--setup-only"], deadline))
    setups = [p["setup_s"] for p in probes + [res]]
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
        res["detail"].setdefault("raw", {})["setup_s"] = statistics.median(
            p["raw_setup_s"] for p in probes + [res])
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        metrics["failed_frac"] = res["failed"] / res["attempted"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "samples": {"instance_s": res["detail"]["instances"], "setup_s": len(setups),
                        "peak_rss_mb": 1},
            "setup_s_samples": setups, "detail": res["detail"],
            "machine": machine_facts(res)}


def result_line(result: dict, spec: dict) -> dict:
    """The last stdout line: exactly the metrics BENCHMARK.json lists for this mode."""
    wanted = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def units(spec: dict) -> dict:
    out = {"failed_frac": "fraction"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        out[m["name"]] = m["unit"]
    return out


def print_table(result: dict, spec: dict) -> None:
    samples = result["samples"]
    unit = units(spec)
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']}, "
          f"{result['attempted']} attempted, {result['failed']} failed)")
    for name, value in result["metrics"].items():
        n = samples.get(name.split(".")[0], samples["instance_s"])
        extra = ""
        if name == "instance_s.tail":
            d = result["detail"]
            extra = (f"  p{d['tail_percentile']}, {d['tail_instances_beyond']} "
                     f"instances beyond it")
        print(f"  {name:48s} {value:14.6g} {unit.get(name, ''):9s} n={n}{extra}")
    for name, value in result["detail"].get("raw", {}).items():
        print(f"  {'uncalibrated ' + name:48s} {value:14.6g} {unit[name]:9s}")


def save(result: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{result['workload']}-seed{result['seed']}"
                             f"-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)


def smoke(spec: dict) -> None:
    """Each workload on a few instances: every named metric present with its unit,
    outputs correct, traced spans covering the instances, counts repeatable."""
    for w in spec["workloads"]:
        name = w["name"]
        runs = [run_workload(name, 1, 1.0, t, SMOKE_INSTANCES) for t in (0, 1, 1)]
        for result in runs:
            line = result_line(result, spec)  # raises on a metric BENCHMARK.json names but lacks
            bad = [k for k, m in line["metrics"].items() if not math.isfinite(m["value"])]
            if bad or not line["correct"]:
                raise BenchError(f"{name}: non-finite {bad} or {line['failed']} failed instances")
        traced = [r["metrics"] for r in runs[1:]]
        if traced[0]["trace.coverage_frac"] < 0.95:
            raise BenchError(f"{name}: spans cover only {traced[0]['trace.coverage_frac']:.3f}")
        for c in EXACT_COUNTS:
            if traced[0][c] != traced[1][c]:
                raise BenchError(f"{name}: {c} differs between traced runs")
        print(f"smoke {name}: ok")


def summarize(results: list, spec: dict) -> dict:
    """Median and quartiles of each metric over repeated runs of one workload."""
    unit = units(spec)
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": unit.get(name, ""), "median": med, "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / med if med else 0.0, "values": vals}
    return out


def print_summary(summary: dict, runs: int) -> None:
    print(f"== {runs} runs per workload: median, quartile spread / median")
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            print(f"  {workload:10s} {name:44s} {m['median']:14.6g} {m['unit']:9s} "
                  f"spread {m['iqr_over_median']:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, at seeds seed, seed+1, ...; prints their spread")
    ap.add_argument("--record", help="write the repeated runs' medians to this JSON file")
    ap.add_argument("--smoke", action="store_true", help="self-test on a few instances")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "current1d", "__init__.py")):
        print(f"no current1d sources under {ROOT}/src: run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if not (args.smoke or args.all or args.workload in names):
        ap.error(f"give --all, --smoke or --workload, one of {names}")
    try:
        if args.smoke:
            smoke(spec)
            return 0
        chosen = names if args.all else [args.workload]
        runs = {name: [] for name in chosen}
        for seed in range(args.seed, args.seed + args.repeat):
            for name in chosen:
                result = run_workload(name, seed, seconds, args.trace)
                save(result)
                print_table(result, spec)
                runs[name].append(result)
        if args.repeat > 1 or args.record:
            summary = {name: summarize(results, spec) for name, results in runs.items()}
            print_summary(summary, args.repeat)
            if args.record:
                with open(args.record, "w") as fh:
                    json.dump({"machine": runs[chosen[0]][0]["machine"], "seconds": seconds,
                               "trace": args.trace,
                               "seeds": list(range(args.seed, args.seed + args.repeat)),
                               "workloads": summary}, fh, indent=1)
        elif not args.all:
            print(json.dumps(result_line(result, spec)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
