#!/usr/bin/env python3
"""Time the greedy uniform-distance net and the chord approximation on two
kinds of curve families.

``translates`` are vertical translates of one random 2-5 vertex polyline, so
all curves share their breakpoint parameters (up to rounding); ``unrelated``
are independent random 2-5 vertex polylines, so no two curves share interior
breakpoints. Prints one CSV row per (family, count, eps) with the number of
clusters, the greedy rounds (blocks of entries) and the diameter pairs
``cluster`` measured (both from its debug record on
``current1d.approximation``), and the best of ``--repeat`` wall-clock times of
``cluster`` and of ``approximate`` at the same eps with mesh 0.25. Each timed
call gets a fresh copy of the measure, so the times include building its
curve array.

    python3 scripts/cluster_timing.py --counts 500,1000,2000 --eps 1.0,0.5
"""

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from current1d.approximation import CurveMeasure, approximate, cluster
from current1d.currents import Polyline
from current1d.spaces import NormedPlane


def translates(rng, count: int) -> CurveMeasure:
    base = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2))
    offsets = np.sort(rng.uniform(0.0, 0.01 * count, size=count))
    return CurveMeasure.of([(1.0, Polyline(base + [0.0, off])) for off in offsets])


def unrelated(rng, count: int) -> CurveMeasure:
    entries = []
    for _ in range(count):
        pts = 0.5 * rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 6)), 2)) + rng.normal(size=2)
        entries.append((1.0, Polyline(pts)))
    return CurveMeasure.of(entries)


def best_time(repeat: int, call) -> float:
    """The least wall-clock seconds of ``repeat`` calls."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


class LastRecord(logging.Handler):
    """Keeps the arguments of the latest record it handles."""

    def emit(self, record: logging.LogRecord) -> None:
        self.args = record.args


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--counts", default="500,1000,2000")
    ap.add_argument("--eps", default="1.0,0.5")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    plane = NormedPlane("l2")
    last = LastRecord()
    log = logging.getLogger("current1d.approximation")
    log.addHandler(last)
    log.setLevel(logging.DEBUG)
    print("family,count,eps,clusters,rounds,pairs_measured,cluster_s,approximate_s")
    for name, make in (("translates", translates), ("unrelated", unrelated)):
        for count in (int(c) for c in args.counts.split(",")):
            cm = make(np.random.default_rng([args.seed, count]), count)
            for eps in (float(e) for e in args.eps.split(",")):
                cluster_s = best_time(args.repeat, lambda: cluster(
                    CurveMeasure(cm.entries), eps, plane))
                approximate_s = best_time(args.repeat, lambda: approximate(
                    CurveMeasure(cm.entries), eps, 0.25, plane))
                rec = last.args  # approximate's cluster call, the same as cluster's
                print(f"{name},{count},{eps},{rec['clusters']},{rec['rounds']},{rec['measured']},"
                      f"{cluster_s:.4f},{approximate_s:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
