#!/usr/bin/env python3
"""Time ``ae_norm`` on one fixed family of plane molecules as k grows.

A molecule of size k has k atoms at points uniform in [-1, 1]^2: the first
k/2 positive and the rest negative, with weights uniform in [0.1, 1], the
negative ones rescaled so that the masses balance. The metric is the l2
plane, so the flow network is the dense bipartite one of ``ae_norm``. Prints
one CSV row per k with the median, minimum and maximum over the seeds of the
best of ``--repeat`` wall-clock times, then the growth exponent fitted to the
medians (least squares on log time against log k).

    python3 scripts/flow_scaling.py --ks 50,100,200,400 --seeds 1-5
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from current1d.currents import Molecule
from current1d.spaces import NormedPlane
from current1d.transport import ae_norm


def molecule(rng, k: int) -> Molecule:
    pts = rng.uniform(-1.0, 1.0, size=(k, 2))
    w = rng.uniform(0.1, 1.0, size=k)
    half = k // 2
    w[half:] *= -w[:half].sum() / w[half:].sum()
    return Molecule([(tuple(p), float(x)) for p, x in zip(pts.tolist(), w)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ks", default="50,100,200,400")
    ap.add_argument("--seeds", default="1-5", help="first-last, inclusive")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    plane = NormedPlane("l2")
    ks, medians = [], []
    print("k,seeds,median_s,min_s,max_s")
    for k in (int(k) for k in args.ks.split(",")):
        best = []
        for seed in range(first, last + 1):
            m = molecule(np.random.default_rng([seed, k]), k)
            t = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                ae_norm(m, plane)
                t = min(t, time.perf_counter() - t0)
            best.append(t)
        ks.append(k)
        medians.append(statistics.median(best))
        print(f"{k},{len(best)},{medians[-1]:.4f},{min(best):.4f},{max(best):.4f}", flush=True)
    if len(ks) > 1:
        slope = np.polyfit(np.log(ks), np.log(medians), 1)[0]
        print(f"# growth exponent in k: {slope:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
