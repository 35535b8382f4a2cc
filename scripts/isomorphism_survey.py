#!/usr/bin/env python3
"""Survey the quasiconvexity sandwich over random embedded graphs.

For each seeded instance: the ambient AE norm, the minimal filling mass, the
intrinsic AE norm (independent solver identity), and how much of the allowed
[ae/qc, qc*ae] window the filling actually uses.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from current1d.io import csv_rows
from current1d.suite import _random_connected_graph, _random_molecule
from current1d.transport import isomorphism_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--instances", type=int, default=50)
    ap.add_argument("--max-vertices", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    rows = []
    violations = 0
    for i in range(args.instances):
        g = _random_connected_graph(rng, max_n=args.max_vertices)
        m = _random_molecule(rng, g.n)
        rep = isomorphism_check(m, g)
        ok = rep.all_ok()
        violations += 0 if ok else 1
        rows.append({"instance": i, "n": g.n, "qc": rep.qc, "ae_ambient": rep.ae_ambient,
                     "filling": rep.filling_mass, "ratio": rep.ratio, "identity_gap":
                     abs(rep.filling_mass - rep.ae_intrinsic), "ok": ok})
    text = csv_rows(rows, ["instance", "n", "qc", "ae_ambient", "filling",
                           "ratio", "identity_gap", "ok"])
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"# seed={args.seed} violations={violations}", file=sys.stderr)
    return 0 if violations == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
