#!/usr/bin/env python3
"""Gain from tailoring cache sizes to per-user channel quality.

For each memory budget, compares the symmetric split against the best
allocation found by grid search (plan objective) and against the best
closed-form value, one CSV row per budget.

    python scripts/allocate_memory.py --K 4 --N 20 --step 2 -o alloc.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ebcache.analysis import phase_plan
from ebcache.experiments import optimize_memory
from ebcache.model import SystemConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=4)
    ap.add_argument("--N", type=int, default=20)
    ap.add_argument("--deltas", default="",
                    help="comma-separated; default k/5 for user k")
    ap.add_argument("--step", type=float, default=2.0)
    ap.add_argument("-o", "--out", default="-")
    args = ap.parse_args()
    try:
        rows = table(args)
    except ValueError as exc:       # a ConfigError is one
        sys.exit(f"error: {exc}")

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["avg_mem", "T_symmetric", "T_optimized", "T_lower_bound",
                     "best_allocation"])
    writer.writerows(rows)
    if fh is not sys.stdout:
        fh.close()


def table(args):
    """One row per memory budget, from 0 to N in steps of `--step`."""
    deltas = (tuple(float(x) for x in args.deltas.split(","))
              if args.deltas else tuple(k / 5 for k in range(1, args.K + 1)))
    cfg = SystemConfig(K=args.K, N=args.N, delta=deltas,
                       mem=(0.0,) * args.K, file_sizes=(1,) * args.N)
    rows = []
    M = 0.0
    while M <= args.N + 1e-9:
        budget = args.K * M
        alloc = optimize_memory(cfg, budget=budget, step=args.step)
        sym = phase_plan(cfg.with_mem((M,) * args.K)).total
        rows.append([M, f"{sym:.6f}", f"{alloc.objective:.6f}",
                     f"{alloc.lower_bound:.6f}",
                     "|".join(str(m) for m in alloc.mem)])
        M += args.step
    return rows


if __name__ == "__main__":
    main()
