#!/usr/bin/env python3
"""Delivery length versus cache size, with and without feedback.

Produces the memory-sweep table for a symmetric network: analytic curves
for the feedback scheme, the no-feedback baseline and the centralized
variant, plus Monte Carlo means, one CSV row per memory size.

    python scripts/memory_sweep.py --K 10 --N 100 --deltas 0,0.2,0.6 \
        --grid 0:100:10 --trials 5 --F 2000 -o sweep.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ebcache.experiments import SWEEP_COLUMNS, SweepSpec, sweep
from ebcache.model import SystemConfig


def parse_grid(text):
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if not step > 0:
            raise ValueError("grid step must be > 0")
        out = []
        v = start
        while v <= stop + 1e-9:
            out.append(v)
            v += step
        return out
    return [float(x) for x in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=10)
    ap.add_argument("--N", type=int, default=100)
    ap.add_argument("--deltas", default="0,0.2,0.6")
    ap.add_argument("--grid", default="0:100:10")
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--F", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker processes for the trials (>= 1); never "
                    "more than the trials or the CPUs, and the table does "
                    "not depend on it")
    ap.add_argument("-o", "--out", default="-")
    args = ap.parse_args()
    try:
        specs = []
        for d in (float(x) for x in args.deltas.split(",")):
            base = SystemConfig(K=args.K, N=args.N, delta=(d,) * args.K,
                                mem=(0.0,) * args.K, file_sizes=(1,) * args.N)
            specs.append((d, SweepSpec(
                varying="mem", grid=parse_grid(args.grid), base=base,
                trials=args.trials, F=args.F, seed=args.seed,
                jobs=args.jobs)))
    except ValueError as exc:       # a ConfigError is one
        sys.exit(f"error: {exc}")

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["delta"] + SWEEP_COLUMNS)
    for d, spec in specs:
        for row in sweep(spec):
            writer.writerow([d] + [row.get(c, "") for c in SWEEP_COLUMNS])
    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
