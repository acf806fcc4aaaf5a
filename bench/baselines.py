"""Single-shot timings of the reference configurations in ROADMAP item 1.

    python3 bench/baselines.py            # full engine at F=1000, 2000, 4000
    python3 bench/baselines.py --max-F 2000

Full engine (placement plus decoding) at K=3, p=0.5, delta=0.3; the
length-only simulator at K=3, F=1e5; `phase_plan` at K=10 asymmetric.
Prints one JSON object.  These are one-off wall times, not the
benchmark's medians; the F=4000 trial alone takes most of a minute.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ebcache import analysis, delivery, fastsim, placement  # noqa: E402
from ebcache.model import SystemConfig  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-F", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    out = {}
    for F in (1000, 2000, 4000):
        if F > args.max_F:
            continue
        cfg = SystemConfig(K=3, N=3, delta=(0.3,) * 3, mem=(1.5,) * 3,
                           file_sizes=(F,) * 3)
        out[f"full_engine_K3_F{F}_s"] = timed(lambda: delivery.run_delivery(
            cfg, placement.decentralized_placement(cfg, args.seed),
            seed=args.seed + 1))
    cfg = SystemConfig(K=3, N=3, delta=(0.3,) * 3, mem=(1.5,) * 3,
                       file_sizes=(100_000,) * 3)
    pm = placement.decentralized_placement(cfg, args.seed)
    out["fastsim_K3_F1e5_s"] = timed(
        lambda: fastsim.run_delivery_lengths(cfg, pm, seed=args.seed + 1))
    rng = np.random.default_rng(args.seed)
    cfg = SystemConfig(K=10, N=10, delta=tuple(rng.uniform(0.1, 0.9, 10)),
                       mem=tuple(rng.uniform(0.0, 10.0, 10)),
                       file_sizes=tuple(int(x) for x in rng.integers(500, 2001, 10)))
    out["phase_plan_K10_s"] = timed(lambda: analysis.phase_plan(cfg))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
