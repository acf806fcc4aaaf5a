"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload decode --seed 1 --seconds 25 --trace 0

From the root of a checkout; `ebcache` need not be installed, the
library is imported from `src/`.  The run sets up (imports, inputs,
warm-up), then repeats whole rounds of the workload's operations until
`--seconds` have passed, timing each operation and checking every
round's outputs.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones: `work_per_s`, the
workload's throughput in its own unit of work (all work over all time
spent in operations), `setup_s` and `peak_rss_mb`.  `setup_s` is the
median over `SETUP_RUNS` fresh processes, started one after another once
the rounds are done, of the time from starting the process to the end of
its set-up; `--setup-only` is what those processes run.  With
`--trace 1` rounds alternate between plain and traced, the per-layer
metrics are medians over traced rounds, each per round, and the spans
are written under `bench/out/`.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 3


class SetupError(Exception):
    pass


def import_library():
    """Import ebcache from this checkout's src/, never from elsewhere."""
    if not (SRC / "ebcache" / "__init__.py").is_file():
        raise SetupError(f"no ebcache sources under {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import ebcache
    if Path(ebcache.__file__).resolve().parent != SRC / "ebcache":
        raise SetupError(f"ebcache imported from {ebcache.__file__}, not {SRC}")


def set_up(name: str, seed: int, toy: bool = False):
    """Everything before the first timed operation: import the library,
    build the workload's inputs and warm it up."""
    import_library()
    import workloads
    if name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {name!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name](seed, toy=toy,
                                   workdir=OUT / f"work-{name}-{os.getpid()}")
    try:
        wl.warm_up()
    except BaseException:
        wl.close()
        raise
    return wl


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh `--setup-only` process to its line saying
    that set-up is done; this covers interpreter start-up too."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    if child.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"set-up process exited with {child.returncode}")
    return elapsed


def run_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed.  With a tracer, every
    round repeats round 0's inputs, odd rounds are traced and at least one
    round of each kind runs, so traced and plain rounds do the same work."""
    import spans

    attempted = failed = 0
    problems: list[str] = []
    plain_busy, traced_busy, layers = [], [], []
    work = 0.0
    first_outs = None
    begin = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        ops = wl.ops(r if tracer is None else 0)
        span0, counts0 = (len(tracer.spans), dict(tracer.counts)) if traced \
            else (0, None)
        outs, busy = [], 0.0
        with tracer.installed() if traced else nullcontext():
            for label, call in ops:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with tracer.span("bench.op") if traced else nullcontext():
                        out = call()
                except Exception as exc:
                    failed += 1
                    out = None
                    print(f"operation {label} failed:\n{traceback.format_exc()}",
                          file=sys.stderr)
                    if isinstance(exc, wl.wrong_output_errors):
                        problems.append(f"{label}: {exc}")
                busy += time.perf_counter() - t0
                outs.append(out)
        if traced:
            traced_busy.append(busy)
            selfs = tracer.self_times(span0)
            layer = {m: selfs.get(s, 0.0) for m, s in spans.SELF_TIMES.items()}
            layer.update({c: tracer.counts[c] - counts0[c] for c in spans.COUNTS})
            layers.append(layer)
        else:
            plain_busy.append(busy)
            work += sum(wl.work(i, out) for i, out in enumerate(outs)
                        if out is not None)
        problems += wl.check(outs)
        if r == 0:
            first_outs = outs
        r += 1
        enough = r >= 2 if tracer is not None else r >= 1
        if enough and time.perf_counter() - begin >= seconds:
            break
    problems += wl.final_check(first_outs)
    return dict(attempted=attempted, failed=failed, problems=problems,
                work=work, plain_busy=plain_busy, traced_busy=traced_busy,
                layers=layers)


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> dict:
    """One benchmark run; returns the result document."""
    import spans

    wl = set_up(name, seed, toy)
    try:
        if trace:
            tracer = spans.Tracer()
            run = run_rounds(wl, seconds, tracer)
            metrics = {m: {"value": median(l[m] for l in run["layers"]),
                           "unit": "s/round"} for m in spans.SELF_TIMES}
            metrics.update({c: {"value": median_low(l[c] for l in run["layers"]),
                                "unit": "count/round"} for c in spans.COUNTS})
            metrics["trace.overhead_s"] = {
                "value": median(run["traced_busy"]) - median(run["plain_busy"]),
                "unit": "s/round"}
            OUT.mkdir(exist_ok=True)
            path = OUT / f"spans-{name}-seed{seed}.json"
            tracer.write(path, {"workload": name, "seed": seed,
                                "rounds": len(run["plain_busy"]) + len(run["layers"])})
            print(f"spans written to {path}", file=sys.stderr)
            for target in tracer.absent:
                print(f"layer absent: {target}", file=sys.stderr)
        else:
            run = run_rounds(wl, seconds)
            setups = [setup_seconds(name, seed) for _ in range(SETUP_RUNS)]
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"work_per_s counts {wl.work_unit} per second", file=sys.stderr)
            metrics = {
                "work_per_s": {"value": run["work"] / sum(run["plain_busy"]),
                               "unit": "work/s"},
                "setup_s": {"value": median(setups), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        wl.close()
    for line in run["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not run["problems"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit without measuring")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            wl = set_up(args.workload, args.seed)
            print("ready", flush=True)
            wl.close()
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
