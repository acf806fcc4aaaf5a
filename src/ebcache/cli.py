"""Command-line interface.

Exit status: 0 on success, 1 on configuration/validation and usage
errors, 2 on decode or identity failures.  All numeric output is rounded
to 12 significant digits, and an unbounded rate prints as null;
randomness flows from --seed (default 0, never the environment), from
which `simulate` derives independent placement and delivery seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from functools import lru_cache
from math import inf

import numpy as np

from . import analysis, experiments
from .delivery import DeliveryError, run_delivery
from .fastsim import initial_needs, simulate_lengths
from .model import ConfigError, Demand, RateVector, demand_for, load_config
from .placement import centralized_placement, decentralized_placement

PLACEMENT_EXPORT_LIMIT = 100_000


def _round12(doc):
    if isinstance(doc, float):
        return None if doc in (inf, -inf) else float(f"{doc:.12g}")
    if isinstance(doc, dict):
        return {k: _round12(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_round12(v) for v in doc]
    return doc


def _emit_json(doc) -> None:
    print(json.dumps(_round12(doc), indent=2))


# one sub-phase of `ebcache plan`'s document: its members, then %s for
# its length and, under "t_user", one key and %s per member
_SUBPHASE = ('\n    {\n      "subphase": [\n        %s\n      ],\n'
             '      "t": %%s,\n      "t_user": {\n        %s\n      }\n    }')
_NOT_FINITE = {"inf": "null", "-inf": "null", "nan": "NaN"}


@lru_cache(maxsize=1)
def _plan_layout(K: int) -> tuple[str, np.ndarray]:
    """`ebcache plan`'s document for K users as a %-template with one %s
    per number, and where each number sits in (total, t_sub, t_user
    flattened): the total, then per sub-phase in `subsets_ascending`
    order its length and its members' lengths, users ascending."""
    n = 1 << K
    cell = analysis._cells(K)[0]
    J = cell & (n - 1)
    first = np.flatnonzero(np.diff(J, prepend=0))   # each sub-phase's first cell
    # sub-phase i's length goes after the total, the i lengths before it
    # and the cells before its first
    at = 1 + np.arange(len(first)) + first
    take = np.empty(1 + len(first) + len(cell), dtype=np.intp)
    take[0] = 0
    take[at] = 1 + J[first]
    cells = np.ones(len(take), dtype=bool)
    cells[0] = cells[at] = False
    take[cells] = 1 + n + cell
    members = [""] * n
    keys = [""] * n
    for m in range(1, n):
        top = m.bit_length()
        rest = m ^ 1 << top - 1
        sep = ",\n        " if rest else ""
        members[m] = f"{members[rest]}{sep}{top}"
        keys[m] = f'{keys[rest]}{sep}"{top}": %s'
    body = ",".join([_SUBPHASE % (members[m], keys[m])
                     for m in J[first].tolist()])
    return f'{{\n  "total": %s,\n  "subphases": [{body}\n  ]\n}}', take


def _plan_text(plan: analysis.PhasePlan) -> str:
    """`json.dumps(_round12(doc), indent=2)` of the plan document
    {"total", "subphases": [{"subphase", "t", "t_user": {user: t}}]},
    written in one pass from the plan's arrays: each number rounded to
    12 significant digits and printed as `json` prints a float."""
    template, take = _plan_layout(len(plan.sizes))
    values = np.concatenate(([plan.total], plan.t_sub,
                             plan.t_user.reshape(-1)))[take]
    text = map(repr, map(float, map("{:.12g}".format, values.tolist())))
    if not np.isfinite(values).all():
        text = (_NOT_FINITE.get(v, v) for v in text)
    return template % tuple(text)


def _emit_csv(rows: list[dict], columns: list[str]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(["" if row.get(c) is None else _round12(row.get(c))
                         for c in columns])


def _load(args):
    cfg = load_config(args.config)
    if getattr(args, "F", None) is not None:
        cfg = replace(cfg, file_sizes=(args.F,) * cfg.N)
    return cfg


def _parse_demand(cfg, text):
    demand = Demand(tuple(int(x) for x in text.split(","))) if text else None
    return demand_for(cfg, demand)


def _cmd_region(args) -> int:
    cfg = _load(args)
    doc = {"K": cfg.K, "inequalities": analysis.region_inequalities(cfg)}
    if cfg.K == 2:
        region = analysis.two_user_region(cfg)
        doc["coeffs"] = {"w1": region.w1, "w2": region.w2, "w12": region.w12}
        doc["vertices"] = [list(v) for v in region.vertices]
        doc["intercepts"] = {"-".join(map(str, perm)): list(v)
                             for perm, v in region.intercepts.items()}
    if len(set(cfg.delta)) == 1 and len(set(cfg.mem)) == 1:
        doc["symmetric_vertex_rates"] = list(analysis.symmetric_vertex(
            cfg.K, cfg.delta[0], cfg.p[0], range(1, cfg.K + 1)).rates)
    _emit_json(doc)
    return 0


def _cmd_feasible(args) -> int:
    cfg = _load(args)
    rates = RateVector(tuple(float(x) for x in args.rates.split(",")))
    res = analysis.feasibility(cfg, rates)
    _emit_json({"feasible": res.feasible, "worst_perm": list(res.worst_perm),
                "max_lhs": res.max_lhs})
    return 0


def _cmd_ttot(args) -> int:
    cfg = _load(args)
    demand = _parse_demand(cfg, args.demand)
    value, perm = analysis.ttot_closed_form(cfg, demand)
    total = analysis.phase_plan(cfg, demand).total
    # the gap between the totals as printed, so equal totals read 0
    gap = float(f"{total:.12g}") - float(f"{value:.12g}")
    _emit_json({"ttot_closed_form": value, "maximizer": list(perm),
                "plan_total": total, "gap": gap})
    return 0


def _cmd_plan(args) -> int:
    cfg = _load(args)
    demand = _parse_demand(cfg, args.demand)
    print(_plan_text(analysis.phase_plan(cfg, demand)))
    return 0


def _placement_for(cfg, scheme, seed):
    if scheme == "centralized":
        return centralized_placement(cfg)
    return decentralized_placement(cfg, seed)


# packets; above this, length-only.  Full tracking with decoding at K=3,
# p=0.5, delta=0.3, timed as bench/baselines.py does (2-vCPU x86-64
# host, Python 3.11, numpy 2.4, seeds 1 and 2, medians of three runs,
# three sessions): 3k, 6k, 12k and 60k packets in 0.04-0.07, 0.09-0.13,
# 0.15-0.27 and 1.6-2.0 s.  Larger instances would now finish in
# seconds too; the limit stays at 12k so that the same configs decode
# by default as when it was set, and `--full` reaches the rest.
FULL_TRACKING_AUTO_LIMIT = 12_000
FULL_TRACKING_HARD_LIMIT = 300_000


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    demand = _parse_demand(cfg, args.demand)
    if not 1 <= args.start_phase <= cfg.K:
        raise ConfigError(f"--start-phase must be in 1..{cfg.K}")
    # the full engine never sends the packets of skipped phases, so it
    # cannot decode a delivery that starts past phase 1
    if args.full and args.start_phase > 1:
        raise ConfigError("--full needs --start-phase 1; a later start "
                          "phase runs length-only")
    if args.cleanup_budget is not None and args.cleanup_budget < 0:
        raise ConfigError("--cleanup-budget must be >= 0")
    npackets = sum(cfg.file_sizes)
    full = not args.length_only and args.start_phase == 1 and (
        args.full or npackets <= FULL_TRACKING_AUTO_LIMIT)
    if args.full and npackets > FULL_TRACKING_HARD_LIMIT:
        raise ConfigError(
            f"{npackets} packets is too large for full equation tracking; "
            "use --length-only")
    if args.trace and not full:
        raise ConfigError("--trace requires full tracking")
    if args.cleanup_budget is not None and not full:
        raise ConfigError("--cleanup-budget requires full tracking")
    if args.export_placement and npackets > PLACEMENT_EXPORT_LIMIT:
        raise ConfigError("placement export refused: instance too large")
    pseed, dseed = experiments.trial_seeds(args.seed)
    pm = _placement_for(cfg, args.scheme, pseed)
    if args.export_placement:
        with open(args.export_placement, "w") as fh:
            json.dump(pm.to_json(), fh)
    if full:
        trace = [] if args.trace else None
        res = run_delivery(cfg, pm, demand, seed=dseed,
                           cleanup_budget=args.cleanup_budget, trace=trace)
        if args.trace:
            with open(args.trace, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(["slot", "subphase", "receivers", "action"])
                w.writerows(trace)
    else:
        # a later start phase is the same delivery with the pools of fewer
        # members emptied; as a batch of one, it keeps no promotions
        needs = initial_needs(cfg, pm, demand)
        needs[[bin(m).count("1") < args.start_phase
               for m in range(len(needs))]] = 0
        res = simulate_lengths(cfg.K, cfg.delta, needs[None],
                               [dseed]).result(0)
    doc = res.to_json()
    doc["seed"] = args.seed
    doc["mode"] = "full" if full else "length"
    # files of no packets take no slots
    doc["slots_per_file_unit"] = (res.slots_total / cfg.mean_file_size
                                  if cfg.mean_file_size else 0.0)
    _emit_json(doc)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    spec = experiments.SweepSpec(
        varying=args.vary,
        grid=[float(x) for x in args.grid.split(",")],
        base=cfg, trials=args.trials,
        F=experiments.DEFAULT_SWEEP_F if args.F is None else args.F,
        seed=args.seed, jobs=args.jobs, scheme=args.scheme)
    rows = experiments.sweep(spec)
    if args.output == "json":
        _emit_json(rows)
    else:
        _emit_csv(rows, experiments.SWEEP_COLUMNS)
    return 0


def _cmd_optimize_mem(args) -> int:
    cfg = _load(args)
    alloc = experiments.optimize_memory(cfg, args.budget, args.step)
    _emit_json({
        "budget": alloc.budget,
        "mem": list(alloc.mem),
        "objective": alloc.objective,
        "lower_bound_mem": list(alloc.lower_bound_mem),
        "lower_bound": alloc.lower_bound,
    })
    return 0


def _cmd_verify(args) -> int:
    report = analysis.identity_suite(K=args.K, samples=args.samples,
                                     seed=args.seed)
    ok = report.ok()
    _emit_json({
        "residuals": report.residuals,
        "max_residual": report.max_residual,
        "worst_user_ok": report.worst_user_ok,
        "dominance_ok": report.dominance_ok,
        "ok": ok,
    })
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was."""
    top = _Parser(prog="ebcache", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p, F=False, seed=False):
        p.add_argument("--config", required=True, help="config JSON path")
        if F:
            p.add_argument("--F", type=int, default=None,
                           help="override every file size")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("region", help="emit rate-region inequalities")
    common(p)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("feasible", help="check a rate vector")
    common(p)
    p.add_argument("--rates", required=True, help="comma-separated rates")
    p.set_defaults(fn=_cmd_feasible)

    p = sub.add_parser("ttot", help="closed-form and planned lengths")
    common(p, F=True)
    p.add_argument("--demand", default="")
    p.set_defaults(fn=_cmd_ttot)

    p = sub.add_parser("plan", help="full sub-phase length plan")
    common(p, F=True)
    p.add_argument("--demand", default="")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("simulate", help="one seeded packet-level trial")
    common(p, F=True, seed=True)
    p.add_argument("--demand", default="")
    p.add_argument("--scheme", choices=("decentralized", "centralized"),
                   default="decentralized")
    p.add_argument("--start-phase", type=int, default=1, dest="start_phase")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--length-only", action="store_true", dest="length_only",
                      help="track slot counts only (fast, no decoding)")
    mode.add_argument("--full", action="store_true",
                      help="force equation tracking and decoding")
    p.add_argument("--trace", default="", help="per-slot CSV path")
    p.add_argument("--export-placement", default="", dest="export_placement")
    p.add_argument("--cleanup-budget", type=int, default=None,
                   dest="cleanup_budget")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sweep", help="parameter sweep over a grid")
    common(p, F=True, seed=True)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--vary", choices=("delta", "mem", "K"), required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=experiments.DEFAULT_TRIALS)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes for the trials (>= 1, default: "
                   "the CPU count); never more than the trials or the "
                   "CPUs, and the results do not depend on it")
    p.add_argument("--scheme", choices=("decentralized", "centralized"),
                   default="decentralized")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("optimize-mem", help="cache allocation grid search")
    common(p, F=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(fn=_cmd_optimize_mem)

    p = sub.add_parser("verify", help="run the analytic identity suite")
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DeliveryError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
