"""Monte Carlo harness, parameter sweeps and cache-size allocation
search.

All randomness flows from one base seed through SeedSequence spawning,
one placement and one delivery seed per trial, so identical specs give
bit-identical tables regardless of worker count or batching.  Demands
are fixed to user k requesting file k throughout, so a decentralized
trial draws only files 1..K, the first its placement generator fills.
Trials that share K and the erasure probabilities go to
`fastsim.simulate_lengths` as one stack of needs tables, at most
`fastsim.batch_trials(K)` at a time; with more than one worker process,
each such group is split into one part per worker, and a sweep runs all
its grid points' trials through one pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from math import comb, isfinite, sqrt

import numpy as np

from . import analysis, fastsim
from .model import SystemConfig
from .placement import centralized_placement, decentralized_placement

DEFAULT_TRIALS = 20
DEFAULT_SWEEP_F = 10_000
# optimize-mem's largest search in plan cells, allocations x K * 2^K:
# about 10 s at the guard (2-vCPU x86-64 host, K = 2 and K = 12 alike)
SEARCH_WORK_GUARD = 1 << 26


@dataclass
class MonteCarloResult:
    mean: float
    stderr: float
    ci95: float
    per_trial: list[float]
    trials: int
    seed: int


def _summary(values: list[float], seed: int) -> MonteCarloResult:
    """Mean, its standard error and 95% half-width over the trials."""
    trials = len(values)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloResult(mean, stderr, 1.96 * stderr, values, trials, seed)


def trial_seeds(seed: int | np.random.SeedSequence) -> tuple[int, int]:
    """Placement and delivery seeds of one trial: two independent words
    drawn from `seed`, so the caches and the channel never share a
    stream."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    pseed, dseed = seed.generate_state(2).tolist()
    return pseed, dseed


def _trials(cfg: SystemConfig, scheme: str, trials: int, seed: int) -> list:
    """One Monte Carlo run's trials: (config, scheme, placement seed,
    delivery seed) each, from `seed` spawned once per trial."""
    return [(cfg, scheme, *trial_seeds(child))
            for child in np.random.SeedSequence(seed).spawn(trials)]


def _slots(tasks: list, jobs: int) -> list[int]:
    """Each trial's slot count, in order.  Trials that share K and the
    erasure probabilities are simulated as batches, each such group split
    into one part per worker process; at most `jobs` of them run, never
    more than there are trials or CPUs."""
    groups: dict[tuple, list[int]] = {}
    for i, (cfg, *_) in enumerate(tasks):
        groups.setdefault((cfg.K, cfg.delta), []).append(i)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    parts = [part.tolist() for group in groups.values()
             for part in np.array_split(group, min(workers, len(group)))]
    batches = [[tasks[i] for i in part] for part in parts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_batch_slots, batches))
    else:
        done = map(_batch_slots, batches)
    slots = [0] * len(tasks)
    for part, counts in zip(parts, done):
        for i, n in zip(part, counts):
            slots[i] = n
    return slots


def _batch_slots(tasks: list) -> list[int]:
    """Slot counts of trials that share K and the erasure probabilities."""
    cfg = tasks[0][0]
    return _simulate(cfg.K, cfg.delta, [dseed for *_, dseed in tasks],
                     lambda t: _identity_needs(*tasks[t][:3]))


def _simulate(K: int, delta, dseeds: list, needs) -> list[int]:
    """Slot counts of trials on the delivery seeds `dseeds`, simulated
    `fastsim.batch_trials(K)` at a time; `needs(t)` gives trial t's
    initial needs table."""
    size = fastsim.batch_trials(K)
    slots = []
    for lo in range(0, len(dseeds), size):
        part = range(lo, min(lo + size, len(dseeds)))
        slots += fastsim.simulate_lengths(
            K, delta, np.stack([needs(t) for t in part]),
            dseeds[lo:part.stop]).slots
    return slots


def _identity_needs(cfg: SystemConfig, scheme: str, pseed: int
                    ) -> np.ndarray:
    """A trial's initial needs table, user k requesting file k.  Those
    are files 1..K, the first the placement generator fills, so a
    decentralized trial draws only them."""
    pm = (centralized_placement(cfg) if scheme == "centralized"
          else decentralized_placement(cfg, pseed, files=cfg.K))
    return fastsim.initial_needs(cfg, pm)


def monte_carlo(cfg: SystemConfig, trials: int = DEFAULT_TRIALS, seed: int = 0,
                scheme: str = "decentralized", jobs: int = 1
                ) -> MonteCarloResult:
    """Mean delivery length in file units over independent seeded trials,
    with a 95% confidence half-width.  User k requests file k.  The
    trials run as batches, split among at most `jobs` worker processes,
    never more than there are trials or CPUs; the results do not depend
    on how many, nor on the batches."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    slots = _slots(_trials(cfg, scheme, trials, seed), jobs)
    return _summary([n / cfg.mean_file_size for n in slots], seed)


def order_capacity_trial(K: int, delta: float, order: int, n_packets: int,
                         trials: int = 10, seed: int = 0) -> MonteCarloResult:
    """Empirical total rate of symbols wanted by exactly `order` users:
    every subset of that size is seeded and the pipeline entered there."""
    needs = fastsim.order_start_needs(K, order, n_packets)
    total_symbols = comb(K, order) * n_packets
    dseeds = [trial_seeds(child)[1]
              for child in np.random.SeedSequence(seed).spawn(trials)]
    slots = _simulate(K, (delta,) * K, dseeds, lambda t: needs)
    return _summary([total_symbols / n for n in slots], seed)


@dataclass
class SweepSpec:
    """One varying parameter over a grid, the rest fixed by a template."""

    varying: str                     # "delta" | "mem" | "K"
    grid: list[float]
    base: SystemConfig
    trials: int = DEFAULT_TRIALS
    F: int = DEFAULT_SWEEP_F
    seed: int = 0
    jobs: int = 1
    scheme: str = "decentralized"

    def __post_init__(self):
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.F < 1:
            raise ValueError("F must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.varying not in ("delta", "mem", "K"):
            raise ValueError(f"cannot vary {self.varying!r}")
        if self.varying == "K" and not all(float(v).is_integer()
                                           for v in self.grid):
            raise ValueError(f"K grid values must be whole numbers: "
                             f"{self.grid}")


SWEEP_COLUMNS = ["param", "T_fb", "T_nofb", "T_cent", "T_sim_mean",
                 "T_sim_ci95", "trials", "F", "seed"]


def _config_at(spec: SweepSpec, value) -> SystemConfig:
    base = spec.base
    sizes = (spec.F,) * base.N
    if spec.varying == "delta":
        return replace(base, delta=(float(value),) * base.K, file_sizes=sizes)
    if spec.varying == "mem":
        return replace(base, mem=(float(value),) * base.K, file_sizes=sizes)
    K = int(value)
    return SystemConfig(K=K, N=base.N, delta=(base.delta[0],) * K,
                        mem=(base.mem[0],) * K, file_sizes=sizes,
                        field_order=base.field_order)


def _symmetric(cfg: SystemConfig) -> bool:
    return len(set(cfg.delta)) == 1 and len(set(cfg.mem)) == 1


def sweep(spec: SweepSpec) -> list[dict]:
    """One row per grid point: analytic lengths (with and without
    feedback, centralized when defined) and the simulated mean, all
    normalized by the file size.  Every point's trials go to the
    simulator together, through one worker pool when `spec.jobs` > 1, so
    points of one K and one set of erasure probabilities share batches."""
    rows, points = [], []
    row_seeds = np.random.SeedSequence(spec.seed).generate_state(len(spec.grid))
    for idx, value in enumerate(spec.grid):
        row: dict = {"param": value, "trials": spec.trials, "F": spec.F,
                     "seed": spec.seed}
        rows.append(row)
        try:
            cfg = _config_at(spec, value)
            if spec.scheme == "centralized":
                centralized_placement(cfg)      # ValueError if it has none
        except ValueError as exc:               # a ConfigError included
            row["error"] = str(exc)
            continue
        F = float(spec.F)
        t_fb, _ = analysis.ttot_closed_form(cfg)
        row["T_fb"] = t_fb / F
        if _symmetric(cfg):
            row["T_nofb"] = analysis.ttot_no_feedback(
                cfg.K, cfg.delta[0], cfg.mem[0], cfg.N, F, spec.scheme) / F
            b = cfg.mem[0] * cfg.K / cfg.N
            if abs(b - round(b)) < 1e-9:
                row["T_cent"] = analysis.ttot_centralized(
                    cfg.K, cfg.delta[0], cfg.mem[0], cfg.N, F) / F
        seed = int(row_seeds[idx])
        points.append((row, cfg, seed,
                       _trials(cfg, spec.scheme, spec.trials, seed)))
    slots = iter(_slots([t for *_, tasks in points for t in tasks], spec.jobs))
    for row, cfg, seed, tasks in points:
        mc = _summary([next(slots) / cfg.mean_file_size for _ in tasks], seed)
        row["T_sim_mean"] = mc.mean
        row["T_sim_ci95"] = mc.ci95
    return rows


@dataclass
class MemoryAllocation:
    mem: tuple[float, ...]
    objective: float
    budget: float
    lower_bound_mem: tuple[float, ...] = ()
    lower_bound: float = 0.0


def _compositions(total: int, parts: int, cap: int, block: int):
    """Every way to write `total` as `parts` ordered parts, each in
    0..cap, in lexicographic order: int arrays of at most `block` rows."""
    yield from _extend(np.zeros((1, 0), dtype=np.int64), np.array([total]),
                       parts, cap, block)


def _extend(head, rest, parts: int, cap: int, block: int):
    """The compositions that start with a row of `head` and split its
    `rest` into `parts` more parts, rows of `head` in turn.  A part
    leaves no more than the later parts can hold, so every row
    completes; each step expands at most `block` rows at a time."""
    if parts == 1:
        done = np.column_stack((head, rest))[rest <= cap]
        if len(done):
            yield done
        return
    lo = np.maximum(rest - cap * (parts - 1), 0)
    count = np.maximum(np.minimum(rest, cap) - lo + 1, 0)
    ends = np.cumsum(count)
    for start in range(0, int(ends[-1]), block):
        at = np.arange(start, min(start + block, int(ends[-1])))
        row = np.searchsorted(ends, at, side="right")
        part = lo[row] + at - (ends[row] - count[row])
        yield from _extend(np.column_stack((head[row], part)),
                           rest[row] - part, parts - 1, cap, block)


def optimize_memory(cfg: SystemConfig, budget: float, step: float
                    ) -> MemoryAllocation:
    """Exhaustive search over the discretized simplex sum(M_k) = budget
    for the allocation minimizing the planned delivery length; also
    reports the closed-form minimizer as the companion lower bound.  The
    first allocation, in `_compositions` order, within 1e-15 of the
    minimum wins.  The grid goes through `analysis.allocation_lengths` in
    blocks of at most `analysis.BATCH_CELLS` plan cells; a search of more
    than SEARCH_WORK_GUARD cells in all is refused before any block."""
    if not (isfinite(budget) and isfinite(step)):
        raise ValueError("budget and step must be finite")
    if not 0 <= budget <= cfg.K * cfg.N:
        raise ValueError("budget outside [0, K*N]")
    if not step > 0:
        raise ValueError("step must be positive")
    n = round(budget / step)
    if abs(n * step - budget) > 1e-9:
        raise ValueError("step must divide budget")
    cap = int(cfg.N / step + 1e-9)
    space = comb(n + cfg.K - 1, cfg.K - 1)
    cells = cfg.K << cfg.K
    if space * cells > SEARCH_WORK_GUARD:
        raise ValueError(f"search work {space} allocations x {cells} plan "
                         f"cells exceeds guard {SEARCH_WORK_GUARD}")
    best = best_lb = float("inf")
    best_mem = best_lb_mem = (0.0,) * cfg.K
    block = max(1, analysis.BATCH_CELLS // cells)
    for parts in _compositions(n, cfg.K, cap, block):
        mems = parts.astype(float) * step
        objs, lbs = analysis.allocation_lengths(cfg, mems)
        best, best_mem = _first_wins(objs, mems, best, best_mem)
        best_lb, best_lb_mem = _first_wins(lbs, mems, best_lb, best_lb_mem)
    return MemoryAllocation(best_mem, best, budget, best_lb_mem, best_lb)


def _first_wins(values, mems, best, best_mem):
    """Scan a block in order: a value more than 1e-15 below the best so
    far becomes the best.  Only a value below the block's starting best
    can win, so only those are scanned."""
    for i in np.flatnonzero(values < best - 1e-15).tolist():
        if values[i] < best - 1e-15:
            best, best_mem = float(values[i]), tuple(mems[i].tolist())
    return best, best_mem
