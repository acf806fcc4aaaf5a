from dataclasses import replace
from math import comb

import numpy as np
import pytest

from ebcache import analysis, experiments, fastsim
from ebcache.experiments import (SweepSpec, monte_carlo, optimize_memory,
                                 order_capacity_trial, sweep)
from ebcache.model import SystemConfig
from ebcache.placement import centralized_placement, decentralized_placement


def cfg_of(delta, p, N=None, F=1000):
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p), file_sizes=(F,) * N)


def test_monte_carlo_is_deterministic():
    cfg = cfg_of((0.4, 0.4), (0.5, 0.5), F=2000)
    a = monte_carlo(cfg, trials=5, seed=3)
    b = monte_carlo(cfg, trials=5, seed=3)
    assert a.per_trial == b.per_trial


def test_monte_carlo_parallel_matches_serial():
    cfg = cfg_of((0.4, 0.4), (0.5, 0.5), F=2000)
    a = monte_carlo(cfg, trials=4, seed=3, jobs=1)
    b = monte_carlo(cfg, trials=4, seed=3, jobs=2)
    assert a.per_trial == b.per_trial


class RecordingExecutor:
    """Stands in for `ProcessPoolExecutor`: records the pool size asked
    for and runs the tasks in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, trials, cpus, size", [
    (1000, 2, 8, 2), (1000, 10, 3, 3), (2, 10, 8, 2), (1, 10, 8, None),
    (4, 1, 8, None), (4, 10, 1, None)])
def test_monte_carlo_pool_is_bounded_by_trials_and_cpus(monkeypatch, jobs,
                                                        trials, cpus, size):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    cfg = cfg_of((0.4, 0.4), (0.5, 0.5), F=200)
    res = monte_carlo(cfg, trials=trials, seed=3, jobs=jobs)
    assert RecordingExecutor.sizes == ([] if size is None else [size])
    assert res.per_trial == monte_carlo(cfg, trials=trials, seed=3).per_trial


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_are_refused(monkeypatch, jobs):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    cfg = cfg_of((0.4, 0.4), (0.5, 0.5), F=200)
    with pytest.raises(ValueError, match="jobs"):
        monte_carlo(cfg, trials=2, jobs=jobs)
    with pytest.raises(ValueError, match="jobs"):
        SweepSpec(varying="mem", grid=[0.0], base=cfg, trials=2, jobs=jobs)
    assert RecordingExecutor.sizes == []


def test_monte_carlo_perfect_link_no_cache_has_zero_variance():
    cfg = cfg_of((0.0,) * 2, (0.0,) * 2, F=500)
    res = monte_carlo(cfg, trials=5, seed=1)
    assert res.stderr == 0.0
    assert res.mean == pytest.approx(2.0, abs=0)


def test_monte_carlo_tracks_plan():
    F = 20_000
    cfg = cfg_of((0.5,) * 3, (0.5,) * 3, F=F)
    res = monte_carlo(cfg, trials=10, seed=0)
    plan = analysis.phase_plan(cfg).total / F
    # trial variance plus the finite-size worst-user allowance
    tol = max(res.ci95, 0.02 * plan)
    assert abs(res.mean - plan) <= tol


def test_order_capacity_trial_matches_formula():
    res = order_capacity_trial(3, 0.5, 2, 50_000, trials=5, seed=2)
    assert abs(res.mean - 9 / 16) / (9 / 16) < 0.01


def test_sweep_rows_and_reproducibility():
    base = cfg_of((0.6,) * 3, (0.0,) * 3, N=6)
    spec = SweepSpec(varying="mem", grid=[0, 3, 6], base=base,
                     trials=3, F=1500, seed=4)
    rows1 = sweep(spec)
    rows2 = sweep(spec)
    assert rows1 == rows2
    assert [r["param"] for r in rows1] == [0, 3, 6]
    for row in rows1:
        assert {"T_fb", "T_nofb", "T_sim_mean", "T_sim_ci95"} <= set(row)
    # full caches: every scheme needs nothing
    assert rows1[-1]["T_fb"] == 0.0
    assert rows1[-1]["T_nofb"] == 0.0
    assert rows1[-1]["T_sim_mean"] == 0.0


def test_sweep_perfect_link_feedback_gains_vanish():
    base = cfg_of((0.0,) * 3, (0.0,) * 3, N=6)
    spec = SweepSpec(varying="mem", grid=[0, 2, 4], base=base,
                     trials=2, F=600, seed=0)
    for row in sweep(spec):
        assert row["T_fb"] == pytest.approx(row["T_nofb"], abs=1e-12)


def test_sweep_can_vary_user_count():
    base = cfg_of((0.4,) * 2, (0.25,) * 2, N=6)
    spec = SweepSpec(varying="K", grid=[2, 4], base=base,
                     trials=2, F=500, seed=2)
    rows = sweep(spec)
    assert [r["param"] for r in rows] == [2, 4]
    # more users with the same per-user cache take longer overall
    assert rows[1]["T_fb"] > rows[0]["T_fb"]


def test_sweep_invalid_grid_point_is_reported_not_fatal():
    base = cfg_of((0.3,) * 2, (0.0,) * 2)
    spec = SweepSpec(varying="delta", grid=[0.2, 1.5], base=base,
                     trials=2, F=400, seed=0)
    rows = sweep(spec)
    assert "T_fb" in rows[0]
    assert "error" in rows[1] and "delta" in rows[1]["error"]


def test_sweep_spec_validation():
    base = cfg_of((0.3,) * 2, (0.0,) * 2)
    with pytest.raises(ValueError):
        SweepSpec(varying="mem", grid=[], base=base)
    with pytest.raises(ValueError):
        SweepSpec(varying="q", grid=[1], base=base)
    with pytest.raises(ValueError):
        SweepSpec(varying="mem", grid=[1], base=base, trials=0)


# -- the per-trial Monte Carlo path, the oracle of the batched one ---------


def loop_monte_carlo(cfg, trials, seed, scheme="decentralized"):
    """Each trial run alone: every file of the placement drawn, then one
    `simulate_lengths` from the needs table of the whole placement."""
    values = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        pseed, dseed = experiments.trial_seeds(child)
        pm = (centralized_placement(cfg) if scheme == "centralized"
              else decentralized_placement(cfg, pseed))
        res = fastsim.simulate_lengths(cfg.K, cfg.delta,
                                       fastsim.initial_needs(cfg, pm), dseed)
        values.append(res.slots_total / cfg.mean_file_size)
    return values


def loop_order_capacity(K, delta, order, n_packets, trials, seed):
    needs = fastsim.order_start_needs(K, order, n_packets)
    return [comb(K, order) * n_packets / fastsim.simulate_lengths(
        K, (delta,) * K, needs, experiments.trial_seeds(child)[1]).slots_total
        for child in np.random.SeedSequence(seed).spawn(trials)]


def loop_sweep(spec):
    """The sweep one grid point at a time, each point's trials alone."""
    rows = []
    row_seeds = np.random.SeedSequence(spec.seed).generate_state(
        len(spec.grid))
    for idx, value in enumerate(spec.grid):
        row = {"param": value, "trials": spec.trials, "F": spec.F,
               "seed": spec.seed}
        try:
            cfg = experiments._config_at(spec, value)
            if spec.scheme == "centralized":
                centralized_placement(cfg)
        except ValueError as exc:
            row["error"] = str(exc)
            rows.append(row)
            continue
        F = float(spec.F)
        row["T_fb"] = analysis.ttot_closed_form(cfg)[0] / F
        if experiments._symmetric(cfg):
            row["T_nofb"] = analysis.ttot_no_feedback(
                cfg.K, cfg.delta[0], cfg.mem[0], cfg.N, F, spec.scheme) / F
            b = cfg.mem[0] * cfg.K / cfg.N
            if abs(b - round(b)) < 1e-9:
                row["T_cent"] = analysis.ttot_centralized(
                    cfg.K, cfg.delta[0], cfg.mem[0], cfg.N, F) / F
        mc = experiments._summary(loop_monte_carlo(
            cfg, spec.trials, int(row_seeds[idx]), spec.scheme),
            int(row_seeds[idx]))
        row["T_sim_mean"] = mc.mean
        row["T_sim_ci95"] = mc.ci95
        rows.append(row)
    return rows


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("cfg, scheme", [
    (cfg_of((0.4, 0.7), (0.5, 0.2), F=300), "decentralized"),
    (cfg_of((0.3, 0.5, 0.6), (0.5, 0.3, 0.1), N=5, F=200), "decentralized"),
    (SystemConfig(K=3, N=6, delta=(0.2, 0.5, 0.8), mem=(1.0, 4.5, 6.0),
                  file_sizes=(50, 0, 120, 7, 300, 90)), "decentralized"),
    (cfg_of((0.0,), (0.5,), N=3, F=100), "decentralized"),
    (SystemConfig(K=3, N=6, delta=(0.5,) * 3, mem=(2.0,) * 3,
                  file_sizes=(120,) * 6), "centralized")])
def test_monte_carlo_matches_each_trial_run_alone(cfg, scheme, jobs):
    res = monte_carlo(cfg, trials=5, seed=11, scheme=scheme, jobs=jobs)
    assert res.per_trial == loop_monte_carlo(cfg, 5, 11, scheme)


@pytest.mark.parametrize("K, order", [(3, 2), (2, 1), (1, 1), (4, 3)])
def test_order_capacity_matches_each_trial_run_alone(K, order):
    res = order_capacity_trial(K, 0.4, order, 800, trials=4, seed=5)
    assert res.per_trial == loop_order_capacity(K, 0.4, order, 800, 4, 5)


SWEEPS = {
    "delta": SweepSpec(varying="delta", grid=[0.0, 0.3, 0.9, 1.5],
                       base=cfg_of((0.5,) * 3, (0.25,) * 3, N=6),
                       trials=3, F=300, seed=4),
    "mem": SweepSpec(varying="mem", grid=[0, 2, 3, 6, 7],
                     base=cfg_of((0.6,) * 3, (0.0,) * 3, N=6),
                     trials=3, F=300, seed=5),
    "K": SweepSpec(varying="K", grid=[1, 2, 3, 4],
                   base=cfg_of((0.4,) * 2, (0.25,) * 2, N=6),
                   trials=2, F=240, seed=6),
    "centralized": SweepSpec(varying="mem", grid=[0, 2, 3, 6],
                             base=cfg_of((0.5,) * 3, (0.0,) * 3, N=6),
                             trials=3, F=300, seed=7, scheme="centralized"),
}


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_each_point_run_alone(name, jobs):
    spec = replace(SWEEPS[name], jobs=jobs)
    assert sweep(spec) == loop_sweep(spec)


def test_sweep_uses_one_worker_pool(monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    spec = replace(SWEEPS["delta"], jobs=3)
    assert sweep(spec) == loop_sweep(spec)
    assert RecordingExecutor.sizes == [3]


def test_batches_split_by_the_cell_cap_change_no_result(monkeypatch):
    cfg = cfg_of((0.3, 0.5, 0.6), (0.5, 0.3, 0.1), N=5, F=200)
    want = loop_monte_carlo(cfg, 7, 2)
    monkeypatch.setattr(fastsim, "BATCH_CELLS", 1)     # one trial a batch
    assert fastsim.batch_trials(cfg.K) == 1
    assert monte_carlo(cfg, trials=7, seed=2).per_trial == want


def test_a_trial_draws_only_the_files_its_users_read(monkeypatch):
    drawn = []

    def recording(cfg, seed, files=None):
        pm = decentralized_placement(cfg, seed, files)
        drawn.append(len(pm.cache_masks))
        return pm

    monkeypatch.setattr(experiments, "decentralized_placement", recording)
    cfg = cfg_of((0.3, 0.5), (0.5, 0.5), N=30, F=100)
    res = monte_carlo(cfg, trials=4, seed=1)
    assert res.per_trial == loop_monte_carlo(cfg, 4, 1)
    assert drawn == [cfg.K] * 4


def test_optimize_memory_full_budget_needs_nothing():
    cfg = cfg_of((0.4,) * 2, (0.0,) * 2, N=4, F=1)
    alloc = optimize_memory(cfg, budget=8, step=1)
    assert alloc.mem == (4.0, 4.0)
    assert alloc.objective == pytest.approx(0.0, abs=1e-12)


def test_optimize_memory_symmetric_case_ties_symmetric_allocation():
    cfg = cfg_of((0.5,) * 3, (0.0,) * 3, N=3, F=1)
    alloc = optimize_memory(cfg, budget=3, step=1)
    sym = analysis.phase_plan(cfg.with_mem((1.0,) * 3)).total
    assert alloc.objective == pytest.approx(sym, abs=1e-12)


def test_optimize_memory_objective_non_increasing_in_budget():
    cfg = cfg_of((0.2, 0.4, 0.6), (0.0,) * 3, N=6, F=1)
    objs = [optimize_memory(cfg, budget=b, step=1).objective
            for b in (0, 6, 12, 18)]
    assert all(a >= b - 1e-12 for a, b in zip(objs, objs[1:]))


def test_optimize_memory_guards():
    cfg = cfg_of((0.2,) * 4, (0.0,) * 4, N=20, F=1)
    with pytest.raises(ValueError, match="divide"):
        optimize_memory(cfg, budget=10, step=3)
    with pytest.raises(ValueError, match="guard"):
        optimize_memory(cfg, budget=40, step=0.001)
    with pytest.raises(ValueError, match="budget"):
        optimize_memory(cfg, budget=1000, step=1)


def test_optimize_memory_reports_closed_form_companion():
    cfg = cfg_of((0.2, 0.6), (0.0,) * 2, N=4, F=1)
    alloc = optimize_memory(cfg, budget=4, step=1)
    assert alloc.lower_bound <= alloc.objective + 1e-12
    assert sum(alloc.lower_bound_mem) == pytest.approx(4.0)
