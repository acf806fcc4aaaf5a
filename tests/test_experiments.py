import pytest

from ebcache import analysis, experiments
from ebcache.experiments import (SweepSpec, monte_carlo, optimize_memory,
                                 order_capacity_trial, sweep)
from ebcache.model import SystemConfig


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
