"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the printed
summaries on success).
"""

import itertools
import time

import numpy as np
import pytest

from ebcache import analysis, experiments
from ebcache.analysis import (phase_plan, random_one_sided_fair,
                              ttot_centralized, ttot_closed_form,
                              two_user_region)
from ebcache.delivery import run_delivery
from ebcache.experiments import monte_carlo, optimize_memory
from ebcache.model import RateVector, SystemConfig, is_one_sided_fair
from ebcache.placement import centralized_placement, decentralized_placement


def cfg_of(delta, p, N=None, sizes=None, F=1):
    K = len(delta)
    N = N or K
    if sizes is None:
        sizes = (F,) * N
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p), file_sizes=tuple(sizes))


def test_criterion_1_two_user_region_reference_values():
    r = two_user_region(cfg_of((1 / 4, 1 / 2), (1 / 3, 2 / 3)))
    assert r.w1 == pytest.approx(8 / 9, abs=1e-12)
    assert r.w12 == pytest.approx(16 / 63, abs=1e-12)
    assert r.w2 == pytest.approx(2 / 3, abs=1e-12)
    assert r.vertices[0] == pytest.approx((9 / 8, 0.0), abs=1e-12)
    # the quoted (0, 63/16) extreme point is the first inequality's R2
    # axis crossing; the binding corner on that axis is (0, 3/2)
    assert r.intercepts[(1, 2)][1] == pytest.approx(63 / 16, abs=1e-12)
    assert r.vertices[2] == pytest.approx((0.0, 3 / 2), abs=1e-12)
    x, y = r.vertices[1]
    assert x == pytest.approx(0.78, abs=5e-3)
    assert y == pytest.approx(1.20, abs=5e-3)
    assert x + y == pytest.approx(1.98, abs=5e-3)
    assert y / x == pytest.approx(20 / 13, abs=1e-6)

    r0 = two_user_region(cfg_of((1 / 4, 1 / 2), (0.0, 0.0)))
    assert r0.vertices[0] == pytest.approx((3 / 4, 0.0), abs=1e-12)
    assert r0.vertices[1] == pytest.approx((0.63, 0.14), abs=1e-12)
    assert r0.vertices[2] == pytest.approx((0.0, 1 / 2), abs=1e-12)
    x0, y0 = r0.vertices[1]
    assert x0 + y0 == pytest.approx(0.77, abs=5e-3)
    assert y0 / x0 == pytest.approx(2 / 9, abs=1e-9)
    print("ACCEPTANCE 1: PASS — two-user region reference values reproduced")


DELTAS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9)
PS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _fair_or_symmetric(cfg, sizes):
    if len(set(cfg.delta)) == 1 and len(set(cfg.p)) == 1 and len(set(sizes)) == 1:
        return True
    try:
        return is_one_sided_fair(cfg, RateVector(sizes))
    except ValueError:
        return False


def test_criterion_2_recursion_matches_closed_form():
    # K=2: every configuration
    worst2 = 0.0
    for d in itertools.product(DELTAS, repeat=2):
        for p in itertools.product(PS, repeat=2):
            cfg = cfg_of(d, p)
            for F in ((1.0, 1.0), (1.0, 3.0), (5.0, 1.0)):
                plan = phase_plan(cfg, sizes=F).total
                closed, _ = ttot_closed_form(cfg, sizes=F)
                worst2 = max(worst2, abs(plan - closed))
    assert worst2 < 1e-9

    # K=3: every configuration meeting the equality hypotheses
    # (one-sided-fair size vector or fully symmetric); for the remaining
    # general asymmetric points the schedule may exceed the closed form,
    # which is reported, and the closed form stays a lower bound
    worst3 = 0.0
    gap3 = 0.0
    n_checked = 0
    for d in itertools.product(DELTAS, repeat=3):
        for p in itertools.product(PS, repeat=3):
            cfg = cfg_of(d, p)
            for F in ((1.0, 1.0, 1.0), (1.0, 2.0, 4.0), (4.0, 2.0, 1.0)):
                plan = phase_plan(cfg, sizes=F).total
                closed, _ = ttot_closed_form(cfg, sizes=F)
                assert plan >= closed - 1e-9
                if _fair_or_symmetric(cfg, F):
                    worst3 = max(worst3, abs(plan - closed))
                    n_checked += 1
                else:
                    gap3 = max(gap3, plan - closed)
    assert n_checked > 2000
    assert worst3 < 1e-9

    # 1000 random one-sided-fair configurations, K in {4, 5}
    rng = np.random.default_rng(11)
    worst45 = 0.0
    for i in range(1000):
        K = 4 + (i % 2)
        d, p, rates = random_one_sided_fair(K, rng)
        cfg = cfg_of(d, p)
        plan = phase_plan(cfg, sizes=rates).total
        closed, _ = ttot_closed_form(cfg, sizes=rates)
        worst45 = max(worst45, abs(plan - closed))
    assert worst45 < 1e-9

    # symmetric grids K = 2..8
    worst_sym = 0.0
    for K in range(2, 9):
        for d in DELTAS:
            for p in PS:
                cfg = cfg_of((d,) * K, (p,) * K)
                plan = phase_plan(cfg).total
                closed, _ = ttot_closed_form(cfg)
                worst_sym = max(worst_sym, abs(plan - closed))
    assert worst_sym < 1e-9
    print(f"ACCEPTANCE 2: PASS — residuals: K=2 {worst2:.1e}, "
          f"K=3 hypothesis set {worst3:.1e} ({n_checked} configs), "
          f"K=4/5 one-sided {worst45:.1e}, symmetric {worst_sym:.1e}; "
          f"largest general K=3 schedule/closed-form gap {gap3:.3f}")


def test_criterion_3_identity_suite():
    report = analysis.identity_suite(K=5, samples=1000, seed=7)
    for name, value in report.residuals.items():
        assert value < 1e-9, name
    assert report.worst_user_ok
    assert report.dominance_ok
    print("ACCEPTANCE 3: PASS — identity suite max residual "
          f"{report.max_residual:.2e}, worst-user and dominance checks hold")


def test_criterion_4_monte_carlo_convergence():
    t0 = time.time()
    sym = cfg_of((0.5,) * 3, (0.5,) * 3, F=100_000)
    res = monte_carlo(sym, trials=20, seed=41)
    target = 31 / 21
    rel_sym = abs(res.mean - target) / target
    assert rel_sym < 0.01

    toy = cfg_of((0.25, 0.5), (1 / 3, 2 / 3), F=100_000)
    res2 = monte_carlo(toy, trials=20, seed=42)
    rel_toy = abs(res2.mean - 8 / 7) / (8 / 7)
    assert rel_toy < 0.01
    print(f"ACCEPTANCE 4: PASS — symmetric {res.mean:.5f} vs {target:.5f} "
          f"({rel_sym:.2%}), asymmetric {res2.mean:.5f} vs {8 / 7:.5f} "
          f"({rel_toy:.2%}) in {time.time() - t0:.0f}s")


def test_criterion_5_end_to_end_decodability():
    combos = []
    for K in (2, 3, 4):
        for scheme in ("decentralized", "centralized"):
            for dcase in ("sym", "asym"):
                combos.append((K, scheme, dcase))
    trials_per = {c: 8 for c in combos}
    for c in combos[:4]:
        trials_per[c] += 1
    assert sum(trials_per.values()) == 100

    # trial seeds come from one integer, never from salted hash(); each
    # trial derives its placement and delivery seeds from its own
    seeds = iter(np.random.SeedSequence(5).generate_state(100).tolist())
    total_slots = total_cleanup = n_trials = 0
    for (K, scheme, dcase) in combos:
        delta = ((0.3,) * K if dcase == "sym"
                 else tuple(0.2 + 0.1 * i for i in range(K)))
        if scheme == "centralized":
            cfg = cfg_of(delta, (1 / K,) * K, F=1008)
        else:
            cfg = cfg_of(delta, (0.5,) * K, F=1000)
        for t in range(trials_per[(K, scheme, dcase)]):
            pseed, dseed = experiments.trial_seeds(next(seeds))
            pm = (centralized_placement(cfg) if scheme == "centralized"
                  else decentralized_placement(cfg, pseed))
            res = run_delivery(cfg, pm, seed=dseed)
            assert res.decode_ok == [True] * K
            total_slots += res.slots_total
            total_cleanup += res.cleanup_slots
            n_trials += 1
    assert n_trials == 100
    assert total_cleanup / total_slots < 0.01
    print(f"ACCEPTANCE 5: PASS — 100/100 byte-exact trials, cleanup "
          f"fraction {total_cleanup / total_slots:.2e}")


def test_criterion_6_order_capacities():
    t0 = time.time()
    r2 = experiments.order_capacity_trial(3, 0.5, 2, 100_000, trials=5, seed=6)
    assert abs(r2.mean - 9 / 16) / (9 / 16) < 0.01

    r3 = experiments.order_capacity_trial(3, 0.5, 3, 100_000, trials=5, seed=6)
    assert abs(r3.mean - 0.5) / 0.5 < 0.01

    nocache = cfg_of((0.5,) * 3, (0.0,) * 3, F=100_000)
    res = monte_carlo(nocache, trials=5, seed=6)
    r1 = 3 / res.mean
    assert abs(r1 - 63 / 94) / (63 / 94) < 0.01
    print(f"ACCEPTANCE 6: PASS — order rates {r2.mean:.4f}/{9 / 16:.4f}, "
          f"{r3.mean:.4f}/0.5, {r1:.4f}/{63 / 94:.4f} in {time.time() - t0:.0f}s")


def test_criterion_7_centralized_results():
    for K in range(1, 9):
        for b in range(0, K + 1):
            M = b * K / K  # N = K, so M = b keeps b = M*K/N integral
            got = ttot_centralized(K, 0.0, M, K, 1.0)
            want = K * (1 - M / K) / (1 + K * M / K)
            assert abs(got - want) < 1e-12

    cfg = cfg_of((0.5,) * 3, (1 / 3,) * 3, F=99_999)
    res = monte_carlo(cfg, trials=8, seed=71, scheme="centralized")
    rel = abs(res.mean - 16 / 9) / (16 / 9)
    assert rel < 0.01
    print(f"ACCEPTANCE 7: PASS — no-erasure closed form exact; simulated "
          f"centralized {res.mean:.5f} vs {16 / 9:.5f} ({rel:.2%})")


def test_criterion_8_baseline_sweeps_and_memory_optimization():
    base = SystemConfig(K=10, N=100, delta=(0.6,) * 10, mem=(0.0,) * 10,
                        file_sizes=(1,) * 100)
    for d in (0.0, 0.2, 0.6):
        spec = experiments.SweepSpec(
            varying="mem", grid=list(range(0, 101, 10)),
            base=SystemConfig(K=10, N=100, delta=(d,) * 10, mem=(0.0,) * 10,
                              file_sizes=(1,) * 100),
            trials=2, F=2000, seed=8)
        rows = experiments.sweep(spec)
        for row in rows:
            assert "error" not in row
            assert row["T_fb"] <= row["T_nofb"] + 1e-9
            if d == 0.0:
                assert row["T_fb"] == pytest.approx(row["T_nofb"], abs=1e-9)
        assert rows[-1]["T_fb"] == pytest.approx(0.0, abs=1e-12)
        assert rows[-1]["T_nofb"] == pytest.approx(0.0, abs=1e-12)

    cfg = cfg_of(tuple(k / 5 for k in range(1, 5)), (0.0,) * 4, N=20, F=1)
    gains = []
    for M in range(0, 21, 2):
        alloc = optimize_memory(cfg, budget=4 * M, step=2)
        sym = phase_plan(cfg.with_mem((float(M),) * 4)).total
        assert alloc.objective <= sym + 1e-12
        gains.append(sym - alloc.objective)
    assert max(gains) > 0.01   # optimizing the split genuinely helps
    print("ACCEPTANCE 8: PASS — feedback dominates no-feedback on every "
          f"grid point; optimized allocation beats symmetric by up to "
          f"{max(gains):.3f} file units")
