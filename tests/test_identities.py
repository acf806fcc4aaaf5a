"""Randomized cross-checks between the recursion, the alternating-sum
form, the closed forms and the combinatorial ordering claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache import analysis
from ebcache.analysis import (phase_plan, random_one_sided_fair,
                              region_weight, subphase_length_alternating,
                              ttot_closed_form, worst_user,
                              permutation_dominance)
from ebcache.model import (RateVector, SystemConfig, is_one_sided_fair,
                           subsets_ascending, users_of)


def cfg_of(delta, p, sizes=None):
    K = len(delta)
    return SystemConfig(K=K, N=K, delta=tuple(delta),
                        mem=tuple(x * K for x in p),
                        file_sizes=tuple(sizes) if sizes else (1,) * K)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_alternating_sum_equals_recursion(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    cfg = cfg_of(rng.uniform(0, 0.95, K), rng.uniform(0, 1, K))
    F = tuple(rng.uniform(0.1, 4.0, K))
    plan = phase_plan(cfg, sizes=F)
    for Jm in subsets_ascending(K):
        J = users_of(Jm)
        for k in J:
            alt = subphase_length_alternating(cfg, J, k, F[k - 1])
            assert alt == pytest.approx(plan.t_user[(J, k)], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_aggregate_identity(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    cfg = cfg_of(rng.uniform(0, 0.95, K), rng.uniform(0, 1, K))
    F = tuple(rng.uniform(0.1, 4.0, K))
    plan = phase_plan(cfg, sizes=F)
    full = (1 << K) - 1
    for Jm in subsets_ascending(K):
        J = users_of(Jm)
        for k in J:
            agg = sum(plan.t_user[(users_of(Im), k)]
                      for Im in subsets_ascending(K)
                      if Im & ~Jm == 0 and Im >> (k - 1) & 1)
            rest = users_of((full & ~Jm) | (1 << (k - 1)))
            assert agg == pytest.approx(
                region_weight(cfg, rest) * F[k - 1], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_weights_lemma_telescopes(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    cfg = cfg_of(rng.uniform(0, 0.95, K), rng.uniform(0, 1, K))
    w = analysis._weights(cfg.p, cfg.delta)
    full = (1 << K) - 1
    for Jm in subsets_ascending(K):
        if Jm == full:
            continue
        acc = 0.0
        sub = Jm
        while True:
            inner = sub
            while True:
                sign = -1.0 if bin(inner).count("1") % 2 else 1.0
                acc += sign * w[(full & ~sub) | inner]
                if inner == 0:
                    break
                inner = (inner - 1) & sub
            if sub == 0:
                break
            sub = (sub - 1) & Jm
        assert acc == pytest.approx(w[full & ~Jm], abs=1e-12)


def test_capacity_decomposition_on_grid():
    for K in range(2, 9):
        for d in np.linspace(0.1, 0.9, 9):
            assert analysis.decomposition_residual(K, float(d), 1.0) < 1e-9


def test_phase_start_recursion_on_grid():
    for K in range(2, 9):
        for d in np.linspace(0.1, 0.9, 9):
            assert analysis.order_recursion_residual(K, float(d), 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_one_sided_fair_worst_user_is_smallest_index(K, seed):
    rng = np.random.default_rng(seed)
    d, p, rates = random_one_sided_fair(K, rng)
    cfg = cfg_of(d, p)
    assert is_one_sided_fair(cfg, RateVector(rates))
    plan = phase_plan(cfg, sizes=rates)
    for Jm in subsets_ascending(K):
        J = users_of(Jm)
        assert worst_user(plan, J) == J[0]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_one_sided_fair_plan_equals_closed_form(K, seed):
    rng = np.random.default_rng(seed)
    d, p, rates = random_one_sided_fair(K, rng)
    cfg = cfg_of(d, p)
    plan = phase_plan(cfg, sizes=rates)
    closed, perm = ttot_closed_form(cfg, sizes=rates)
    assert plan.total == pytest.approx(closed, abs=1e-9)
    assert perm == tuple(range(1, K + 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_one_sided_fair_identity_permutation_dominates(K, seed):
    rng = np.random.default_rng(seed)
    d, p, rates = random_one_sided_fair(K, rng)
    assert permutation_dominance(cfg_of(d, p), RateVector(rates))


def test_two_user_plan_always_equals_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(400):
        cfg = cfg_of(rng.uniform(0, 0.97, 2), rng.uniform(0, 1, 2))
        F = tuple(rng.uniform(0.05, 5.0, 2))
        plan = phase_plan(cfg, sizes=F)
        closed, _ = ttot_closed_form(cfg, sizes=F)
        assert plan.total == pytest.approx(closed, abs=1e-10)


def test_symmetric_plan_equals_closed_form():
    for K in range(2, 9):
        for d in (0.1, 0.5, 0.9):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = cfg_of((d,) * K, (p,) * K)
                plan = phase_plan(cfg)
                closed, _ = ttot_closed_form(cfg)
                assert plan.total == pytest.approx(closed, abs=1e-9)


def test_plan_never_beats_closed_form():
    # the closed form lower-bounds the per-subphase worst-user schedule
    rng = np.random.default_rng(1)
    for _ in range(300):
        K = int(rng.integers(2, 5))
        cfg = cfg_of(rng.uniform(0, 0.95, K), rng.uniform(0, 1, K))
        F = tuple(rng.uniform(0.1, 4.0, K))
        plan = phase_plan(cfg, sizes=F)
        closed, _ = ttot_closed_form(cfg, sizes=F)
        assert plan.total >= closed - 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_weight_monotone_in_cache_and_channel(seed):
    # bigger caches shrink the coefficient, worse channels grow it
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 6))
    d = rng.uniform(0.0, 0.9, K)
    p = rng.uniform(0.0, 0.9, K)
    cfg = cfg_of(d, p)
    Jm = int(rng.integers(1, 1 << K))
    J = users_of(Jm)
    j = J[int(rng.integers(len(J)))]
    base = region_weight(cfg, J)
    p2 = p.copy()
    p2[j - 1] = min(1.0, p2[j - 1] + rng.uniform(0, 0.1))
    assert region_weight(cfg_of(d, p2), J) <= base + 1e-12
    d2 = d.copy()
    d2[j - 1] = min(0.99, d2[j - 1] + rng.uniform(0, 0.09))
    assert region_weight(cfg_of(d2, p), J) >= base - 1e-12


def test_no_cache_weights_equal_feedback_capacity_coefficients():
    rng = np.random.default_rng(2)
    for _ in range(100):
        K = int(rng.integers(2, 6))
        d = rng.uniform(0.0, 0.95, K)
        cfg = cfg_of(d, np.zeros(K))
        Jm = int(rng.integers(1, 1 << K))
        J = users_of(Jm)
        want = 1.0 / (1.0 - np.prod([d[j - 1] for j in J]))
        assert region_weight(cfg, J) == pytest.approx(want, rel=1e-12)


def test_identity_suite_draws_one_sided_fair_instances_up_to_K(monkeypatch):
    # worst-user ordering, dominance and plan against closed form run on
    # every size up to K, the largest included
    drawn = []
    draw = analysis.random_one_sided_fair

    def recording(kk, rng):
        drawn.append(kk)
        return draw(kk, rng)

    monkeypatch.setattr(analysis, "random_one_sided_fair", recording)
    assert analysis.identity_suite(K=6, samples=30, seed=0).ok()
    assert set(drawn) == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("check", ["worst_user", "permutation_dominance"])
def test_identity_suite_reports_a_failed_ordering_check(check, monkeypatch):
    # a worst user other than the first, or a dominance that fails, clears
    # its flag and fails the suite, while the residuals stay small
    wrong = {"worst_user": lambda plan, J: J[-1],
             "permutation_dominance": lambda cfg, r: False}
    monkeypatch.setattr(analysis, check, wrong[check])
    rep = analysis.identity_suite(K=3, samples=5, seed=0)
    assert rep.max_residual < analysis.IDENTITY_TOL and not rep.ok()
    assert (rep.worst_user_ok, rep.dominance_ok) == (
        check != "worst_user", check != "permutation_dominance")
