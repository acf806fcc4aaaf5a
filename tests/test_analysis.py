import itertools
import json
from dataclasses import replace
from math import inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache import analysis, cli
from ebcache.analysis import (decomposition_residual,
                              feasibility, miso_dof_coefficient,
                              order_capacity, permutation_dominance,
                              phase_plan, random_one_sided_fair,
                              region_inequalities, region_weight,
                              start_phase_tables,
                              subphase_length_alternating, symmetric_vertex,
                              ttot_centralized, ttot_closed_form,
                              ttot_no_feedback, two_user_region, worst_user)
from ebcache.fastsim import initial_needs
from ebcache.model import ConfigError, Demand, RateVector, SystemConfig
from ebcache.placement import PlacementMap, decentralized_placement


def cfg_of(delta, p, N=None, sizes=None):
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p),
                        file_sizes=tuple(sizes) if sizes else (1,) * N)


TOY = cfg_of((1 / 4, 1 / 2), (1 / 3, 2 / 3))          # two-user running example
TOY_NOCACHE = cfg_of((1 / 4, 1 / 2), (0.0, 0.0))


def test_region_weight_reference_values():
    assert region_weight(TOY, [1]) == pytest.approx(8 / 9, abs=1e-12)
    assert region_weight(TOY, [1, 2]) == pytest.approx(16 / 63, abs=1e-12)
    assert region_weight(TOY, [2]) == pytest.approx(2 / 3, abs=1e-12)


def test_region_weight_full_cache_user_zeroes_it():
    cfg = cfg_of((.3, .3), (1.0, .2))
    assert region_weight(cfg, [1, 2]) == 0.0


def test_region_weight_empty_set_rejected():
    with pytest.raises(ValueError):
        region_weight(TOY, [])


def test_region_inequalities_two_user():
    rows = region_inequalities(TOY)
    by_perm = {tuple(r["perm"]): r["coeffs"] for r in rows}
    assert by_perm[(1, 2)] == pytest.approx([8 / 9, 16 / 63], abs=1e-12)
    assert by_perm[(2, 1)] == pytest.approx([2 / 3, 16 / 63], abs=1e-12)


def test_feasibility_boundary_and_interior():
    res = feasibility(TOY, RateVector((0.78, 1.20)))
    assert res.feasible and res.max_lhs <= 1 + 1e-9
    assert abs(res.max_lhs - 1.0) < 1e-2
    assert feasibility(TOY, RateVector((0.0, 0.0))).feasible
    res = feasibility(TOY, RateVector((9 / 8 + 0.01, 0.0)))
    assert not res.feasible and res.worst_perm == (1, 2)


def test_region_inequalities_refuses_k9():
    cfg = cfg_of((0.1,) * 9, (0.0,) * 9)
    with pytest.raises(ValueError, match="K!"):
        region_inequalities(cfg)


def _prefix_sum(cfg, x, order):
    """sum_k w(order_1..order_k) * x_{order_k} for one 1-based order, with
    w(S) = prod_S (1 - p) / (1 - prod_S delta) taken along the prefix."""
    total, keep, erase = 0.0, 1.0, 1.0
    for u in order:
        keep *= 1.0 - cfg.p[u - 1]
        erase *= cfg.delta[u - 1]
        total += keep / (1.0 - erase) * x[u - 1]
    return total


def test_lattice_maximum_runs_beyond_k8():
    rng = np.random.default_rng(12)
    K = 12
    cfg = cfg_of(rng.uniform(0.1, 0.9, K), rng.uniform(0.0, 1.0, K))
    sizes = tuple(rng.uniform(0.5, 2.0, K))
    v, order = ttot_closed_form(cfg, sizes=sizes)
    assert sorted(order) == list(range(1, K + 1))
    assert v == pytest.approx(_prefix_sum(cfg, sizes, order), rel=1e-12)
    rates = tuple(rng.uniform(0.0, 0.2, K))
    res = feasibility(cfg, RateVector(rates))
    assert sorted(res.worst_perm) == list(range(1, K + 1))
    assert res.max_lhs == pytest.approx(
        _prefix_sum(cfg, rates, res.worst_perm), rel=1e-12)
    # the recursion's plan is never shorter than the max over orders
    plan = phase_plan(cfg, sizes=sizes)
    assert np.count_nonzero(plan.t_sub) == (1 << K) - 1
    assert plan.total >= v * (1.0 - 1e-9)


def test_lattice_maximum_rejects_wrong_rate_count():
    for rates in ((0.1,), (0.1, 0.1, 0.1)):
        with pytest.raises(ValueError, match="one value per user"):
            feasibility(TOY, RateVector(rates))


@pytest.mark.parametrize("w, x", [
    ([0.0, 0.5, 0.5, 0.3], [float("nan"), float("nan")]),
    ([0.0, 0.5, 0.5, 0.3], [float("inf"), 0.1]),
    ([0.0, 0.5, float("nan"), 0.3], [1.0, 1.0]),
])
def test_lattice_maximum_rejects_non_finite_inputs(w, x):
    # a NaN fails every comparison, so no order could be read back
    with pytest.raises(ValueError, match="finite"):
        analysis._lattice_max(w, x)


def test_phase_plan_takes_a_placement_of_the_first_files():
    # a Monte Carlo trial draws only the files its demand reads, and those
    # masks are the full draw's, so the plan is the full draw's too
    cfg = SystemConfig(K=3, N=10, delta=(0.2, 0.35, 0.5), mem=(2.0, 3.5, 5.0),
                       file_sizes=tuple(range(40, 50)))
    full = phase_plan(cfg, placement=decentralized_placement(cfg, 1))
    short = decentralized_placement(cfg, 1, files=3)
    got = phase_plan(cfg, placement=short)
    assert got.sizes == full.sizes and got.total == full.total
    assert np.array_equal(got.t_user, full.t_user)
    assert np.array_equal(got.t_sub, full.t_sub)
    # one that stops before a demanded file, or of other sizes, is refused
    with pytest.raises(ConfigError, match="3 files"):
        phase_plan(cfg, Demand((1, 2, 4)), placement=short)
    other = replace(cfg, file_sizes=(40,) * 10)
    with pytest.raises(ConfigError, match="file sizes"):
        phase_plan(cfg, placement=decentralized_placement(other, 1, files=3))


def test_phase_plan_with_exact_placement_equals_expected_plan():
    # p = 1/2 and file i holding 8 m_i packets, one per caching subset of
    # three users repeated m_i times: every realized subset count equals
    # its expectation, so the realized plan is the expected one
    m = (1, 2, 3)
    cfg = SystemConfig(K=3, N=3, delta=(0.2, 0.35, 0.5), mem=(1.5,) * 3,
                       file_sizes=tuple(8 * mi for mi in m))
    pm = PlacementMap("decentralized", 3,
                      [np.tile(np.arange(8, dtype=np.uint32), mi) for mi in m])
    demand = Demand((2, 3, 1))
    want = phase_plan(cfg, demand)
    got = phase_plan(cfg, demand, placement=pm)
    assert got.t_sub.shape == want.t_sub.shape
    for J, t in enumerate(want.t_sub):
        assert got.t_sub[J] == pytest.approx(t, rel=1e-12, abs=1e-12)
    for key, t in np.ndenumerate(want.t_user):
        assert got.t_user[key] == pytest.approx(t, rel=1e-12, abs=1e-12)
    assert got.total == pytest.approx(want.total, rel=1e-12)
    assert got.total != pytest.approx(phase_plan(cfg, placement=pm).total)
    # the simulator starts from the same counts: m of the demanded file in
    # every pool holding the user, none elsewhere
    inpool = np.arange(8)[:, None] >> np.arange(3) & 1
    sizes = np.array([m[demand.file_of(k) - 1] for k in (1, 2, 3)])
    assert initial_needs(cfg, pm, demand).tolist() == (inpool * sizes).tolist()


def _brute_max(cfg, x):
    """The K! enumeration the lattice maximum replaces."""
    return max((_prefix_sum(cfg, x, perm), perm)
               for perm in itertools.permutations(range(1, cfg.K + 1)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_lattice_maximum_equals_permutation_enumeration(K, symmetric, seed):
    rng = np.random.default_rng(seed)
    if symmetric:
        cfg = cfg_of((rng.uniform(0.0, 0.95),) * K,
                     (rng.uniform(0.0, 1.0),) * K)
        sizes = tuple(rng.integers(1, 4, K).astype(float))
        rates = tuple(rng.uniform(0.0, 1.0, K))
    else:
        d, p, rates = random_one_sided_fair(K, rng, cached=bool(seed % 2))
        cfg = cfg_of(d, p)
        sizes = tuple(rng.uniform(0.1, 3.0, K))
        if seed % 3 == 0:      # rates that need not be one-sided fair
            rates = tuple(rng.uniform(0.0, 1.0, K))
    v, order = ttot_closed_form(cfg, sizes=sizes)
    want, _ = _brute_max(cfg, sizes)
    assert v == pytest.approx(want, rel=1e-12)
    assert _prefix_sum(cfg, sizes, order) == pytest.approx(v, rel=1e-12)
    res = feasibility(cfg, RateVector(rates))
    want, _ = _brute_max(cfg, rates)
    assert res.max_lhs == pytest.approx(want, rel=1e-12)
    assert _prefix_sum(cfg, rates, res.worst_perm) == pytest.approx(
        res.max_lhs, rel=1e-12)
    identity = _prefix_sum(cfg, rates, tuple(range(1, K + 1)))
    if identity > 0.0:
        assert permutation_dominance(cfg, RateVector(rates)) == (
            want / identity <= 1.0 + 1e-12)


def test_two_user_region_cached():
    r = two_user_region(TOY)
    assert r.vertices[0] == pytest.approx((9 / 8, 0.0), abs=1e-12)
    assert r.vertices[1] == pytest.approx((0.78, 1.20), abs=5e-3)
    assert r.vertices[2] == pytest.approx((0.0, 3 / 2), abs=1e-12)
    # each inequality's own axis crossings
    assert r.intercepts[(1, 2)] == pytest.approx((9 / 8, 63 / 16), abs=1e-12)
    assert r.intercepts[(2, 1)] == pytest.approx((63 / 16, 3 / 2), abs=1e-12)
    x, y = r.vertices[1]
    assert y / x == pytest.approx(20 / 13, abs=1e-9)
    assert x + y == pytest.approx(1.98, abs=5e-3)


def test_two_user_region_no_cache():
    r = two_user_region(TOY_NOCACHE)
    assert r.vertices[0] == pytest.approx((3 / 4, 0.0), abs=1e-12)
    assert r.vertices[1] == pytest.approx((0.63, 0.14), abs=1e-12)
    assert r.vertices[2] == pytest.approx((0.0, 1 / 2), abs=1e-12)
    x, y = r.vertices[1]
    assert x + y == pytest.approx(0.77, abs=1e-12)
    assert y / x == pytest.approx(2 / 9, abs=1e-12)


def test_two_user_region_noiseless_link_collapses():
    r = two_user_region(cfg_of((0.0, 0.0), (0.0, 0.0)))
    assert r.vertices[0] == (1.0, 0.0)
    assert r.vertices[2] == (0.0, 1.0)
    x, y = r.vertices[1]
    assert x + y == pytest.approx(1.0, abs=1e-12)


def test_two_user_region_full_cache_leaves_its_rate_unbounded():
    # a full cache at user 1 zeroes w1 and w12 while w2 = 1: user 1 bounds
    # no rate, so the region is the strip R2 <= 1
    full = SystemConfig(K=2, N=2, delta=(0.5, 0.0), mem=(2.0, 0.0),
                        file_sizes=(1, 1))
    r = two_user_region(full)
    assert r.vertices == [(inf, 0.0), (inf, 1.0), (0.0, 1.0)]
    assert r.intercepts == {(1, 2): (inf, inf), (2, 1): (inf, 1.0)}
    r = two_user_region(replace(full, mem=(2.0, 2.0)))
    assert r.vertices == [(inf, 0.0), (inf, inf), (0.0, inf)]
    # a cache one rounding step short of full still meets both
    # constraints at one point, however small w1 and w12 are
    r = two_user_region(replace(full, mem=(2.0 - 2.0 ** -52, 0.0)))
    (x, y), w = r.vertices[1], (r.w1, r.w2, r.w12)
    assert 0.0 < w[0] < 1e-15
    assert w[0] * x + w[2] * y == pytest.approx(1.0, rel=1e-12)
    assert w[2] * x + w[1] * y == pytest.approx(1.0, rel=1e-12)


def test_two_user_region_requires_k2():
    with pytest.raises(ValueError):
        two_user_region(cfg_of((.1,) * 3, (.1,) * 3))


def test_ttot_closed_form_toy():
    v, perm = ttot_closed_form(TOY)
    assert v == pytest.approx(8 / 7, abs=1e-12)
    assert perm == (1, 2)


def test_ttot_closed_form_symmetric_three_users():
    cfg = cfg_of((.5,) * 3, (.5,) * 3)
    v, _ = ttot_closed_form(cfg)
    assert v == pytest.approx(31 / 21, abs=1e-12)


def test_ttot_closed_form_geometric_series_no_erasure():
    cfg = cfg_of((0.0, 0.0), (0.5, 0.5), N=4)
    v, _ = ttot_closed_form(cfg)
    assert v == pytest.approx(0.75, abs=1e-12)
    M, N, K = 2, 4, 2
    assert v == pytest.approx(
        N / M * (1 - M / N) * (1 - (1 - M / N) ** K), abs=1e-12)


def test_symmetric_shortcut_matches_brute_force():
    cfg = cfg_of((.4,) * 4, (.3,) * 4, sizes=(1, 1, 1, 1))
    sizes = (0.5, 2.0, 1.0, 3.0)
    v, perm = ttot_closed_form(cfg, sizes=sizes)
    best = max(
        sum(region_weight(cfg, p[:k + 1]) * sizes[p[k] - 1]
            for k in range(4))
        for p in itertools.permutations(range(1, 5)))
    assert v == pytest.approx(best, rel=1e-12)
    assert [sizes[u - 1] for u in perm] == sorted(sizes, reverse=True)


def test_phase_plan_toy_values():
    plan = phase_plan(TOY)
    # t_user[k - 1, J], J a mask: user 1 is bit 0b01, user 2 bit 0b10
    assert plan.t_user[0, 0b01] == pytest.approx(16 / 63, abs=1e-12)
    assert plan.t_user[0, 0b11] == pytest.approx(40 / 63, abs=1e-12)
    assert plan.t_user[1, 0b11] == pytest.approx(26 / 63, abs=1e-12)
    assert plan.total == pytest.approx(8 / 7, abs=1e-12)
    assert plan.t_sub[0b11] == pytest.approx(40 / 63, abs=1e-12)


def test_phase_plan_no_cache_matches_no_cache_lengths():
    cfg = cfg_of((.6, .3, .1), (0.0,) * 3)
    plan = phase_plan(cfg)
    v, _ = ttot_closed_form(cfg)
    assert plan.total == pytest.approx(v, abs=1e-12)


def test_phase_plan_full_caches_need_nothing():
    plan = phase_plan(cfg_of((.5,) * 3, (1.0,) * 3))
    assert plan.total == 0.0


def test_phase_plan_json_shape():
    doc = json.loads(cli._plan_text(phase_plan(TOY)))
    assert set(doc) == {"total", "subphases"}
    assert {tuple(s["subphase"]) for s in doc["subphases"]} == {(1,), (2,), (1, 2)}


def test_alternating_sum_reference_values():
    assert subphase_length_alternating(TOY, [1, 2], 1, 1.0) == pytest.approx(
        40 / 63, abs=1e-12)
    # singleton subset keeps only the empty term
    w_full = region_weight(TOY, [1, 2])
    assert subphase_length_alternating(TOY, [1], 1, 2.0) == pytest.approx(
        2 * w_full, abs=1e-12)
    with pytest.raises(ValueError):
        subphase_length_alternating(TOY, [2], 1, 1.0)


def test_worst_user_toy_and_singleton():
    plan = phase_plan(TOY)
    assert worst_user(plan, [1, 2]) == 1
    assert worst_user(plan, [2]) == 2
    # rescaling by rates shifts the argmax
    assert worst_user(plan, [1, 2], rates=(0.1, 10.0)) == 2


def test_worst_user_rescaling_refuses_a_zero_size():
    plan = phase_plan(TOY, sizes=(0.0, 1.0))
    assert worst_user(plan, [1, 2]) == 2
    with pytest.raises(ValueError, match="zero size"):
        worst_user(plan, [1, 2], rates=(1.0, 1.0))


def test_sizes_must_give_one_size_per_user():
    for sizes in [(1.0,), (1.0, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="one size per user"):
            ttot_closed_form(TOY, sizes=sizes)
        with pytest.raises(ValueError, match="one size per user"):
            phase_plan(TOY, sizes=sizes)


def test_order_capacity_values():
    assert order_capacity(3, 0.5, 2) == pytest.approx(9 / 16, abs=1e-12)
    assert order_capacity(3, 0.5, 3) == pytest.approx(0.5, abs=1e-12)
    assert order_capacity(3, 0.5, 1) == pytest.approx(63 / 94, abs=1e-12)
    for K, d in [(2, 0.3), (5, 0.7)]:
        assert order_capacity(K, d, K) == pytest.approx(1 - d, abs=1e-12)
    with pytest.raises(ValueError):
        order_capacity(3, 0.5, 4)


def test_decomposition_residual_cases():
    assert decomposition_residual(3, 0.5, 1.0) < 1e-12
    assert decomposition_residual(8, 0.9, 10.0) < 1e-9
    assert decomposition_residual(2, 0.3, 1.0) < 1e-12


def test_start_phase_tables_base_case():
    t = start_phase_tables(3, 0.5, 3, 4.0)
    assert t[3] == pytest.approx(4.0 / (1 - 0.5), abs=1e-12)


def test_symmetric_vertex_values():
    r = symmetric_vertex(3, 0.5, 0.5, [1, 2, 3])
    assert r.rates == pytest.approx((21 / 31,) * 3, abs=1e-12)
    r = symmetric_vertex(3, 0.5, 0.0, [1, 2, 3])
    want = 1 / sum(1 / (1 - 0.5 ** k) for k in range(1, 4))
    assert r.rates[0] == pytest.approx(want, abs=1e-12)
    r = symmetric_vertex(3, 0.5, 0.25, [2])
    assert r.rates == pytest.approx((0.0, (1 - 0.5) / (1 - 0.25), 0.0), abs=1e-12)
    with pytest.raises(ValueError):
        symmetric_vertex(3, 0.5, 0.5, [])


def test_no_feedback_baselines():
    assert ttot_no_feedback(2, 0.5, 1, 2, 1.0, "decentralized") == pytest.approx(
        1.5, abs=1e-12)
    assert ttot_no_feedback(3, 0.0, 1, 3, 1.0, "decentralized") == pytest.approx(
        sum((2 / 3) ** k for k in range(1, 4)), abs=1e-12)
    assert ttot_no_feedback(4, 0.0, 0, 5, 1.0, "decentralized") == pytest.approx(
        4.0, abs=1e-12)
    assert ttot_no_feedback(4, 0.0, 0, 5, 1.0, "centralized") == pytest.approx(
        4.0, abs=1e-12)
    with pytest.raises(ValueError):
        ttot_no_feedback(2, 0.5, 1, 2, 1.0, "nope")


def test_centralized_length_values():
    assert ttot_centralized(3, 0.0, 1, 3, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert ttot_centralized(3, 0.5, 1, 3, 1.0) == pytest.approx(
        4 / 3 + 4 / 9, abs=1e-12)
    assert ttot_centralized(3, 0.5, 3, 3, 1.0) == 0.0
    with pytest.raises(ValueError, match="integer"):
        ttot_centralized(3, 0.5, 0.5, 3, 1.0)


def test_miso_dof_coefficients():
    assert miso_dof_coefficient(4, 2, p=0.0) == pytest.approx(0.5, abs=1e-12)
    assert miso_dof_coefficient(3, 1, p=0.0) == pytest.approx(1.0, abs=1e-12)
    total = sum(miso_dof_coefficient(3, k, b=1) for k in range(1, 4))
    assert total == pytest.approx(5 / 6, abs=1e-12)
    with pytest.raises(ValueError):
        miso_dof_coefficient(3, 1)
    with pytest.raises(ValueError):
        miso_dof_coefficient(3, 1, p=0.1, b=1)
    for k in (0, 4):
        with pytest.raises(ValueError, match="1 <= k <= K"):
            miso_dof_coefficient(3, k, p=0.1)


def test_permutation_dominance_refuses_a_nonpositive_identity_side():
    for rates in [(0.0, 0.0, 0.0), (-1.0, 0.5, 0.1)]:
        with pytest.raises(ValueError, match="nonpositive LHS"):
            permutation_dominance(cfg_of((.4,) * 3, (.3,) * 3),
                                  RateVector(rates))


def test_permutation_dominance_symmetric_and_two_user():
    cfg = cfg_of((.4,) * 3, (.3,) * 3)
    assert permutation_dominance(cfg, RateVector((1.0,) * 3))
    cfg = cfg_of((.6, .2), (.4, .6))
    rates = RateVector((1.0, 0.2))
    from ebcache.model import is_one_sided_fair
    assert is_one_sided_fair(cfg, rates)
    assert permutation_dominance(cfg, rates)
