"""The array planner and the batched lattice maximum against loop
references: the nested-loop recursion over subset pairs (O(3^K)), the
lattice maximum as one loop over masks and users, `optimize_memory`
as one plan per allocation, and its grid as a recursive generator."""

from math import inf

import numpy as np
import pytest

from ebcache import analysis
from ebcache.analysis import phase_plan, ttot_closed_form
from ebcache.experiments import _compositions, optimize_memory
from ebcache.model import Demand, SystemConfig, subsets_ascending, users_of
from ebcache.placement import decentralized_placement

REL = 1e-12


def products(out, into, start=1.0):
    t = [start]
    for a, b in zip(out, into):
        t = [v * a for v in t] + [v * b for v in t]
    return t


def loop_plan(cfg, sizes, need0=None):
    """t_user as {(J, k): length}, t_sub as {J: length} over masks J, and
    the total: user k's need in J is its own-file need plus, for every
    proper subset s of J - k, t[k][s | k] * dd * passed[J - k - s]."""
    K = cfg.K
    ones = [1.0] * K
    erase = products(ones, cfg.delta)
    passed = products(ones, [1.0 - x for x in cfg.delta])
    full = (1 << K) - 1
    if need0 is None:
        q = [1.0 - x for x in cfg.p]
        need0 = [products(q, cfg.p, sizes[k0]) for k0 in range(K)]
    t = [[0.0] * (1 << K) for _ in range(K)]
    t_user, t_sub, total = {}, {}, 0.0
    for J in subsets_ascending(K):
        best = 0.0
        for k in users_of(J):
            k0 = k - 1
            bit = 1 << k0
            dd = erase[(full & ~J) | bit]
            rest = J & ~bit
            need = need0[k0][rest]
            s = rest
            while s:
                s = (s - 1) & rest
                need += t[k0][s | bit] * dd * passed[rest & ~s]
            t[k0][J] = t_user[(J, k)] = need / (1.0 - dd)
            best = max(best, t[k0][J])
        t_sub[J] = best
        total += best
    return t_user, t_sub, total


def loop_lattice(w, x):
    """best(S) = max_{i in S} best(S - i) + w(S) x_i, the larger index
    last on ties."""
    K = len(x)
    best = [0.0] * (1 << K)
    last = [0] * (1 << K)
    for S in range(1, 1 << K):
        top = -inf
        for i in range(K):
            if S >> i & 1:
                v = best[S ^ (1 << i)] + w[S] * x[i]
                if v >= top:
                    top, last[S] = v, i
        best[S] = top
    order = []
    S = (1 << K) - 1
    while S:
        order.append(last[S] + 1)
        S ^= 1 << last[S]
    return best[-1], tuple(reversed(order))


def close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b))


def check_plan(plan, want):
    t_user, t_sub, total = want
    K = len(plan.sizes)
    assert plan.t_user.shape == (K, 1 << K)
    assert plan.t_sub.shape == (1 << K,)
    for k0 in range(K):
        for J in range(1 << K):
            got = plan.t_user[k0, J]
            assert close(got, t_user.get((J, k0 + 1), 0.0)), (k0, J)
    assert plan.t_sub[0] == 0.0
    for J, v in t_sub.items():
        assert close(plan.t_sub[J], v), J
    assert close(plan.total, total)


def cfg_of(delta, p, N=None, sizes=None):
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(x * N for x in p),
                        file_sizes=tuple(sizes) if sizes else (1,) * N)


def draw(rng, K, edge):
    delta = rng.uniform(0.0, 0.95, K)
    p = rng.uniform(0.0, 1.0, K)
    sizes = rng.uniform(0.1, 2000.0, K)
    if edge == "delta":
        delta[rng.integers(K)] = 0.0
        delta[rng.integers(K)] = 0.999
    elif edge == "p":
        p[rng.integers(K)] = 0.0
        p[rng.integers(K)] = 1.0
    elif edge == "sizes":
        sizes[rng.integers(K)] = 0.0
    return delta, p, sizes


@pytest.mark.parametrize("edge", ["none", "delta", "p", "sizes"])
@pytest.mark.parametrize("K", range(1, 13))
def test_array_plan_matches_the_loop_recursion(K, edge):
    rng = np.random.default_rng([K, len(edge)])
    delta, p, sizes = draw(rng, K, edge)
    cfg = cfg_of(delta, p)
    check_plan(phase_plan(cfg, sizes=sizes), loop_plan(cfg, sizes))


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
def test_array_plan_with_a_placement_matches_the_loop_recursion(K):
    rng = np.random.default_rng(K)
    N = K + 2
    cfg = SystemConfig(K=K, N=N, delta=tuple(rng.uniform(0.0, 0.9, K)),
                       mem=tuple(rng.uniform(0.0, N, K)),
                       file_sizes=tuple(int(f) for f in
                                        rng.integers(0, 300, N)))
    demand = Demand(tuple(int(f) for f in rng.permutation(N)[:K] + 1))
    pm = decentralized_placement(cfg, K)
    need0 = [pm.subset_counts(demand.file_of(k)).astype(float).tolist()
             for k in range(1, K + 1)]
    sizes = [float(cfg.file_sizes[demand.file_of(k) - 1])
             for k in range(1, K + 1)]
    check_plan(phase_plan(cfg, demand, placement=pm),
               loop_plan(cfg, sizes, need0))


@pytest.mark.parametrize("K", range(1, 11))
def test_batched_lattice_maximum_equals_the_loop(K):
    rng = np.random.default_rng(100 + K)
    delta, p, sizes = draw(rng, K, "none")
    cfg = cfg_of(delta, p)
    w = analysis._weights(cfg.p, cfg.delta).tolist()
    assert ttot_closed_form(cfg, sizes=sizes) == loop_lattice(w, sizes)
    # fully tied orders come out ascending
    tied = cfg_of((0.5,) * K, (0.5,) * K)
    assert ttot_closed_form(tied)[1] == tuple(range(1, K + 1))


def loop_compositions(total, parts, cap):
    """Every way to write `total` as `parts` parts in 0..cap, one tuple
    at a time, in lexicographic order."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap) + 1):
        for rest in loop_compositions(total - head, parts - 1, cap):
            yield (head,) + rest


@pytest.mark.parametrize("total, parts, cap", [
    (0, 1, 0), (5, 1, 9), (5, 1, 4), (0, 4, 3), (7, 3, 7), (7, 3, 3),
    (12, 4, 3), (13, 4, 3), (10, 5, 2), (20, 4, 10), (9, 2, 100),
])
@pytest.mark.parametrize("block", [1, 3, 64, 10_000])
def test_compositions_blocks_equal_the_recursive_generator(total, parts,
                                                           cap, block):
    # same rows in the same order (optimize_memory's first minimum wins
    # by it), blocks of 1..block rows; the cap binds at (7, 3, 3),
    # (12, 4, 3) (one row) and (10, 5, 2), and leaves no row at all at
    # (5, 1, 4) and (13, 4, 3)
    blocks = list(_compositions(total, parts, cap, block))
    assert all(1 <= len(b) <= block for b in blocks)
    rows = [tuple(r) for b in blocks for r in b.tolist()]
    assert rows == list(loop_compositions(total, parts, cap))


def loop_optimize(cfg, budget, step):
    n = round(budget / step)
    cap = int(cfg.N / step + 1e-9)
    best = best_lb = inf
    best_mem = best_lb_mem = (0.0,) * cfg.K
    for parts in loop_compositions(n, cfg.K, cap):
        mem = tuple(p * step for p in parts)
        trial = cfg.with_mem(mem)
        sizes = [float(f) for f in trial.file_sizes[:cfg.K]]
        obj = loop_plan(trial, sizes)[2]
        if obj < best - 1e-15:
            best, best_mem = obj, mem
        lb, _ = loop_lattice(analysis._weights(trial.p, trial.delta).tolist(),
                             sizes)
        if lb < best_lb - 1e-15:
            best_lb, best_lb_mem = lb, mem
    return best_mem, best, best_lb_mem, best_lb


@pytest.mark.parametrize("K, N, M, step, seed", [
    (2, 4, 2, 1, 0), (3, 6, 2, 1, 1), (3, 3, 1, 0.5, 2), (4, 20, 10, 2, 3),
    (4, 8, 3, 1, 4), (5, 10, 4, 2, 5),
])
def test_optimize_memory_matches_one_plan_per_allocation(K, N, M, step,
                                                          seed):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=K, N=N, delta=tuple(rng.uniform(0.1, 0.9, K)),
                       mem=(0.0,) * K,
                       file_sizes=tuple(int(f) for f in
                                        rng.integers(1, 100, N)))
    mem, obj, lb_mem, lb = loop_optimize(cfg, K * M, step)
    got = optimize_memory(cfg, K * M, step)
    assert got.mem == mem and got.lower_bound_mem == lb_mem
    assert close(got.objective, obj)
    assert got.lower_bound == lb
