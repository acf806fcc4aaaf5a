"""Closed-form rate/length analysis: region weights and inequalities,
transmission-length formulas (recursive plan and max-over-orders closed
form), order-j capacities, decomposition identities, no-feedback and
centralized baselines, and the MISO DoF duals.

A region weight w(S) depends only on the set S, so each maximum over
user orders of sum_k w(pi_1..pi_k) x_{pi_k} is a longest chain in the
subset lattice, O(K 2^K) for any K; only `region_inequalities`, which
lists all K! rows, refuses K > 8.

Everything here is pure float arithmetic; the packet-level simulator in
`delivery` provides the independent stochastic cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, inf, isfinite
from typing import Sequence

import numpy as np

from .model import (Demand, RateVector, SystemConfig, demand_for, mask_of,
                    subsets_ascending, users_of)
from .placement import PlacementMap, validate_placement

MAX_PERMUTATION_K = 8
FEASIBILITY_TOL = 1e-9    # slack on the largest inequality's left-hand side
DOMINANCE_TOL = 1e-12     # slack of permutation_dominance over the identity
IDENTITY_TOL = 1e-9       # largest residual IdentityReport.ok accepts


def _subset_products(out: Sequence[float], into: Sequence[float],
                     start: float = 1.0) -> list[float]:
    """t[m] = start * prod_i (into[i] if bit i of m is set else out[i]) for
    every mask m < 2^K, multiplied in ascending i, so each entry equals
    the product a loop over the bits takes.  Plain floats: at small K they
    beat numpy's per-call overhead, and at any K the O(2^K) products cost
    less than the O(K 2^K) pass that reads them."""
    t = [start]
    for a, b in zip(out, into):
        t = [v * a for v in t] + [v * b for v in t]
    return t


def _weights(p: Sequence[float], delta: Sequence[float]) -> list[float]:
    """Region weight w(m) = prod_{i in m}(1-p_i) / (1 - prod_{i in m} delta_i)
    of every mask m < 2^K, 0.0 on the empty mask; SystemConfig keeps
    every delta_i below 1."""
    ones = [1.0] * len(delta)
    keep = _subset_products(ones, [1.0 - x for x in p])
    erase = _subset_products(ones, delta)
    return [0.0] + [k / (1.0 - e) for k, e in zip(keep[1:], erase[1:])]


@lru_cache(maxsize=None)
def _user_tuples(K: int) -> tuple[tuple[int, ...], ...]:
    """users_of(m) for every mask m < 2^K."""
    return tuple(users_of(m) for m in range(1 << K))


def _lattice_max(w: Sequence[float], x: Sequence[float]
                 ) -> tuple[float, tuple[int, ...]]:
    """max over orders pi of sum_k w[pi_1..pi_k] * x[pi_k] and a maximizing
    order (1-based), as the longest chain in the subset lattice:
    best(S) = max_{i in S} best(S - i) + w(S) * x_i.  Rounding is monotone,
    so the value equals the largest of the K! float sums.  Ties put the
    larger index last, so fully tied orders come out ascending.  A NaN
    would fail every comparison and leave no order to read back, so
    non-finite inputs are refused."""
    K = len(w).bit_length() - 1
    if len(x) != K:
        raise ValueError(f"need one value per user: {len(x)} for K = {K}")
    if not (all(map(isfinite, x)) and all(map(isfinite, w))):
        raise ValueError("weights and per-user values must be finite")
    best = [0.0] * (1 << K)
    last = [0] * (1 << K)
    for S in range(1, 1 << K):
        wS = w[S]
        top = -inf
        for i in range(K):
            if S >> i & 1:
                v = best[S ^ (1 << i)] + wS * x[i]
                if v >= top:
                    top, last[S] = v, i
        best[S] = top
    order = []
    S = (1 << K) - 1
    while S:
        order.append(last[S] + 1)
        S ^= 1 << last[S]
    return best[-1], tuple(reversed(order))


def region_weight(cfg: SystemConfig, users) -> float:
    """Coefficient prod_{j in J}(1-p_j) / (1 - prod_{j in J} delta_j)."""
    m = mask_of(users)
    if m == 0:
        raise ValueError("empty user set has no region weight")
    return _weights(cfg.p, cfg.delta)[m]


def region_inequalities(cfg: SystemConfig) -> list[dict]:
    """All K! weighted-sum inequalities; each row gives the permutation
    and the coefficient applied to R_{perm[k]} with bound 1."""
    if cfg.K > MAX_PERMUTATION_K:
        raise ValueError(
            f"K = {cfg.K} > {MAX_PERMUTATION_K}: K! enumeration refused")
    w = _weights(cfg.p, cfg.delta)
    rows = []
    for perm in itertools.permutations(range(cfg.K)):
        m = 0
        coeffs = []
        for i in perm:
            m |= 1 << i
            coeffs.append(w[m])
        rows.append({"perm": [i + 1 for i in perm], "coeffs": coeffs})
    return rows


@dataclass
class FeasibilityResult:
    feasible: bool
    worst_perm: tuple[int, ...]
    max_lhs: float


def feasibility(cfg: SystemConfig, r: RateVector) -> FeasibilityResult:
    """Check the rate vector against all K! inequalities at once, through
    the lattice maximum; reports the order with the largest left-hand
    side."""
    worst, order = _lattice_max(_weights(cfg.p, cfg.delta), r.rates)
    return FeasibilityResult(worst <= 1.0 + FEASIBILITY_TOL, order, worst)


@dataclass
class TwoUserRegion:
    """K=2 region: the two inequalities, the three boundary corner points
    (R1 axis, constraint intersection, R2 axis) and, for reference, each
    inequality's own axis intercepts.  A user who caches the whole library
    has w_k = 0 = w12 and bounds no rate in its own direction, so its
    coordinates there are inf."""

    w1: float
    w2: float
    w12: float
    vertices: list[tuple[float, float]]
    intercepts: dict[tuple[int, int], tuple[float, float]]


def _inv(w: float) -> float:
    return 1.0 / w if w else inf


def two_user_region(cfg: SystemConfig) -> TwoUserRegion:
    if cfg.K != 2:
        raise ValueError("two_user_region requires K = 2")
    _, w1, w2, w12 = _weights(cfg.p, cfg.delta)
    # 0 <= w12 <= min(w1, w2), and w12 = 0 only when a user caches all
    det = w1 * w2 - w12 * w12
    if not w12:
        mid = (_inv(w1), _inv(w2))       # a box, unbounded where w_k = 0
    elif det > 0.0:
        # w1*x + w12*y = 1 and w12*x + w2*y = 1, solved exactly
        mid = ((w2 - w12) / det, (w1 - w12) / det)
    else:
        mid = (0.5 / w1, 0.5 / w2)       # coincident constraints
    vertices = [(_inv(w1), 0.0), mid, (0.0, _inv(w2))]
    intercepts = {(1, 2): (_inv(w1), _inv(w12)),
                  (2, 1): (_inv(w12), _inv(w2))}
    return TwoUserRegion(w1, w2, w12, vertices, intercepts)


def _sizes_for(cfg: SystemConfig, demand: Demand | None,
               sizes: Sequence[float] | None) -> tuple[float, ...]:
    if sizes is not None:
        if len(sizes) != cfg.K:
            raise ValueError("need one size per user")
        return tuple(float(s) for s in sizes)
    demand = demand_for(cfg, demand)
    return tuple(float(cfg.file_sizes[demand.file_of(k) - 1])
                 for k in range(1, cfg.K + 1))


def ttot_closed_form(cfg: SystemConfig, demand: Demand | None = None,
                     sizes: Sequence[float] | None = None
                     ) -> tuple[float, tuple[int, ...]]:
    """max over permutations of sum_k w_{pi_1..pi_k} * F_{d_{pi_k}};
    returns the value and a maximizing permutation (1-based)."""
    F = _sizes_for(cfg, demand, sizes)
    return _lattice_max(_weights(cfg.p, cfg.delta), F)


@dataclass
class PhasePlan:
    """Expected sub-phase length table.

    t_user[(J, k)] is the length user k needs in sub-phase J and t_sub[J]
    the realized (worst user) length, over ascending 1-based tuples.  The
    symbols created in sub-phase I for k and re-sent in J (expected
    t_user[(I, k)] * delta_k * prod_{j not in J} delta_j
    * prod_{j in J - I}(1 - delta_j)) enter k's need in J; none is kept.
    """

    sizes: tuple[float, ...]
    t_user: dict[tuple[tuple[int, ...], int], float]
    t_sub: dict[tuple[int, ...], float]
    total: float

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "subphases": [
                {"subphase": list(J), "t": t,
                 "t_user": {str(k): self.t_user[(J, k)] for k in J}}
                for J, t in self.t_sub.items()
            ],
        }


def phase_plan(cfg: SystemConfig, demand: Demand | None = None,
               sizes: Sequence[float] | None = None,
               placement: PlacementMap | None = None) -> PhasePlan:
    """Sub-phase lengths by the bottom-up recursion over subset
    cardinality.

    Sub-file sizes default to their decentralized expectations; passing a
    PlacementMap substitutes realized counts for finite-size comparison.
    """
    K = cfg.K
    F = _sizes_for(cfg, demand, sizes)
    p, d = cfg.p, cfg.delta
    ones = [1.0] * K
    erase = _subset_products(ones, d)
    passed = _subset_products(ones, [1.0 - x for x in d])
    users = _user_tuples(K)
    full = (1 << K) - 1

    # need0[k0][c]: packets user k0 lacks that exactly the users in c cache
    if placement is not None:
        demand = demand_for(cfg, demand)
        validate_placement(cfg, placement)
        need0 = [placement.subset_counts(demand.file_of(k)).astype(float)
                 .tolist() for k in range(1, K + 1)]
    else:
        q = [1.0 - x for x in p]
        need0 = [_subset_products(q, p, F[k0]) for k0 in range(K)]

    t = [[0.0] * (1 << K) for _ in range(K)]   # t[k0][J]
    t_user: dict[tuple[tuple[int, ...], int], float] = {}
    t_sub: dict[tuple[int, ...], float] = {}
    total = 0.0
    for J in subsets_ascending(K):
        Jt = users[J]
        best = 0.0
        for k in Jt:
            k0 = k - 1
            tk0 = t[k0]
            bit = 1 << k0
            dd = erase[(full & ~J) | bit]
            rest = J & ~bit
            need = need0[k0][rest]
            # symbols of earlier sub-phases s | bit, s a proper subset of
            # rest, in descending order
            s = rest
            while s:
                s = (s - 1) & rest
                need += tk0[s | bit] * dd * passed[rest & ~s]
            tk = need / (1.0 - dd)
            tk0[J] = tk
            t_user[(Jt, k)] = tk
            if tk > best:
                best = tk
        t_sub[Jt] = best
        total += best
    return PhasePlan(F, t_user, t_sub, total)


def _alternating(w: Sequence[float], base: int, rest: int) -> float:
    """sum over subsets s of rest, descending, of (-1)^|s| * w[base | s]."""
    out = 0.0
    sub = rest
    while True:
        sign = -1.0 if bin(sub).count("1") % 2 else 1.0
        out += sign * w[base | sub]
        if sub == 0:
            break
        sub = (sub - 1) & rest
    return out


def subphase_length_alternating(cfg: SystemConfig, J, k: int,
                                size: float) -> float:
    """Per-user sub-phase length as an alternating sum of region weights
    over the subsets of J \\ {k}; equals the recursion's value."""
    Jm = mask_of(J)
    k0 = k - 1
    if not Jm >> k0 & 1:
        raise ValueError("k must belong to J")
    full = (1 << cfg.K) - 1
    w = _weights(cfg.p, cfg.delta)
    return _alternating(w, (full & ~Jm) | (1 << k0), Jm & ~(1 << k0)) * size


def worst_user(plan: PhasePlan, J, rates: Sequence[float] | None = None) -> int:
    """User attaining the sub-phase length, with per-user lengths rescaled
    to the given rate vector when one is supplied; ties break toward the
    smallest index."""
    users = users_of(mask_of(J))
    best_u = 0
    best = -1.0
    for k in users:
        v = plan.t_user[(users, k)]
        if rates is not None:
            if plan.sizes[k - 1] <= 0.0:
                raise ValueError("plan built with zero size; rescaling undefined")
            v = v / plan.sizes[k - 1] * rates[k - 1]
        if v > best + 1e-12 * max(1.0, abs(best)):
            best, best_u = v, k
    return best_u


def order_capacity(K: int, delta: float, j: int) -> float:
    """Largest total rate of symbols each wanted by exactly j users in the
    symmetric K-user channel."""
    if not 1 <= j <= K:
        raise ValueError("need 1 <= j <= K")
    denom = sum(comb(K - k, j - 1) / (1.0 - delta ** k)
                for k in range(1, K - j + 2))
    return comb(K, j) / denom


def start_phase_tables(K: int, delta: float, start: int,
                       n_seed: float) -> dict[int, float]:
    """Per-sub-phase lengths t_j when the multicast pipeline is entered at
    the given phase with n_seed symbols per subset of that size."""
    t = {start: n_seed / (1.0 - delta ** (K - start + 1))}
    for j in range(start + 1, K + 1):
        s = 0.0
        for l in range(start, j):
            n = t[l] * delta ** (K - j + 1) * (1.0 - delta) ** (j - l)
            s += comb(j - 1, l - 1) * n
        t[j] = s / (1.0 - delta ** (K - j + 1))
    return t


def order_recursion_residual(K: int, delta: float, n_first: float) -> float:
    """Max residual of t_j(start 1) = sum_{i=2..j} t_j(start i) when the
    later starts are seeded with the phase-1 spill counts."""
    t1 = start_phase_tables(K, delta, 1, n_first)
    tables = {}
    for i in range(2, K + 1):
        n_i = t1[1] * delta ** (K - i + 1) * (1.0 - delta) ** (i - 1)
        tables[i] = start_phase_tables(K, delta, i, n_i)
    worst = 0.0
    for j in range(2, K + 1):
        rhs = sum(tables[i][j] for i in range(2, j + 1))
        worst = max(worst, abs(t1[j] - rhs))
    return worst


def decomposition_residual(K: int, delta: float, n_first: float) -> float:
    """|LHS - RHS| of the order-1 capacity decomposition through the
    higher-order capacities."""
    lhs = K / sum(1.0 / (1.0 - delta ** k) for k in range(1, K + 1))
    t1 = n_first / (1.0 - delta ** K)
    acc = K * n_first / (1.0 - delta ** K)
    for i in range(2, K + 1):
        n_1i = t1 * delta ** (K - i + 1) * (1.0 - delta) ** (i - 1)
        acc += comb(K, i) * n_1i / order_capacity(K, delta, i)
    rhs = K * n_first / acc
    return abs(lhs - rhs)


def symmetric_vertex(K: int, delta: float, p: float, active) -> RateVector:
    """Vertex rate vector where the active users share the symmetric rate
    of the reduced system and the rest are silent."""
    act = mask_of(active)
    j = bin(act).count("1")
    if j == 0:
        raise ValueError("active set must be nonempty")
    r_sym = _inv(sum((1.0 - p) ** k / (1.0 - delta ** k)
                     for k in range(1, j + 1)))
    return RateVector(tuple(r_sym if act >> i & 1 else 0.0 for i in range(K)))


def ttot_no_feedback(K: int, delta: float, M: float, N: float, F: float,
                     scheme: str) -> float:
    """Baseline lengths when the sender never learns who received what:
    every symbol must reach all of its audience through the worst link."""
    if scheme == "decentralized":
        return F * sum((1.0 - M / N) ** k for k in range(1, K + 1)) / (1.0 - delta)
    if scheme == "centralized":
        return F * K * (1.0 - M / N) / ((1.0 + K * M / N) * (1.0 - delta))
    raise ValueError(f"unknown scheme {scheme!r}")


def ttot_centralized(K: int, delta: float, M: float, N: float, F: float) -> float:
    """Delivery length under centralized placement with feedback."""
    b_real = M * K / N
    b = round(b_real)
    if abs(b_real - b) > 1e-9:
        raise ValueError(f"b = M*K/N = {b_real} is not an integer")
    return F * sum((comb(K - k, b) / comb(K, b)) / (1.0 - delta ** k)
                   for k in range(1, K - b + 1))


def miso_dof_coefficient(K: int, k: int, p: float | None = None,
                         b: int | None = None) -> float:
    """k-th DoF-region coefficient of the multi-antenna dual, obtained by
    substituting k for 1 - delta^k."""
    if not 1 <= k <= K:
        raise ValueError("need 1 <= k <= K")
    if (p is None) == (b is None):
        raise ValueError("give exactly one of p (decentralized) or b (centralized)")
    if p is not None:
        return (1.0 - p) ** k / k
    if k > K - b:
        return 0.0
    return (comb(K - k, b) / comb(K, b)) / k


def permutation_dominance(cfg: SystemConfig, r: RateVector) -> bool:
    """With rates scaled so the identity permutation's inequality is
    tight, check that every other permutation's left-hand side stays
    within 1 + DOMINANCE_TOL.  Assumes users are ordered so the identity
    is the binding permutation (delta descending, one-sided fair rates)."""
    w = _weights(cfg.p, cfg.delta)
    lhs_id = sum(w[(2 << i) - 1] * r.rates[i] for i in range(cfg.K))
    if lhs_id <= 0.0:
        raise ValueError("identity inequality has nonpositive LHS")
    top, _ = _lattice_max(w, r.rates)
    return top * (1.0 / lhs_id) <= 1.0 + DOMINANCE_TOL


def random_one_sided_fair(K: int, rng: np.random.Generator,
                          cached: bool = True
                          ) -> tuple[tuple[float, ...], tuple[float, ...],
                                     tuple[float, ...]]:
    """Draw (delta, p, rates) with delta descending and the rate chains
    aligned so the vector is one-sided fair."""
    d = np.sort(rng.uniform(0.05, 0.95, K))[::-1]
    p = rng.uniform(0.05, 0.95, K) if cached else np.zeros(K)
    rates = np.empty(K)
    rates[K - 1] = rng.uniform(0.1, 1.0)
    for k in range(K - 2, -1, -1):
        lo = d[k + 1] * rates[k + 1] / d[k]
        if cached:
            q_next = (1.0 - p[k + 1]) / p[k + 1]
            q_here = (1.0 - p[k]) / p[k]
            lo = max(lo, q_next * rates[k + 1] / q_here)
        rates[k] = lo * (1.0 + rng.uniform(0.0, 1.0))
    return tuple(d), tuple(p), tuple(rates)


def _cfg_from(delta, p, N: int | None = None) -> SystemConfig:
    K = len(delta)
    N = N or K
    return SystemConfig(K=K, N=N, delta=tuple(delta),
                        mem=tuple(pi * N for pi in p),
                        file_sizes=(1,) * N)


@dataclass
class IdentityReport:
    """Max residuals of the analytic identity suite plus pass booleans for
    the combinatorial checks."""

    residuals: dict[str, float] = field(default_factory=dict)
    worst_user_ok: bool = True
    dominance_ok: bool = True

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self) -> bool:
        return (self.max_residual < IDENTITY_TOL and self.worst_user_ok
                and self.dominance_ok)


def identity_suite(K: int = 4, samples: int = 200, seed: int = 0) -> IdentityReport:
    """Randomized verification of the internal identities: alternating sum
    vs recursion, the weights lemma, the aggregate-length identity, the
    capacity decomposition, the phase-start recursion, worst-user ordering
    and permutation dominance.

    K (2..6) bounds the users of the random instances, of which each
    randomized check draws `samples` (at least 1); other values raise
    ValueError before any work."""
    if not 2 <= K <= 6:
        raise ValueError(f"identity suite K must be in 2..6, got {K}")
    if samples < 1:
        raise ValueError(f"identity suite samples must be at least 1, "
                         f"got {samples}")
    rng = np.random.default_rng(seed)
    rep = IdentityReport()

    r_alt = r_agg = r_lem = 0.0
    for _ in range(samples):
        kk = int(rng.integers(2, K + 1))
        d = tuple(rng.uniform(0.0, 0.95, kk))
        p = tuple(rng.uniform(0.0, 1.0, kk))
        F = tuple(rng.uniform(0.1, 3.0, kk))
        cfg = _cfg_from(d, p)
        plan = phase_plan(cfg, sizes=F)
        # weights of the instance the recursion runs on, cfg.p = (p * N) / N
        w = _weights(cfg.p, cfg.delta)
        users = _user_tuples(kk)
        full = (1 << kk) - 1
        for Jm in subsets_ascending(kk):
            Ju = users[Jm]
            for k in Ju:
                bit = 1 << (k - 1)
                alt = _alternating(w, (full & ~Jm) | bit, Jm & ~bit) * F[k - 1]
                r_alt = max(r_alt, abs(alt - plan.t_user[(Ju, k)]))
                agg = sum(plan.t_user[(users[Im], k)]
                          for Im in subsets_ascending(kk)
                          if Im & ~Jm == 0 and Im & bit)
                r_agg = max(r_agg, abs(agg - w[(full & ~Jm) | bit] * F[k - 1]))
            if Jm != full:
                # telescoping weights lemma over subsets of J
                acc = 0.0
                sub = Jm
                while True:
                    acc += _alternating(w, full & ~sub, sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & Jm
                r_lem = max(r_lem, abs(acc - w[full & ~Jm]))
    rep.residuals["alternating_vs_recursion"] = r_alt
    rep.residuals["aggregate_identity"] = r_agg
    rep.residuals["weights_lemma"] = r_lem

    r_dec = r_rec = 0.0
    for kk in range(2, 9):
        for dd in np.linspace(0.1, 0.9, 9):
            r_dec = max(r_dec, decomposition_residual(kk, float(dd), 1.0))
            r_rec = max(r_rec, order_recursion_residual(kk, float(dd), 1.0))
    rep.residuals["capacity_decomposition"] = r_dec
    rep.residuals["phase_start_recursion"] = r_rec

    r_plan = 0.0
    for _ in range(samples):
        kk = int(rng.integers(2, K + 1))
        d, p, rates = random_one_sided_fair(kk, rng)
        cfg = _cfg_from(d, p)
        plan = phase_plan(cfg, sizes=rates)
        closed, _ = ttot_closed_form(cfg, sizes=rates)
        r_plan = max(r_plan, abs(plan.total - closed))
        for Ju in _user_tuples(kk)[1:]:
            if worst_user(plan, Ju) != Ju[0]:
                rep.worst_user_ok = False
        if not permutation_dominance(cfg, RateVector(rates)):
            rep.dominance_ok = False
    rep.residuals["plan_vs_closed_form_one_sided"] = r_plan
    return rep
