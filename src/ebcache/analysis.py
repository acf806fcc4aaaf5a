"""Closed-form rate/length analysis: region weights and inequalities,
transmission-length formulas (recursive plan and max-over-orders closed
form), order-j capacities, decomposition identities, no-feedback and
centralized baselines, and the MISO DoF duals.

A region weight w(S) depends only on the set S, so each maximum over
user orders of sum_k w(pi_1..pi_k) x_{pi_k} is a longest chain in the
subset lattice, O(K 2^K) for any K (`_lattice`); only
`region_inequalities`, which lists all K! rows, refuses K > 8.

The recursive plan (`_plan_tables`) needs, for every user k and
sub-phase J, a sum over the subsets of J - k; because the erasure
factors are products, that sum is a subset sum, read from one zeta
transform per cardinality (a ranked zeta transform, Bjorklund et al.,
"Fourier meets Moebius", STOC 2007): O(K^3 2^K) instead of the 3^K of
a loop over subset pairs.  Both run on numpy arrays indexed by user-set
mask with a leading batch axis: `phase_plan` and `ttot_closed_form` are
batches of one, and `allocation_lengths` runs a block of cache
allocations at once.  At K = 16 (`model.MAX_K`) a plan takes about
0.3-0.5 s and 8 MB per (K, 2^K) array; at K <= 6 one instance costs
about 0.1 ms, mostly numpy call overhead, so callers with many small
instances batch them (2-vCPU x86-64 host, numpy 2.4).
`identity_suite` draws its random instances SUITE_BLOCK at a time and
checks each size as one batch: one `_plan_tables`, one Moebius transform
of the complemented weights (the alternating sums of region weights),
one zeta transform of the plans (the aggregate identity), one lattice
maximum (plan total against closed form, permutation dominance) and one
worst-user comparison per size; at K = 6 the transforms of a batch of
20 take about 1 ms, against about 0.25 ms for one instance alone.  Its
fixed-grid checks (capacity decomposition, phase-start recursion) draw
nothing, so they run once per process.

Everything here is pure float arithmetic; the packet-level simulator in
`delivery` provides the independent stochastic cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, inf
from typing import Sequence

import numpy as np

from .model import (Demand, RateVector, SystemConfig, demand_for, mask_of,
                    subsets_ascending, users_of)
from .placement import PlacementMap, validate_placement

MAX_PERMUTATION_K = 8
FEASIBILITY_TOL = 1e-9    # slack on the largest inequality's left-hand side
DOMINANCE_TOL = 1e-12     # slack of permutation_dominance over the identity
IDENTITY_TOL = 1e-9       # largest residual IdentityReport.ok accepts
BATCH_CELLS = 1 << 15     # plan cells a batched call is given at a time
SUITE_BLOCK = 256         # identity_suite instances drawn, then checked, at once


@lru_cache(maxsize=None)
def _bits(K: int) -> np.ndarray:
    """bits[m, i]: whether bit i of mask m < 2^K is set."""
    return (np.arange(1 << K)[:, None] >> np.arange(K)) & 1 == 1


def _subset_products(out, into) -> np.ndarray:
    """t[..., m] = prod_i (into[..., i] if bit i of m is set else
    out[..., i]) for every mask m < 2^K, over any leading batch axes of
    `into` (`out` broadcasts to its shape), multiplied in ascending i, so
    each entry equals the product a loop over the bits takes."""
    into = np.asarray(into, dtype=float)
    out = np.asarray(out, dtype=float)
    if out.ndim:
        out = out[..., None, :]
    factors = np.where(_bits(into.shape[-1]), into[..., None, :], out)
    return np.multiply.reduce(factors, axis=-1)


def _weights(p, delta) -> np.ndarray:
    """Region weight w(m) = prod_{i in m}(1-p_i) / (1 - prod_{i in m} delta_i)
    of every mask m < 2^K, over any leading batch axes, 0.0 on the empty
    mask; SystemConfig keeps every delta_i below 1."""
    p = np.asarray(p, dtype=float)
    delta = np.asarray(delta, dtype=float)
    w = _subset_products(1.0, 1.0 - p)
    erase = _subset_products(1.0, delta)
    w[..., 1:] /= 1.0 - erase[..., 1:]
    w[..., 0] = 0.0
    return w


def _popcount(masks: np.ndarray, K: int) -> np.ndarray:
    return sum((masks >> i) & 1 for i in range(K))


def _bit_halves(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each bit i of the mask that indexes the last axis of the
    contiguous array `a`: the views of its entries with bit i set and of
    the same entries without it.  Adding the second into the first for
    every i is the zeta transform (sum over subsets), subtracting it the
    Moebius transform."""
    K = a.shape[-1].bit_length() - 1
    halves = []
    for i in range(K):
        v = a.reshape(-1, 2, 1 << i)
        halves.append((v[:, 1], v[:, 0]))
    return halves


def _zeta(a) -> np.ndarray:
    """z[..., S] = sum over subsets T of S of a[..., T]."""
    z = np.array(a, dtype=float)
    for hi, lo in _bit_halves(z):
        hi += lo
    return z


def _mobius(a) -> np.ndarray:
    """m[..., S] = sum over subsets T of S of (-1)^|S - T| a[..., T], the
    inverse of `_zeta`."""
    m = np.array(a, dtype=float)
    for hi, lo in _bit_halves(m):
        hi -= lo
    return m


@lru_cache(maxsize=None)
def _cells(K: int) -> tuple[np.ndarray, ...]:
    """The cells (k, J) of a K-user plan with user k in sub-phase J, in
    processing order (J as in `subsets_ascending`, then k ascending), so
    each cardinality is one run, as six arrays: the flat index
    (k-1) * 2^K + J of each cell; k-1; the flat index (k-1) * 2^(K-1) + r,
    r being J - k with bit k-1 squeezed out, where k's u-value sits; the
    masks J - k and (users outside J) + k; and the offset where each
    cardinality 1..K starts, K + 1 entries."""
    n = 1 << K
    masks = np.array(subsets_ascending(K))
    row, k0 = np.nonzero(_bits(K)[masks])
    J = masks[row]
    bit = 1 << k0
    rest = J & ~bit
    squeezed = (rest & (bit - 1)) | (rest >> (k0 + 1) << k0)
    comp = ((n - 1) & ~J) | bit
    bounds = np.searchsorted(_popcount(J, K), np.arange(1, K + 2))
    return k0 * n + J, k0, k0 * (n >> 1) + squeezed, rest, comp, bounds


def _plan_tables(delta: np.ndarray, n0: np.ndarray) -> np.ndarray:
    """t[b, k-1, J]: the length user k needs in sub-phase J, 0.0 where k is
    not in J, for a batch of channels delta (B or 1, K) and own-file
    needs n0 (B, cells), n0[b, x] for cell x = (k, J) of `_cells` being
    the packets user k lacks that exactly the users in J - k cache.

    User k's need in J is that n0 plus, for every earlier sub-phase
    s + k (s a proper subset of J - k), t[k, s + k] * dd *
    passed[J - k - s], with dd = delta_k * prod_{j not in J} delta_j and
    passed a product of (1 - delta_j); t[k, J] = need / (1 - dd).
    `passed` is a product, so the inner sum is passed[J - k] times the
    sum of u[k, s] = t[k, s + k] / passed[s] over the proper subsets s of
    J - k, read from one zeta transform, over the other K - 1 users, of
    the u-values of the cardinalities already done.  Every term is
    positive.  O(K^3 2^K) per batch row."""
    K = delta.shape[-1]
    n = 1 << K
    B = n0.shape[0]
    cell, _, own, rest, comp, bounds = _cells(K)
    erase, passed = _subset_products(1.0, np.stack((delta, 1.0 - delta)))
    dd = erase[:, comp]
    pr = passed[:, rest]
    ddpr = dd * pr
    held = 1.0 - dd
    t = np.zeros((B, K * n))
    u = np.zeros((B, K * n >> 1))
    z = np.empty_like(u)
    halves = _bit_halves(z.reshape(B, K, n >> 1))
    for c in range(1, K + 1):
        lo, hi = bounds[c - 1], bounds[c]
        need_c = n0[:, lo:hi]
        if c > 1:
            np.copyto(z, u)
            for h, l in halves:
                h += l
            need_c = need_c + ddpr[:, lo:hi] * z[:, own[lo:hi]]
        t_c = need_c / held[:, lo:hi]
        t[:, cell[lo:hi]] = t_c
        if c < K:
            u[:, own[lo:hi]] = t_c / pr[:, lo:hi]
    return t.reshape(B, K, n)


def _expected_need(p: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """n0 (B, cells) of decentralized placement in expectation: user k
    lacks F_k * prod_{i in c} p_i * prod_{i not in c}(1 - p_i) packets
    cached by exactly the users in c = J - k."""
    _, user, _, rest, _, _ = _cells(p.shape[-1])
    return sizes[:, user] * _subset_products(1.0 - p, p)[:, rest]


@lru_cache(maxsize=None)
def _chains(K: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per cardinality c = 1..K: the masks S with |S| = c (n_c), the users
    i in each, descending (n_c, c, 0-based), S minus each of them, the
    flat index S * K + i of each, and the row index of each S."""
    masks = np.arange(1, 1 << K)
    size = _popcount(masks, K)
    out = []
    for c in range(1, K + 1):
        S = masks[size == c]
        bits = (S[:, None] >> np.arange(K - 1, -1, -1)) & 1
        members = (K - 1 - np.nonzero(bits)[1]).reshape(len(S), c)
        out.append((S, members, S[:, None] ^ (1 << members),
                    S[:, None] * K + members, np.arange(len(S))))
    return tuple(out)


def _lattice(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched max over orders pi of sum_k w[pi_1..pi_k] * x[pi_k], for
    weights w (B, 2^K) and per-user values x (B or 1, K): the longest
    chain in the subset lattice, best(S) = max_{i in S} best(S - i) +
    w(S) * x_i, one cardinality at a time.  Returns best over all users
    (B,) and last[b, S], the 0-based user that ends a best chain of S;
    ties put the larger index last.  Rounding is monotone, so the value
    equals the largest of the K! float sums.  A NaN would fail every
    comparison, so non-finite inputs are refused."""
    K = w.shape[-1].bit_length() - 1
    if x.shape[-1] != K:
        raise ValueError(f"need one value per user: {x.shape[-1]} for K = {K}")
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ValueError("weights and per-user values must be finite")
    B = w.shape[0]
    best = np.zeros((B, 1 << K))
    last = np.zeros((B, 1 << K), dtype=np.intp)
    wx = (w[:, :, None] * x[:, None, :]).reshape(B, -1)    # w(S) * x_i
    for S, members, preds, at, rows in _chains(K):
        cand = best[:, preds] + wx[:, at]
        j = np.argmax(cand, axis=2)      # first maximum: the larger user
        best[:, S] = cand.max(axis=2)
        last[:, S] = members[rows, j]
    return best[:, -1], last


def _lattice_max(w, x) -> tuple[float, tuple[int, ...]]:
    """`_lattice` of one instance: the value and a maximizing order
    (1-based), fully tied orders coming out ascending."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    best, last = _lattice(w[None], x[None])
    order = []
    S = w.shape[-1] - 1
    while S:
        i = int(last[0, S])
        order.append(i + 1)
        S ^= 1 << i
    return float(best[0]), tuple(reversed(order))


def region_weight(cfg: SystemConfig, users) -> float:
    """Coefficient prod_{j in J}(1-p_j) / (1 - prod_{j in J} delta_j)."""
    m = mask_of(users)
    if m == 0:
        raise ValueError("empty user set has no region weight")
    return float(_weights(cfg.p, cfg.delta)[m])


def region_inequalities(cfg: SystemConfig) -> list[dict]:
    """All K! weighted-sum inequalities; each row gives the permutation
    and the coefficient applied to R_{perm[k]} with bound 1."""
    if cfg.K > MAX_PERMUTATION_K:
        raise ValueError(
            f"K = {cfg.K} > {MAX_PERMUTATION_K}: K! enumeration refused")
    w = _weights(cfg.p, cfg.delta).tolist()
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
    _, w1, w2, w12 = _weights(cfg.p, cfg.delta).tolist()
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
    """Expected sub-phase length table, as arrays indexed by user set
    masks (bit k-1 for user k).

    t_user[k-1, J] (K, 2^K) is the length user k needs in sub-phase J,
    0.0 where k is not in J, and t_sub[J] (2^K,) the realized (worst
    user) length, 0.0 at the empty mask.  The symbols created in
    sub-phase I for k and re-sent in J (expected t_user[k-1, I] * delta_k
    * prod_{j not in J} delta_j * prod_{j in J - I}(1 - delta_j)) enter
    k's need in J; none is kept.
    """

    sizes: tuple[float, ...]
    t_user: np.ndarray
    t_sub: np.ndarray
    total: float


def phase_plan(cfg: SystemConfig, demand: Demand | None = None,
               sizes: Sequence[float] | None = None,
               placement: PlacementMap | None = None) -> PhasePlan:
    """Sub-phase lengths by the bottom-up recursion over subset
    cardinality (`_plan_tables` of one instance).

    Sub-file sizes default to their decentralized expectations; passing a
    PlacementMap substitutes realized counts for finite-size comparison.
    It may hold only files 1..n, up to the last file the demand reads, as
    `fastsim.initial_needs` takes it.
    """
    F = _sizes_for(cfg, demand, sizes)
    if placement is not None:
        demand = demand_for(cfg, demand)
        validate_placement(cfg, placement, files=max(demand.assignment))
        counts = np.array([placement.subset_counts(demand.file_of(k))
                           for k in range(1, cfg.K + 1)], dtype=float)
        _, user, _, rest, _, _ = _cells(cfg.K)
        n0 = counts[user, rest][None]
    else:
        n0 = _expected_need(np.array([cfg.p]), np.array([F]))
    t = _plan_tables(np.array([cfg.delta]), n0)[0]
    t_sub = t.max(axis=0)
    return PhasePlan(F, t, t_sub, float(t_sub.sum()))


def allocation_lengths(cfg: SystemConfig, mems) -> tuple[np.ndarray,
                                                          np.ndarray]:
    """`phase_plan(c).total` and `ttot_closed_form(c)[0]` of
    c = cfg.with_mem(m) for every row m of `mems` (B, K), user k
    requesting file k, through one batched recursion and one batched
    lattice maximum; temporaries hold B * K * 2^K cells."""
    p = np.asarray(mems, dtype=float) / cfg.N
    delta = np.array([cfg.delta])
    F = np.array([_sizes_for(cfg, None, None)])
    t = _plan_tables(delta, _expected_need(p, F))
    lower, _ = _lattice(_weights(p, delta), F)
    return t.max(axis=1).sum(axis=1), lower


def subphase_length_alternating(cfg: SystemConfig, J, k: int,
                                size: float) -> float:
    """Per-user sub-phase length as an alternating sum of region weights
    over the subsets s of J \\ {k}, of w((users outside J) + k + s): the
    Moebius transform of the complemented weights w(all - m) read at
    J \\ {k}.  Equals the recursion's value."""
    Jm = mask_of(J)
    k0 = k - 1
    if not Jm >> k0 & 1:
        raise ValueError("k must belong to J")
    w = _weights(cfg.p, cfg.delta)
    return float(_mobius(w[::-1])[Jm & ~(1 << k0)]) * size


def worst_user(plan: PhasePlan, J, rates: Sequence[float] | None = None) -> int:
    """User attaining the sub-phase length, with per-user lengths rescaled
    to the given rate vector when one is supplied; ties break toward the
    smallest index."""
    Jm = mask_of(J)
    best_u = 0
    best = -1.0
    for k in users_of(Jm):
        v = float(plan.t_user[k - 1, Jm])
        if rates is not None:
            if plan.sizes[k - 1] <= 0.0:
                raise ValueError("plan built with zero size; rescaling undefined")
            v = v / plan.sizes[k - 1] * rates[k - 1]
        if v > best + 1e-12 * max(1.0, abs(best)):
            best, best_u = v, k
    return best_u


def _lowest_is_worst(t: np.ndarray) -> np.ndarray:
    """Whether `worst_user` (no rates) of sub-phase J is J's lowest
    member, for a batch of plans t (B, K, 2^K) as `_plan_tables` returns
    them, at every mask J (B, 2^K), True at the empty mask.  It is,
    v being the lowest member's length, unless another member k has
    t[k, J] > v + 1e-12 * max(1, |v|): the loop keeps its first user
    until one beats it."""
    K = t.shape[1]
    v = t[:, np.argmax(_bits(K), axis=1), np.arange(1 << K)]
    bar = v + 1e-12 * np.maximum(1.0, np.abs(v))
    return ~((t > bar[:, None, :]) & _bits(K).T).any(axis=1)


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
    w = _weights(cfg.p, cfg.delta)[None]
    x = np.array([r.rates])
    top, _ = _lattice(w, x)
    return bool(_dominates(w, x, top)[0])


def _dominates(w: np.ndarray, x: np.ndarray, top: np.ndarray) -> np.ndarray:
    """`permutation_dominance` of a batch: weights w (B, 2^K), rates
    x (B, K) and their lattice maxima top (B,)."""
    lhs_id = 0.0
    for i in range(x.shape[-1]):
        lhs_id = lhs_id + w[:, (2 << i) - 1] * x[:, i]
    if (lhs_id <= 0.0).any():
        raise ValueError("identity inequality has nonpositive LHS")
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


def _drawn(samples: int, draw):
    """`samples` instances (kk, vector, ...) from draw(), SUITE_BLOCK at
    a time, each block grouped by its number of users kk, ascending: kk
    and one (B, kk) array per vector, rows in draw order."""
    for start in range(0, samples, SUITE_BLOCK):
        groups = {}
        for _ in range(min(SUITE_BLOCK, samples - start)):
            kk, *vectors = draw()
            groups.setdefault(kk, []).append(vectors)
        for kk in sorted(groups):
            yield kk, *map(np.array, zip(*groups[kk]))


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


@lru_cache(maxsize=1)
def _fixed_grid_residuals() -> tuple[float, float]:
    """The largest capacity-decomposition and phase-start residuals over
    K = 2..8 and nine erasure probabilities: no randomness, so a process
    computes them once for every `identity_suite` call."""
    r_dec = r_rec = 0.0
    for kk in range(2, 9):
        for dd in np.linspace(0.1, 0.9, 9):
            r_dec = max(r_dec, decomposition_residual(kk, float(dd), 1.0))
            r_rec = max(r_rec, order_recursion_residual(kk, float(dd), 1.0))
    return r_dec, r_rec


def identity_suite(K: int = 4, samples: int = 200, seed: int = 0) -> IdentityReport:
    """Randomized verification of the internal identities: alternating sum
    vs recursion, the weights lemma, the aggregate-length identity, the
    capacity decomposition, the phase-start recursion, worst-user ordering
    and permutation dominance.

    K (2..6) bounds the users of the random instances, of which each
    randomized check draws `samples` (at least 1); other values raise
    ValueError before any work.  The instances are drawn in one stream
    from `seed`, SUITE_BLOCK at a time, and each block is checked one
    batch per size, so the report depends on the seed alone."""
    if not 2 <= K <= 6:
        raise ValueError(f"identity suite K must be in 2..6, got {K}")
    if samples < 1:
        raise ValueError(f"identity suite samples must be at least 1, "
                         f"got {samples}")
    rng = np.random.default_rng(seed)
    rep = IdentityReport()

    def plain():
        kk = int(rng.integers(2, K + 1))
        return (kk, rng.uniform(0.0, 0.95, kk), rng.uniform(0.0, 1.0, kk),
                rng.uniform(0.1, 3.0, kk))

    r_alt = r_agg = r_lem = 0.0
    for kk, d, p, F in _drawn(samples, plain):
        # an instance's users cache p * kk of kk files, which the
        # recursion reads back as (p * kk) / kk
        p = p * kk / kk
        t = _plan_tables(d, _expected_need(p, F))
        w = _weights(p, d)
        cell, user, _, rest, comp, _ = _cells(kk)
        Fk = F[:, user]
        # alternating sum over the subsets s of J - k of
        # w((users outside J) + k + s), the Moebius transform of the
        # complemented weights at J - k
        mu = _mobius(w[:, ::-1])
        r_alt = max(r_alt, float(np.abs(
            mu[:, rest] * Fk - t.reshape(len(t), -1)[:, cell]).max()))
        # k's lengths over the sub-phases inside J that hold k add up to
        # w((users outside J) + k) * F_k
        agg = _zeta(t).reshape(len(t), -1)[:, cell]
        r_agg = max(r_agg, float(np.abs(agg - w[:, comp] * Fk).max()))
        # telescoping weights lemma: the subset sums of those alternating
        # sums give back w(all - J) for every J other than all users
        r_lem = max(r_lem, float(
            np.abs(_zeta(mu) - w[:, ::-1])[:, 1:-1].max()))
    rep.residuals["alternating_vs_recursion"] = r_alt
    rep.residuals["aggregate_identity"] = r_agg
    rep.residuals["weights_lemma"] = r_lem

    (rep.residuals["capacity_decomposition"],
     rep.residuals["phase_start_recursion"]) = _fixed_grid_residuals()

    def fair():
        kk = int(rng.integers(2, K + 1))
        return kk, *random_one_sided_fair(kk, rng)

    r_plan = 0.0
    for kk, d, p, rates in _drawn(samples, fair):
        p = p * kk / kk
        t = _plan_tables(d, _expected_need(p, rates))
        w = _weights(p, d)
        closed, _ = _lattice(w, rates)
        r_plan = max(r_plan, float(np.abs(
            t.max(axis=1).sum(axis=1) - closed).max()))
        rep.worst_user_ok &= bool(_lowest_is_worst(t).all())
        rep.dominance_ok &= bool(_dominates(w, rates, closed).all())
    rep.residuals["plan_vs_closed_form_one_sided"] = r_plan
    return rep
