"""Independent references for the benchmark's correctness checks.

Nothing here imports ebcache: every value is derived again from the
paper's formulas or from the placement masks, with code that shares no
logic with the library, so a check compares two separate derivations.
"""

from __future__ import annotations

from math import comb

import numpy as np


def symmetric_ttot(K: int, delta: float, p: float, F: float) -> float:
    """Delivery length with feedback in the symmetric network:
    F * sum_{k=1..K} (1-p)^k / (1-delta^k)."""
    return F * sum((1.0 - p) ** k / (1.0 - delta ** k) for k in range(1, K + 1))


def no_feedback_ttot(K: int, delta: float, p: float, F: float) -> float:
    """Decentralized delivery length without feedback: every symbol goes
    through the worst link, F * sum_{k=1..K} (1-p)^k / (1-delta)."""
    return F * sum((1.0 - p) ** k for k in range(1, K + 1)) / (1.0 - delta)


def order_capacity(K: int, delta: float, j: int) -> float:
    """Largest total rate of symbols wanted by exactly j users:
    C(K,j) / sum_{k=1..K-j+1} C(K-k, j-1) / (1-delta^k)."""
    return comb(K, j) / sum(comb(K - k, j - 1) / (1.0 - delta ** k)
                            for k in range(1, K - j + 2))


def packet_values(seed: int, npackets: int, L: int) -> np.ndarray:
    """The packets a delivery with this seed sends: one row of L uniform
    bytes per packet, files in order, drawn first from numpy's default
    generator on the seed, as `delivery.run_delivery` draws them."""
    return np.random.default_rng(seed).integers(0, 256, (npackets, L),
                                                dtype=np.uint8)


def lattice_max(p, delta, x) -> tuple[float, tuple[int, ...]]:
    """max over orders pi of sum_k w(pi_1..pi_k) * x_{pi_k}, by the
    longest chain in the subset lattice:
    best(S) = max_{i in S} best(S minus i) + w(S) * x_i,
    with w(S) = prod_{i in S}(1-p_i) / (1 - prod_{i in S} delta_i).
    Returns the maximum and a maximizing order (1-based)."""
    K = len(x)
    full = (1 << K) - 1
    keep = np.ones(1 << K)
    erase = np.ones(1 << K)
    for i in range(K):
        has = (np.arange(1 << K) >> i & 1).astype(bool)
        keep[has] *= 1.0 - p[i]
        erase[has] *= delta[i]
    w = np.zeros(1 << K)
    w[1:] = keep[1:] / (1.0 - erase[1:])
    best = [0.0] * (1 << K)
    last = [-1] * (1 << K)
    for S in range(1, full + 1):
        top = -np.inf
        for i in range(K):
            if S >> i & 1:
                v = best[S & ~(1 << i)] + w[S] * x[i]
                if v > top:
                    top, last[S] = v, i
        best[S] = top
    order = []
    S = full
    while S:
        order.append(last[S] + 1)
        S &= ~(1 << last[S])
    return best[full], tuple(reversed(order))


def prefix_sum(p, delta, x, order) -> float:
    """sum_k w(order_1..order_k) * x_{order_k} for one 1-based order."""
    total, keep, erase = 0.0, 1.0, 1.0
    for u in order:
        keep *= 1.0 - p[u - 1]
        erase *= delta[u - 1]
        total += keep / (1.0 - erase) * x[u - 1]
    return total


def initial_outstanding(K: int, masks_of_demanded) -> np.ndarray:
    """out[J, k] = packets of user k's demanded file cached by exactly
    J minus {k}; they start outstanding for k in sub-phase J.

    `masks_of_demanded[k]` is the caching bitmask array of user k+1's
    demanded file."""
    out = np.zeros((1 << K, K), dtype=np.int64)
    for k, masks in enumerate(masks_of_demanded):
        bit = 1 << k
        m = np.asarray(masks, dtype=np.int64)
        uncached = m[(m & bit) == 0]
        out[:, k] = np.bincount(uncached | bit, minlength=1 << K)
    return out


def subphase_lower_bounds(K: int, masks_of_demanded) -> dict[tuple[int, ...], int]:
    """A sub-phase J lasts at least as long as any member's initial
    outstanding count: each slot lowers a user's count by at most one,
    and promotions from smaller sub-phases only add to it.  Only
    sub-phases with a positive bound are listed, keyed by 1-based
    ascending user tuple."""
    init = initial_outstanding(K, masks_of_demanded)
    bounds = {}
    for J in range(1, 1 << K):
        lb = int(init[J].max())
        if lb > 0:
            bounds[tuple(i + 1 for i in range(K) if J >> i & 1)] = lb
    return bounds


def uncached_demanded(K: int, masks_of_demanded) -> int:
    """Demanded packets not in the demanding user's own cache: the
    packets each user must recover over the channel."""
    return sum(int(np.count_nonzero((np.asarray(m, dtype=np.int64) >> k & 1) == 0))
               for k, m in enumerate(masks_of_demanded))
