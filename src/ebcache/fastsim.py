"""Length-only delivery simulation, vectorized over slots.

Runs the same per-slot bookkeeping as the full engine (reception or
overheard promotion counts as progress; promotions enlarge the target
pool) but tracks only per-user outstanding-equation counters, never the
equations themselves.  On the full engine's `ChannelStream` it gives
slot-identical counts at a small fraction of the cost, which is what
makes file sizes of 10^5 practical for Monte Carlo runs.

The needs table is a (2^K, K) int64 array: row J, column k0 holds the
equations user k0 + 1 still needs from pool J (a bitmask of users).  Only
members count, so entries outside a pool, and row 0, are ignored.

Sub-phases run in `subsets_ascending` order, skipping the pools with
nothing pending, which are found once per cardinality.  Each looks at
chunks of channel states, every member of the pool served by the same
chunk: one cumulative sum over the (slot, member) progress matrix gives
each member's finishing slot, and one `nonzero` over the
overheard-outside matrix, cut at those slots, gives every promotion,
scattered into a single (2^K, K) table of pending counts and kept by
its key for `SimResult.realized_transfers`.  The sub-phase consumes the
chunk up to the last finishing slot and leaves the rest in the stream,
or consumes it all and looks at another; chunk sizes set only speed.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .delivery import ChannelStream, SimResult, promotion_keys
from .model import (Demand, SystemConfig, demand_for, subsets_ascending,
                    users_of)
from .placement import PlacementMap, validate_placement

_MIN_CHUNK, _CHUNK = 128, 8192
_SLOTS = np.arange(_CHUNK)[:, None]


def initial_needs(cfg: SystemConfig, pm: PlacementMap,
                  demand: Demand | None = None) -> np.ndarray:
    """The initial needs table: packets of user k's file cached by
    exactly C are outstanding for k in pool C + {k}."""
    demand = demand_for(cfg, demand)
    validate_placement(cfg, pm)
    masks = np.arange(1 << cfg.K)
    needs = np.zeros((1 << cfg.K, cfg.K), dtype=np.int64)
    for k in range(1, cfg.K + 1):
        bit = 1 << (k - 1)
        free = (masks & bit) == 0
        counts = pm.subset_counts(demand.file_of(k))
        needs[masks[free] | bit, k - 1] = counts[free]
    return needs


def order_start_needs(K: int, order: int, n_packets: int) -> np.ndarray:
    """The needs table that seeds every subset of the given size with
    packets all its members still need."""
    inpool = np.arange(1 << K)[:, None] >> np.arange(K) & 1
    full = inpool.sum(axis=1, keepdims=True) == order
    return np.where(full, inpool * n_packets, 0)


def simulate_lengths(K: int, delta, needs: np.ndarray, seed: int) -> SimResult:
    """Slot counts for the whole delivery given the initial needs table."""
    chan = ChannelStream(K, delta, seed)
    inpool = (np.arange(1 << K)[:, None] >> np.arange(K) & 1).astype(bool)
    # each pool's lowest per-slot progress probability (its worst member
    # and everyone outside all erase) bounds its length and sizes chunks
    silent = np.ones(1 << K)
    for j in range(K):
        silent[~inpool[:, j]] *= chan.delta[j]
    q_min = 1.0 - np.where(inpool, chan.delta, 0.0).max(axis=1) * silent
    # pending[t, k0]: equations member k0 of pool t still needs from it
    pending = np.where(inpool, needs, 0)
    flat = pending.reshape(-1)
    moved = [np.empty(0, dtype=np.int64)]   # promotion keys
    per_subphase: dict[tuple[int, ...], int] = {}
    total = 0
    for pool in _live_pools(K, pending):
        act = np.flatnonzero(pending[pool])
        need = pending[pool, act]
        length = 0
        while act.size:
            chunk = int(min(_CHUNK, max(_MIN_CHUNK, 2 * int(need.max())
                                               / q_min[pool])))
            recv, states = chan.rows(chunk)
            heard = recv[:, act]
            prog = heard | ((states & ~pool) != 0)[:, None]
            cum = np.cumsum(prog, axis=0)
            fin = (cum < need).sum(axis=0)      # chunk if not finished here
            used = min(int(fin.max()) + 1, chunk)
            chan.pos += used
            # progress without reception is a promotion; count those up to
            # each member's finishing slot
            rows, cols = np.nonzero(prog & ~heard & (_SLOTS[:chunk] <= fin))
            if rows.size:
                target, k0 = states[rows] | pool, act[cols]
                np.add.at(flat, target * K + k0, 1)
                moved.append(promotion_keys(pool, target, k0))
            left = fin == chunk
            act, need = act[left], need[left] - cum[-1, left]
            length += used
        per_subphase[users_of(pool)] = length
        total += length
    keys, counts = np.unique(np.concatenate(moved), return_counts=True)
    return SimResult(total, per_subphase, None, 0, keys, counts)


def _live_pools(K: int, pending: np.ndarray):
    """The pools with pending equations, in `subsets_ascending` order,
    picked one cardinality at a time as the caller reaches it: promotions
    only reach larger pools, so a cardinality's rows are final by then."""
    order = np.asarray(subsets_ascending(K))
    ends = np.cumsum([comb(K, c) for c in range(1, K)])
    for pools in np.split(order, ends):
        yield from pools[pending[pools].any(axis=1)].tolist()


def run_delivery_lengths(cfg: SystemConfig, pm: PlacementMap,
                         demand: Demand | None = None, seed: int = 0
                         ) -> SimResult:
    return simulate_lengths(cfg.K, cfg.delta, initial_needs(cfg, pm, demand),
                            seed)
