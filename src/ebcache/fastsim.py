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

Sub-phases run in `subsets_ascending` order.  Each looks at chunks of
channel states, every member of the pool served by the same chunk: one
cumulative sum over the (slot, member) progress matrix gives each
member's finishing slot, and one `nonzero` over the overheard-outside
matrix, cut at those slots, gives every promotion, scattered into a
single (2^K, K) table of pending counts.  The sub-phase consumes the
chunk up to the last finishing slot and leaves the rest in the stream,
or consumes it all and looks at another; chunk sizes set only speed.
"""

from __future__ import annotations

import numpy as np

from .delivery import ChannelStream, DeliveryError, SimResult
from .model import Demand, SystemConfig, subsets_ascending, users_of
from .placement import PlacementMap

_MIN_CHUNK, _CHUNK = 128, 8192
_SLOTS = np.arange(_CHUNK)[:, None]


def initial_needs(cfg: SystemConfig, pm: PlacementMap,
                  demand: Demand | None = None) -> np.ndarray:
    """The initial needs table: packets of user k's file cached by
    exactly C are outstanding for k in pool C + {k}."""
    demand = demand or Demand.identity(cfg.K)
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


def simulate_lengths(K: int, delta, needs: np.ndarray, seed: int,
                     start_phase: int = 1) -> SimResult:
    """Slot counts for the whole delivery given the initial needs table."""
    chan = ChannelStream(K, delta, seed)
    if not 1 <= start_phase <= K:
        raise DeliveryError("start_phase out of range")
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
    cells = flat.size
    moved, weights = [], []         # promotions as pool * cells + t * K + k0
    per_subphase: dict[tuple[int, ...], int] = {}
    total = 0
    for pool in subsets_ascending(K):
        if bin(pool).count("1") < start_phase:
            continue
        act = np.flatnonzero(pending[pool])
        if not act.size:
            continue
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
                keys = (states[rows] | pool) * K + act[cols]
                if keys.size > cells:
                    cnt = np.bincount(keys, minlength=cells)
                    flat += cnt
                    keys = np.flatnonzero(cnt)
                    weights.append(cnt[keys])
                else:
                    np.add.at(flat, keys, 1)
                    weights.append(np.ones(keys.size, dtype=np.int64))
                moved.append(pool * cells + keys)
            left = fin == chunk
            act, need = act[left], need[left] - cum[-1, left]
            length += used
        per_subphase[users_of(pool)] = length
        total += length
    transfers: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
    if moved:
        keys, inv = np.unique(np.concatenate(moved), return_inverse=True)
        counts = np.bincount(inv, weights=np.concatenate(weights))
        for key, n in zip(keys.tolist(), counts.tolist()):
            pool, cell = divmod(key, cells)
            t, k0 = divmod(cell, K)
            transfers[(users_of(pool), users_of(t), k0 + 1)] = int(n)
    return SimResult(
        slots_total=total,
        slots_per_subphase=per_subphase,
        decode_ok=None,
        cleanup_slots=0,
        realized_transfers=transfers,
    )


def run_delivery_lengths(cfg: SystemConfig, pm: PlacementMap,
                         demand: Demand | None = None, seed: int = 0,
                         start_phase: int = 1) -> SimResult:
    return simulate_lengths(cfg.K, cfg.delta, initial_needs(cfg, pm, demand),
                            seed, start_phase=start_phase)
