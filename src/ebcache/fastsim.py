"""Length-only delivery simulation, vectorized over slots and trials.

Runs the same per-slot bookkeeping as the full engine (reception or
overheard promotion counts as progress; promotions enlarge the target
pool) but tracks only per-user outstanding-equation counters, never the
equations themselves.  On the full engine's `ChannelStream` it gives
slot-identical counts at a small fraction of the cost, which is what
makes file sizes of 10^5 practical for Monte Carlo runs.

The needs table is a (2^K, K) int64 array: row J, column k0 holds the
equations user k0 + 1 still needs from pool J (a bitmask of users).  Only
members count, so entries outside a pool, and row 0, are ignored.

`simulate_lengths` runs one delivery from its needs table, or a batch of
independent trials that share K and the erasure probabilities, each from
its own needs table on its own `ChannelStream`.  Sub-phases run in
`subsets_ascending` order, skipping the pools no trial has anything
pending in, which are found once per cardinality.  A pool takes steps
over every trial with work there, each step a chunk of channel states
per trial, every member of the pool served by its trial's chunk: one
cumulative sum over the (trial, member, slot) progress array gives each
member's finishing slot, and the overheard-outside array, cut at those
slots, gives every promotion.  Promotions are scattered into the
pending tables at once; a single delivery also keeps them for
`SimResult.realized_transfers`, folded to distinct keys and counts
whenever `_Promotions.FOLD` of them have come in.  Each trial consumes
its chunk up to its last finishing slot and leaves the rest in its
stream, or consumes it all and takes another step.  Chunk sizes, and so
batch sizes, set only speed: a trial's result is the one it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .delivery import ChannelStream, SimResult, promotion_keys
from .model import (Demand, SystemConfig, demand_for, subsets_ascending,
                    users_of)
from .placement import PlacementMap, validate_placement

# the smallest chunk is a step's floor: 32 rather than 128 slots took the
# benchmark's K = 10 sweep from 108 to 80 ms and one K = 16 delivery of
# 500,000-packet files from 3.4 to 3.1 s (2-vCPU x86-64 host)
_MIN_CHUNK, _CHUNK = 32, 8192
_SLOTS = np.arange(_CHUNK)[:, None]
# (trial, slot, member) cells a step looks at, at most: as many as one
# trial's full chunk at K = 4, which keeps a step's temporaries under 1 MB
_STEP_CELLS = 1 << 15
# The 8-byte cells of needs tables (2^K x K each) and channel buffers
# (_CHUNK / 2 each) a batch should hold.  At the cap its needs and
# pending tables take 4 MB, below the 5.6 MB tracemalloc peak of the
# benchmark's order-capacity run before batching; the benchmark's sweep
# (10 trials at K = 10, 18 fit) holds 1.6 MB.
BATCH_CELLS = 1 << 18


def batch_trials(K: int) -> int:
    """The most trials a batch should hold at K users: their needs tables
    and channel buffers take about BATCH_CELLS cells, one trial at least."""
    return max(1, BATCH_CELLS // ((K << K) + _CHUNK // 2))


def initial_needs(cfg: SystemConfig, pm: PlacementMap,
                  demand: Demand | None = None) -> np.ndarray:
    """The initial needs table: packets of user k's file cached by
    exactly C are outstanding for k in pool C + {k}.  The placement may
    stop after the last file the demand reads."""
    demand = demand_for(cfg, demand)
    validate_placement(cfg, pm, files=max(demand.assignment))
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


@dataclass(eq=False)
class BatchLengths:
    """Slot counts of a batch of independent deliveries at K users:
    lengths[t, i] slots of trial t's sub-phase of pool
    `subsets_ascending(K)[i]`, 0 where it had nothing pending."""

    K: int
    lengths: np.ndarray

    @property
    def slots(self) -> list[int]:
        """Each trial's slots."""
        return self.lengths.sum(axis=1).tolist()

    @property
    def slots_total(self) -> int:
        """The slots of every trial together."""
        return int(self.lengths.sum())

    @property
    def slots_per_subphase(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """Slots by (trial, users) of every sub-phase that ran, as
        `SimResult.slots_per_subphase` keys one delivery's by users."""
        trial, at = np.nonzero(self.lengths)
        pools = np.asarray(subsets_ascending(self.K))[at]
        return {(t, users_of(J)): n for t, J, n in zip(
            trial.tolist(), pools.tolist(), self.lengths[trial, at].tolist())}


def simulate_lengths(K: int, delta, needs: np.ndarray, seed
                     ) -> SimResult | BatchLengths:
    """Slot counts of the delivery from the initial needs table `needs`
    on the channel of `seed`, with its promotions.

    `needs` may also stack T tables, (T, 2^K, K), with `seed` a sequence
    of T seeds: T independent deliveries over the same erasure
    probabilities, run together.  Their slot counts come back as a
    `BatchLengths`, trial t's the ones `simulate_lengths(K, delta,
    needs[t], seed[t])` gives, and their promotions are not kept."""
    needs = np.asarray(needs)
    one = needs.ndim == 2
    seeds = [seed] if one else list(seed)
    shape = (1 << K, K) if one else (len(seeds), 1 << K, K)
    if needs.shape != shape:
        raise ValueError(f"needs must have shape {shape}, got {needs.shape}")
    chans = _Channels([ChannelStream(K, delta, s) for s in seeds])
    moved = _Promotions(K) if one else None
    lengths = _deliver(K, np.asarray(delta, dtype=float),
                       needs[None] if one else needs, chans, moved)
    if not one:
        return BatchLengths(K, lengths)
    at = np.flatnonzero(lengths[0])
    slots = lengths[0, at].tolist()
    pools = np.asarray(subsets_ascending(K))[at].tolist()
    return SimResult(sum(slots), dict(zip(map(users_of, pools), slots)),
                     None, 0, *moved.folded())


class _Channels:
    """The channel states of a batch, trial t's from its own stream: row t
    of `states` holds its next slots from `pos[t]` on, and is refilled
    from the stream when a step wants more than are left.  Every row has
    at least `spare` slots left."""

    def __init__(self, streams: list[ChannelStream]):
        self.streams = streams
        self.states = np.empty((len(streams), 0), dtype=np.uint16)
        self.pos = np.zeros(len(streams), dtype=np.int64)
        self.spare = 0

    def take(self, tr: np.ndarray, n: int) -> np.ndarray:
        """The next n states of trials `tr`, (len(tr), n), unconsumed;
        the caller consumes at most n of each before the next take."""
        if n > self.spare:
            width = self.states.shape[1]
            # steps consume less than they take: count what is left
            self.spare = width - int(self.pos.max(initial=0))
            if n > self.spare:
                if n > width:
                    self._refill(range(len(self.streams)), 2 * n)
                else:
                    self._refill(tr[self.pos[tr] + n > width].tolist(), width)
                self.spare = (self.states.shape[1]
                              - int(self.pos.max(initial=0)))
        self.spare -= n
        if len(tr) == 1:                # a slice is cheaper than a gather
            t = int(tr[0])
            return self.states[t:t + 1, self.pos[t]:self.pos[t] + n]
        return self.states[tr[:, None], self.pos[tr][:, None] + _SLOTS[:n].T]

    def _refill(self, trials, width: int) -> None:
        """Move the unconsumed states of `trials` to the front of their
        rows and fill the rows up from their streams, every row first
        widened to `width` slots."""
        old = self.states.shape[1]
        if width > old:
            self.states = np.concatenate(
                [self.states, np.empty((len(self.streams), width - old),
                                       dtype=np.uint16)], axis=1)
        for t in trials:
            row, chan, lo = self.states[t], self.streams[t], int(self.pos[t])
            row[:old - lo] = row[lo:old]
            row[old - lo:] = chan.consume(width - old + lo)
            self.pos[t] = 0


def _deliver(K: int, delta: np.ndarray, needs: np.ndarray, chans: _Channels,
             moved: _Promotions | None) -> np.ndarray:
    """Every sub-phase of every trial: lengths[t, i] slots of trial t's
    sub-phase of pool `subsets_ascending(K)[i]`; the promotions go to
    `moved` if there is one."""
    inpool = (np.arange(1 << K)[:, None] >> np.arange(K) & 1).astype(bool)
    # each pool's lowest per-slot progress probability (its worst member
    # and everyone outside all erase) bounds its length and sizes chunks
    silent = np.ones(1 << K)
    for j in range(K):
        silent[~inpool[:, j]] *= delta[j]
    q_min = 1.0 - np.where(inpool, delta, 0.0).max(axis=1) * silent
    # pending[t, J, k0]: equations member k0 of pool J still needs from
    # it in trial t
    pending = np.where(inpool, needs, 0)
    flat = pending.reshape(-1)
    order = np.asarray(subsets_ascending(K))
    lengths = np.zeros((len(pending), len(order)), dtype=np.int64)
    first = 0
    # promotions only reach larger pools, so a cardinality's rows are
    # final when it starts
    for size in range(1, K + 1):
        pools = order[first:first + comb(K, size)]
        q = q_min[pools].tolist()
        members = np.nonzero(inpool[pools])[1].reshape(len(pools), size)
        bits = (1 << members).astype(np.uint16)[:, :, None]
        # a member progresses when it or anyone outside the pool hears
        others = ((1 << K) - 1) ^ pools
        reach = bits | others.astype(np.uint16)[:, None, None]
        needs_now = pending[:, pools[:, None], members]
        tops = needs_now.max(axis=(0, 2), initial=0).tolist()
        at, trials = np.nonzero(needs_now.any(axis=2).T)
        cut = np.flatnonzero(np.diff(at, prepend=-1, append=-1)).tolist()
        for i, lo, hi in zip(at[cut[:-1]].tolist(), cut, cut[1:]):
            tr, pool, mem = trials[lo:hi], int(pools[i]), members[i]
            top, length = tops[i], lengths[:, first + i]
            need = needs_now[tr, i]
            active = need > 0
            while True:
                chunk = int(min(_CHUNK, max(1, _STEP_CELLS // need.size),
                                max(_MIN_CHUNK, 2 * top / q[i])))
                states = chans.take(tr, chunk)
                # (trial, member, slot): progressed, and heard
                prog = (states[:, None] & reach[i]) != 0
                heard = (states[:, None] & bits[i]) != 0
                cum = np.cumsum(prog, axis=2, dtype=np.int32)
                # one past a member's finishing slot, chunk + 1 if it does
                # not finish here, 0 if it has nothing to do
                fin = (cum < need[:, :, None]).sum(axis=2) + active
                used = np.minimum(fin.max(axis=1), chunk)
                chans.pos[tr] += used
                length[tr] += used
                # progress without reception is a promotion; count those
                # up to each member's finishing slot
                promoted = (prog ^ heard) & (_SLOTS[:chunk].T
                                             < fin[:, :, None])
                if promoted.any():
                    cell = ((states | pool) + (tr << K)[:, None]) * K
                    cells = (cell[:, None] + mem[:, None])[promoted]
                    np.add.at(flat, cells, 1)
                    if moved is not None:
                        moved.add(pool, cells)
                if int(fin.max()) <= chunk:
                    break
                active = fin > chunk
                keep = active.any(axis=1)
                tr, active = tr[keep], active[keep]
                need = np.where(active, need[keep] - cum[keep, :, -1], 0)
                top = int(need.max())
        first += len(pools)
    return lengths


class _Promotions:
    """One delivery's promotion counts by `promotion_keys` key.  They
    come in as pending-table cells (target pool, member) with the pool
    they left, and are folded to distinct keys whenever FOLD of them
    have come in."""

    FOLD = 1 << 14

    def __init__(self, K: int):
        self.K, self.cells = K, K << K      # cells of the pending table
        self.raw, self.n_raw = [], 0
        self.keys, self.counts = [], []

    def add(self, pool: int, cells: np.ndarray) -> None:
        """One promotion from `pool` into each of the pending-table
        `cells`, repeats counted."""
        self.raw.append(cells + pool * self.cells)
        self.n_raw += len(cells)
        if self.n_raw >= self.FOLD:
            self._fold()

    def _fold(self) -> None:
        raw, counts = np.unique(np.concatenate(self.raw), return_counts=True)
        self.raw, self.n_raw = [], 0
        src, raw = np.divmod(raw, self.cells)
        self.keys.append(promotion_keys(src, *np.divmod(raw, self.K)))
        self.counts.append(counts)

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys, ascending, and their counts."""
        if self.raw:
            self._fold()
        keys = np.concatenate(self.keys + [_NONE])
        counts = np.concatenate(self.counts + [_NONE])
        self.keys = self.counts = []
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        del order
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        if len(first):
            keys, counts = keys[first], np.add.reduceat(counts, first)
        return keys, counts


_NONE = np.empty(0, dtype=np.int64)


def run_delivery_lengths(cfg: SystemConfig, pm: PlacementMap,
                         demand: Demand | None = None, seed: int = 0
                         ) -> SimResult:
    return simulate_lengths(cfg.K, cfg.delta, initial_needs(cfg, pm, demand),
                            seed)
