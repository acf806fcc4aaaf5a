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
pending in, which are found once per cardinality.  Promotions only reach
larger pools, so the pools of one cardinality share nothing but each
trial's place in its stream, and one step may span several of them.  A
step takes a chunk of channel states for every trial with work in its
pools.  Consecutive pools that are each expected to take a few slots
share a step, each in a window of the chunk as wide as the widest
estimate, a trial's window of a pool starting where it finished the pool
before; any other pool takes a step alone, its window the whole chunk.
In a window, one cumulative sum over the (trial, member, slot) progress
array gives each member's finishing slot, and the overheard-outside
array, cut at those slots, gives every promotion.  A step ends after its
last pool, or at the first one that some trial does not finish inside
its window; the trials that did not finish it go on with that pool
alone, a chunk a step.  Each trial consumes its states up to where it
stopped and leaves the rest in its stream.  Promotions are scattered
into the pending tables once a step; a single delivery also keeps them for
`SimResult.realized_transfers`, folded to distinct keys and counts
whenever `_Promotions.FOLD` of them have come in.  Chunk sizes, and so
batch sizes, set only speed: a trial's result is the one it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .delivery import ChannelStream, SimResult, promotion_keys
from .model import (Demand, SystemConfig, demand_for, subsets_ascending,
                    users_of)
from .placement import PlacementMap, validate_placement

# the smallest chunk is a lone pool's floor: 32 rather than 128 slots took
# the benchmark's K = 10 sweep from 108 to 80 ms and one K = 16 delivery of
# 500,000-packet files from 3.4 to 3.1 s (2-vCPU x86-64 host).  Pools
# expected to take at most twice that share steps instead
_MIN_CHUNK, _CHUNK = 32, 8192
_SLOTS = np.arange(_CHUNK)[:, None]
# (trial, pool, member, slot) cells a step looks at, at most: as many as
# one trial's full chunk at K = 4, which keeps a step's temporaries under
# 1 MB
_STEP_CELLS = 1 << 15
# The 8-byte cells of needs tables (2^K x K each) and channel buffers
# (_CHUNK / 2 each) a batch should hold.  At the cap its needs and
# pending tables take 4 MB, below the 5.6 MB tracemalloc peak of the
# benchmark's order-capacity run before batching; the benchmark's sweep
# (10 trials at K = 10, 18 fit) holds 1.6 MB.
BATCH_CELLS = 1 << 18
_NONE = np.empty(0, dtype=np.int64)


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

    def result(self, t: int, keys: np.ndarray = _NONE,
               counts: np.ndarray = _NONE) -> SimResult:
        """Trial t's slots as a `SimResult`, with the promotions `keys`
        and `counts` (`_Promotions.folded`), none if not given."""
        at = np.flatnonzero(self.lengths[t])
        slots = self.lengths[t, at].tolist()
        pools = np.asarray(subsets_ascending(self.K))[at].tolist()
        return SimResult(sum(slots), dict(zip(map(users_of, pools), slots)),
                         None, 0, keys, counts)


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
    batch = BatchLengths(K, lengths)
    return batch.result(0, *moved.folded()) if one else batch


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
        return sliding_window_view(self.states, n, axis=1)[tr, self.pos[tr]]

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
    # final when it starts, and its pools share only the stream position
    for size in range(1, K + 1):
        pools = order[first:first + comb(K, size)]
        members = np.nonzero(inpool[pools])[1].reshape(len(pools), size)
        bits = (1 << members).astype(np.uint16)[:, :, None]
        # a member progresses when it or anyone outside the pool hears
        others = ((1 << K) - 1) ^ pools
        reach = bits | others.astype(np.uint16)[:, None, None]
        needs_now = pending[:, pools[:, None], members]
        q = q_min[pools].tolist()
        tops = needs_now.max(axis=(0, 2), initial=0).tolist()
        busy = needs_now.any(axis=2)
        at, trials = np.nonzero(busy.T)
        cut = np.flatnonzero(np.diff(at, prepend=-1, append=-1)).tolist()
        work = at[cut[:-1]]
        est = [2 * tops[j] / q[j] for j in work.tolist()]
        # the slots that fit in a step's cells
        fit = min(_CHUNK,
                  _STEP_CELLS // max(1, int(busy.any(axis=1).sum()) * size))
        k, tr = 0, None
        while k < len(work):
            if tr is None:
                # the next G pools, each in a window as wide as the widest
                # estimate, as many as fit, if none would take more than
                # twice the smallest chunk; a lone pool takes a chunk
                span, G = est[k], 1
                while k + G < len(work):
                    wider = max(span, est[k + G])
                    if (wider > 2 * _MIN_CHUNK
                            or (G + 1) * (ceil(wider) + 1) > fit):
                        break
                    span, G = wider, G + 1
                i = work[k:k + G]
                tr = (trials[cut[k]:cut[k + 1]] if G == 1
                      else np.flatnonzero(busy[:, i].any(axis=1)))
                need = needs_now[tr[:, None], i]
            else:
                span = 2 * int(need.max()) / q[i[0]]
            if len(i) > 1:
                window = ceil(span)
                chunk = len(i) * (window + 1)
            else:
                chunk = window = int(min(
                    _CHUNK, max(1, _STEP_CELLS // need.size),
                    max(_MIN_CHUNK, span)))
            done, tr, need = _step(K, pools[i], members[i], reach[i],
                                   bits[i], tr, need, chans.take(tr, chunk),
                                   window, chans.pos, lengths, first + i,
                                   flat, moved)
            k += done
            i = i[done:done + 1]
        first += len(pools)
    return lengths


def _step(K, pools, members, reach, bits, tr, need, states, window, pos,
          lengths, cols, flat, moved):
    """One step of trials `tr` over consecutive pools of one cardinality:
    each trial reads its pools' windows of `window` slots one after the
    other from its chunk of channel states `states`, the window of a pool
    starting where the trial finished the pool before.  The step ends
    after the last pool, or at the first one that some trial does not
    finish inside its window.  It advances `pos` and `lengths` and
    scatters the promotions into the pending table `flat`; it returns how
    many pools every trial finished, and the trials that did not finish
    the next one with the needs they have left there, or None."""
    n, G, size = need.shape
    goal = need.astype(np.int32)
    # (trial, pool, slot): the window; (trial, pool, member, 1 + slot):
    # progressed, after a column of none; fins: one past a member's
    # finishing slot, window + 1 if it does not finish in its window, 0 if
    # it has nothing to do; ends: the slots a trial used
    progs = np.empty((n, G, size, 1 + window), dtype=bool)
    progs[..., 0] = False
    fins = np.empty((n, G, size), dtype=np.int64)
    ends = np.empty((n, G), dtype=np.int64)
    if G == 1:
        wins = states[:, None]
    else:
        wins = np.empty((n, G, window), dtype=states.dtype)
        wins[:, 0] = states[:, :window]
        # a trial that does not finish a pool reads the next ones from
        # window + 1 slots on; the chunk has room for that
        slide = sliding_window_view(states, window, axis=1)
        at, start = np.arange(n), 0
    for g in range(G):
        if g:
            start = start + ends[:, g - 1]
            wins[:, g] = slide[at, start]
        # a member progresses where the state meets its reach
        np.bitwise_and(wins[:, g, None], reach[g], out=progs[:, g, :, 1:],
                       casting="unsafe")
        cum = np.add.accumulate(progs[:, g], axis=2, dtype=np.int32)
        np.add.reduce(cum < goal[:, g, :, None], axis=2, out=fins[:, g])
        np.maximum.reduce(fins[:, g], axis=1, out=ends[:, g])
    late = ends > window
    ran = int(late.any(axis=0).argmax()) + 1 if late.any() else G
    used = np.minimum(ends[:, :ran], window)
    pos[tr] += used.sum(axis=1)
    lengths[tr[:, None], cols[:ran]] += used
    # progress without reception is a promotion; count those up to each
    # member's finishing slot
    heard = (wins[:, :ran, None] & bits[:ran]) != 0
    promoted = ((progs[:, :ran, :, 1:] ^ heard)
                & (_SLOTS[:window, 0] < fins[:, :ran, :, None]))
    if promoted.any():
        cell = ((wins[:, :ran] | pools[:ran, None])
                + (tr << K)[:, None, None]) * K
        cells = (cell[:, :, None] + members[:ran, :, None])[promoted]
        np.add.at(flat, cells, 1)
        if moved is not None:
            moved.add(np.broadcast_to(pools[:ran, None, None],
                                      promoted.shape)[promoted], cells)
    if ran == G and not late[:, -1].any():
        return G, None, None
    # the trials that did not finish pool ran - 1 go on over another chunk
    g = ran - 1
    left = fins[:, g] > window
    keep = left.any(axis=1)
    got = cum[:, :, -1] if g == G - 1 else progs[:, g].sum(axis=2)
    return g, tr[keep], np.where(left, need[:, g] - got, 0)[keep, None]


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

    def add(self, pools: np.ndarray, cells: np.ndarray) -> None:
        """One promotion from `pools[i]` into the pending-table cell
        `cells[i]` for each i, repeats counted."""
        self.raw.append(cells + pools * self.cells)
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


def run_delivery_lengths(cfg: SystemConfig, pm: PlacementMap,
                         demand: Demand | None = None, seed: int = 0
                         ) -> SimResult:
    return simulate_lengths(cfg.K, cfg.delta, initial_needs(cfg, pm, demand),
                            seed)
