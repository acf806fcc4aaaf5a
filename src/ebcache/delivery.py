"""Packet-level execution of the feedback delivery scheme.

Phases run in ascending target-set cardinality, sub-phases in
lexicographic order.  Sub-phase {k} broadcasts the raw uncached packets of
user k's file until somebody hears each one; larger sub-phases send
combinations of the pool's symbols.  Each symbol of a pool keeps its
remaining want, the members that still have to pin it; every other member
holds it or pinned it there.  When the remaining wants of some symbols,
cut to the active members, split them exactly, a combination is the XOR
of the lowest such symbol of each part and leaves each receiver one
unknown (the XOR scheme of Georgiadis & Tassiulas, generalised by Wang
and by Gatzianas et al.); a member that receives it or moves up with it
has pinned its symbol.  When no exact split exists, it combines every
symbol an active member wants with fresh random GF(2^8) coefficients.
Either way each member progresses on the same events, so the slots do
not depend on the choice.  After each slot the realized receiver set
drives the bookkeeping:

  * a needing receiver banks the equation and its counter drops;
  * if an outsider overheard while some needing user missed the slot, the
    transmitted equation is promoted into the enlarged pool, moving those
    users' outstanding equations up with it;
  * otherwise the slot was wasted for the users that missed it and a
    fresh combination goes out next.

Every atom (a packet or a combination) is carried by at most one slot,
so one atom table, grown with the atom values, holds what the feedback
told: the receiver set of the slot that carried each atom (`heard`), the
pool the atom left (`src`, as a combination sent or a packet promoted),
and the last pool it was seeded into with the users that need it there
(`seat`, `want`).  A pool's members are the atoms seated in it, in
ascending atom id; seating an atom also queues it for its pool, and a
promotion always seats in a larger pool, which runs later, so a pool
reads its members from its queue and an empty pool costs one lookup.
What a user heard, the rows it banked in its own pools, the pool where
it needs each atom and every promotion are all read from the table.

The slot loop looks at the channel states in chunks and consumes only
the slots it used.  A pool combines only atoms seated before it started,
so its combinations enter the table when it ends, in one pass, their
payloads from one `gf_dot` call, one segment each.

Decoding eliminates each user's banked equations pool by pool.  A pool
only ever combines atoms (packets and promoted combinations) seeded into
it, so the equations fall into one block per pool, eliminated in
dependency order with solved values folded into later right-hand sides;
pools closed in a cycle are merged into one block.  A user's rows are
built in one CSR layout (row node, columns, coefficients, right-hand
side) by a few vectorized passes, and each block is filled with one
scatter.  `gf256.rref`, the only elimination routine, brings every
block to reduced row echelon form.  Rank-deficient blocks and everything
downstream of them form one residual system, reduced the same way.
Only dense combinations draw coefficients, so only they can fall short
of rank; those rare shortfalls are repaired by a feedback cleanup round,
which stacks each row it hears under the residual and reduces again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .gf256 import (FOLD_CHUNK, InconsistentSystemError, gf_dot, gf_fold,
                     rref)
from .model import (MAX_K, SUPPORTED_FIELD_ORDERS, Demand, SystemConfig,
                    demand_for, mask_of, subsets_ascending, users_of)
from .placement import PlacementMap

CLEANUP_BUDGET_PER_USER = 64
ROW_CHUNK = 32          # rows per pass when a user's rows are built
SLOT_CHUNK = 256        # channel states per look of the slot loop
_NO_I64 = np.empty(0, dtype=np.int64)
_NO_I32 = np.empty(0, dtype=np.int32)
_NO_U8 = np.empty(0, dtype=np.uint8)
_ONE = np.ones(1, dtype=np.uint8)
_ONES = np.ones(MAX_K, dtype=np.uint8)  # an XOR's coefficients
_ONES.flags.writeable = False


class DeliveryError(Exception):
    pass


class CleanupBudgetExceeded(DeliveryError):
    """Decoding stayed rank-deficient after the cleanup slot budget;
    `unresolved` maps the user to the packets it still misses."""

    def __init__(self, message: str, unresolved: dict[int, list[int]]):
        super().__init__(message)
        self.unresolved = unresolved


class ChannelStream:
    """The channel states of one delivery, the scheme's only random input:
    row t of `random((n, K)) < 1 - delta`, drawn in blocks from the second
    child of `SeedSequence(seed)`, tells who heard slot t.  numpy fills
    doubles in order, so the rows are one sequence whatever the blocks,
    and rows a caller saw but did not consume (advance `pos`) come again."""

    def __init__(self, K: int, delta, seed: int):
        self.delta = delta = np.asarray(delta, dtype=float)
        if delta.shape != (K,) or not ((delta >= 0.0) & (delta < 1.0)).all():
            raise DeliveryError("delta must hold K erasure probabilities "
                                "in [0, 1)")
        self.rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
        self.recv, self.states, self.pos = np.empty((0, K), bool), _NO_I64, 0

    def rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n slots, unconsumed: receivers (n, K) and bitmasks."""
        if self.pos + n > len(self.states):
            K = len(self.delta)
            self.recv = np.concatenate([self.recv[self.pos:], self.rng.random(
                (max(n, 128), K)) < 1.0 - self.delta])
            self.states, self.pos = self.recv @ (1 << np.arange(K)), 0
        return (self.recv[self.pos:self.pos + n],
                self.states[self.pos:self.pos + n])

    def state(self) -> int:
        """The receiver set of the next slot, consumed."""
        s = self.rows(1)[1][0]
        self.pos += 1
        return int(s)


def promotion_keys(src, dst, k0):
    """One int64 key per promotion of an equation for user k0 + 1 from
    pool `src` to pool `dst`, as `SimResult.realized_transfers` reads it."""
    return (src << MAX_K | dst) << MAX_K | k0


def _same(a, b) -> bool:
    """Equality with arrays, also inside a dict, compared by value."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@dataclass(eq=False)
class SimResult:
    slots_total: int
    slots_per_subphase: dict[tuple[int, ...], int]
    decode_ok: list[bool] | None
    cleanup_slots: int
    transfer_keys: np.ndarray       # distinct `promotion_keys`, ascending
    transfer_counts: np.ndarray     # the promotions with each key
    recovered: dict[int, np.ndarray] | None = None

    @property
    def realized_transfers(self) -> dict[tuple, int]:
        """Promotions by (source pool, target pool, user)."""
        pools, k0 = np.divmod(self.transfer_keys, 1 << MAX_K)
        cols = (*np.divmod(pools, 1 << MAX_K), k0, self.transfer_counts)
        return {(users_of(s), users_of(t), k + 1): n
                for s, t, k, n in zip(*(c.tolist() for c in cols))}

    def __eq__(self, other):
        if type(other) is not SimResult:
            return NotImplemented
        return all(map(_same, vars(self).values(), vars(other).values()))

    def to_json(self) -> dict:
        key = lambda J: "[" + ",".join(str(u) for u in J) + "]"
        return {
            "slots_total": self.slots_total,
            "slots_per_subphase": {key(J): n
                                   for J, n in self.slots_per_subphase.items()},
            "decode_ok": self.decode_ok,
            "cleanup_slots": self.cleanup_slots,
        }


@dataclass
class _Rows:
    """One user's equations in CSR layout: the node of each row, entry
    offsets per row, each entry's column and coefficient, and one
    right-hand side per row."""

    node: np.ndarray
    ptr: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    rhs: np.ndarray


@dataclass
class _Residual:
    """What block elimination left of one user's system: the reduced
    matrix over the unknowns no block could solve, its pivots and the atom
    of each column, beside the packets the blocks did solve."""

    m: np.ndarray
    pivots: dict[int, int]
    col_of: dict[int, int]
    solved: dict[int, np.ndarray]
    need: list[int]      # demanded packets the user neither cached nor heard
    merged: int          # blocks that join pools closed in a cycle


class _Engine:
    def __init__(self, K: int, delta, seed: int, q: int = 256,
                 payload_len: int = 1, trace: list | None = None):
        if q not in SUPPORTED_FIELD_ORDERS:
            raise DeliveryError(f"field order {q} unsupported "
                                f"(choose from {SUPPORTED_FIELD_ORDERS})")
        self.K = K
        # packet values are default_rng(seed)'s first draw; coefficients and
        # channel states have streams of their own, whatever the payload
        self.chan = ChannelStream(K, delta, seed)
        self.rng = np.random.default_rng(seed)
        self.coef_rng = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(2)[0])
        self.q = q
        self.L = payload_len
        self.trace = trace
        self.full = (1 << K) - 1
        self.npackets = 0
        # the atom table, packets first, then combinations as sent: value,
        # receiver set of the carrying slot (0 if none), the pool it left
        # (0 if none), last pool seeded into and who needs it there.
        # A pool's members are the atoms seated in it.
        self.vals = np.empty((0, payload_len), dtype=np.uint8)
        self.heard = self.src = self.seat = self.want = _NO_I64
        self.pmask: np.ndarray | None = None            # caching bitmask
        self.must_decode: list[np.ndarray] = [np.empty(0, np.int64)] * K
        # combination atom -> (constituent atoms, coefs)
        self.combos: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # pool -> the atoms seated there, as appended
        self.queue: dict[int, list[np.ndarray]] = {}
        self.next_atom = 0
        self.slot = 0
        self.slots_per_subphase: dict[tuple[int, ...], int] = {}

    # -- setup -------------------------------------------------------------

    def set_packets(self, npackets: int, pmask: np.ndarray) -> None:
        self.npackets = npackets
        self.next_atom = npackets
        # room for as many combinations as packets before the table grows
        self._grow(2 * npackets + 16)
        self.vals[:npackets] = self.rng.integers(0, 256, (npackets, self.L),
                                                 dtype=np.uint8)
        self.pmask = pmask.astype(np.int64)

    def _reserve(self, n: int) -> np.ndarray:
        """Ids for n new atoms, the table grown to hold them."""
        lo = self.next_atom
        self.next_atom += n
        if self.next_atom > len(self.vals):
            self._grow(max(2 * len(self.vals), self.next_atom))
        return np.arange(lo, self.next_atom)

    def _grow(self, size: int) -> None:
        n = len(self.vals)
        vals = np.empty((size, self.L), dtype=np.uint8)
        vals[:n] = self.vals
        self.vals = vals
        self.heard, self.src, self.seat, self.want = (
            np.concatenate([a, np.zeros(size - n, np.int64)])
            for a in (self.heard, self.src, self.seat, self.want))

    @property
    def values(self) -> np.ndarray:
        """Packet values, (npackets, L)."""
        return self.vals[:self.npackets]

    def seed_item(self, pool_mask, atom, needed_mask) -> None:
        """Seat one atom, or an array of atoms, in a pool (or pools), needed
        there by the users in `needed_mask`, and queue it for that pool."""
        self.seat[atom] = pool_mask
        self.want[atom] = needed_mask
        pools, atoms = np.broadcast_arrays(np.atleast_1d(pool_mask),
                                           np.atleast_1d(atom))
        order = np.argsort(pools, kind="stable")
        keys, starts = np.unique(pools[order], return_index=True)
        for pool, group in zip(keys.tolist(),
                               np.split(atoms[order], starts[1:])):
            self.queue.setdefault(pool, []).append(group)

    # -- channel -----------------------------------------------------------

    def _coefs(self, n: int) -> np.ndarray:
        return self.coef_rng.integers(0, self.q, n, dtype=np.uint8)

    def _trace(self, pool_mask: int, S: int, action: str) -> None:
        if self.trace is not None:
            self.trace.append((self.slot,
                               "|".join(map(str, users_of(pool_mask))),
                               "|".join(map(str, users_of(S))), action))

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        # a promotion seats an atom in a strictly larger pool, which comes
        # later, so a pool's queue is complete when the pool starts
        for pool_mask in subsets_ascending(self.K):
            if pool_mask not in self.queue:
                continue
            atoms = np.sort(np.concatenate(self.queue.pop(pool_mask)))
            # the table decides: an atom unseated since it was queued drops
            atoms = atoms[self.seat[atoms] == pool_mask]
            if not atoms.size:
                continue
            before = self.slot
            if pool_mask.bit_count() == 1:
                self._run_raw(pool_mask, atoms)
            else:
                self._run_multicast(pool_mask, atoms)
            self.slots_per_subphase[users_of(pool_mask)] = self.slot - before

    def result(self) -> SimResult:
        """The slots so far and every promotion: an atom seated in a pool
        past the one it left, once for each user that needs it there."""
        n = self.next_atom
        moved = np.flatnonzero(self.src[:n] & self.seat[:n])
        i, k0 = np.nonzero(self.want[moved, None] >> np.arange(self.K) & 1)
        keys, counts = np.unique(promotion_keys(
            self.src[moved[i]], self.seat[moved[i]], k0), return_counts=True)
        return SimResult(self.slot, self.slots_per_subphase, None, 0, keys,
                         counts)

    def _run_raw(self, pool_mask: int, atoms: np.ndarray) -> None:
        """Broadcast each raw packet until at least one user receives it."""
        k0 = pool_mask.bit_length() - 1
        while atoms.size:
            states = self.chan.rows(SLOT_CHUNK)[1]
            # the i-th slot somebody heard carries the i-th packet left
            hit = np.flatnonzero(states)[:len(atoms)]
            used = int(hit[-1]) + 1 if len(hit) == len(atoms) else len(states)
            S, sent, atoms = states[hit], atoms[:len(hit)], atoms[len(hit):]
            self.heard[sent] = S
            out = (S >> k0 & 1) == 0
            self.src[sent[out]] = pool_mask
            self.seed_item(pool_mask | S[out], sent[out], 1 << k0)
            self.chan.pos += used
            if self.trace is None:
                self.slot += used
                continue
            for S in states[:used].tolist():
                self.slot += 1
                self._trace(pool_mask, S, "waste" if not S else
                            "deliver" if S >> k0 & 1 else "promote")

    def _run_multicast(self, pool_mask: int, atoms: np.ndarray) -> None:
        needed = self.want[atoms]
        r = [int(np.count_nonzero(needed >> k0 & 1)) for k0 in range(self.K)]
        active = sum(1 << k0 for k0 in range(self.K) if r[k0])
        # the pool's atoms by remaining want, cut to the active members:
        # who has still to pin each one, lowest id first.  A member outside
        # it never wanted the atom, and so holds it, or pinned it here.
        heads: dict[int, list[int]] = {}
        for a, w in zip(atoms.tolist(), needed.tolist()):
            heads.setdefault(w, []).append(a)
        # each slot somebody heard: its receivers, who moved up, and the
        # combination (atoms, coefficients), stored when the pool ends
        sent: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        split = support = None
        regroup = True
        while active:
            used = 0
            for S in self.chan.rows(SLOT_CHUNK)[1].tolist():
                used += 1
                self.slot += 1
                if regroup:
                    # one set per part of an exact split of the active
                    # members, so each receiver meets one unknown; it only
                    # moves with the groups or the active set
                    split = _exact_split(heads, active)
                    regroup, support = False, None
                if split:
                    if support is None:
                        # XOR of the lowest atom of each part
                        support = np.array([heads[w][0] for w in split])
                        coefs = _ONES[:len(split)]
                else:
                    # else every atom an active member wants, with fresh
                    # coefficients each slot
                    if support is None:
                        support = atoms[np.nonzero(needed & active)[0]]
                    coefs = self._coefs(len(support))
                got = S & active
                moved = (active & ~S) if (S & ~pool_mask) else 0
                if S:
                    # a slot nobody heard needs no payload, and moves nothing
                    sent.append((S, moved, support, coefs))
                if got:
                    self._trace(pool_mask, S, "deliver")
                elif moved:
                    self._trace(pool_mask, S, "promote")
                else:
                    self._trace(pool_mask, S, "waste")
                    continue
                # each user that received or moved up has one equation fewer
                # and, after a head slot, has pinned its atom
                done = got | moved
                finished = 0
                for k0 in range(done.bit_length()):
                    if done >> k0 & 1:
                        r[k0] -= 1
                        if not r[k0]:
                            finished |= 1 << k0
                if split:
                    for w in split:
                        if w & done:
                            regroup |= _move_head(heads, w, w & ~done)
                    support = None
                if finished:
                    active &= ~finished
                    for w in list(heads):
                        if w & finished:
                            _move_group(heads, w, w & active)
                    regroup = True
                    if not active:
                        break
            self.chan.pos += used
        self._store(pool_mask, sent)

    def _store(self, pool_mask: int, sent: list) -> None:
        """Enter a pool's combinations into the atom table, in the order
        sent, their payloads by `gf_dot`, one segment each, whole
        combinations and about FOLD_CHUNK products a call.  They combine
        only atoms seated in the pool before it started, none of them its
        own."""
        if not sent:
            return
        S, moved, ids, coefs = zip(*sent)
        new = self._reserve(len(sent))
        S, moved = np.array(S), np.array(moved)
        self.heard[new] = S
        self.src[new] = pool_mask
        up = moved != 0
        self.seed_item(pool_mask | S[up], new[up], moved[up])
        self.combos.update(zip(new.tolist(), zip(ids, coefs)))
        lens = np.array([len(c) for c in coefs])
        heads = np.cumsum(lens) - lens
        ids, coefs = np.concatenate(ids), np.concatenate(coefs)
        cuts = np.flatnonzero(np.diff(heads // max(1, FOLD_CHUNK // self.L)))
        for part in np.split(np.arange(len(sent)), cuts + 1):
            lo, hi = heads[part[0]], heads[part[-1]] + lens[part[-1]]
            self.vals[new[part]] = gf_dot(coefs[lo:hi], self.vals[ids[lo:hi]],
                                          heads[part] - lo)

    # -- decoding ----------------------------------------------------------

    def _known(self, k0: int) -> np.ndarray:
        """Mask of the atoms user k0 + 1 holds: its cached packets and
        every atom it heard."""
        known = (self.heard[:self.next_atom] >> k0 & 1).astype(bool)
        known[:self.npackets] |= (self.pmask >> k0 & 1).astype(bool)
        return known

    def _user_system(self, k0: int, known: np.ndarray):
        """User k0 + 1's equations as CSR rows (`_Rows`), with the atom and
        the node of the dependency graph of every column.

        A pool's node holds the combinations the user heard there and
        the definitions of those promoted out of it that the user needs;
        its columns are the atoms the user needs in that pool.  A case-B
        atom, a promoted combination the user neither heard nor needs,
        is a node of its own, holding its definition and its column.
        Pool nodes are pool masks, case-B nodes `full + 1 + column`.

        Rows are sorted by node, a pool node's rows in the order they
        were sent, so the rows the user heard after it stopped needing
        anything there come last.  The passes are vectorized: gather the
        combinations, fold the known atoms into the right-hand sides,
        give fresh case-B atoms columns, and repeat on their definitions,
        wave by wave, until no fresh atom is met.
        """
        bit = 1 << k0
        L = self.L
        n = self.next_atom
        # the pool where the user needs each atom; a raw packet promoted
        # out of {k} keeps its id, so its last seat is the one that counts
        home = np.where(self.want[:n] & bit, self.seat[:n], 0)
        home[known] = 0
        needed = np.nonzero(home)[0]
        needed = needed[np.argsort(home[needed], kind="stable")]
        col = np.full(n, -1, dtype=np.int32)
        col[needed] = np.arange(len(needed))
        ncols = len(needed)

        # wave 0: the combinations heard in the user's pools, whose value
        # is the right-hand side, and the definitions `atom + combination
        # = 0` of the combinations it needs, by node and then by atom
        member = np.nonzero(self.heard[:n] & self.src[:n] & bit)[0]
        atoms = np.concatenate([member, needed[needed >= self.npackets]])
        src = self.src[atoms]
        order = np.lexsort((atoms, src))
        combos = [self.combos[a] for a in atoms[order].tolist()]
        atoms, node = atoms[order], src[order]
        defines = col[atoms] >= 0
        rhs = np.zeros((len(atoms), L), dtype=np.uint8)
        rhs[~defines] = self.vals[atoms[~defines]]
        nodes, rhss = [], []
        counts = [_NO_I64]                      # entries per row
        ents = [(_NO_I32, _NO_U8)]              # (column, coefficient)
        while True:
            nodes.append(node)
            rhss.append(rhs)
            # a definition's own atom closes its row, with coefficient 1
            parts = [(np.append(cb[0], a), np.append(cb[1], _ONE)) if d
                     else cb for cb, a, d in
                     zip(combos, atoms.tolist(), defines.tolist())]
            lens = np.fromiter((len(p[1]) for p in parts), np.int64,
                               len(parts))
            fresh = [_NO_I64]
            # a chunk of rows at a time bounds the temporaries
            for lo in range(0, len(parts), ROW_CHUNK):
                hi = min(lo + ROW_CHUNK, len(parts))
                ids = np.concatenate([p[0] for p in parts[lo:hi]])
                cs = np.concatenate([p[1] for p in parts[lo:hi]])
                row = np.repeat(np.arange(hi - lo), lens[lo:hi])
                kn = known[ids]
                gf_fold(rhs[lo:hi], row[kn], cs[kn], self.vals, ids[kn])
                kn |= cs == 0
                keep = (~kn).nonzero()[0]
                ids, cs, row = ids[keep], cs[keep], row[keep]
                new = np.unique(ids[col[ids] < 0])
                col[new] = np.arange(ncols, ncols + len(new))
                ncols += len(new)
                fresh.append(new)
                ents.append((col[ids], cs))
                counts.append(np.bincount(row, minlength=hi - lo))
            atoms = np.concatenate(fresh)
            if not len(atoms):
                break
            # next wave: the definitions of the fresh case-B atoms
            combos = [self.combos[a] for a in atoms.tolist()]
            defines = np.ones(len(atoms), dtype=bool)
            node = self.full + 1 + col[atoms].astype(np.int64)
            rhs = np.zeros((len(atoms), L), dtype=np.uint8)
        node = np.concatenate(nodes)
        c, cs = (np.concatenate(x) for x in zip(*ents))
        ptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        atom_of = np.empty(ncols, dtype=np.int64)
        atom_of[col[col >= 0]] = np.nonzero(col >= 0)[0]
        node_of = np.concatenate([home[needed], self.full + 1
                                  + np.arange(len(needed), ncols)])
        return (_Rows(node, ptr, c, cs, np.concatenate(rhss)),
                atom_of, node_of)

    def decode_user(self, k: int):
        """Solve user k's banked equations block by block.

        A pool only combines atoms seeded into it, so the equations fall
        into blocks, one per node of `_user_system`.  Blocks are
        eliminated in dependency order, nodes closed in a cycle merged
        into one block, and solved values are folded into the right-hand
        sides of later blocks by segment XOR; a row left with no unknown
        must read 0 = 0.  Each block is filled with one scatter, its rows
        node by node in send order, and brought to reduced row echelon
        form by `rref`, whose final check catches a redundant row that
        reads 0 = nonzero.  Since every receiver meets one unknown per
        combination, nearly every block is triangular in send order.  A
        rank-deficient block and every block downstream of it go into one
        residual system, reduced the same way.

        Returns (solved {packet id: value row}, unresolved demanded ids,
        the residual state for cleanup continuation).
        """
        k0 = k - 1
        L = self.L
        known = self._known(k0)
        rows, atom_of, node_of = self._user_system(k0, known)
        ncols = len(atom_of)
        # rows and columns are both sorted by node
        nodes = np.unique(np.concatenate([rows.node, node_of]))
        cnode = np.searchsorted(nodes, node_of).astype(np.int32)
        col_lo = np.searchsorted(node_of, nodes).tolist()
        col_hi = np.searchsorted(node_of, nodes, side="right").tolist()
        row_lo = np.searchsorted(rows.node, nodes).tolist()
        row_hi = np.searchsorted(rows.node, nodes, side="right").tolist()
        index = {v: i for i, v in enumerate(nodes.tolist())}
        # node -> the nodes its rows reach
        deps: dict[int, set[int]] = {}
        for v, i in index.items():
            reach = np.bincount(cnode[rows.col[rows.ptr[row_lo[i]]:
                                               rows.ptr[row_hi[i]]]],
                                minlength=len(nodes))
            deps[v] = set(nodes[reach.nonzero()[0]].tolist())

        status = np.zeros(ncols, dtype=np.int8)   # 1 solved, 2 residual
        sol = np.zeros((ncols, L), dtype=np.uint8)
        loc = np.empty(ncols, dtype=np.int32)
        residual: list = []
        merged = 0
        for block in _components(deps):
            merged += len(block) > 1
            idx = [index[v] for v in block]
            bcols = np.concatenate([np.arange(col_lo[i], col_hi[i])
                                    for i in idx])
            n = len(bcols)
            pos, c, cs, rhs = _gather(rows, [(row_lo[i], row_hi[i])
                                             for i in idx])
            st = status[c]
            done = st == 1
            if done.any():
                gf_fold(rhs, pos[done], cs[done], sol, c[done])
                live = ~done
                pos, c, cs, st = pos[live], c[live], cs[live], st[live]
            has = np.zeros(len(rhs), dtype=bool)
            has[pos] = True
            if rhs[~has].any():
                raise InconsistentSystemError("contradictory equation")
            pos = np.cumsum(has, dtype=np.int32)[pos] - 1
            rhs = rhs[has]
            if not (st == 2).any():
                if n == 0:
                    continue
                m = _fill(pos, c, cs, rhs, bcols, loc)
                pivots = rref(m, n)
                if len(pivots) == n:
                    pc = np.fromiter(pivots.keys(), np.int64, n)
                    pr = np.fromiter(pivots.values(), np.int64, n)
                    sol[bcols[pc]] = m[pr, n:]
                    status[bcols] = 1
                    continue
            status[bcols] = 2
            # every column these rows still hold is now a residual one
            residual.append((pos, c, cs, rhs))

        rcols = np.nonzero(status == 2)[0]
        m = _fill(*_stack(residual, L), rcols, loc)
        pivots = rref(m, len(rcols)) if len(rcols) else {}
        done = np.nonzero((status == 1) & (atom_of < self.npackets))[0]
        md = self.must_decode[k0]
        state = _Residual(
            m=m, pivots=pivots,
            col_of=dict(zip(atom_of[rcols].tolist(), range(len(rcols)))),
            solved=dict(zip(atom_of[done].tolist(), sol[done])),
            need=md[~known[md]].tolist(), merged=merged)
        solved, unresolved = self._extract(state)
        return solved, unresolved, state

    def _extract(self, state: _Residual):
        m, n = state.m, len(state.col_of)
        solved = dict(state.solved)
        id_of = {c: a for a, c in state.col_of.items()}
        for c, rw in state.pivots.items():
            if id_of[c] < self.npackets and np.count_nonzero(m[rw, :n]) == 1:
                solved[id_of[c]] = m[rw, n:]
        return solved, [pid for pid in state.need if pid not in solved]

    def cleanup(self, k: int, state: _Residual, budget: int):
        """Feedback retransmission of fresh combinations over the still
        unresolved packets until user k can finish, within `budget` slots.
        Each row the user hears is stacked under the residual matrix,
        which is eliminated again.

        Returns (slots used, solved {packet id: value row}, unresolved
        demanded ids).
        """
        k0 = k - 1
        used = 0
        solved, unresolved = self._extract(state)
        while unresolved and used < budget:
            used += 1
            self.slot += 1
            ids = np.asarray(unresolved, dtype=np.int64)
            coefs = self._coefs(len(ids))
            payload = gf_dot(coefs, self.values[ids])
            S = self.chan.state()
            if not S >> k0 & 1:
                continue
            n = len(state.col_of)
            row = np.zeros(n + self.L, dtype=np.uint8)
            row[[state.col_of[pid] for pid in unresolved]] = coefs
            row[n:] = payload
            state.m = np.vstack([state.m, row])
            state.pivots = rref(state.m, n)
            solved, unresolved = self._extract(state)
        return used, solved, unresolved


def _exact_split(sets, active: int) -> list[int] | None:
    """Pairwise disjoint masks among `sets` whose union is `active`,
    ordered by lowest member, or None if there are none.

    A depth-first search covers the lowest uncovered member first, so the
    sets it can use there are those whose lowest member it is, tried
    larger first, and it remembers every uncovered set it found no cover
    of.  At worst it visits each of the 2^n subsets of the n active
    members once and scans the sets with its lowest member there: at most
    2^n times the number of sets, which is at most the pool's atoms.
    """
    by_low: dict[int, list[int]] = {}
    for T in sorted(sets, key=lambda T: (-T.bit_count(), T)):
        by_low.setdefault(T & -T, []).append(T)
    dead: set[int] = set()

    def cover(U: int) -> list[int] | None:
        if not U:
            return []
        if U not in dead:
            for T in by_low.get(U & -U, ()):
                if T & U == T:
                    rest = cover(U ^ T)
                    if rest is not None:
                        return [T, *rest]
            dead.add(U)
        return None

    return cover(active)


def _move_head(heads: dict[int, list[int]], w: int, new: int) -> bool:
    """Move the lowest atom of group `w` to group `new` (none if 0), and
    tell whether a group was emptied or begun."""
    atom = heapq.heappop(heads[w])
    emptied = not heads[w]
    if emptied:
        del heads[w]
    if not new:
        return emptied
    begun = new not in heads
    heapq.heappush(heads.setdefault(new, []), atom)
    return emptied or begun


def _move_group(heads: dict[int, list[int]], w: int, new: int) -> None:
    """Merge group `w` into group `new` (drop it if 0)."""
    group = heads.pop(w)
    if new:
        group += heads.get(new, [])
        heapq.heapify(group)
        heads[new] = group


def _gather(rows: _Rows, ranges: list[tuple[int, int]]):
    """The entries of the row ranges, in order, as `_stack` gives them."""
    return _stack([(np.repeat(np.arange(b - a, dtype=np.int32),
                              np.diff(rows.ptr[a:b + 1])),
                    rows.col[rows.ptr[a]:rows.ptr[b]],
                    rows.coef[rows.ptr[a]:rows.ptr[b]], rows.rhs[a:b])
                   for a, b in ranges], rows.rhs.shape[1])


def _stack(parts: list, L: int):
    """Groups of rows (entry rows, columns, coefficients, right-hand
    sides) as one, rows numbered on in order: each entry's row, column
    and coefficient, and the right-hand sides."""
    off = np.cumsum([0] + [len(p[3]) for p in parts]).tolist()
    return (np.concatenate([_NO_I32] + [p[0] + o
                                        for p, o in zip(parts, off)]),
            np.concatenate([_NO_I32] + [p[1] for p in parts]),
            np.concatenate([_NO_U8] + [p[2] for p in parts]),
            np.concatenate([np.empty((0, L), np.uint8)]
                           + [p[3] for p in parts]))


def _fill(pos: np.ndarray, c: np.ndarray, cs: np.ndarray, rhs: np.ndarray,
          cols: np.ndarray, loc: np.ndarray) -> np.ndarray:
    """Dense (len(rhs), len(cols) + L) matrix over `cols` with coefficient
    cs[i] at row pos[i], column c[i], filled by one scatter; `loc` is
    scratch indexed by global column."""
    n = len(cols)
    loc[cols] = np.arange(n)
    m = np.zeros((len(rhs), n + rhs.shape[1]), dtype=np.uint8)
    m[pos, loc[c]] = cs
    m[:, n:] = rhs
    return m


def _components(deps: dict[int, set[int]]) -> list[list[int]]:
    """Strongly connected components of the graph `deps` (node -> the
    nodes it depends on), each listed after every component it depends
    on (Tarjan's algorithm, iterative)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out: list[list[int]] = []
    for root in deps:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(deps[root]))]
        while work:
            v, succ = work[-1]
            for w in succ:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(deps[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def run_delivery(cfg: SystemConfig, pm: PlacementMap, demand: Demand | None = None,
                 seed: int = 0, payload_len: int = 1,
                 cleanup_budget: int | None = None,
                 trace: list | None = None) -> SimResult:
    """Execute phases 1..K for the given placement and demand.

    Returns slot counts per sub-phase, realized promotion counts and
    per-user byte-exact decoding results; a rank shortfall triggers
    feedback cleanup, and exhausting the cleanup budget raises
    CleanupBudgetExceeded.  A demand that does not give each user a
    distinct file in 1..N raises ConfigError.
    """
    eng = _delivered(cfg, pm, demand, seed, payload_len, trace)
    return _finish(eng, cleanup_budget)


def _delivered(cfg: SystemConfig, pm: PlacementMap, demand: Demand | None,
               seed: int, payload_len: int = 1,
               trace: list | None = None) -> _Engine:
    """The engine after seeding the pools and running phases 1..K, before
    any decoding."""
    demand = demand_for(cfg, demand)
    eng = _Engine(cfg.K, cfg.delta, seed, q=cfg.field_order,
                  payload_len=payload_len, trace=trace)
    off = np.concatenate([[0], np.cumsum(cfg.file_sizes)]).astype(np.int64)
    pmask = np.concatenate([m.astype(np.int64) for m in pm.cache_masks])
    eng.set_packets(int(off[-1]), pmask)
    for k0 in range(cfg.K):
        fi = demand.file_of(k0 + 1) - 1
        ids = np.arange(off[fi], off[fi + 1])
        eng.must_decode[k0] = ids
        free = ids[(pmask[ids] >> k0 & 1) == 0]
        eng.seed_item(pmask[free] | 1 << k0, free, 1 << k0)
    eng.run()
    return eng


def run_order_start(K: int, delta, order: int, n_packets: int, seed: int = 0,
                    q: int = 256) -> SimResult:
    """Enter the multicast pipeline at the given phase: every subset of
    that size is seeded with fresh packets wanted by all its members, and
    every user decodes.  The smaller pools hold nothing, so they send
    nothing.  It is the full-engine oracle of the length-only path
    `fastsim.simulate_lengths(order_start_needs(...))` that
    `experiments.order_capacity_trial` runs."""
    if not 1 <= order <= K:
        raise DeliveryError("order out of range")
    eng = _Engine(K, delta, seed, q=q)
    groups = [mask_of(g) for g in combinations(range(1, K + 1), order)]
    npackets = n_packets * len(groups)
    eng.set_packets(npackets, np.zeros(npackets, dtype=np.int64))
    seats = np.repeat(np.asarray(groups, dtype=np.int64), n_packets)
    eng.seed_item(seats, np.arange(npackets), seats)
    for k0 in range(K):
        eng.must_decode[k0] = np.flatnonzero(seats >> k0 & 1)
    eng.run()
    return _finish(eng, None)


def _finish(eng: _Engine, cleanup_budget: int | None) -> SimResult:
    cleanup_slots = 0
    budget = (CLEANUP_BUDGET_PER_USER * eng.K if cleanup_budget is None
              else cleanup_budget)
    decode_ok = []
    recovered = {}
    for k in range(1, eng.K + 1):
        solved, unresolved, state = eng.decode_user(k)
        if unresolved:
            used, solved, unresolved = eng.cleanup(
                k, state, budget - cleanup_slots)
            cleanup_slots += used
        if unresolved:
            raise CleanupBudgetExceeded(
                f"user {k} still missing {len(unresolved)} packets "
                f"after {cleanup_slots} cleanup slots", {k: unresolved})
        # every demanded packet the user lacked is now solved
        ids = eng.must_decode[k - 1]
        got = eng.values[ids]
        for i in np.nonzero(~eng._known(k - 1)[ids])[0].tolist():
            got[i] = solved[int(ids[i])]
        if not np.array_equal(got, eng.values[ids]):
            raise DeliveryError(f"user {k} produced wrong bytes (engine bug)")
        decode_ok.append(True)
        recovered[k] = got
    return replace(eng.result(), decode_ok=decode_ok,
                   cleanup_slots=cleanup_slots, recovered=recovered)
