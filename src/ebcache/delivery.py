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
so one atom table holds each atom's value, its terms and what the
feedback told: the receiver set of the slot that carried it (`heard`),
the pool it left (`src`, as a combination sent or a packet promoted),
and the last pool it was seeded into with the users that need it there
(`seat`, `want`).  Atom a combines `terms[first[a]:first[a + 1]]` with
the coefficients `tcoef` holds there; a packet combines none.  A pool's
members are the atoms seated in it, in ascending atom id; seating an
atom also queues it for its pool, and a promotion always seats in a
larger pool, which runs later, so a pool reads its members from its
queue and an empty pool costs one lookup.  What a user heard, the rows
it banked in its own pools, the pool where it needs each atom and every
promotion are all read from the table.

The slot loop looks at the channel states in chunks and consumes only
the slots it used.  A pool combines only atoms seated before it started,
so its combinations enter the table when it ends, in one pass, their
payloads from one `gf_dot` call, one segment each.

Decoding solves each user's banked equations by peeling.  A user's rows
are built in one sparse layout (each entry's row, column, coefficient,
and one right-hand side per row), one wave at a time.  Every receiver
meets one unknown per combination, so the peel solves nearly all of
them: each wave solves the rows left with one unknown and folds the
values into every row that holds them.  Every row that fixed no unknown
then goes to one `gf256.rref`, the only elimination routine, over the
unknowns still unsolved: redundant rows, which must read 0 = 0, and any
cycle or dense combination the peel could not open.  A user's state is
one record of arrays (`_Decoding`): each unknown's value once solved and
the reduced residual over the rest.  Only dense combinations draw
coefficients, so only they can fall short of rank; those rare shortfalls
are repaired by a feedback cleanup round, which stacks each row it hears
under the residual and reduces again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .gf256 import FOLD_CHUNK, INV, MUL, gf_dot, gf_fold, rref
from .model import (MAX_K, SUPPORTED_FIELD_ORDERS, Demand, SystemConfig,
                    demand_for, mask_of, subsets_ascending, users_of)
from .placement import PlacementMap, validate_placement

CLEANUP_BUDGET_PER_USER = 64
SLOT_CHUNK = 256        # channel states per look of the slot loop
_NO_I64 = np.empty(0, dtype=np.int64)
_NO_U8 = np.empty(0, dtype=np.uint8)
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


def _room(arrays, n: int) -> list[np.ndarray]:
    """The arrays, zero-padded to max(n, twice their rows) if shorter."""
    arrays = list(arrays)
    for i, a in enumerate(arrays):
        if n > len(a):
            arrays[i] = np.zeros((max(n, 2 * len(a)), *a.shape[1:]), a.dtype)
            arrays[i][:len(a)] = a
    return arrays


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
class _Decoding:
    """One user's decoding: atom a is unknown `col[a]` (-1 if none), of
    value `sol[col[a]]` once `solved`; `m` is the reduced residual over
    the unsolved columns `rcols`, ascending, then the right-hand side."""

    col: np.ndarray
    sol: np.ndarray
    solved: np.ndarray
    m: np.ndarray
    rcols: np.ndarray
    need: np.ndarray        # demanded packets neither cached nor heard
    lacked: np.ndarray      # which of the demanded packets are in `need`

    @property
    def unresolved(self) -> np.ndarray:
        """The needed packets still unsolved, ascending."""
        return self.need[~self.solved[self.col[self.need]]]

    def reduce(self) -> None:
        """Eliminate `m`, then move every pivot row that holds its column
        alone out of the residual into `sol`, and drop the rows that read
        0 = 0; what is left stays reduced."""
        n = len(self.rcols)
        pivots = rref(self.m, n)
        m = self.m[:len(pivots)]        # rref leaves the pivot rows first
        alone = np.count_nonzero(m[:, :n], axis=1) == 1
        cols = np.fromiter(pivots, np.int64, len(pivots))[alone]
        self.sol[self.rcols[cols]] = m[alone, n:]
        self.solved[self.rcols[cols]] = True
        self.m = np.delete(m[~alone], cols, axis=1)
        self.rcols = np.delete(self.rcols, cols)


class _Engine:
    def __init__(self, K: int, delta, seed: int, q: int = 256,
                 payload_len: int = 1, trace: list | None = None):
        if q not in SUPPORTED_FIELD_ORDERS:
            raise DeliveryError(f"field order {q} unsupported "
                                f"(choose from {SUPPORTED_FIELD_ORDERS})")
        if (isinstance(payload_len, bool)
                or not isinstance(payload_len, (int, np.integer))
                or payload_len < 1):
            raise DeliveryError(f"payload length must be a whole number of "
                                f"bytes >= 1, got {payload_len!r}")
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
        self.npackets = 0
        # the atom table, packets first, then combinations as sent: value,
        # receiver set of the carrying slot (0 if none), the pool it left
        # (0 if none), last pool seeded into and who needs it there, and
        # where its terms start in `terms`/`tcoef` (packets have none).
        self.vals = np.empty((0, payload_len), dtype=np.uint8)
        self.heard = self.src = self.seat = self.want = self.first = _NO_I64
        self.terms, self.tcoef = _NO_I64, _NO_U8
        self.pmask: np.ndarray | None = None            # caching bitmask
        self.must_decode: list[np.ndarray] = [np.empty(0, np.int64)] * K
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
        """Ids for n new atoms; the table grows to hold first[next_atom]."""
        lo = self.next_atom
        self.next_atom += n
        self._grow(self.next_atom + 1)
        return np.arange(lo, self.next_atom)

    def _grow(self, n: int) -> None:
        (self.vals, self.heard, self.src, self.seat, self.want,
         self.first) = _room((self.vals, self.heard, self.src, self.seat,
                              self.want, self.first), n)

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
        S, moved, ids, coefs = zip(*sent)
        new = self._reserve(len(sent))
        S, moved = np.array(S), np.array(moved)
        self.heard[new] = S
        self.src[new] = pool_mask
        up = moved != 0
        self.seed_item(pool_mask | S[up], new[up], moved[up])
        self.first[new + 1] = self.first[new[0]] + np.cumsum(
            [len(c) for c in coefs])
        heads, end = self.first[new], self.first[new[-1] + 1]
        self.terms, self.tcoef = _room((self.terms, self.tcoef), end)
        self.terms[heads[0]:end] = np.concatenate(ids)
        self.tcoef[heads[0]:end] = np.concatenate(coefs)
        step = max(1, FOLD_CHUNK // self.L)
        cuts = np.flatnonzero(np.diff((heads - heads[0]) // step))
        for part in np.split(np.arange(len(sent)), cuts + 1):
            lo, hi = heads[part[0]], self.first[new[part[-1]] + 1]
            self.vals[new[part]] = gf_dot(self.tcoef[lo:hi],
                                          self.vals[self.terms[lo:hi]],
                                          heads[part] - lo)

    # -- decoding ----------------------------------------------------------

    def _known(self, k0: int) -> np.ndarray:
        """Mask of the atoms user k0 + 1 holds: its cached packets and
        every atom it heard."""
        known = (self.heard[:self.next_atom] >> k0 & 1).astype(bool)
        known[:self.npackets] |= (self.pmask >> k0 & 1).astype(bool)
        return known

    def _user_system(self, k0: int, known: np.ndarray):
        """User k0 + 1's equations: each entry's row, column and
        coefficient, rows ascending, one right-hand side per row, and the
        column of every atom (-1 if none).

        The rows are the combinations the user heard in its own pools and
        the definitions `atom + combination = 0` of the combinations it
        needs; a promoted combination it neither heard nor needs (case B)
        gets a column and a definition too.  Each wave is a few vectorized
        passes: gather the rows' terms, fold the known atoms into the
        right-hand sides, give fresh case-B atoms columns, and the next
        wave holds their definitions, until no fresh atom is met.
        """
        bit = 1 << k0
        L = self.L
        n = self.next_atom
        # the atoms the user needs and does not hold; `want` follows an
        # atom to its last seat
        needed = np.flatnonzero((self.want[:n] & bit != 0) & ~known)
        col = np.full(n, -1, dtype=np.int32)
        col[needed] = np.arange(len(needed))
        ncols = len(needed)

        # wave 0: the combinations heard in the user's pools, whose value
        # is the right-hand side, and the definitions of those it needs
        atoms = np.concatenate([np.nonzero(self.heard[:n] & self.src[:n]
                                           & bit)[0],
                                needed[needed >= self.npackets]])
        rhss, ents, base = [], [], 0
        while True:
            own = col[atoms] >= 0               # the definitions
            rhs = np.zeros((len(atoms), L), dtype=np.uint8)
            rhs[~own] = self.vals[atoms[~own]]
            rhss.append(rhs)
            # every row's terms, one CSR gather
            lo = self.first[atoms]
            lens = self.first[atoms + 1] - lo
            row = np.repeat(np.arange(len(atoms)), lens)
            at = np.arange(len(row)) + (lo - np.cumsum(lens) + lens)[row]
            ids, cs = self.terms[at], self.tcoef[at]
            kn = known[ids]
            gf_fold(rhs, row[kn], cs[kn], self.vals, ids[kn])
            keep = ~kn & (cs != 0)
            ids, cs, row = ids[keep], cs[keep], row[keep]
            fresh = np.unique(ids[col[ids] < 0])
            col[fresh] = np.arange(ncols, ncols + len(fresh))
            ncols += len(fresh)
            # a definition's own atom closes its row, with coefficient 1
            own = np.flatnonzero(own)
            ids = np.concatenate([ids, atoms[own]])
            cs = np.concatenate([cs, np.ones(len(own), np.uint8)])
            row = np.concatenate([row, own])
            order = np.argsort(row, kind="stable")
            ents.append((row[order] + base, col[ids][order], cs[order]))
            # next wave: the definitions of the fresh case-B atoms
            base += len(atoms)
            atoms = fresh
            if not len(atoms):
                break
        return (*map(np.concatenate, zip(*ents)), np.concatenate(rhss), col)

    def decode_user(self, k: int) -> _Decoding:
        """Solve user k's banked equations by peeling, then eliminate
        what is left.

        Every receiver meets one unknown per combination, so nearly every
        row is solved by substitution, in waves: a row with one unknown
        left fixes it (one row per unknown becomes its pivot), and the
        solved values fold into every other row that holds them.  When no
        row has a single unknown left, every row that is no pivot goes to
        one `rref` over the unknowns still unsolved: the redundant rows,
        which must read 0 = 0, and any cycle or dense combination the
        peel could not open.  That reduced matrix is the residual that
        `cleanup` continues, and `rref`'s final check is the one that
        catches a row reading 0 = nonzero.  This is peeling then
        inactivation, as in the decoders of LT and Raptor codes.

        Returns the user's `_Decoding`: every unknown solved so far, and
        the residual over the rest.
        """
        k0 = k - 1
        known = self._known(k0)
        # the entries still unsolved: row, column, coefficient
        row, c, cs, rhs, col = self._user_system(k0, known)
        ncols, nrows = np.count_nonzero(col >= 0), len(rhs)
        sol = np.zeros((ncols, self.L), dtype=np.uint8)
        solved = np.zeros(ncols, dtype=bool)
        pivot = np.zeros(nrows, dtype=bool)
        while True:
            one = np.flatnonzero((np.bincount(row, minlength=nrows) == 1)[row])
            if not one.size:
                break
            # the first row with one unknown left is that unknown's pivot
            cols, first = np.unique(c[one], return_index=True)
            e = one[first]
            val = rhs[row[e]]
            if (cs[e] != 1).any():
                val = MUL[INV[cs[e]][:, None], val]
            sol[cols] = val
            solved[cols] = True
            pivot[row[e]] = True
            done = solved[c]
            fold = done & ~pivot[row]
            gf_fold(rhs, row[fold], cs[fold], sol, c[fold])
            row, c, cs = row[~done], c[~done], cs[~done]
        # every row that is no pivot, over the unknowns still unsolved
        rest = ~pivot
        rcols = np.flatnonzero(~solved)
        m = np.zeros((np.count_nonzero(rest), len(rcols) + self.L),
                     dtype=np.uint8)
        m[(np.cumsum(rest) - 1)[row], np.searchsorted(rcols, c)] = cs
        m[:, len(rcols):] = rhs[rest]
        md = self.must_decode[k0]
        lacked = ~known[md]
        dec = _Decoding(col, sol, solved, m, rcols, md[lacked], lacked)
        dec.reduce()
        return dec

    def cleanup(self, k: int, dec: _Decoding, budget: int) -> int:
        """Feedback retransmission of fresh combinations over the still
        unresolved packets until user k can finish, within `budget` slots.
        Each row the user hears is stacked under the residual matrix,
        which is eliminated again.

        Returns the slots used; `dec` holds what was solved.
        """
        k0 = k - 1
        used = 0
        ids = dec.unresolved
        while ids.size and used < budget:
            used += 1
            self.slot += 1
            coefs = self._coefs(len(ids))
            payload = gf_dot(coefs, self.values[ids])
            S = self.chan.state()
            if not S >> k0 & 1:
                continue
            n = len(dec.rcols)
            dec.m = np.vstack([dec.m, np.zeros(n + self.L, np.uint8)])
            dec.m[-1, np.searchsorted(dec.rcols, dec.col[ids])] = coefs
            dec.m[-1, n:] = payload
            dec.reduce()
            ids = dec.unresolved
        return used


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


def run_delivery(cfg: SystemConfig, pm: PlacementMap, demand: Demand | None = None,
                 seed: int = 0, payload_len: int = 1,
                 cleanup_budget: int | None = None,
                 trace: list | None = None) -> SimResult:
    """Execute phases 1..K for the given placement and demand.

    Returns slot counts per sub-phase, realized promotion counts and
    per-user byte-exact decoding results; a rank shortfall triggers
    feedback cleanup, and exhausting the cleanup budget raises
    CleanupBudgetExceeded.  A demand that does not give each user a
    distinct file in 1..N, or a placement of other files, raises
    ConfigError.
    """
    eng = _delivered(cfg, pm, demand, seed, payload_len, trace)
    return _finish(eng, cleanup_budget)


def _delivered(cfg: SystemConfig, pm: PlacementMap, demand: Demand | None,
               seed: int, payload_len: int = 1,
               trace: list | None = None) -> _Engine:
    """The engine after seeding the pools and running phases 1..K, before
    any decoding."""
    demand = demand_for(cfg, demand)
    validate_placement(cfg, pm)
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
    recovered = {}
    for k in range(1, eng.K + 1):
        dec = eng.decode_user(k)
        if dec.unresolved.size:
            cleanup_slots += eng.cleanup(k, dec, budget - cleanup_slots)
        unresolved = dec.unresolved.tolist()
        if unresolved:
            raise CleanupBudgetExceeded(
                f"user {k} still missing {len(unresolved)} packets "
                f"after {cleanup_slots} cleanup slots", {k: unresolved})
        # every demanded packet the user lacked is now solved
        ids = eng.must_decode[k - 1]
        got = eng.values[ids]
        got[dec.lacked] = dec.sol[dec.col[dec.need]]
        if not np.array_equal(got, eng.values[ids]):
            raise DeliveryError(f"user {k} produced wrong bytes (engine bug)")
        recovered[k] = got
    return replace(eng.result(), decode_ok=[True] * eng.K,
                   cleanup_slots=cleanup_slots, recovered=recovered)
