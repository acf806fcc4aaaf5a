"""Packet-level execution of the feedback delivery scheme.

Phases run in ascending target-set cardinality, sub-phases in
lexicographic order.  Sub-phase {k} broadcasts the raw uncached packets of
user k's file until somebody hears each one; larger sub-phases send fresh
random GF(2^8) combinations of every symbol still outstanding in the
pool.  After each slot the realized receiver set drives the bookkeeping:

  * a needing receiver banks the equation and its counter drops;
  * if an outsider overheard while some needing user missed the slot, the
    transmitted equation is promoted into the enlarged pool, moving those
    users' outstanding equations up with it;
  * otherwise the slot was wasted for the users that missed it and a
    fresh combination goes out next.

Decoding eliminates each user's banked equations pool by pool.  A pool
only ever combines atoms (packets and promoted combinations) seeded into
it, so the equations fall into one block per pool, eliminated in
dependency order with solved values folded into later right-hand sides;
pools closed in a cycle are merged into one block.  Rank-deficient
blocks and everything downstream of them form one residual system, and
its rare shortfalls from unlucky coefficients are repaired by a feedback
cleanup round, which stacks each row it hears under the residual and
eliminates again.  `gf256.rref` is the only elimination routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

import numpy as np

from .gf256 import MUL, gf_dot, rref
from .model import (SUPPORTED_FIELD_ORDERS, Demand, SystemConfig, mask_of,
                    subsets_ascending, users_of)
from .placement import PlacementMap

CLEANUP_BUDGET_PER_USER = 64


class DeliveryError(Exception):
    pass


class CleanupBudgetExceeded(DeliveryError):
    """Decoding stayed rank-deficient after the cleanup slot budget;
    `unresolved` maps the user to the packets it still misses."""

    def __init__(self, message: str, unresolved: dict[int, list[int]]):
        super().__init__(message)
        self.unresolved = unresolved


def checked_delta(K: int, delta) -> np.ndarray:
    """δ as an array, or DeliveryError unless it holds K erasure
    probabilities in [0, 1)."""
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (K,) or not ((delta >= 0.0) & (delta < 1.0)).all():
        raise DeliveryError("delta must hold K erasure probabilities "
                            "in [0, 1)")
    return delta


@dataclass
class SimResult:
    slots_total: int
    slots_per_subphase: dict[tuple[int, ...], int]
    decode_ok: list[bool] | None
    cleanup_slots: int
    realized_transfers: dict[tuple[tuple[int, ...], tuple[int, ...], int], int]
    seed: int
    recovered: dict[int, np.ndarray] | None = None

    def to_json(self) -> dict:
        key = lambda J: "[" + ",".join(str(u) for u in J) + "]"
        return {
            "slots_total": self.slots_total,
            "slots_per_subphase": {key(J): n
                                   for J, n in self.slots_per_subphase.items()},
            "decode_ok": self.decode_ok,
            "cleanup_slots": self.cleanup_slots,
            "seed": self.seed,
        }


@dataclass
class _Pool:
    atoms: list[int] = field(default_factory=list)
    needed: list[int] = field(default_factory=list)      # user bitmask


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
                 payload_len: int = 1, trace: list | None = None,
                 debug: bool = False,
                 state_source: Iterator[int] | None = None):
        if q not in SUPPORTED_FIELD_ORDERS:
            raise DeliveryError(f"field order {q} unsupported "
                                f"(choose from {SUPPORTED_FIELD_ORDERS})")
        self.delta = checked_delta(K, delta)
        self.K = K
        self.rng = np.random.default_rng(seed)
        self.q = q
        self.L = payload_len
        self.trace = trace
        self.debug = debug
        self.state_source = state_source
        self.full = (1 << K) - 1
        self.powers = (1 << np.arange(K)).astype(np.int64)
        self.pools: dict[int, _Pool] = {}
        self.npackets = 0
        # value of every atom, packets first, then combinations as sent
        self.vals = np.empty((0, payload_len), dtype=np.uint8)
        self.pmask: np.ndarray | None = None            # caching bitmask
        self.must_decode: list[np.ndarray] = [np.empty(0, np.int64)] * K
        # combo registry: atom -> (src pool mask, constituent atoms, coefs)
        self.combos: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}
        self.next_atom = 0
        self.stored: list[list[int]] = [[] for _ in range(K)]   # atoms heard
        self.member_rows: list[list[int]] = [[] for _ in range(K)]
        self.slot = 0
        self.slots_per_subphase: dict[tuple[int, ...], int] = {}
        self.transfers: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
        self._expansion: dict[int, dict[int, int]] = {}

    # -- setup -------------------------------------------------------------

    def set_packets(self, npackets: int, pmask: np.ndarray) -> None:
        self.npackets = npackets
        self.next_atom = npackets
        # room for as many combinations as packets before the table grows
        self.vals = np.empty((2 * npackets + 16, self.L), dtype=np.uint8)
        self.vals[:npackets] = self.rng.integers(0, 256, (npackets, self.L),
                                                 dtype=np.uint8)
        self.pmask = pmask.astype(np.int64)

    @property
    def values(self) -> np.ndarray:
        """Packet values, (npackets, L)."""
        return self.vals[:self.npackets]

    def seed_item(self, pool_mask: int, atom: int, needed_mask: int) -> None:
        pool = self.pools.setdefault(pool_mask, _Pool())
        pool.atoms.append(atom)
        pool.needed.append(needed_mask)

    def _new_combo(self, pool_mask: int, atom_ids: np.ndarray,
                   coefs: np.ndarray, payload: np.ndarray) -> int:
        atom = self.next_atom
        self.next_atom += 1
        if atom == len(self.vals):
            grown = np.empty((2 * atom, self.L), dtype=np.uint8)
            grown[:atom] = self.vals
            self.vals = grown
        self.vals[atom] = payload
        self.combos[atom] = (pool_mask, atom_ids, coefs)
        return atom

    # -- channel -----------------------------------------------------------

    def _state(self) -> int:
        if self.state_source is not None:
            return next(self.state_source)
        return int(((self.rng.random(self.K) < (1.0 - self.delta))
                    @ self.powers))

    def _coefs(self, n: int) -> np.ndarray:
        return self.rng.integers(0, self.q, n, dtype=np.uint8)

    def _trace(self, pool_mask: int, S: int, action: str) -> None:
        if self.trace is not None:
            self.trace.append((self.slot,
                               "|".join(map(str, users_of(pool_mask))),
                               "|".join(map(str, users_of(S))), action))

    # -- main loop ----------------------------------------------------------

    def run(self, start_phase: int = 1) -> None:
        for pool_mask in subsets_ascending(self.K):
            if bin(pool_mask).count("1") < start_phase:
                continue
            pool = self.pools.get(pool_mask)
            if pool is None or not pool.atoms:
                continue
            before = self.slot
            if bin(pool_mask).count("1") == 1:
                self._run_raw(pool_mask, pool)
            else:
                self._run_multicast(pool_mask, pool)
            self.slots_per_subphase[users_of(pool_mask)] = self.slot - before

    def _record_transfer(self, src: int, dst: int, needed_mask: int) -> None:
        key_src, key_dst = users_of(src), users_of(dst)
        for k0 in range(self.K):
            if needed_mask >> k0 & 1:
                key = (key_src, key_dst, k0 + 1)
                self.transfers[key] = self.transfers.get(key, 0) + 1

    def _run_raw(self, pool_mask: int, pool: _Pool) -> None:
        """Broadcast each raw packet until at least one user receives it."""
        k0 = pool_mask.bit_length() - 1
        for atom in pool.atoms:
            while True:
                self.slot += 1
                S = self._state()
                if S == 0:
                    self._trace(pool_mask, S, "waste")
                    continue
                for u in range(self.K):
                    if S >> u & 1:
                        self.stored[u].append(atom)
                if S >> k0 & 1:
                    self._trace(pool_mask, S, "deliver")
                else:
                    target = pool_mask | S
                    self.seed_item(target, atom, 1 << k0)
                    self._record_transfer(pool_mask, target, 1 << k0)
                    self._trace(pool_mask, S, "promote")
                break

    def _run_multicast(self, pool_mask: int, pool: _Pool) -> None:
        atoms = np.asarray(pool.atoms, dtype=np.int64)
        needed = np.asarray(pool.needed, dtype=np.int64)
        r = np.zeros(self.K, dtype=np.int64)
        for k0 in range(self.K):
            r[k0] = int(np.count_nonzero(needed >> k0 & 1))
        active = 0
        for k0 in range(self.K):
            if r[k0] > 0:
                active |= 1 << k0
        # atoms still wanted by an active user, shared by the combinations
        # sent until the active set changes
        act_atoms = atoms[np.nonzero(needed & active)[0]]
        act_vals = self.vals[act_atoms]
        while active:
            self.slot += 1
            coefs = self._coefs(len(act_atoms))
            S = self._state()
            got = S & active
            moved = (active & ~S) if (S & ~pool_mask) else 0
            atom = -1
            if S or moved:
                # a slot nobody heard needs no payload
                atom = self._new_combo(pool_mask, act_atoms, coefs,
                                       gf_dot(coefs, act_vals))
                if self.debug:
                    self._check_payload(atom)
                for u in range(self.K):
                    if S >> u & 1:
                        self.stored[u].append(atom)
                        if pool_mask >> u & 1:
                            self.member_rows[u].append(atom)
            for k0 in range(self.K):
                if got >> k0 & 1:
                    r[k0] -= 1
            if moved:
                target = pool_mask | S
                self.seed_item(target, atom, moved)
                self._record_transfer(pool_mask, target, moved)
                for k0 in range(self.K):
                    if moved >> k0 & 1:
                        r[k0] -= 1
            if got:
                self._trace(pool_mask, S, "deliver")
            elif moved:
                self._trace(pool_mask, S, "promote")
            else:
                self._trace(pool_mask, S, "waste")
            finished = 0
            for k0 in range(self.K):
                if active >> k0 & 1 and r[k0] == 0:
                    finished |= 1 << k0
            if finished:
                active &= ~finished
                act_atoms = atoms[np.nonzero(needed & active)[0]]
                act_vals = self.vals[act_atoms]

    # -- debug -------------------------------------------------------------

    def _expand(self, atom: int) -> dict[int, int]:
        """Packet-space coefficient vector of an atom (debug only)."""
        if atom < self.npackets:
            return {atom: 1}
        if atom in self._expansion:
            return self._expansion[atom]
        _, atom_ids, coefs = self.combos[atom]
        out: dict[int, int] = {}
        for a, c in zip(atom_ids.tolist(), coefs.tolist()):
            if c == 0:
                continue
            for pid, cc in self._expand(a).items():
                v = out.get(pid, 0) ^ int(MUL[c, cc])
                if v:
                    out[pid] = v
                else:
                    out.pop(pid)
        self._expansion[atom] = out
        return out

    def _check_payload(self, atom: int) -> None:
        expected = np.zeros(self.L, dtype=np.uint8)
        for pid, c in self._expand(atom).items():
            expected ^= MUL[c, self.values[pid]]
        if not np.array_equal(expected, self.vals[atom]):
            raise DeliveryError("payload identity violated (engine bug)")

    # -- decoding ----------------------------------------------------------

    def _known(self, k0: int) -> np.ndarray:
        """Mask of the atoms user k0 + 1 holds: its cached packets and
        every atom it heard."""
        known = np.zeros(self.next_atom, dtype=bool)
        known[:self.npackets] = (self.pmask >> k0 & 1).astype(bool)
        known[self.stored[k0]] = True
        return known

    def _user_system(self, k0: int, known: np.ndarray):
        """User k0 + 1's equations, grouped by the node of the dependency
        graph they belong to: {node: [(columns, coefficients, rhs)]},
        with the atom and the node of every column.

        A pool's node holds the combinations the user heard there and
        the definitions of those promoted out of it that the user needs;
        its columns are the atoms the user needs in that pool.  A case-B
        atom, a promoted combination the user neither heard nor needs,
        is a node of its own, holding its definition and its column.
        Pool nodes are pool masks, case-B nodes `full + 1 + column`.
        """
        bit = 1 << k0
        vals, L = self.vals, self.L
        # the pool where the user needs each atom; a raw packet promoted
        # out of {k} keeps its id, so the larger pool is the one that counts
        home = np.zeros(self.next_atom, dtype=np.int64)
        for pool_mask in sorted(self.pools, key=int.bit_count):
            if pool_mask & bit:
                pool = self.pools[pool_mask]
                atoms = np.asarray(pool.atoms, dtype=np.int64)
                home[atoms[np.asarray(pool.needed) & bit != 0]] = pool_mask
        home[known] = 0
        needed = np.nonzero(home)[0]
        needed = needed[np.argsort(home[needed], kind="stable")]
        col = np.full(self.next_atom, -1, dtype=np.int64)
        col[needed] = np.arange(len(needed))
        case_b: list[int] = []          # further columns, in column order
        rows: dict[int, list] = {}

        def split(ids, cs, rhs, own=None):
            """Row `combination (+ own atom) = rhs` with its known atoms
            folded into the right-hand side: (columns, coefficients,
            rhs), or None when nothing unknown is left."""
            live = cs != 0
            kn = known[ids]
            unknown = live & ~kn
            if own is None and not unknown.any():
                return None
            kn &= live
            if kn.any():
                rhs = rhs ^ gf_dot(cs[kn], vals[ids[kn]])
            ids, cs = ids[unknown], cs[unknown]
            c = col[ids]
            fresh = c < 0
            if fresh.any():
                new = np.unique(ids[fresh])
                base = len(needed) + len(case_b)
                col[new] = np.arange(base, base + len(new))
                case_b.extend(new.tolist())
                c = col[ids]
            if own is not None:
                c, cs = np.append(c, col[own]), np.append(cs, np.uint8(1))
            return c, cs, rhs

        for atom in self.member_rows[k0]:
            src, ids, cs = self.combos[atom]
            row = split(ids, cs, vals[atom])
            if row is not None:
                rows.setdefault(src, []).append(row)
        # definitions read `atom + combination = 0`
        zero = np.zeros(L, dtype=np.uint8)
        for atom in needed[needed >= self.npackets].tolist():
            src, ids, cs = self.combos[atom]
            rows.setdefault(src, []).append(split(ids, cs, zero, atom))
        i = 0
        while i < len(case_b):          # a definition may meet more of them
            _, ids, cs = self.combos[case_b[i]]
            rows[self.full + 1 + len(needed) + i] = [
                split(ids, cs, zero, case_b[i])]
            i += 1
        atom_of = np.concatenate([needed, np.asarray(case_b, dtype=np.int64)])
        node_of = np.concatenate([home[needed], self.full + 1
                                  + np.arange(len(needed), len(atom_of))])
        return rows, atom_of, node_of

    def decode_user(self, k: int):
        """Solve user k's banked equations block by block.

        A pool only combines atoms seeded into it, so the equations fall
        into blocks, one per node of `_user_system`.  Blocks are
        eliminated in dependency order, nodes closed in a cycle merged
        into one block, and solved values are folded into the right-hand
        sides of later blocks.  A rank-deficient block and every block
        downstream of it go into one residual system.

        Returns (solved {packet id: value row}, unresolved demanded ids,
        the residual state for cleanup continuation).
        """
        k0 = k - 1
        L = self.L
        known = self._known(k0)
        rows, atom_of, node_of = self._user_system(k0, known)
        ncols = len(atom_of)
        nodes, starts, counts = np.unique(node_of, return_index=True,
                                          return_counts=True)
        span = {v: np.arange(s, s + n) for v, s, n in
                zip(nodes.tolist(), starts.tolist(), counts.tolist())}
        deps = {v: set(np.unique(node_of[np.concatenate([r[0] for r in rs])])
                       .tolist()) for v, rs in rows.items()}
        for v in span:
            deps.setdefault(v, set())

        status = np.zeros(ncols, dtype=np.int8)   # 1 solved, 2 residual
        sol = np.zeros((ncols, L), dtype=np.uint8)
        loc = np.empty(ncols, dtype=np.int64)
        no_cols = np.empty(0, dtype=np.int64)    # a node with rows only
        residual: list = []
        merged = 0
        for block in _components(deps):
            merged += len(block) > 1
            bcols = np.concatenate([span.get(v, no_cols) for v in block])
            brows, stuck = [], False
            for v in block:
                for c, cs, rhs in rows.get(v, ()):
                    st = status[c]
                    done = st == 1
                    if done.any():
                        rhs = rhs ^ gf_dot(cs[done], sol[c[done]])
                        c, cs, st = c[~done], cs[~done], st[~done]
                    if len(c):
                        stuck = stuck or bool((st == 2).any())
                        brows.append((c, cs, rhs))
            n = len(bcols)
            if not stuck:
                if n == 0:
                    continue
                m = _fill(brows, bcols, loc, L)
                pivots = rref(m, n)
                if len(pivots) == n:
                    pc = np.fromiter(pivots.keys(), np.int64, n)
                    pr = np.fromiter(pivots.values(), np.int64, n)
                    sol[bcols[pc]] = m[pr, n:]
                    status[bcols] = 1
                    continue
            status[bcols] = 2
            residual += brows

        rcols = np.nonzero(status == 2)[0]
        m = _fill(residual, rcols, loc, L)
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
            S = self._state()
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


def _fill(rows: list, cols: np.ndarray, loc: np.ndarray, L: int) -> np.ndarray:
    """Dense (rows, len(cols) + L) matrix of `rows` over `cols`; `loc` is
    scratch indexed by global column."""
    n = len(cols)
    loc[cols] = np.arange(n)
    m = np.zeros((len(rows), n + L), dtype=np.uint8)
    for i, (c, cs, rhs) in enumerate(rows):
        m[i, loc[c]] = cs
        m[i, n:] = rhs
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


def _file_offsets(cfg: SystemConfig) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(cfg.file_sizes)]).astype(np.int64)


def run_delivery(cfg: SystemConfig, pm: PlacementMap, demand: Demand | None = None,
                 seed: int = 0, start_phase: int = 1, decode: bool = True,
                 payload_len: int = 1, cleanup_budget: int | None = None,
                 trace: list | None = None, debug: bool = False,
                 state_source: Iterator[int] | None = None) -> SimResult:
    """Execute phases start_phase..K for the given placement and demand.

    Returns slot counts per sub-phase, realized promotion counts, and
    (when `decode` is set) per-user byte-exact decoding results; a rank
    shortfall triggers feedback cleanup, and exhausting the cleanup budget
    raises CleanupBudgetExceeded.
    """
    demand = demand or Demand.identity(cfg.K)
    eng = _delivered(cfg, pm, demand, seed, start_phase, payload_len,
                     trace=trace, debug=debug, state_source=state_source)
    return _finish(eng, seed, decode, cleanup_budget)


def _delivered(cfg: SystemConfig, pm: PlacementMap, demand: Demand, seed: int,
               start_phase: int = 1, payload_len: int = 1,
               **engine_kw) -> _Engine:
    """The engine after seeding the pools and running phases
    start_phase..K, before any decoding."""
    if len(set(demand.assignment)) != cfg.K:
        raise DeliveryError("demands must be distinct")
    if not 1 <= start_phase <= cfg.K:
        raise DeliveryError("start_phase out of range")
    eng = _Engine(cfg.K, cfg.delta, seed, q=cfg.field_order,
                  payload_len=payload_len, **engine_kw)
    off = _file_offsets(cfg)
    pmask = np.concatenate([m.astype(np.int64) for m in pm.cache_masks])
    eng.set_packets(int(off[-1]), pmask)
    for k in range(1, cfg.K + 1):
        k0 = k - 1
        fi = demand.file_of(k) - 1
        ids = np.arange(off[fi], off[fi + 1])
        eng.must_decode[k0] = ids
        masks = pmask[off[fi]:off[fi + 1]]
        for pid, mce in zip(ids.tolist(), masks.tolist()):
            if mce >> k0 & 1:
                continue
            eng.seed_item(int(mce) | (1 << k0), pid, 1 << k0)
    eng.run(start_phase=start_phase)
    return eng


def run_order_start(K: int, delta, order: int, n_packets: int, seed: int = 0,
                    decode: bool = False, q: int = 256, payload_len: int = 1,
                    cleanup_budget: int | None = None) -> SimResult:
    """Enter the multicast pipeline at the given phase: every subset of
    that size is seeded with fresh packets wanted by all its members."""
    if not 1 <= order <= K:
        raise DeliveryError("order out of range")
    eng = _Engine(K, delta, seed, q=q, payload_len=payload_len)
    groups = list(combinations(range(1, K + 1), order))
    npackets = n_packets * len(groups)
    eng.set_packets(npackets, np.zeros(npackets, dtype=np.int64))
    want: list[list[int]] = [[] for _ in range(K)]
    pid = 0
    for g in groups:
        gm = mask_of(g)
        for _ in range(n_packets):
            eng.seed_item(gm, pid, gm)
            for k in g:
                want[k - 1].append(pid)
            pid += 1
    for k0 in range(K):
        eng.must_decode[k0] = np.asarray(want[k0], dtype=np.int64)
    eng.run(start_phase=order)
    return _finish(eng, seed, decode, cleanup_budget)


def _finish(eng: _Engine, seed: int, decode: bool,
            cleanup_budget: int | None) -> SimResult:
    cleanup_slots = 0
    decode_ok = None
    recovered: dict[int, np.ndarray] | None = None
    if decode:
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
    return SimResult(
        slots_total=eng.slot,
        slots_per_subphase=eng.slots_per_subphase,
        decode_ok=decode_ok,
        cleanup_slots=cleanup_slots,
        realized_transfers=eng.transfers,
        seed=seed,
        recovered=recovered,
    )
