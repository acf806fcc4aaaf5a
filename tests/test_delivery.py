import contextlib
import hashlib
import heapq
import math
import time
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache import analysis, delivery, fastsim
from ebcache.delivery import (CleanupBudgetExceeded, DeliveryError,
                              _delivered, run_delivery, run_order_start)
from ebcache.experiments import trial_seeds
from ebcache.gf256 import MUL, InconsistentSystemError, rref
from ebcache.fastsim import (initial_needs, order_start_needs,
                             run_delivery_lengths, simulate_lengths)
from ebcache.model import (MAX_K, ConfigError, Demand, SystemConfig, mask_of,
                           subsets_ascending, users_of)
from ebcache.placement import centralized_placement, decentralized_placement


def cfg_of(delta, p, F, q=256):
    K = len(delta)
    return SystemConfig(K=K, N=K, delta=tuple(delta),
                        mem=tuple(x * K for x in p),
                        file_sizes=(F,) * K, field_order=q)


def terms_of(eng, atom: int):
    """The atoms a combination combines and their coefficients, read from
    the atom table; a packet has none."""
    span = slice(eng.first[atom], eng.first[atom + 1])
    return eng.terms[span], eng.tcoef[span]


def test_perfect_link_no_cache_sends_each_packet_once():
    cfg = cfg_of((0.0,) * 3, (0.0,) * 3, 40)
    pm = decentralized_placement(cfg, 0)
    res = run_delivery(cfg, pm, seed=1)
    assert res.slots_total == 120
    assert all(res.slots_per_subphase[(k,)] == 40 for k in (1, 2, 3))
    assert res.decode_ok == [True] * 3 and res.cleanup_slots == 0
    assert res.slots_total == sum(res.slots_per_subphase.values())


def test_full_caches_send_nothing():
    cfg = cfg_of((0.4,) * 3, (1.0,) * 3, 30)
    pm = decentralized_placement(cfg, 0)
    res = run_delivery(cfg, pm, seed=1)
    assert res.slots_total == 0
    assert res.decode_ok == [True] * 3


class ScriptedStream:
    """Stands in for `ChannelStream`: hands out the given states in order,
    in chunks that stop at the end of the script, and stops the run if a
    slot outlasts it."""

    def __init__(self, states):
        self.script, self.pos = np.asarray(states, dtype=np.int64), 0

    def __call__(self, K, delta, seed):
        return self

    def rows(self, n):
        states = self.script[self.pos:self.pos + n]
        if not len(states):
            raise StopIteration("a slot outlasts the script")
        return states

    def state(self):
        s = self.rows(1)[0]
        self.pos += 1
        return int(s)


@pytest.mark.parametrize("K", range(1, MAX_K + 1))
def test_channel_stream_is_its_definition(K):
    # slot t's receiver set is row t of random((n, K)) < 1 - delta, drawn
    # in one call from the second child of SeedSequence(seed), packed with
    # bit k for user k + 1; reads and consumes of every size, across the
    # stream's refills (at least 128 rows each), give the same rows
    rng = np.random.default_rng(K)
    powers = 1 << np.arange(K)
    for delta in (np.zeros(K), np.full(K, 0.999), rng.uniform(0, 1, K)):
        seed = int(rng.integers(2**32))
        reads = [1, 127, 128, 129, 300, 0, 1000, 2, 5000, 128, 7]
        want = (np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
                .random((sum(reads), K)) < 1.0 - delta) @ powers
        stream, pos = delivery.ChannelStream(K, delta, seed), 0
        for i, n in enumerate(reads):
            seen = stream.rows(n)
            assert seen.dtype == np.int64
            assert np.array_equal(seen, want[pos:pos + n])
            if i % 3 != 2:      # every third read is not consumed
                assert np.array_equal(stream.consume(n), want[pos:pos + n])
                pos += n
        assert stream.state() == want[pos]


def test_scripted_two_user_overhear_and_combine(monkeypatch):
    # file-1 packet overheard by user 2 on slot 2, file-2 packet overheard
    # by user 1 on slot 6, one pair combination clears both at slot 9
    states = [0b01, 0b10, 0b11, 0b01,
              0b10, 0b01, 0b10, 0b10,
              0b11]
    cfg = cfg_of((0.5, 0.5), (0.0, 0.0), 4)
    pm = decentralized_placement(cfg, 0)
    trace = []
    monkeypatch.setattr(delivery, "ChannelStream", ScriptedStream(states))
    res = run_delivery(cfg, pm, seed=0, trace=trace)
    assert res.slots_total == 9
    assert res.decode_ok == [True, True]
    assert res.slots_per_subphase == {(1,): 4, (2,): 4, (1, 2): 1}
    assert [row[3] for row in trace] == [
        "deliver", "promote", "deliver", "deliver",
        "deliver", "promote", "deliver", "deliver", "deliver"]
    assert res.realized_transfers[((1,), (1, 2), 1)] == 1
    assert res.realized_transfers[((2,), (1, 2), 2)] == 1


def test_decode_byte_exact_over_seeded_trials():
    cfg = cfg_of((0.3,) * 3, (0.5,) * 3, 250)
    for seed in range(8):
        pm = decentralized_placement(cfg, seed)
        res = run_delivery(cfg, pm, seed=100 + seed)
        assert res.decode_ok == [True] * 3
        assert set(res.recovered) == {1, 2, 3}
        assert all(v.shape == (250, 1) for v in res.recovered.values())


def test_decode_multibyte_payloads():
    cfg = cfg_of((0.3, 0.3), (0.5, 0.5), 60)
    pm = decentralized_placement(cfg, 2)
    res = run_delivery(cfg, pm, seed=3, payload_len=4)
    assert res.decode_ok == [True, True]
    assert res.recovered[1].shape == (60, 4)


def test_payload_length_leaves_the_channel_realisation_alone():
    # packet values are the first draw of default_rng(seed); coefficients
    # and channel states have streams of their own, so the payload length
    # moves no slot
    cfg = cfg_of((0.5,) * 3, (0.5,) * 3, 1000)
    pm = decentralized_placement(cfg, 1)
    runs = [run_delivery(cfg, pm, seed=2, payload_len=L)
            for L in (1, 64, 1024)]
    for res in runs[1:]:
        assert res.slots_total == runs[0].slots_total
        assert res.slots_per_subphase == runs[0].slots_per_subphase
        assert res.cleanup_slots == runs[0].cleanup_slots
    values = np.random.default_rng(2).integers(0, 256, (3000, 64),
                                               dtype=np.uint8)
    assert np.array_equal(runs[1].recovered[2], values[1000:2000])


def test_every_payload_matches_its_packet_expansion():
    # expand each combination, in the order sent, into packet space and
    # check its payload against the same combination of the packet values
    cfg = cfg_of((0.4, 0.4, 0.4), (0.4, 0.4, 0.4), 50)
    eng = _delivered(cfg, decentralized_placement(cfg, 4), Demand.identity(3),
                     5, payload_len=2)
    n = eng.npackets
    expansion = np.zeros((eng.next_atom, n), dtype=np.uint8)
    expansion[np.arange(n), np.arange(n)] = 1
    assert eng.next_atom > n
    assert not eng.first[:n + 1].any()          # packets have no terms
    assert (np.diff(eng.first[n:eng.next_atom + 1]) > 0).all()
    for atom in range(n, eng.next_atom):
        ids, cs = terms_of(eng, atom)
        for a, c in zip(ids.tolist(), cs.tolist()):
            expansion[atom] ^= MUL[c, expansion[a]]
        want = np.zeros(eng.L, dtype=np.uint8)
        for pid in np.nonzero(expansion[atom])[0]:
            want ^= MUL[expansion[atom, pid], eng.values[pid]]
        assert np.array_equal(eng.vals[atom], want)


def test_determinism_same_seed_same_result():
    cfg = cfg_of((0.3, 0.5), (0.4, 0.6), 120)
    pm = decentralized_placement(cfg, 9)
    a = run_delivery(cfg, pm, seed=17)
    b = run_delivery(cfg, pm, seed=17)
    assert a.slots_total == b.slots_total
    assert a.slots_per_subphase == b.slots_per_subphase
    assert a.realized_transfers == b.realized_transfers
    assert all(np.array_equal(a.recovered[k], b.recovered[k])
               for k in a.recovered)


# Only a dense combination, sent where the remaining wants of a pool's
# atoms split the active members no exact way, can fall short of rank, and
# at K=2 none is sent.  Scanning K=3, q=2 configs with δ, then p, over
# 0.2, 0.3, ..., 0.8, and for each F = 1..30, then seeds 0..9 (placement
# and delivery alike), this is the first instance that needs cleanup.
CLEANUP_CFG = cfg_of((0.5,) * 3, (0.3,) * 3, 11, q=2)
CLEANUP_SEED = 4


def test_binary_field_forces_cleanup_then_succeeds():
    pm = decentralized_placement(CLEANUP_CFG, CLEANUP_SEED)
    res = run_delivery(CLEANUP_CFG, pm, seed=CLEANUP_SEED)
    assert res.cleanup_slots >= 1
    assert res.decode_ok == [True] * 3
    assert res.slots_total == (sum(res.slots_per_subphase.values())
                               + res.cleanup_slots)
    eng = _delivered(CLEANUP_CFG, pm, Demand.identity(3), CLEANUP_SEED)
    assert check_multicast_pools(eng) > 0


def test_cleanup_budget_zero_is_a_hard_failure():
    pm = decentralized_placement(CLEANUP_CFG, CLEANUP_SEED)
    with pytest.raises(CleanupBudgetExceeded) as err:
        run_delivery(CLEANUP_CFG, pm, seed=CLEANUP_SEED, cleanup_budget=0)
    # conservation: the failure names what is missing, as plain ints
    assert err.value.unresolved == {1: [9]}
    assert all(type(pid) is int for pid in err.value.unresolved[1])


@pytest.mark.parametrize("q, unresolved, cleanup_slots",
                         [(2, [[9], [], []], 4), (256, [[], [], []], 0)])
def test_cleanup_starts_from_the_same_unresolved_packets(q, unresolved,
                                                         cleanup_slots):
    # which unknowns a user's system determines does not depend on the
    # order of elimination, so the packets decoding hands to cleanup, and
    # the cleanup slots that draw coefficients for them, are pinned
    cfg = replace(CLEANUP_CFG, field_order=q)
    pm = decentralized_placement(cfg, CLEANUP_SEED)
    eng = _delivered(cfg, pm, Demand.identity(3), CLEANUP_SEED)
    assert [eng.decode_user(k).unresolved.tolist()
            for k in (1, 2, 3)] == unresolved
    res = run_delivery(cfg, pm, seed=CLEANUP_SEED)
    assert res.cleanup_slots == cleanup_slots
    assert res.decode_ok == [True] * 3


def test_typical_runs_need_no_cleanup():
    cfg = cfg_of((0.3,) * 2, (0.5,) * 2, 300)
    total = cleanup = 0
    for seed in range(12):
        pseed, dseed = trial_seeds(seed)
        pm = decentralized_placement(cfg, pseed)
        res = run_delivery(cfg, pm, seed=dseed)
        total += res.slots_total
        cleanup += res.cleanup_slots
    assert cleanup / total < 1e-2


def test_rejects_bad_inputs():
    cfg = cfg_of((0.3, 0.3), (0.5, 0.5), 30)
    pm = decentralized_placement(cfg, 0)
    with pytest.raises(ConfigError, match="non-distinct"):
        run_delivery(cfg, pm, demand=Demand((1, 1)), seed=0)
    # a config cannot hold q=16, so the raw-argument entry point checks it
    with pytest.raises(DeliveryError, match="field order"):
        run_order_start(2, (0.3, 0.3), 1, 30, q=16)


def test_finish_refuses_bytes_that_differ_from_the_packet():
    # the check behind every byte-exact decode: after delivery, change the
    # value of a packet user 1 neither caches nor heard.  The user decodes
    # what was sent, which no longer matches.
    cfg = cfg_of((0.3,) * 3, (0.5,) * 3, 50)
    eng = _delivered(cfg, decentralized_placement(cfg, 0), None, 1)
    lacked = eng.must_decode[0][~eng._known(0)[eng.must_decode[0]]]
    eng.vals[lacked[0]] ^= 1
    with pytest.raises(DeliveryError, match="wrong bytes"):
        delivery._finish(eng, None)


@pytest.mark.parametrize("order", [0, 4])
def test_order_start_rejects_an_order_outside_1_to_K(order):
    with pytest.raises(DeliveryError, match="order out of range"):
        run_order_start(3, (0.3,) * 3, order, 5)


@pytest.mark.parametrize("payload_len", [0, -1, 2.5, True])
def test_payload_length_must_be_a_whole_number_of_bytes(payload_len):
    cfg = cfg_of((0.3, 0.3), (0.5, 0.5), 20)
    with pytest.raises(DeliveryError, match="payload length"):
        run_delivery(cfg, decentralized_placement(cfg, 1),
                     payload_len=payload_len)


def test_store_grows_the_table_at_its_boundary():
    # combinations that fill the atom table to its last row still find
    # first[next_atom], where their terms end: the table grows to hold
    # next_atom + 1 rows, and later combinations start where they ended
    eng = delivery._Engine(2, (0.5, 0.5), seed=0, payload_len=3)
    eng.set_packets(2, np.zeros(2, dtype=np.int64))
    room = len(eng.vals) - eng.next_atom
    # a step's receivers, who received or moved up, and one combination
    # a row
    xor = (np.array([1]), np.array([0]), np.array([[0, 1]]),
           np.ones((1, 2), dtype=np.uint8))
    eng._store(3, [xor] * room)
    assert eng.next_atom == room + 2 < len(eng.vals)
    last = (np.array([2]), np.array([0]), np.array([[1, eng.next_atom - 1]]),
            np.array([[5, 7]], dtype=np.uint8))
    eng._store(3, [last])
    assert eng.first[eng.next_atom] == 2 * room + 2
    for atom in range(2, eng.next_atom):
        ids, cs = (row[0] for row in (xor if atom < room + 2 else last)[2:])
        got = terms_of(eng, atom)
        assert got[0].tolist() == ids.tolist()
        assert got[1].tolist() == cs.tolist()
        want = np.zeros(3, dtype=np.uint8)
        for a, c in zip(ids.tolist(), cs.tolist()):
            want ^= MUL[c, eng.vals[a]]
        assert np.array_equal(eng.vals[atom], want)


def test_order_start_rejects_certain_erasure_up_front():
    # a user who never hears the channel would keep its pools open forever
    with pytest.raises(DeliveryError, match="delta"):
        run_order_start(2, (1.0, 1.0), 1, 5)
    with pytest.raises(DeliveryError, match="delta"):
        run_order_start(3, (0.2, 1.5, 0.2), 2, 5)


@pytest.mark.parametrize("delta", [(-0.5, 0.2, 0.2), (0.2, 0.2),
                                   (0.2, 1.0, 0.2)])
@pytest.mark.parametrize("engine", ["full", "length"])
def test_both_simulators_reject_bad_delta_before_any_slot(engine, delta,
                                                          monkeypatch):
    # a config cannot hold such a delta, so the raw-argument entry points
    # check it themselves
    def no_slot(self):
        raise AssertionError("a slot ran before delta was checked")

    monkeypatch.setattr(delivery._Engine, "run", no_slot)
    with pytest.raises(DeliveryError, match="delta"):
        if engine == "full":
            run_order_start(3, delta, 1, 5)
        else:
            simulate_lengths(3, delta, order_start_needs(3, 1, 5), seed=0)


def test_results_compare_by_value():
    cfg = cfg_of((0.3, 0.5), (0.4, 0.4), 20)
    pm = decentralized_placement(cfg, 0)
    res = run_delivery(cfg, pm, seed=2)
    assert res == run_delivery(cfg, pm, seed=2)
    other = {**res.recovered, 1: res.recovered[1] ^ 1}
    assert res != replace(res, recovered=other)
    assert res != replace(res, transfer_counts=res.transfer_counts + 1)
    assert res != "result"


def test_seeded_outputs_are_pinned():
    # Recorded before the engine's atom table replaced its per-user lists.
    # A change that moves these on purpose (a new draw order, say)
    # records them again and says why.  The q=2 cleanup count was recorded
    # again (23 -> 7, total 71 -> 55) when a multicast pool's members came
    # to be taken in ascending atom id rather than seeding order: only the
    # pairing of coefficients to atoms moved, so a different number of
    # binary combinations fell short of full rank.  It was recorded again
    # (7 -> 4, total 55 -> 52) when pools where each atom has one wanting
    # member came to send one atom per active member: those rows can no
    # longer fall short, and the coefficient stream left for the dense
    # pools moved.  Sub-phase slots, transfers and bytes did not move.  It
    # was recorded again (4 -> 0, total 52 -> 48) when every pool whose
    # remaining wants split the active members exactly came to send one
    # atom per member: every pool of this instance splits, so no row can
    # fall short.  Sub-phase slots, transfers and bytes did not move.
    cfg = SystemConfig(K=3, N=3, delta=(0.3, 0.4, 0.5), mem=(1.2, 1.5, 1.8),
                       file_sizes=(40,) * 3, field_order=2)
    res = run_delivery(cfg, decentralized_placement(cfg, 11), Demand((2, 3, 1)),
                       seed=12, payload_len=2)
    assert res.slots_per_subphase == {(1,): 5, (2,): 3, (3,): 3, (1, 2): 7,
                                      (1, 3): 5, (2, 3): 9, (1, 2, 3): 16}
    assert res.cleanup_slots == 0 and res.slots_total == 48
    assert res.realized_transfers == {
        ((1,), (1, 2, 3), 1): 1, ((1, 2), (1, 2, 3), 1): 2,
        ((1, 2), (1, 2, 3), 2): 2, ((1, 3), (1, 2, 3), 3): 2,
        ((2,), (1, 2), 2): 2, ((2, 3), (1, 2, 3), 2): 3,
        ((2, 3), (1, 2, 3), 3): 1, ((3,), (1, 3), 3): 1}
    digest = hashlib.sha256(b"".join(res.recovered[k].tobytes()
                                     for k in (1, 2, 3))).hexdigest()
    assert digest == ("62f5f8a4ef5c1248c05387702a3e74aa"
                      "e280730a8688cd6f90d1123176a051ff")

    # The length-only half was recorded again when `fastsim` came to read
    # the engine's channel stream (the second child of SeedSequence(seed))
    # in place of its own default_rng(seed) chunks: every seeded
    # length-only output moved, the full-engine half above did not.
    cfg = replace(cfg, file_sizes=(2000,) * 3, field_order=256)
    res = run_delivery_lengths(cfg, decentralized_placement(cfg, 21),
                               Demand((2, 3, 1)), seed=22)
    assert res.slots_per_subphase == {(1,): 267, (2,): 260, (3,): 267,
                                      (1, 2): 320, (1, 3): 446, (2, 3): 451,
                                      (1, 2, 3): 800}
    assert res.cleanup_slots == 0 and res.slots_total == 2811
    assert res.realized_transfers == {
        ((1,), (1, 2), 1): 27, ((1,), (1, 2, 3), 1): 26, ((1,), (1, 3), 1): 14,
        ((1, 2), (1, 2, 3), 1): 47, ((1, 2), (1, 2, 3), 2): 47,
        ((1, 3), (1, 2, 3), 1): 84, ((1, 3), (1, 2, 3), 3): 65,
        ((2,), (1, 2), 2): 32, ((2,), (1, 2, 3), 2): 43, ((2,), (2, 3), 2): 6,
        ((2, 3), (1, 2, 3), 2): 129, ((2, 3), (1, 2, 3), 3): 99,
        ((3,), (1, 2, 3), 3): 48, ((3,), (1, 3), 3): 31, ((3,), (2, 3), 3): 29}


def test_promotions_only_enlarge_the_target_set():
    cfg = cfg_of((0.4,) * 3, (0.4,) * 3, 200)
    pm = decentralized_placement(cfg, 3)
    eng = _delivered(cfg, pm, Demand.identity(3), seed=4)
    transfers = eng.result().realized_transfers
    assert transfers
    for (src, dst, _k), n in transfers.items():
        assert set(src) < set(dst) and n > 0


def _holds(eng, k0: int, atom: int) -> bool:
    """User k0 + 1 holds the atom: it cached or heard it, needs it itself
    (and so decodes it), or holds every atom the combination carries."""
    if eng.heard[atom] >> k0 & 1 or eng.want[atom] >> k0 & 1:
        return True
    if atom < eng.npackets:
        return bool(eng.pmask[atom] >> k0 & 1)
    ids, cs = terms_of(eng, atom)
    return all(_holds(eng, k0, a) for a in ids[cs != 0].tolist())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.sampled_from([2, 256]),
       st.integers(0, 10_000), st.data())
def test_single_want_pools_send_one_atom_per_active_member(K, F, q, seed,
                                                            data):
    # In a pool where every atom has one wanting member, each combination
    # is the XOR of the next atom, in ascending id, of every member still
    # active (coefficient 1), and every other member holds it.  The
    # queues are replayed from the receiver set of each slot heard.
    delta = data.draw(st.lists(st.floats(0.0, 0.8), min_size=K, max_size=K))
    p = data.draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    demand = Demand(tuple(data.draw(st.permutations(range(1, K + 1)))))
    cfg = cfg_of(delta, p, F, q=q)
    eng = _delivered(cfg, decentralized_placement(cfg, seed), demand, seed + 1)
    seat, want = eng.seat[:eng.next_atom], eng.want[:eng.next_atom]
    for J in subsets_ascending(K):
        members = np.flatnonzero(seat == J)
        if len(users_of(J)) < 2 or (want[members] & (want[members] - 1)).any():
            continue
        queue = {k: members[want[members] == 1 << (k - 1)].tolist()
                 for k in users_of(J)}
        for atom in (a for a in range(eng.npackets, eng.next_atom)
                     if eng.src[a] == J):
            ids, cs = terms_of(eng, atom)
            active = [k for k in users_of(J) if queue[k]]
            assert ids.tolist() == [queue[k][0] for k in active]
            assert (cs == 1).all()
            for a, k in zip(ids.tolist(), active):
                assert all(_holds(eng, j - 1, a) for j in users_of(J) if j != k)
            S, act = int(eng.heard[atom]), mask_of(active)
            for k in users_of(S & act | (act & ~S if S & ~J else 0)):
                queue[k].pop(0)
        assert not any(queue.values())


def _partitions(U: int):
    """Every set partition of the bits of U, each as a list of masks."""
    if not U:
        yield []
        return
    low, rest = U & -U, U & (U - 1)
    sub = rest
    while True:
        for part in _partitions(rest & ~sub):
            yield [low | sub, *part]
        if not sub:
            return
        sub = (sub - 1) & rest


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_exact_split_finds_a_partition_whenever_one_exists(n, data):
    U = (1 << n) - 1
    sets = data.draw(st.sets(st.integers(1, U), max_size=12))
    split = delivery._exact_split(sets, U)
    exists = any(all(T in sets for T in P) for P in _partitions(U))
    assert (split is not None) == exists
    if split is not None:
        assert set(split) <= sets and sum(split) == U
        assert split == sorted(split, key=lambda T: T & -T)
        assert all(a & b == 0 for i, a in enumerate(split)
                   for b in split[i + 1:])


def check_multicast_pools(eng) -> int:
    """Replay every multicast pool from the receiver set of each slot
    heard, and return how many dense combinations were sent.

    An atom's remaining want starts as its want, and a member that
    received or moved up on a head combination leaves the want of its atom
    there.  Where the remaining wants of some atoms, cut to the active
    members, partition them exactly, the combination is the XOR
    (coefficient 1) of the lowest such atom of each part, ordered by
    lowest member: each active member meets one atom it still has to pin
    and holds the rest.  Elsewhere, and only where no set partition of the
    active members is made of the replayed sets, it carries every atom an
    active member wants."""
    seat, want = eng.seat[:eng.next_atom], eng.want[:eng.next_atom]
    dense = 0
    for J in subsets_ascending(eng.K):
        members = np.flatnonzero(seat == J).tolist()
        if len(users_of(J)) < 2 or not members:
            continue
        rem = {a: int(want[a]) for a in members}
        r = {k: sum(rem[a] >> (k - 1) & 1 for a in members)
             for k in users_of(J)}
        for atom in (a for a in range(eng.npackets, eng.next_atom)
                     if eng.src[a] == J):
            ids, cs = (x.tolist() for x in terms_of(eng, atom))
            active = mask_of([k for k in users_of(J) if r[k]])
            cut = {a: rem[a] & active for a in members}
            sets = set(cut.values()) - {0}
            head = any(all(T in sets for T in P) for P in _partitions(active))
            if head:
                parts = [cut[a] for a in ids]
                assert sum(parts) == active
                assert parts == sorted(parts, key=lambda T: T & -T)
                assert all(a == min(b for b in members if cut[b] == T)
                           for a, T in zip(ids, parts))
                assert cs == [1] * len(ids)
                for k in users_of(active):
                    assert sum(rem[a] >> (k - 1) & 1 for a in ids) == 1
                    assert all(_holds(eng, k - 1, a) for a in ids
                               if not rem[a] >> (k - 1) & 1)
            else:
                assert ids == [a for a in members if want[a] & active]
                dense += 1
            S = int(eng.heard[atom])
            done = S & active | (active & ~S if S & ~J else 0)
            for k in users_of(done):
                r[k] -= 1
            if head:
                for a in ids:
                    rem[a] &= ~done
        assert not any(r.values())
    return dense


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 30), st.sampled_from([2, 256]),
       st.integers(0, 10_000), st.data())
def test_multicast_pools_send_one_atom_per_active_member_when_wants_split(
        K, F, q, seed, data):
    delta = data.draw(st.lists(st.floats(0.0, 0.8), min_size=K, max_size=K))
    p = data.draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    demand = Demand(tuple(data.draw(st.permutations(range(1, K + 1)))))
    cfg = cfg_of(delta, p, F, q=q)
    check_multicast_pools(_delivered(cfg, decentralized_placement(cfg, seed),
                                     demand, seed + 1))


def test_full_engine_at_max_k_with_tiny_files_finishes():
    # Every pool of a K = MAX_K delivery can hold atoms that several
    # members want.  Choosing a support searches for an exact split of the
    # n <= 16 active members: it visits each of the 2^n uncovered sets at
    # most once and scans the sets with that set's lowest member, so at
    # worst 2^16 times the pool's distinct remaining wants.  A pool with no
    # split at all costs most: all 560 three-member sets of 16 members
    # took 0.03 s, all 4368 five-member sets 0.22 s.  This run took
    # 0.3-0.6 s on a 2-vCPU x86-64 host, most of it in visiting the 2^16
    # pools; the bound leaves room for a slow machine.
    cfg = SystemConfig(K=MAX_K, N=MAX_K, delta=(0.9,) * MAX_K,
                       mem=(2,) * MAX_K, file_sizes=(3,) * MAX_K)
    pm = decentralized_placement(cfg, 1)
    start = time.perf_counter()
    res = run_delivery(cfg, pm, seed=2)
    assert time.perf_counter() - start < 20.0
    assert res.decode_ok == [True] * MAX_K
    assert len(res.slots_per_subphase) > 2 * MAX_K


def test_centralized_delivery_decodes():
    cfg = cfg_of((0.2, 0.3, 0.4), (1 / 3,) * 3, 300)
    pm = centralized_placement(cfg)
    res = run_delivery(cfg, pm, seed=6)
    assert res.decode_ok == [True] * 3


def test_order_start_small_decodes():
    res = run_order_start(3, (0.5,) * 3, 2, 150, seed=7)
    assert res.decode_ok == [True] * 3
    assert set(res.slots_per_subphase) == {(1, 2), (1, 3), (2, 3), (1, 2, 3)}


def test_order_start_full_engine_agrees_with_length_only_path():
    # run_order_start is the decoding oracle of order_capacity_trial's
    # length-only path: on the same seed both read one channel stream, so
    # they agree slot for slot
    K, order, n, delta = 3, 2, 300, (0.3, 0.4, 0.5)
    needs = order_start_needs(K, order, n)
    for s in range(8):
        res = run_order_start(K, delta, order, n, seed=s)
        assert res.decode_ok == [True] * K
        fast = simulate_lengths(K, delta, needs, seed=s)
        assert res.slots_per_subphase == fast.slots_per_subphase
        assert res.realized_transfers == fast.realized_transfers
        assert res.slots_total - res.cleanup_slots == fast.slots_total


def test_sim_result_json_keys():
    cfg = cfg_of((0.0, 0.0), (0.0, 0.0), 5)
    pm = decentralized_placement(cfg, 0)
    doc = run_delivery(cfg, pm, seed=0).to_json()
    assert set(doc) == {"slots_total", "slots_per_subphase", "decode_ok",
                        "cleanup_slots"}
    assert "[1,2]" not in doc["slots_per_subphase"]  # pair pool never used
    assert doc["slots_per_subphase"]["[1]"] == 5


# -- statistical agreement with the analytic tables -------------------------


def test_subphase_slot_rate_matches_progress_probability():
    # single pool, one active user: slots ~ NegBin(n, q) with
    # q = 1 - delta_k * prod(delta outside the pool)
    K, n = 3, 20_000
    delta = (0.3, 0.6, 0.8)
    needs = np.zeros((1 << K, K), dtype=np.int64)
    needs[0b011, 0] = n
    res = simulate_lengths(K, delta, needs, seed=5)
    q = 1 - delta[0] * delta[2]
    mean = n / q
    sd = math.sqrt(n * (1 - q)) / q
    assert abs(res.slots_per_subphase[(1, 2)] - mean) <= 4 * sd


def test_realized_transfers_match_expected_counts():
    F = 20_000
    delta = (0.25, 0.5, 0.4)
    cfg = cfg_of(delta, (1 / 3, 2 / 3, 0.5), F)
    pm = decentralized_placement(cfg, 8)
    res = run_delivery_lengths(cfg, pm, seed=9)
    plan = analysis.phase_plan(cfg, sizes=(F,) * 3)
    for key in [((1,), (1, 2), 1), ((2,), (2, 3), 2), ((1, 2), (1, 2, 3), 1)]:
        # t_k(I) * delta_k * prod_{j not in J} delta_j
        #        * prod_{j in J - I} (1 - delta_j)
        I, J, k = key
        want = plan.t_user[k - 1, mask_of(I)] * delta[k - 1]
        for j in range(1, 4):
            if j not in J:
                want *= delta[j - 1]
            elif j not in I:
                want *= 1.0 - delta[j - 1]
        got = res.realized_transfers.get(key, 0)
        assert abs(got - want) <= 4 * math.sqrt(want + 1) + 4


def test_fast_and_full_engines_agree_with_the_plan():
    F = 4000
    cfg = cfg_of((0.4, 0.2), (0.5, 0.25), F)
    plan_total = analysis.phase_plan(cfg, sizes=(F, F)).total
    fast = np.mean([run_delivery_lengths(
        cfg, decentralized_placement(cfg, s), seed=50 + s).slots_total
        for s in range(8)])
    full = np.mean([_delivered(
        cfg, decentralized_placement(cfg, s), Demand.identity(2),
        seed=50 + s).slot for s in range(8)])
    assert abs(fast - plan_total) / plan_total < 0.03
    assert abs(full - plan_total) / plan_total < 0.03
    assert abs(fast - full) / plan_total < 0.03


def test_length_convergence_toward_plan():
    F = 30_000
    cfg = cfg_of((0.5,) * 3, (0.5,) * 3, F)
    vals = [run_delivery_lengths(cfg, decentralized_placement(cfg, s),
                                 seed=s).slots_total / F for s in range(6)]
    assert abs(np.mean(vals) - 31 / 21) / (31 / 21) < 0.02


def test_order_start_needs_shape():
    needs = order_start_needs(3, 2, 7)
    assert needs.shape == (8, 3) and needs.dtype == np.int64
    assert needs[0b011].tolist() == [7, 7, 0]
    assert needs[0b111].tolist() == [0, 0, 0]
    K, order, n = 5, 3, 4
    want = [[n if bin(m).count("1") == order and m >> k0 & 1 else 0
             for k0 in range(K)] for m in range(1 << K)]
    assert order_start_needs(K, order, n).tolist() == want


def test_initial_needs_match_placement_counts():
    cfg = cfg_of((0.2, 0.2), (0.5, 0.5), 500)
    pm = decentralized_placement(cfg, 12)
    needs = initial_needs(cfg, pm)
    c1 = pm.subset_counts(1)
    assert needs[0b01][0] == c1[0b00]
    assert needs[0b11][0] == c1[0b10]
    total_for_user1 = needs[:, 0].sum()
    assert total_for_user1 == int(np.count_nonzero(
        (pm.cache_masks[0] & 1) == 0))


@pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
def test_initial_needs_count_every_uncached_demanded_packet(scheme):
    # packet of user k's file cached by exactly C: one equation for k in C + {k}
    cfg = SystemConfig(K=4, N=5, delta=(0.3,) * 4, mem=(2.5,) * 4,
                       file_sizes=(60,) * 5)
    pm = (centralized_placement(cfg) if scheme == "centralized"
          else decentralized_placement(cfg, 31))
    demand = Demand((4, 1, 5, 2))
    want = [[0] * 4 for _ in range(16)]
    for k in range(1, 5):
        for c in pm.cache_masks[demand.file_of(k) - 1].tolist():
            if not c >> (k - 1) & 1:
                want[c | 1 << (k - 1)][k - 1] += 1
    assert initial_needs(cfg, pm, demand).tolist() == want


def emptied(needs, start):
    """The needs table of a delivery entered at phase `start`: the pools
    of fewer members hold nothing."""
    needs = needs.copy()
    needs[[bin(m).count("1") < start for m in range(len(needs))]] = 0
    return needs


def replay_lengths(K, delta, needs, seed):
    """The fast simulator's schedule written out slot by slot: one channel
    state a slot, as the stream defines it (`random(K) < 1 - delta` from
    the second child of SeedSequence(seed)), each member counted one at a
    time."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    delta = np.asarray(delta, dtype=float)
    pending = needs.tolist()
    users = lambda m: tuple(j + 1 for j in range(K) if m >> j & 1)
    per_subphase, transfers, total = {}, {}, 0
    for pool in sorted(range(1, 1 << K),
                       key=lambda m: (bin(m).count("1"), users(m))):
        members = [k for k in range(K) if pool >> k & 1]
        left = {k: pending[pool][k] for k in members}
        if not any(left.values()):
            continue
        length = 0
        while any(left.values()):
            slot = (rng.random(K) < 1.0 - delta).tolist()
            heard = sum(1 << j for j in range(K) if slot[j])
            for k in members:
                if left[k] and (slot[k] or heard & ~pool):
                    left[k] -= 1
                    if not slot[k]:
                        pending[heard | pool][k] += 1
                        key = (users(pool), users(heard | pool), k + 1)
                        transfers[key] = transfers.get(key, 0) + 1
            length += 1
        per_subphase[users(pool)] = length
        total += length
    return total, per_subphase, transfers


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
def test_simulate_lengths_matches_a_slot_by_slot_replay(K, seed, data):
    delta = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9])
                               | st.floats(0.0, 0.95), min_size=K, max_size=K))
    start = data.draw(st.integers(1, K))
    if data.draw(st.booleans()):
        N = K + data.draw(st.integers(0, 2))
        sizes = data.draw(st.lists(st.integers(0, 40), min_size=N, max_size=N))
        mem = data.draw(st.lists(st.floats(0.0, N), min_size=K, max_size=K))
        demand = Demand(data.draw(st.permutations(range(1, N + 1)))[:K])
        cfg = SystemConfig(K=K, N=N, delta=tuple(delta), mem=tuple(mem),
                           file_sizes=tuple(sizes))
        needs = initial_needs(cfg, decentralized_placement(cfg, seed), demand)
    else:
        # K <= 3 reaches sizes that take more than one chunk
        n = data.draw(st.integers(0, 6000 if K <= 3 else 300))
        needs = order_start_needs(K, data.draw(st.integers(1, K)), n)
    needs = emptied(needs, start)
    res = simulate_lengths(K, delta, needs, seed)
    total, per_subphase, transfers = replay_lengths(K, delta, needs, seed)
    assert res.slots_total == total
    assert list(res.slots_per_subphase.items()) == list(per_subphase.items())
    assert res.realized_transfers == transfers


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([2, 256]),
       st.integers(0, 2**32 - 1), st.data())
def test_both_simulators_agree_slot_for_slot_on_one_seed(K, q, seed, data):
    delta = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9])
                               | st.floats(0.0, 0.95), min_size=K, max_size=K))
    N = K + data.draw(st.integers(0, 2))
    most = 30 if K <= 4 else 8
    centralized = data.draw(st.booleans())
    if centralized:
        # equal caches of b = MK/N, each file in C(K, b) equal runs
        b = data.draw(st.integers(0, K))
        runs = math.comb(K, b)
        sizes = [runs * n for n in data.draw(st.lists(
            st.integers(0, max(1, most // runs)), min_size=N, max_size=N))]
        mem = [b * N / K] * K
    else:
        sizes = data.draw(st.lists(st.integers(0, most), min_size=N,
                                   max_size=N))
        mem = data.draw(st.lists(st.floats(0.0, N), min_size=K, max_size=K))
    demand = Demand(data.draw(st.permutations(range(1, N + 1)))[:K])
    start = data.draw(st.integers(1, K))
    cfg = SystemConfig(K=K, N=N, delta=tuple(delta), mem=tuple(mem),
                       file_sizes=tuple(sizes), field_order=q)
    pm = (centralized_placement(cfg) if centralized
          else decentralized_placement(cfg, seed))
    # a later start is an emptied needs table for the length-only engine
    # and, for the full engine, its atoms unseated from the pools of fewer
    # members before it runs; decoding is not compared, since the packets
    # of those pools are never sent
    run = delivery._Engine.run

    def run_from_start(eng):
        seat = eng.seat[:eng.next_atom]
        seat[[bin(m).count("1") < start for m in seat.tolist()]] = 0
        run(eng)

    with mock.patch.object(delivery._Engine, "run", run_from_start):
        eng = _delivered(cfg, pm, demand, seed)
    res = simulate_lengths(K, cfg.delta,
                           emptied(initial_needs(cfg, pm, demand), start), seed)
    assert list(res.slots_per_subphase.items()) == list(
        eng.slots_per_subphase.items())
    assert res.realized_transfers == eng.result().realized_transfers
    assert res.slots_total == eng.slot


@pytest.mark.parametrize("K, seed", [(12, 0), (12, 1), (14, 2), (16, 3),
                                     (16, 4)])
def test_both_simulators_agree_slot_for_slot_at_large_K(K, seed):
    # the property above stops at K = 6; files of 1-2 packets reach the
    # pools of up to 16 members at a bounded cost
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(K=K, N=K, delta=tuple(rng.choice([0.0, 0.3, 0.6, 0.9],
                                                        K)),
                       mem=tuple(rng.uniform(0, K / 2, K)),
                       file_sizes=tuple(rng.integers(1, 3, K).tolist()))
    demand = Demand(tuple(rng.permutation(K) + 1))
    pm = decentralized_placement(cfg, seed)
    full = _delivered(cfg, pm, demand, seed).result()
    res = run_delivery_lengths(cfg, pm, demand, seed)
    assert list(res.slots_per_subphase.items()) == list(
        full.slots_per_subphase.items())
    assert res.realized_transfers == full.realized_transfers
    assert res.slots_total == full.slots_total
    assert res.realized_transfers


def test_fastsim_chunk_bounds_change_no_result(monkeypatch):
    # chunks only set the speed: bounds of 1..16 slots give the same
    # outputs as 32..8192 (`_SLOTS` is derived from `_CHUNK`)
    K, delta = 3, (0.3, 0.5, 0.7)
    cases = [initial_needs(cfg, decentralized_placement(cfg, 4))
             for cfg in [cfg_of(delta, (0.4, 0.5, 0.6), 3000)]]
    cases += [order_start_needs(K, 2, 500)]
    want = [simulate_lengths(K, delta, needs, seed=6) for needs in cases]
    monkeypatch.setattr(fastsim, "_MIN_CHUNK", 1)
    monkeypatch.setattr(fastsim, "_CHUNK", 16)
    monkeypatch.setattr(fastsim, "_SLOTS", np.arange(16)[:, None])
    got = [simulate_lengths(K, delta, needs, seed=6) for needs in cases]
    assert got == want



def batch_needs(K, data):
    """A needs table for a batch trial: nothing pending, an order start,
    or the demanded files of a drawn placement."""
    kind = data.draw(st.sampled_from(["empty", "order", "placement"]))
    if kind == "empty":
        return np.zeros((1 << K, K), dtype=np.int64)
    if kind == "order":
        n = data.draw(st.integers(0, 400 if K <= 3 else 60))
        return order_start_needs(K, data.draw(st.integers(1, K)), n)
    N = K + data.draw(st.integers(0, 2))
    cfg = SystemConfig(K=K, N=N, delta=(0.5,) * K,
                       mem=tuple(data.draw(st.lists(st.floats(0.0, N),
                                                    min_size=K, max_size=K))),
                       file_sizes=tuple(data.draw(st.lists(
                           st.integers(0, 40), min_size=N, max_size=N))))
    return initial_needs(cfg, decentralized_placement(
        cfg, data.draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.booleans(), st.data())
def test_batched_trials_are_their_own_runs(K, T, small, data):
    # every trial of a batch gets the slot counts it gets alone, and so
    # its slot-by-slot replay: trials with nothing pending, K = 1, and,
    # with chunks and steps made small, trials that finish in different
    # steps; the lone runs, folding every few promotions, keep the
    # replay's promotions
    delta = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9])
                               | st.floats(0.0, 0.95), min_size=K, max_size=K))
    needs = [batch_needs(K, data) for _ in range(T)]
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=T,
                               max_size=T))
    with contextlib.ExitStack() as stack:
        if small:
            stack.enter_context(mock.patch.multiple(
                fastsim, _MIN_CHUNK=1, _CHUNK=16,
                _SLOTS=np.arange(16)[:, None], _STEP_CELLS=24))
            stack.enter_context(mock.patch.object(fastsim._Promotions,
                                                  "FOLD", 3))
        batch = simulate_lengths(K, delta, np.stack(needs), seeds)
        alone = [simulate_lengths(K, delta, n, s)
                 for n, s in zip(needs, seeds)]
    assert batch.slots == [res.slots_total for res in alone]
    assert batch.slots_total == sum(batch.slots)
    assert batch.slots_per_subphase == {
        (t, J): n for t, res in enumerate(alone)
        for J, n in res.slots_per_subphase.items()}
    for res, n, s in zip(alone, needs, seeds):
        total, per_subphase, transfers = replay_lengths(K, delta, n, s)
        assert res.slots_total == total
        assert list(res.slots_per_subphase.items()) == list(
            per_subphase.items())
        assert res.realized_transfers == transfers


@pytest.mark.parametrize("small", [False, True])
def test_multi_pool_steps_are_their_own_runs(small):
    # at K = 7-10, files of 0-3 packets leave pools of a few slots each,
    # and a step takes several pools of one cardinality.  Every trial of a
    # batch still gets what it gets alone, and so its slot-by-slot replay,
    # with the default chunks and with chunks, steps and folds made small.
    # The steps seen include trials with nothing pending in some of their
    # pools, trials that finish several pools inside one chunk, and a pool
    # that spills into the next step
    rng = np.random.default_rng(27)
    seen = dict.fromkeys(["idle", "several", "spill"], 0)
    step = fastsim._step

    def spy(K, pools, members, reach, bits, tr, need, *rest):
        done, left, _ = out = step(K, pools, members, reach, bits, tr,
                                   need, *rest)
        if len(pools) > 1:
            seen["idle"] += bool((need == 0).all(axis=2).any())
            seen["several"] += done > 1
            seen["spill"] += left is not None
        return out

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(fastsim, "_step", spy))
        if small:
            stack.enter_context(mock.patch.multiple(
                fastsim, _MIN_CHUNK=2, _CHUNK=16,
                _SLOTS=np.arange(16)[:, None], _STEP_CELLS=64))
            stack.enter_context(mock.patch.object(fastsim._Promotions,
                                                  "FOLD", 3))
        for _ in range(6):
            K, T = int(rng.integers(7, 11)), int(rng.integers(1, 11))
            delta = rng.choice([0.0, 0.3, 0.6, 0.9], K)
            needs = []
            for _ in range(T):
                if rng.random() < 0.2:
                    needs.append(order_start_needs(
                        K, int(rng.integers(1, K + 1)),
                        int(rng.integers(0, 4))))
                    continue
                cfg = SystemConfig(
                    K=K, N=K, delta=tuple(delta),
                    mem=tuple(rng.uniform(0, K, K)),
                    file_sizes=tuple(rng.integers(0, 4, K).tolist()))
                needs.append(initial_needs(cfg, decentralized_placement(
                    cfg, int(rng.integers(2**32)))))
            seeds = rng.integers(2**32, size=T).tolist()
            batch = simulate_lengths(K, delta, np.stack(needs), seeds)
            for t, (n, seed) in enumerate(zip(needs, seeds)):
                alone = simulate_lengths(K, delta, n, seed)
                total, per_subphase, transfers = replay_lengths(K, delta,
                                                                n, seed)
                assert batch.slots[t] == alone.slots_total == total
                assert list(alone.slots_per_subphase.items()) == list(
                    per_subphase.items())
                assert {J: m for (u, J), m in
                        batch.slots_per_subphase.items() if u == t} == (
                    per_subphase)
                assert alone.realized_transfers == transfers
    assert all(seen.values()), seen


def test_simulate_lengths_refuses_tables_that_do_not_fit():
    needs = np.stack([order_start_needs(3, 2, 5)] * 2)
    with pytest.raises(ValueError, match=r"needs must have shape \(3, 8, 3\)"):
        simulate_lengths(3, (0.5,) * 3, needs, [1, 2, 3])
    with pytest.raises(ValueError, match=r"needs must have shape \(16, 4\)"):
        simulate_lengths(4, (0.5,) * 4, needs[0], 1)
    assert simulate_lengths(3, (0.5,) * 3, needs[:0], []).slots == []


def _outputs(cfg, pm, demand, seed, payload_len):
    """The atom table with every combination's terms, the trace rows and
    the result of a delivery, or the message of its cleanup failure."""
    trace = []
    eng = _delivered(cfg, pm, demand, seed, payload_len, trace=trace)
    n = eng.next_atom
    table = [a[:n].copy() for a in (eng.vals, eng.heard, eng.src, eng.seat,
                                    eng.want)]
    table += [eng.first[:n + 1].copy(), eng.terms[:eng.first[n]].copy(),
              eng.tcoef[:eng.first[n]].copy()]
    try:
        return table, trace, delivery._finish(eng, None)
    except CleanupBudgetExceeded as err:
        return table, trace, (str(err), err.unresolved)


def _engine_outputs(cfg, seed):
    return _outputs(cfg, decentralized_placement(cfg, seed),
                    Demand.identity(cfg.K), seed, 2)


@pytest.mark.parametrize("q", [2, 256])
def test_slot_chunk_changes_no_result(q, monkeypatch):
    # the slot loop looks at SLOT_CHUNK channel states at a time and
    # consumes only the slots it used, so chunks of 1, of a prime and of
    # more than any pool needs give what the default gives; so do
    # payloads built one combination per gf_dot call (FOLD_CHUNK 1) or a
    # few.  The first case has a pool that outlasts the default chunk,
    # the second dense combinations and, at q=2, cleanup.
    cases = [(cfg_of((0.5, 0.6, 0.4), (0.3, 0.2, 0.4), 400, q=q), 1),
             (replace(CLEANUP_CFG, field_order=q), CLEANUP_SEED)]
    want = [_engine_outputs(*case) for case in cases]
    assert max(want[0][2].slots_per_subphase.values()) > delivery.SLOT_CHUNK
    assert (want[1][2].cleanup_slots > 0) == (q == 2)
    for chunk, fold in ((1, 1), (7, 50), (5000, delivery.FOLD_CHUNK)):
        monkeypatch.setattr(delivery, "SLOT_CHUNK", chunk)
        monkeypatch.setattr(delivery, "FOLD_CHUNK", fold)
        for (table, *rest), (table0, *rest0) in zip(
                [_engine_outputs(*case) for case in cases], want):
            assert all(map(np.array_equal, table, table0))
            assert rest == rest0


def loop_run_multicast(self, pool_mask, atoms):
    """`_Engine._run_multicast` one slot at a time, as it ran before it
    went by steps: the oracle of the array steps.  Each group of equal
    remaining want is a heap of atom ids, and every slot moves the heads
    it took; its combinations go to `_store` one slot a step."""

    def move_head(heads, w, new):
        # move the lowest atom of group w to group new (none if 0), and
        # tell whether a group was emptied or begun
        atom = heapq.heappop(heads[w])
        emptied = not heads[w]
        if emptied:
            del heads[w]
        if not new:
            return emptied
        begun = new not in heads
        heapq.heappush(heads.setdefault(new, []), atom)
        return emptied or begun

    def move_group(heads, w, new):
        # merge group w into group new (drop it if 0)
        group = heads.pop(w)
        if new:
            group += heads.get(new, [])
            heapq.heapify(group)
            heads[new] = group

    needed = self.want[atoms]
    r = [int(np.count_nonzero(needed >> k0 & 1)) for k0 in range(self.K)]
    active = sum(1 << k0 for k0 in range(self.K) if r[k0])
    heads = {}
    for a, w in zip(atoms.tolist(), needed.tolist()):
        heads.setdefault(w, []).append(a)
    sent = []
    split = support = None
    regroup = True
    while active:
        used = 0
        for S in self.chan.rows(delivery.SLOT_CHUNK).tolist():
            used += 1
            self.slot += 1
            if regroup:
                split = delivery._exact_split(heads, active)
                regroup, support = False, None
            if split:
                if support is None:
                    support = np.array([heads[w][0] for w in split])
                    coefs = np.ones(len(split), dtype=np.uint8)
            else:
                if support is None:
                    support = atoms[np.nonzero(needed & active)[0]]
                coefs = self._coefs(len(support))
            got = S & active
            moved = (active & ~S) if (S & ~pool_mask) else 0
            if S:
                sent.append((S, moved, support, coefs))
            if got:
                self._trace(pool_mask, S, "deliver")
            elif moved:
                self._trace(pool_mask, S, "promote")
            else:
                self._trace(pool_mask, S, "waste")
                continue
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
                        regroup |= move_head(heads, w, w & ~done)
                support = None
            if finished:
                active &= ~finished
                for w in list(heads):
                    if w & finished:
                        move_group(heads, w, w & active)
                regroup = True
                if not active:
                    break
        self.chan.pos += used
    # a slot's `moved` holds none of its receivers, so it stands in for
    # who received or moved up
    self._store(pool_mask, [(np.array([S]), np.array([moved]), ids[None],
                             coefs[None]) for S, moved, ids, coefs in sent])


def _steps_and_loop_agree(cfg, pm, demand, seed, payload_len, chunk):
    """The outputs of one delivery with the array steps and with the slot
    loop, SLOT_CHUNK set to `chunk` (None for its default), are equal."""
    with contextlib.ExitStack() as stack:
        if chunk is not None:
            stack.enter_context(mock.patch.object(delivery, "SLOT_CHUNK",
                                                  chunk))
        want = _outputs(cfg, pm, demand, seed, payload_len)
        stack.enter_context(mock.patch.object(
            delivery._Engine, "_run_multicast", loop_run_multicast))
        got = _outputs(cfg, pm, demand, seed, payload_len)
    assert all(map(np.array_equal, got[0], want[0]))
    assert got[1] == want[1]
    assert got[2] == want[2]
    return want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.sampled_from([2, 256]), st.integers(1, 3),
       st.sampled_from([1, 7, None]), st.integers(0, 2**32 - 1), st.data())
def test_array_steps_match_the_slot_loop(K, q, payload_len, chunk, seed,
                                         data):
    # the atom tables, traces and results of the array steps are those of
    # the slot loop, whatever the chunk of channel states looked at
    delta = data.draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9])
                               | st.floats(0.0, 0.95), min_size=K, max_size=K))
    N = K + data.draw(st.integers(0, 2))
    sizes = data.draw(st.lists(st.integers(0, 40), min_size=N, max_size=N))
    mem = data.draw(st.lists(st.floats(0.0, N), min_size=K, max_size=K))
    demand = Demand(data.draw(st.permutations(range(1, N + 1)))[:K])
    cfg = SystemConfig(K=K, N=N, delta=tuple(delta), mem=tuple(mem),
                       file_sizes=tuple(sizes), field_order=q)
    _steps_and_loop_agree(cfg, decentralized_placement(cfg, seed), demand,
                          seed, payload_len, chunk)


# Instances the property above seldom draws, placement and delivery seed
# alike.  The pools of CLEANUP_CFG send dense combinations and, at q = 2,
# need cleanup.  In the third, a head begins a group that changes the
# next split: the first found by scanning K = 3..5, F = 10..40,
# δ = 0.5..0.9, p = 0.3..0.7 and seeds 0..11 for an atom table that moves
# when a step does not end at such an event.  In the last, one dense step
# of 7 slots draws 6 coefficients a slot, which one draw of 42 would not
# give.
@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("cfg, seed", [
    (CLEANUP_CFG, CLEANUP_SEED),
    (replace(CLEANUP_CFG, field_order=256), CLEANUP_SEED),
    (cfg_of((0.9,) * 3, (0.3,) * 3, 10), 5),
    (cfg_of((0.7,) * 4, (0.3,) * 4, 10), 5)])
def test_array_steps_match_the_slot_loop_on_pinned_instances(cfg, seed,
                                                             chunk):
    pm = decentralized_placement(cfg, seed)
    for payload_len in (1, 3):
        _steps_and_loop_agree(cfg, pm, Demand.identity(cfg.K), seed,
                              payload_len, chunk)


# -- peeling decoder against one global elimination ---------------------------


def decoded_packets(eng, dec):
    """{packet id: value} of every packet a user's `_Decoding` solved."""
    ids = np.flatnonzero(dec.col[:eng.npackets] >= 0)
    ids = ids[dec.solved[dec.col[ids]]]
    return dict(zip(ids.tolist(), dec.sol[dec.col[ids]]))


def global_solve(eng, k):
    """Packets user k can decode, from one rref over its whole system:
    every combination it heard in its own pools, plus the definition of
    every combination they reach that it did not hear."""
    k0, L = k - 1, eng.L
    heard = eng.heard[:eng.next_atom]
    known = (set(np.nonzero(eng.pmask >> k0 & 1)[0].tolist())
             | set(np.nonzero(heard >> k0 & 1)[0].tolist()))
    col: dict[int, int] = {}
    pending, rows = [], []

    def row(atom, rhs):
        ids, cs = terms_of(eng, atom)
        coefs = {}
        for a, c in zip(ids.tolist(), cs.tolist()):
            if c == 0:
                continue
            if a in known:
                rhs = rhs ^ MUL[c, eng.vals[a]]
                continue
            if a not in col:
                col[a] = len(col)
                if a >= eng.npackets:
                    pending.append(a)
            coefs[col[a]] = c
        return coefs, rhs

    # the combinations it heard in pools it belongs to
    member = heard & eng.src[:eng.next_atom] & 1 << k0
    for atom in np.nonzero(member)[0].tolist():
        rows.append(row(atom, eng.vals[atom]))
    while pending:
        atom = pending.pop()
        coefs, rhs = row(atom, np.zeros(L, np.uint8))
        coefs[col[atom]] = 1
        rows.append((coefs, rhs))
    n = len(col)
    m = np.zeros((len(rows), n + L), dtype=np.uint8)
    for i, (coefs, rhs) in enumerate(rows):
        m[i, list(coefs)] = list(coefs.values())
        m[i, n:] = rhs
    pivots = rref(m, n)
    atom_of = {c: a for a, c in col.items()}
    return {atom_of[c]: m[r, n:] for c, r in pivots.items()
            if atom_of[c] < eng.npackets and np.count_nonzero(m[r, :n]) == 1}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 80), st.sampled_from([2, 256]),
       st.sampled_from([1, 3]), st.integers(0, 10_000), st.data())
def test_peeling_decoder_matches_one_global_elimination(K, F, q, L, seed,
                                                        data):
    delta = data.draw(st.lists(st.floats(0.0, 0.7), min_size=K, max_size=K))
    p = data.draw(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K))
    cfg = cfg_of(delta, p, F, q=q)
    pm = decentralized_placement(cfg, seed)
    eng = _delivered(cfg, pm, Demand.identity(K), seed + 1, L)
    # rank-deficient systems: erase a drawn fifth of each user's receptions
    # of combinations formed in pools it belongs to.  Its packet receptions
    # and overheard combinations stay, since the decoder's system assumes
    # the user holds those atoms.
    rng = np.random.default_rng(seed)
    n = eng.next_atom
    for k0 in range(K):
        own = np.nonzero(eng.heard[:n] & eng.src[:n] & 1 << k0)[0]
        own = own[own >= eng.npackets]
        eng.heard[own[rng.random(len(own)) < 0.2]] ^= 1 << k0
    for k in range(1, K + 1):
        want = global_solve(eng, k)
        dec = eng.decode_user(k)
        solved = decoded_packets(eng, dec)
        assert set(solved) == set(want)
        assert all(np.array_equal(solved[pid], want[pid]) for pid in want)
        assert set(dec.unresolved.tolist()).isdisjoint(want)


def test_peeling_decoder_solves_pools_closed_in_a_cycle():
    # user 4 meets a promoted combination it neither heard nor needs whose
    # pool of origin depends on the pool it reached, so no order of its
    # pools solves them one after another.  The instance is the first
    # placement seed s in 0..59, with delivery seed 100 + s, where user 4's
    # pools close such a cycle.  Such cycles need a pool atom that several
    # members want, which takes more erasures than with dense
    # combinations: at δ = 0.2..0.5 no seed in 0..299 has one.
    cfg = cfg_of((0.4, 0.5, 0.6, 0.7), (0.5, 0.4, 0.3, 0.6), 40)
    pm = decentralized_placement(cfg, 28)
    eng = _delivered(cfg, pm, Demand.identity(4), 128)
    dec = eng.decode_user(4)
    assert not dec.unresolved.size
    solved = decoded_packets(eng, dec)
    want = global_solve(eng, 4)
    assert set(solved) == set(want)
    assert all(np.array_equal(solved[pid], want[pid]) for pid in want)
    res = run_delivery(cfg, pm, seed=128)
    assert res.decode_ok == [True] * 4



def test_decoder_checks_a_redundant_row_that_still_holds_an_unknown():
    # a pool where the combinations a user heard that hold one of the
    # atoms it needs there outnumber those atoms has a redundant row; with
    # the value of the last such combination corrupted, elimination
    # leaves a row reading 0 = nonzero, which must raise.  The instance is
    # the first of a scan over s = 0..299: K = 3 + s % 2, δ ~ U(0.3, 0.8)
    # and p ~ U(0, 1) drawn from default_rng(s) and rounded to 2 places,
    # F = 30, placement seed s and delivery seed s + 1.  The scan met 155
    # such pools; the first is s = 2, user 2, pool {1, 2, 3}.
    cfg = cfg_of((0.43, 0.45, 0.71), (0.09, 0.6, 0.73), 30)
    eng = _delivered(cfg, decentralized_placement(cfg, 2), Demand.identity(3), 3)
    k0, v = 1, 7
    n = eng.next_atom
    cols = np.flatnonzero((eng.want[:n] >> k0 & 1 == 1) & (eng.seat[:n] == v)
                          & ~eng._known(k0))
    heard = np.nonzero(eng.heard & eng.src & 1 << k0)[0]
    holding = [a for a in heard[eng.src[heard] == v].tolist()
               if np.isin(terms_of(eng, a)[0], cols).any()]
    assert len(holding) > len(cols)
    atom = max(holding)
    eng.vals[atom] ^= 1
    with pytest.raises(InconsistentSystemError):
        eng.decode_user(k0 + 1)


def test_decoder_checks_a_row_left_with_no_unknown():
    # a combination user 1 heard after it knew every atom in it folds to
    # 0 = 0; a corrupted value must raise, not vanish with the row
    cfg = cfg_of((0.3,) * 3, (0.5,) * 3, 40)
    eng = _delivered(cfg, decentralized_placement(cfg, 1), Demand.identity(3), 2)
    known = eng._known(0)
    member = np.nonzero(eng.heard & eng.src & 1)[0]
    atom = next(a for a in member.tolist() if known[terms_of(eng, a)[0]].all())
    eng.vals[atom] ^= 1
    with pytest.raises(InconsistentSystemError):
        eng.decode_user(1)
