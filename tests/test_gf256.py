import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebcache.gf256 import INV, MUL, InconsistentSystemError, gf_dot, rref


def slow_mul(a, b):
    """Shift-and-reduce oracle, independent of the log/antilog tables."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return r


def test_known_products():
    assert MUL[0x01, 0x5A] == 0x5A
    assert MUL[0x53, 0xCA] == 0x01
    assert MUL[0x00, 0xFF] == 0x00


def test_table_matches_shift_and_reduce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(4000):
        a, b = int(rng.integers(256)), int(rng.integers(256))
        assert MUL[a, b] == slow_mul(a, b)
    # spot the full border rows exhaustively
    for a in range(256):
        assert MUL[a, 0] == 0
        assert MUL[a, 1] == a
        assert MUL[a, 255] == slow_mul(a, 255)


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        assert MUL[a, INV[a]] == 1


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_field_axioms(a, b, c):
    assert MUL[a, b] == MUL[b, a]
    assert MUL[MUL[a, b], c] == MUL[a, MUL[b, c]]
    assert MUL[a, b ^ c] == MUL[a, b] ^ MUL[a, c]


def test_gf_dot_matches_scalar_loop():
    rng = np.random.default_rng(1)
    coefs = rng.integers(0, 256, 17, dtype=np.uint8)
    vals = rng.integers(0, 256, (17, 3), dtype=np.uint8)
    want = np.zeros(3, dtype=np.uint8)
    for c, row in zip(coefs, vals):
        want ^= MUL[c, row]
    assert np.array_equal(gf_dot(coefs, vals), want)
    assert gf_dot(np.empty(0, np.uint8), np.empty((0, 2), np.uint8)).shape == (2,)


@pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 8)])
@pytest.mark.parametrize("xor", [False, True])
def test_gf_dot_gives_one_product_per_segment(shape, xor):
    rng = np.random.default_rng(2)
    coefs = (np.ones(40, np.uint8) if xor
             else rng.integers(0, 256, 40, dtype=np.uint8))
    vals = rng.integers(0, 256, shape, dtype=np.uint8)
    heads = np.array([0, 1, 2, 9, 30, 39])
    got = gf_dot(coefs, vals, heads)
    assert got.shape == (len(heads),) + shape[1:]
    for i, (lo, hi) in enumerate(zip(heads, [*heads[1:], 40])):
        want = np.zeros(shape[1:], dtype=np.uint8)
        for c, row in zip(coefs[lo:hi], vals[lo:hi]):
            want ^= MUL[c, row]
        assert np.array_equal(got[i], want)
    # a strided view of a wider buffer gives the same products
    wide = np.zeros((40, 2) + shape[1:], np.uint8)
    wide[:, 0] = vals
    assert np.array_equal(gf_dot(coefs, wide[:, 0], heads), got)


def system(rows, n):
    """Augmented uint8 matrix from (coefficient list, payload byte) rows."""
    m = np.array([list(c) + [p] for c, p in rows], dtype=np.uint8)
    return m.reshape(-1, n + 1)


def determined(m, pivots, n):
    """Unknowns fixed by an RREF matrix: pivot rows with one nonzero."""
    return {c: int(m[r, n]) for c, r in pivots.items()
            if np.count_nonzero(m[r, :n]) == 1}


def test_rref_identity_row():
    m = system([((0x01,), 0x2A)], 1)
    assert determined(m, rref(m, 1), 1) == {0: 0x2A}


def test_rref_two_random_rows_round_trip():
    rng = np.random.default_rng(2)
    truth = [0x7D, 0x3E]
    rows = []
    for _ in range(2):
        c = [int(x) for x in rng.integers(1, 256, 2)]
        rows.append((c, int(MUL[c[0], truth[0]] ^ MUL[c[1], truth[1]])))
    m = system(rows, 2)
    assert determined(m, rref(m, 2), 2) == {0: 0x7D, 1: 0x3E}


def test_rref_underdetermined_leaves_unresolved():
    m = system([((1, 1), 0x11)], 2)
    pivots = rref(m, 2)
    assert len(pivots) == 1
    assert determined(m, pivots, 2) == {}


def test_rref_contradictory_stack_raises():
    m = system([((1, 0), 1), ((0, 1), 3), ((1, 1), 0xFF)], 2)
    with pytest.raises(InconsistentSystemError):
        rref(m, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_rref_round_trips_random_full_systems(n, seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 256, n, dtype=np.uint8)
    # n + 2 random rows are full rank except with ~2^-16 probability
    coefs = rng.integers(0, 256, (n + 2, n), dtype=np.uint8)
    rhs = np.array([gf_dot(c, truth) for c in coefs], dtype=np.uint8)
    m = np.concatenate([coefs, rhs[:, None]], axis=1)
    assert determined(m, rref(m, n), n) == dict(enumerate(truth.tolist()))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10), st.integers(1, 3),
       st.integers(0, 10_000))
def test_rref_of_reduced_plus_one_row_determines_the_raw_stack(n, rows, width,
                                                               seed):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 256, (n, width), dtype=np.uint8)
    # sparse coefficients leave many systems rank-deficient
    coefs = rng.integers(0, 256, (rows + 1, n), dtype=np.uint8)
    coefs[rng.random(coefs.shape) < 0.6] = 0
    rhs = np.array([gf_dot(c, truth) for c in coefs], dtype=np.uint8)
    raw = np.concatenate([coefs, rhs], axis=1)
    reduced = raw[:rows].copy()
    rref(reduced, n)

    def fixed(m):
        return {c: m[r, n:].tolist() for c, r in rref(m, n).items()
                if np.count_nonzero(m[r, :n]) == 1}

    got = fixed(np.vstack([reduced, raw[rows]]))
    assert got == fixed(raw.copy())
    assert all(v == truth[c].tolist() for c, v in got.items())


def consistent_system(rng, rows, n, width, q, rank):
    """Augmented matrix of `rows` equations over n unknowns whose
    coefficient rows span at most `rank` dimensions, and the unknowns."""
    truth = rng.integers(0, 256, (n, width), dtype=np.uint8)
    basis = rng.integers(0, q, (rank, n), dtype=np.uint8)
    mix = rng.integers(0, q, (rows, rank), dtype=np.uint8)
    coefs = np.array([gf_dot(w, basis) for w in mix],
                     dtype=np.uint8).reshape(rows, n)
    rhs = np.array([gf_dot(c, truth) for c in coefs],
                   dtype=np.uint8).reshape(rows, width)
    return np.concatenate([coefs, rhs], axis=1), truth


SHAPES = ("square", "tall", "rank-deficient")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.integers(0, 12), st.sampled_from(SHAPES),
       st.sampled_from([2, 256]), st.sampled_from([1, 3]),
       st.integers(0, 10_000))
def test_full_reduction_matches_truth_on_every_fixed_unknown(
        n, extra, shape, q, width, seed):
    rng = np.random.default_rng(seed)
    rows = {"square": n, "tall": n + 1 + extra, "rank-deficient": n + extra}
    rank = n if shape != "rank-deficient" else int(rng.integers(0, max(n, 1)))
    m, truth = consistent_system(rng, rows[shape], n, width, q, rank)
    pivots = rref(m, n)
    assert len(pivots) <= rank
    alone = {c: r for c, r in pivots.items()
             if np.count_nonzero(m[r, :n]) == 1}
    if len(pivots) == n:
        assert alone == pivots
    assert all(np.array_equal(m[r, n:], truth[c]) for c, r in alone.items())


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10), st.integers(0, 12), st.sampled_from([2, 256]),
       st.sampled_from([1, 3]), st.booleans(), st.integers(0, 10_000))
def test_corrupted_redundant_row_raises(n, extra, q, width, late, seed):
    rng = np.random.default_rng(seed)
    rows = n + 1 + extra
    m, _ = consistent_system(rng, rows, n, width, q, n)
    # row i becomes a combination of the others, then its right-hand side
    # is corrupted; a late row comes after as many rows as unknowns
    i = int(rng.integers(n, rows) if late else rng.integers(0, rows))
    others = np.delete(m, i, axis=0)
    mix = rng.integers(0, q, rows - 1, dtype=np.uint8)
    m[i] = gf_dot(mix, others) if rows > 1 else 0
    m[i, n + int(rng.integers(width))] ^= int(rng.integers(1, 256))
    with pytest.raises(InconsistentSystemError):
        rref(m, n)


@pytest.mark.parametrize("view", [False, True])
def test_rref_of_empty_systems(view):
    # view: the system is a strided slice of a wider buffer, as when a
    # caller reduces part of a larger matrix in place
    def system(values):
        values = np.asarray(values, dtype=np.uint8)
        if not view:
            return values
        buf = np.zeros((values.shape[0], 2 * values.shape[1] + 1), np.uint8)
        buf[:, ::2][:, :values.shape[1]] = values
        return buf[:, ::2][:, :values.shape[1]]

    for rows, n, width in ((0, 0, 1), (0, 3, 2), (2, 0, 1)):
        m = system(np.zeros((rows, n + width)))
        assert rref(m, n) == {}
    # no unknowns: a row reading 0 = nonzero still raises
    with pytest.raises(InconsistentSystemError):
        rref(system([[0], [7]]), 0)
