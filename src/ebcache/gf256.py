"""Arithmetic over GF(2^8) and Gaussian elimination over it.

The field is fixed: reduction polynomial 0x11B, log/antilog tables built
from the generator 0x03.  Addition is XOR.  All heavy operations go
through numpy uint8 arrays and a precomputed 256x256 product table, which
is fast enough for desk-scale decoding.

`rref` is the one elimination routine, and it has one mode: reduced row
echelon form, every pivot column cleared above and below its pivot, and
one final check that no row reads 0 = nonzero.  Decode blocks, the
residual system and cleanup all go through it; a system that grows by a
row is stacked and reduced again.  Row updates are row gathers: the
256-byte rows of MUL for the coefficients, indexed by the pivot row
(`MUL[coefs][:, pivot_row]`), over a plain slice of the rows when every
coefficient is nonzero and over the nonzero rows otherwise.  `gf_dot`
gives one product per segment of its terms, so a whole batch of payloads
is one call, and `gf_fold` accumulates such products into the rows of a
right-hand side in bounded chunks.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B
GENERATOR = 0x03

_exp = np.zeros(510, dtype=np.uint8)
_log = np.zeros(256, dtype=np.int64)
_x = 1
for _i in range(255):
    _exp[_i] = _x
    _log[_x] = _i
    _x = (_x << 1) ^ _x  # multiply by 0x03
    if _x & 0x100:
        _x ^= POLY
    _x &= 0xFF
_exp[255:510] = _exp[:255]

EXP = _exp
LOG = _log

# full product table: MUL[a, b] = a*b in GF(256); 64 KiB, built once
MUL = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
MUL[1:, 1:] = EXP[(LOG[_nz][:, None] + LOG[_nz][None, :]) % 255]

_FLAT = MUL.ravel()     # MUL[a, b] at (a << 8) | b

INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[_nz]]


def gf_dot(coefs: np.ndarray, values: np.ndarray,
           heads: np.ndarray | None = None) -> np.ndarray:
    """XOR-accumulated product of coefs (n,) with values (n,) or (n, L).

    Given `heads`, the ascending starts of nonempty segments that cover
    the n terms, one product per segment, (len(heads),) or
    (len(heads), L).  Products are lookups in the flat table, at
    (coef << 8) | value; coefficients that are all 1 (XORs) need none,
    and each segment is XOR-reduced in one pass over words as wide as L
    allows.
    """
    if heads is None:
        if len(coefs) == 0:
            return np.zeros(values.shape[1:], dtype=np.uint8)
        return gf_dot(coefs, values, _FIRST)[0]
    if (coefs != 1).any():
        # 16-bit indices keep the temporary small for wide payloads
        shifted = coefs.astype(np.uint16) << 8
        values = _FLAT.take(shifted.reshape((-1,) + (1,) * (values.ndim - 1))
                            | values)
    values = np.ascontiguousarray(values)
    L = values.shape[-1] if values.ndim > 1 else 1
    word = np.dtype(f"u{min(8, L & -L)}")
    return np.bitwise_xor.reduceat(values.view(word), heads,
                                   axis=0).view(np.uint8)


_FIRST = np.zeros(1, dtype=np.intp)   # one segment, all the terms
_FIRST.flags.writeable = False

# products per pass of gf_fold, which bounds its temporaries for wide payloads
FOLD_CHUNK = 1 << 16


def gf_fold(out: np.ndarray, rows: np.ndarray, coefs: np.ndarray,
            table: np.ndarray, ids: np.ndarray) -> None:
    """out[rows[i]] ^= coefs[i] * table[ids[i]] for every i, in place.

    `out` and `table` are (n, L) uint8 and `rows` is ascending, so the
    products of one row form a segment of `gf_dot`, at most FOLD_CHUNK
    bytes a pass.
    """
    step = max(1, FOLD_CHUNK // table.shape[1])
    for s in range(0, len(rows), step):
        r = rows[s:s + step]
        head = np.flatnonzero(np.diff(r, prepend=-1))
        out[r[head]] ^= gf_dot(coefs[s:s + step], table[ids[s:s + step]], head)


class InconsistentSystemError(Exception):
    """A contradictory row was met; equations built from true packet
    values can never conflict, so this indicates a simulator bug."""


def _axpy(dst: np.ndarray, coefs: np.ndarray, row: np.ndarray) -> None:
    """dst[i] ^= coefs[i] * row for every i, in place.

    A row gather: the MUL rows of the coefficients indexed by `row`, or,
    for a row much shorter than the column, the MUL columns of `row`
    indexed by the coefficients.  All rows go through one slice when
    every coefficient is nonzero; otherwise only the rows with one are
    touched, and coefficients that are all 1 (every GF(2) system) need no
    products at all.
    """
    nz = np.count_nonzero(coefs)
    if nz == 0:
        return
    if nz == len(coefs):
        hit, cs = slice(None), coefs
    else:
        hit = coefs.nonzero()[0]
        cs = coefs[hit]
        if cs.max() == 1:
            dst[hit] ^= row
            return
    dst[hit] ^= (MUL[:, row][cs] if 8 * len(row) < len(cs)
                 else MUL[cs][:, row])


def rref(matrix: np.ndarray, ncols: int) -> dict[int, int]:
    """Reduced row echelon form over GF(2^8), in place.

    `matrix` is uint8 with shape (rows, ncols + rhs_width); columns past
    `ncols` are the right-hand side.  Returns {pivot column: row index},
    each pivot scaled to 1 and its column cleared above and below it.
    Row pivots[c] of the right-hand side then holds unknown c of the
    solution whose free unknowns are zero, and a pivot row with no other
    nonzero coefficient fixes its unknown alone.  InconsistentSystemError
    is raised when a row left without a pivot reads 0 = nonzero.
    """
    nrows = matrix.shape[0]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if matrix[r, c] == 0:
            hits = matrix[r:, c].nonzero()[0]
            if len(hits) == 0:
                continue
            pr = r + int(hits[0])
            matrix[[r, pr]] = matrix[[pr, r]]
        if matrix[r, c] != 1:
            matrix[r, c:] = MUL[INV[matrix[r, c]], matrix[r, c:]]
        # columns left of c are already zero in the pivot row
        prow = matrix[r, c:]
        _axpy(matrix[r + 1:, c:], matrix[r + 1:, c], prow)
        _axpy(matrix[:r, c:], matrix[:r, c], prow)
        pivots[c] = r
        r += 1
    if matrix[r:, ncols:].any():
        raise InconsistentSystemError("contradictory equation")
    return pivots
