"""Arithmetic over GF(2^8) and Gaussian elimination over it.

The field is fixed: reduction polynomial 0x11B, log/antilog tables built
from the generator 0x03.  Addition is XOR.  All heavy operations go
through numpy uint8 arrays and a precomputed 256x256 product table, which
is fast enough for desk-scale decoding.  `rref` is the one elimination
routine: a system that grows by a row is stacked and reduced again.
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

INV = np.zeros(256, dtype=np.uint8)
INV[1:] = EXP[255 - LOG[_nz]]


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    return int(MUL[a, b])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; a must be nonzero."""
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^8)")
    return int(INV[a])


def gf_dot(coefs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """XOR-accumulated product of coefs (n,) with values (n,) or (n, L)."""
    if len(coefs) == 0:
        width = values.shape[1:] if values.ndim > 1 else ()
        return np.zeros(width, dtype=np.uint8)
    if values.ndim == 1:
        return np.bitwise_xor.reduce(MUL[coefs, values])
    # one lookup per product in the flat table, at (coef << 8) | value;
    # 16-bit indices keep the temporary small for wide payloads
    idx = (coefs.astype(np.uint16) << 8)[:, None] | values
    return np.bitwise_xor.reduce(MUL.ravel()[idx], axis=0)


class InconsistentSystemError(Exception):
    """A contradictory row was met; equations built from true packet
    values can never conflict, so this indicates a simulator bug."""


def rref(matrix: np.ndarray, ncols: int) -> dict[int, int]:
    """In-place reduced row echelon form over GF(2^8).

    `matrix` is uint8 with shape (rows, ncols + rhs_width); columns past
    `ncols` are treated as the right-hand side.  Returns {pivot column:
    row index}.  Raises InconsistentSystemError when a row reduces to
    0 = nonzero.
    """
    nrows = matrix.shape[0]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        hits = np.nonzero(matrix[r:, c])[0]
        if len(hits) == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            matrix[[r, pr]] = matrix[[pr, r]]
        if matrix[r, c] != 1:
            matrix[r] = MUL[INV[matrix[r, c]], matrix[r]]
        col = matrix[:, c].copy()
        col[r] = 0
        upd = np.nonzero(col)[0]
        if len(upd):
            # columns left of c are already zero in the pivot row
            idx = (col[upd].astype(np.uint16) << 8)[:, None] | matrix[r, c:]
            matrix[upd, c:] ^= MUL.ravel()[idx]
        pivots[c] = r
        r += 1
        if r == nrows:
            break
    if matrix[r:, ncols:].any():
        raise InconsistentSystemError("contradictory equation")
    return pivots
