"""The block kernel for coin-type operators.

Matrices are plain 2-D ``numpy.ndarray`` values of dtype ``complex128`` in
row-major order.  Everything here is a pure function of its inputs and
deterministic for a fixed input.

A coin-type operator on H (+) H has the form [[D11, D12], [D21, D22]] with
every block a diagonal matrix, and it is represented only by its four
diagonal blocks, a tuple of 1-D arrays.  Multiplying a dense matrix by such
an operator only ever combines two scaled copies of each row or column, so
the products below are entrywise identical to a dense matmul (each output
entry is the same 2-term sum) at O(n^2) cost instead of O(n^3).
"""

from __future__ import annotations

import numpy as np


def mul_diag_block_left(d, x: np.ndarray) -> np.ndarray:
    """D @ x for D the 2x2 diagonal-block matrix with blocks d = (d11, d12, d21, d22)."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    n = x.shape[0] // 2
    if x.shape[0] != 2 * n:
        raise ValueError("row count must be even")
    top, bot = x[:n], x[n:]
    return np.vstack([d11[:, None] * top + d12[:, None] * bot,
                      d21[:, None] * top + d22[:, None] * bot])


def mul_diag_block_right(x: np.ndarray, d) -> np.ndarray:
    """x @ D for D the 2x2 diagonal-block matrix with blocks d = (d11, d12, d21, d22)."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    n = x.shape[1] // 2
    if x.shape[1] != 2 * n:
        raise ValueError("column count must be even")
    left, right = x[:, :n], x[:, n:]
    return np.hstack([left * d11 + right * d21, left * d12 + right * d22])


def diag_block_product(d, e):
    """Blocks of D @ E when both factors are 2x2 diagonal-block matrices."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    e11, e12, e21, e22 = (np.asarray(v) for v in e)
    return (d11 * e11 + d12 * e21, d11 * e12 + d12 * e22,
            d21 * e11 + d22 * e21, d21 * e12 + d22 * e22)
