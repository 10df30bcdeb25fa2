"""The triple kernel: operators as the rows, columns and values of their nonzeros.

Every function returns canonical :class:`Triples` (sorted by row, then column,
each position once, no value exactly 0) and forms each entry from the terms a
dense product sums, by numpy index arithmetic: cost linear in the nonzeros, no
BLAS call, no dense array.  A coin-type operator [[D11, D12], [D21, D22]] on
H (+) H, each block diagonal, is the tuple of its four diagonals.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Triples(NamedTuple):
    """A ``shape`` matrix whose entry (row[k], col[k]) is val[k], all others 0.
    ``nbytes`` and ``dtype`` read as an array's do, for memory accounting."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]

    nbytes = property(lambda self: self.row.nbytes + self.col.nbytes + self.val.nbytes)
    dtype = property(lambda self: self.val.dtype)


def triples(rows, cols, vals, shape) -> Triples:
    """The canonical triples of the entries whose rows, columns and values are
    the lists of arrays ``rows``, ``cols`` and ``vals``, each concatenated in
    order.  After a stable sort on row * ncols + col, ``np.add.reduceat`` sums
    each position's run as its first entry plus the left-to-right sum of the
    rest (numpy sums runs of over four pairwise); sums of exactly 0 are dropped."""
    key = np.concatenate(rows, dtype=np.int64) * shape[1] + np.concatenate(cols)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))  # run starts
    total = np.add.reduceat(np.concatenate(vals, dtype=np.complex128)[order], first)
    keep = total != 0
    row, col = np.divmod(key[first[keep]], shape[1])
    return Triples(row, col, total[keep], tuple(shape))


def adjoint(x: Triples) -> Triples:
    return triples([x.col], [x.row], [np.conj(x.val)], x.shape[::-1])


def add(x: Triples, y: Triples) -> Triples:
    """x + y, each entry x_ij + y_ij (x - y is x + y with y's values negated)."""
    return triples([x.row, y.row], [x.col, y.col], [x.val, y.val], x.shape)


def block(x: Triples, rows: range, cols: range) -> Triples:
    """The block of x on the rows and columns of two unit-step ranges."""
    keep = ((x.row >= rows.start) & (x.row < rows.stop)
            & (x.col >= cols.start) & (x.col < cols.stop))
    return Triples(x.row[keep] - rows.start, x.col[keep] - cols.start, x.val[keep],
                   (len(rows), len(cols)))


def matmul(a: Triples, b: Triples) -> Triples:
    """a @ b: each entry of ``a`` in column k times each entry of ``b`` in row
    k, the products of one output entry summed in k order."""
    count = np.bincount(b.row, minlength=b.shape[0])
    per = count[a.col]
    left = np.repeat(np.arange(len(a.val)), per)
    right = np.repeat(np.cumsum(count)[a.col] - count[a.col] - np.cumsum(per) + per, per)
    right += np.arange(len(right))
    return triples([a.row[left]], [b.col[right]], [a.val[left] * b.val[right]],
                   (a.shape[0], b.shape[1]))


def mul_diag_block_left(d, x: Triples) -> Triples:
    """D @ x for D = [[d11, d12], [d21, d22]] of diagonal blocks: row i of half h
    (0 top, 1 bottom) goes to rows i and m + i, scaled by d[h] and d[2 + h]."""
    d = np.asarray(d)
    half, i = np.divmod(x.row, len(d[0]))
    return triples([i, i + len(d[0])], [x.col, x.col],
                   [d[half, i] * x.val, d[2 + half, i] * x.val], x.shape)


def mul_diag_block_right(x: Triples, d) -> Triples:
    """x @ D for D = [[d11, d12], [d21, d22]] of diagonal blocks: column j of half
    h (0 left, 1 right) goes to columns j and m + j, scaled by d[2h] and d[2h + 1]."""
    d = np.asarray(d)
    half, j = np.divmod(x.col, len(d[0]))
    return triples([x.row, x.row], [j, j + len(d[0])],
                   [x.val * d[2 * half, j], x.val * d[2 * half + 1, j]], x.shape)


def diag_block_product(d, e):
    """Blocks of D @ E when both factors are 2x2 diagonal-block matrices."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    e11, e12, e21, e22 = (np.asarray(v) for v in e)
    return (d11 * e11 + d12 * e21, d11 * e12 + d12 * e22,
            d21 * e11 + d22 * e21, d21 * e12 + d22 * e22)
