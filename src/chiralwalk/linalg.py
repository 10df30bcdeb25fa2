"""The slot kernel: tree operators on one fixed neighbour pattern.

In breadth-first order every interior block of the tree operators lives on
one pattern: vertex v with itself, its parent (v - 1) // 2, its sibling and
its children 2v + 1 and 2v + 2.  A block holds one row per class of interior
vertices whose rows are copies of each other (each vertex may be its own
class).  On R classes it is one (5, R) complex array whose slot s holds the
entry of the class's first vertex v in column N_s(v), and exactly 0 where
that neighbour is missing or outside the block's columns (an m x n strip
reaches past the interior only through the child slots).  The pattern is
built from a (5, R) table naming the class of each N_s(v); it knows nothing
else of the classes.  A block held by columns is its transpose held by rows;
an operator is a grid of blocks, an (I, J, 5, R) array, and a coin-type
operator, diagonal in each of its 2 x 2 blocks, the (2, 2, R) array of those
diagonals.  Products and transposes are gathers on one (22, R) index array
plus elementwise numpy on whole slot rows or block rows, so each kept entry
is formed from the same operands as in the whole block.

Sum order, which the pinned residual digits fix: each entry is its terms in
column order summed as ``np.add.reduceat`` sums a run, t0 + ((t1 + t2) + t3).
No entry of the check has more than three terms nor more than one in its
first block, so :func:`matmul` forms that t0 + (t1 + t2), zeros included.
Complex products are formed on arrays, never on complex scalars (447 of 1000
scalar products differ from numpy's array loop, which agrees with itself at
every length and under broadcasting), by ``np.multiply`` in a fixed operand
order: the product is not bitwise commutative, and numpy evaluates
``x * tmp`` with a temporary of 256 KiB or more in place as ``tmp * x``.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

SELF, PARENT, SIBLING, CHILD0, CHILD1 = range(5)
_CHILD, _OTHER = -1, -2  # v's own slot below its parent, and its sibling's
_TRANSPOSE = (SELF, _CHILD, SIBLING, PARENT, PARENT)  # slot s of x.T is x's slot of N_s(v)
# per output slot t, the pairs (slot s of x's row v, slot u of y's column w)
# whose path v -> N_s(v) = N_u(w) ends at w = N_t(v), in column order
_TERMS = (
    ((PARENT, PARENT), (SELF, SELF), (SIBLING, SIBLING), (CHILD0, CHILD0), (CHILD1, CHILD1)),
    ((PARENT, SELF), (SELF, _CHILD), (SIBLING, _OTHER)),
    ((PARENT, PARENT), (SELF, SIBLING), (SIBLING, SELF)),
    ((SELF, PARENT), (CHILD0, SELF), (CHILD1, SIBLING)),
    ((SELF, PARENT), (CHILD1, SELF), (CHILD0, SIBLING)),
)
# a pattern's 22 index rows, slot u of N_t(v): x.T's 5 slots, then the 17 terms;
# slot u is base + sign * o, for o a row's own slot below its parent
_U, _AT = np.array([(u, t) for t, u in enumerate(_TRANSPOSE)]
                   + [(u, t) for t, pairs in enumerate(_TERMS) for _, u in pairs]).T
_BASE, _SIGN = np.array([{_CHILD: (0, 1), _OTHER: (CHILD0 + CHILD1, -1)}.get(u, (u, 0))
                         for u in _U]).T[..., None]
# per output slot, its terms: (x slot, bitmask of y slots, row of Pattern.terms)
_KEYS = tuple(tuple((s, 1 << u if u >= 0 else 1 << CHILD0 | 1 << CHILD1, k)
                    for k, (s, u) in enumerate(pairs, sum(map(len, _TERMS[:t]))))
              for t, pairs in enumerate(_TERMS))
_BITS = 1 << np.arange(5)   # a block's nonzero slots as one bitmask


class Pattern(NamedTuple):
    """The index arrays on R rows; index s * (R + 1) + w reads slot s, row w
    of a block of R rows padded with a 0 row."""

    neighbour: np.ndarray   # (5, R): the row of N_s(v), or R where it is missing or outside
    transpose: np.ndarray   # (5, R): the index of x.T's slot s of row v in padded x
    terms: np.ndarray       # (17, R): the index into padded y of each term of _KEYS


def pattern(neighbour: np.ndarray) -> Pattern:
    """The pattern on the rows that the (5, R) table ``neighbour`` links: the
    row of each row's self, parent, sibling and two children, R where there is
    none.  A row sits in its parent's first child slot or else in its second;
    a row whose vertices fill both child slots of one parent row (the runs of
    a class) takes the first, as its first vertex does."""
    rows = neighbour.shape[1]
    below = np.append(neighbour[CHILD0], rows)[neighbour[PARENT]]
    own = np.where(below == np.arange(rows), CHILD0, CHILD1)
    index = neighbour[_AT] + (rows + 1) * (_BASE + _SIGN * own)
    return Pattern(neighbour, index[:len(_TRANSPOSE)], index[len(_TRANSPOSE):])


def _pad(x: np.ndarray) -> np.ndarray:
    return np.concatenate((x, np.zeros(x.shape[:-1] + (1,), dtype=x.dtype)), axis=-1)


def at_neighbours(f: np.ndarray, p: Pattern) -> np.ndarray:
    """A function of the rows at each slot's neighbour, 0 where there is none."""
    return np.take(_pad(f), p.neighbour, axis=-1)


def transpose(x: np.ndarray, p: Pattern) -> np.ndarray:
    """x.T held as x is; columns outside the interior drop."""
    flat = _pad(x.swapaxes(0, 1))
    return np.take(flat.reshape(flat.shape[:2] + (-1,)), p.transpose, axis=-1)


def matmul(x: np.ndarray, y: np.ndarray, p: Pattern) -> np.ndarray:
    """x @ y held by rows, for grids x (R x K) held by rows and y (K x C)
    held by columns: each block product's terms summed in column order, then
    the K block products in order; a slot that is 0 throughout its block is
    skipped.  Only terms on the pattern are formed (gamma gamma* and E L have no other)."""
    xs, ys = (x.any(axis=-1) @ _BITS).tolist(), (y.any(axis=-1) @ _BITS).T.tolist()
    flat, index = _pad(y).reshape(y.shape[:2] + (-1,)), list(p.terms)
    out = np.zeros((x.shape[0], y.shape[1]) + x.shape[2:], dtype=np.complex128)
    for i, j in product(range(x.shape[0]), range(y.shape[1])):
        entries = list(out[i, j])
        for held, row, kept_x, kept_y in zip(x[i], flat[:, j], xs[i], ys[j]):
            for entry, keys in zip(entries, _KEYS):
                total = None
                for s, slots, k in keys:
                    if kept_x >> s & 1 and kept_y & slots:
                        term = np.multiply(held[s], row.take(index[k]))
                        total = term if total is None else total + term
                if total is not None:
                    entry += total
    return out


def mul_diag_block_left(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """D @ x for a coin-type operator D and a 2 x 2 grid x, or another such
    D: each slot of row v scaled by the diagonals at v."""
    out = np.empty(x.shape, dtype=np.complex128)
    for i in range(2):
        np.multiply(d[i, 0], x[0], out=out[i])
        out[i] += np.multiply(d[i, 1], x[1])
    return out


def mul_diag_block_right(x: np.ndarray, d: np.ndarray, p: Pattern) -> np.ndarray:
    """x @ D for a 2 x 2 grid x and a coin-type operator D: each slot scaled
    by the diagonals at its column.  Both products hold half a grid beside
    their output (and D at the neighbours): a multiply broadcast over the grid
    holds a grid more, and is faster on 40 rows but 1.2-3.6 times slower on 2047."""
    d, out = at_neighbours(d, p), np.empty(x.shape, dtype=np.complex128)
    for i in range(2):
        np.multiply(x[i, 0], d[0], out=out[i])
        out[i] += np.multiply(x[i, 1], d[1])
    return out
