import numpy as np
import pytest

from chiralwalk.linalg import (diag_block_product, matmul, mul_diag_block_left,
                               mul_diag_block_right, pattern, transpose)
from helpers import (dense_mul_diag_block_left, dense_mul_diag_block_right, densify,
                     slot_neighbours)

M = 15  # the interior at depth 5


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_slots(rng, blocks, slots=range(5), real=False):
    """A grid of random interior blocks on the given slots, 0 on the others
    and wherever the neighbour lies outside the interior."""
    values = rng.standard_normal(blocks + (5, M)) if real else random_complex(rng, *blocks, 5, M)
    keep = np.zeros((5, 1), dtype=bool)
    keep[list(slots)] = True
    column = slot_neighbours(M)
    return np.where(keep & (column >= 0) & (column < M), values, 0).astype(np.complex128)


def by_columns(y):
    """The dense matrix of a grid of blocks held by columns."""
    return densify(y.swapaxes(0, 1)).T


def dense(d):
    """The dense 2x2 block matrix whose blocks are diag(d11), ..., diag(d22)."""
    d11, d12, d21, d22 = d
    return np.block([[np.diag(d11), np.diag(d12)], [np.diag(d21), np.diag(d22)]])


def vertex_pattern(m):
    """The pattern on m interior vertices, each its own row, from the
    neighbours of their addresses."""
    table = slot_neighbours(m)
    table[(table < 0) | (table >= m)] = m
    return pattern(table)


@pytest.mark.parametrize("m", [0, 1, 3, 7, 63])
def test_pattern_names_the_neighbours_of_the_addresses(m):
    # each slot of x.T reads, in the row of the addressed neighbour, the slot
    # that names the row back: the pattern finds a row's own slot below its
    # parent from the table alone
    p, column = vertex_pattern(m), slot_neighbours(m)
    for t, v in np.ndindex(5, m):
        slot, row = divmod(int(p.transpose[t, v]), m + 1)
        if 0 <= column[t, v] < m:
            assert row == column[t, v] and column[slot, row] == v, (t, v)
        else:
            assert row == m, (t, v)   # the padded 0 row


def test_transpose_is_the_dense_transpose():
    rng = np.random.default_rng(8)
    x = random_slots(rng, (2, 2))
    assert np.array_equal(densify(transpose(x, vertex_pattern(M))), densify(x).T)


def test_diag_block_multiplication_matches_dense():
    # each output entry is the same two-term sum as the dense kernel's
    rng = np.random.default_rng(9)
    d = tuple(random_complex(rng, M) for _ in range(4))
    x = random_slots(rng, (2, 2))
    left, right = mul_diag_block_left(d, x), mul_diag_block_right(x, d, vertex_pattern(M))
    assert np.array_equal(densify(left), dense_mul_diag_block_left(d, densify(x)))
    assert np.array_equal(densify(right), dense_mul_diag_block_right(densify(x), d))
    assert np.allclose(densify(left), dense(d) @ densify(x), atol=1e-13)
    assert np.allclose(densify(right), densify(x) @ dense(d), atol=1e-13)


def test_matmul_sums_each_block_then_the_blocks():
    # a Gram-shaped product, x held by rows and y by columns on the slots of
    # the strip's blocks: each entry sums its terms block by block in column
    # order, and the block sums in order.  Real values, because numpy's
    # array loop may round a complex product apart from its scalar one
    rng = np.random.default_rng(10)
    x = np.concatenate([np.concatenate([random_slots(rng, (1, 1), s, real=True) for s in row],
                                       axis=1)
                        for row in (((0,), (3, 4)), ((1,), (0, 2)))])
    y = np.conj(x.swapaxes(0, 1))
    product = densify(matmul(x, y, vertex_pattern(M)))
    a, b = densify(x), by_columns(y)
    expected = np.zeros_like(product)
    for i in range(2 * M):
        for j in range(2 * M):
            halves = [[a[i, k] * b[k, j] for k in range(h * M, (h + 1) * M)
                       if a[i, k] != 0 and b[k, j] != 0] for h in (0, 1)]
            sums = [sum(terms[1:], terms[0]) for terms in halves if terms]
            expected[i, j] = sum(sums[1:], sums[0]) if sums else 0.0
    assert np.array_equal(product, expected)
    assert np.allclose(product, a @ b, atol=1e-13)
    # and a product on every slot of the pattern: E L's shape
    e, ell = random_slots(rng, (1, 1), (0, 2)), random_slots(rng, (1, 1), (3, 4))
    assert np.allclose(densify(matmul(e, ell, vertex_pattern(M))), densify(e) @ by_columns(ell),
                       atol=1e-13)


def test_diag_block_product_matches_dense():
    rng = np.random.default_rng(11)
    n = 5
    d = tuple(random_complex(rng, n) for _ in range(4))
    e = tuple(random_complex(rng, n) for _ in range(4))
    combined = dense(diag_block_product(d, e))
    assert np.allclose(combined, dense(d) @ dense(e), atol=1e-13)
