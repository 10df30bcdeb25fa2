import tracemalloc

import numpy as np
import pytest

from chiralwalk.linalg import (_KEYS, PARENT, matmul, mul_diag_block_left, mul_diag_block_right,
                               pattern, transpose)
from chiralwalk.tree import TruncatedTree
from chiralwalk.treeop import coin_values
from chiralwalk.walk import WalkSpec
from helpers import (dense_mul_diag_block_left, dense_mul_diag_block_right, densify,
                     random_walk_spec, reference_matmul, refine_walk, slot_neighbours, sphere_coeff,
                     witness_pattern)

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
    """The dense 2x2 block matrix whose blocks are diag(d[0, 0]), ..., diag(d[1, 1])."""
    return np.block([[np.diag(block) for block in row] for row in d])


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
    d = random_complex(rng, 2, 2, M)
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
    # the product of two coin-type operators is again one, entry by entry the
    # dense kernel's two-term sum
    rng = np.random.default_rng(11)
    n = 5
    d, e = random_complex(rng, 2, 2, n), random_complex(rng, 2, 2, n)
    combined = dense(mul_diag_block_left(d, e))
    assert np.array_equal(combined, dense_mul_diag_block_left(d, dense(e)))
    assert np.allclose(combined, dense(d) @ dense(e), atol=1e-13)


def test_pattern_is_its_index_arrays_formed_one_at_a_time():
    # the one (22, R) array of transpose rows and term indices, and the
    # terms' slots, against each index array formed on its own, on the row
    # tables of random codes under both interior rules at depths 2-14, of
    # balanced codes whose every vertex is its own row class, and of the
    # level-2000 comb
    rng = np.random.default_rng(12)
    code = ["0" * k + "1" for k in range(2000)] + ["0" * 2000]
    comb = WalkSpec.make(0.3, np.sqrt(0.91), [(prefix, sphere_coeff(0.1 * (k % 9) - 0.4))
                                              for k, prefix in enumerate(code)])
    walks = [(random_walk_spec(rng, max_level=int(rng.integers(1, 7))), depth)
             for depth in range(2, 15) for _ in range(3)] + [(comb, 6), (comb, 14)]
    walks += [(refine_walk(random_walk_spec(rng, max_level=1), depth - 2), depth)
              for depth in (6, 12)]
    for w, depth in walks:
        for rule in ("leftmost", "rightmost"):
            neighbour = coin_values(w, TruncatedTree(depth - 2), rule)[3]
            p, (transposed, terms) = pattern(neighbour), witness_pattern(neighbour)
            assert np.array_equal(p.transpose, transposed), (depth, rule)
            assert len(p.terms) == sum(map(len, terms))
            for keys, expected in zip(_KEYS, terms, strict=True):
                for (s, slots, k), (s_w, slots_w, index) in zip(keys, expected, strict=True):
                    assert (s, slots) == (s_w, sum(1 << u for u in slots_w))
                    assert np.array_equal(p.terms[k], index), (depth, rule)


def _masked_grid(rng, shape, kept):
    """A random complex grid, 0 outside the kept (block row, block column,
    slot) triples."""
    mask = np.zeros(shape[:3] + (1,), dtype=bool)
    for i, j, s in kept:
        mask[i, j, s] = True
    return np.where(mask, random_complex(rng, *shape), 0)


def test_matmul_skips_only_the_terms_of_zero_slots():
    # grids that are nonzero in some blocks and slots and 0 in others, one y
    # block with only its second child slot set: the bitmask skip keeps the
    # terms, and the sum order, of the entry-by-entry reference, bit for bit
    rng = np.random.default_rng(13)
    p = vertex_pattern(M)
    x = _masked_grid(rng, (2, 2, 5, M), [(0, 0, 0), (0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 1, 4)])
    y = _masked_grid(rng, (2, 2, 5, M), [(0, 0, 1), (1, 0, 4), (1, 1, 0), (1, 1, 2)])
    # x's sibling slot meets the CHILD1-only block through the sibling's own slot
    assert np.any(matmul(x[:1, 1:], y[1:, :1], p)[0, 0, PARENT])
    cases = [(x, y)]
    for _ in range(40):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x_kept = [k for k in np.ndindex(shape[0], shape[1], 5) if rng.random() < 0.3]
        y_kept = [k for k in np.ndindex(shape[1], shape[2], 5) if rng.random() < 0.3]
        cases.append((_masked_grid(rng, shape[:2] + (5, M), x_kept),
                      _masked_grid(rng, shape[1:] + (5, M), y_kept)))
    for x, y in cases:
        product = matmul(x, y, p)
        assert product.tobytes() == reference_matmul(x, y, p.neighbour).tobytes()


def test_coin_type_products_hold_half_a_grid():
    # on 2**16 rows, beside its output D @ x allocates half a grid (one block
    # row's second product) and x @ D also D at the neighbours: a multiply
    # broadcast over the whole grid would hold a grid more
    rows = 2 ** 16
    rng = np.random.default_rng(14)
    p = vertex_pattern(rows)
    x = random_complex(rng, 2, 2, 5, rows)
    d = random_complex(rng, 2, 2, rows)
    grid, slack = x.nbytes, 64 * 1024
    for product, allowed in ((lambda: mul_diag_block_left(d, x), grid + grid // 2),
                             (lambda: mul_diag_block_right(x, d, p), 2 * grid + grid // 2)):
        tracemalloc.start()
        try:
            product()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < allowed + slack, peak / grid
