import numpy as np

from chiralwalk.linalg import (adjoint, block, diag_block_product, matmul, mul_diag_block_left,
                               mul_diag_block_right, triples)
from helpers import dense_mul_diag_block_left, dense_mul_diag_block_right, densify


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_sparse(rng, rows, cols, density=0.3, real=False):
    """A random matrix with about ``density`` of its entries nonzero, and its triples."""
    values = rng.standard_normal((rows, cols)) if real else random_complex(rng, rows, cols)
    x = (values * (rng.random((rows, cols)) < density)).astype(np.complex128)
    i, j = np.nonzero(x)
    return x, triples([i], [j], [x[i, j]], x.shape)


def dense(d):
    """The dense 2x2 block matrix whose blocks are diag(d11), ..., diag(d22)."""
    d11, d12, d21, d22 = d
    return np.block([[np.diag(d11), np.diag(d12)], [np.diag(d21), np.diag(d22)]])


def test_triples_sum_duplicates_in_order_and_drop_zeros():
    # entries at one position sum as x0 + (x1 + x2) in the order given, and
    # a sum of exactly 0 is not stored
    big, tiny = 1.0, 2.0 ** -60
    x = triples([[1, 0, 1], [1, 0]], [[2, 1, 2], [2, 0]], [[big, 3.0, -big], [tiny, 0.0]], (2, 3))
    assert x.row.tolist() == [0] and x.col.tolist() == [1]
    assert x.val.tolist() == [3.0] and x.shape == (2, 3)
    y = triples([[1, 1, 1]], [[2, 2, 2]], [[tiny, big, -big]], (2, 3))
    assert y.val.tolist() == [tiny]


def test_diag_block_multiplication_matches_dense():
    # each output entry is the same two-term sum as the dense kernel's
    rng = np.random.default_rng(9)
    n = 6
    d = tuple(random_complex(rng, n) for _ in range(4))
    dense_d = dense(d)
    x, t = random_sparse(rng, 2 * n, 2 * n)
    assert np.array_equal(densify(mul_diag_block_left(d, t)), dense_mul_diag_block_left(d, x))
    assert np.array_equal(densify(mul_diag_block_right(t, d)), dense_mul_diag_block_right(x, d))
    assert np.allclose(densify(mul_diag_block_left(d, t)), dense_d @ x, atol=1e-13)
    assert np.allclose(densify(mul_diag_block_right(t, d)), x @ dense_d, atol=1e-13)


def test_matmul_sums_in_inner_index_order():
    # the products of one output entry in k order, the first added to the
    # left-to-right sum of the others; at most four of them here.  Real
    # values, because numpy's vector loop may round a complex product apart
    # from its scalar one
    rng = np.random.default_rng(10)
    a, ta = random_sparse(rng, 7, 4, 0.6, real=True)
    b, tb = random_sparse(rng, 4, 5, 0.6, real=True)
    expected = np.zeros((7, 5), dtype=np.complex128)
    for i in range(7):
        for j in range(5):
            terms = [a[i, k] * b[k, j] for k in range(4) if a[i, k] != 0 and b[k, j] != 0]
            if terms:
                rest = terms[1:]
                expected[i, j] = terms[0] + (sum(rest[1:], rest[0]) if rest else 0.0)
    product = matmul(ta, tb)
    assert product.shape == (7, 5)
    assert np.array_equal(densify(product), expected)
    a, ta = random_sparse(rng, 7, 9, 0.5)
    b, tb = random_sparse(rng, 9, 5, 0.5)
    assert np.allclose(densify(matmul(ta, tb)), a @ b, atol=1e-13)
    assert np.array_equal(densify(adjoint(ta)), a.conj().T)
    assert np.array_equal(densify(block(ta, range(2, 6), range(1, 4))), a[2:6, 1:4])


def test_diag_block_product_matches_dense():
    rng = np.random.default_rng(11)
    n = 5
    d = tuple(random_complex(rng, n) for _ in range(4))
    e = tuple(random_complex(rng, n) for _ in range(4))
    combined = dense(diag_block_product(d, e))
    assert np.allclose(combined, dense(d) @ dense(e), atol=1e-13)
