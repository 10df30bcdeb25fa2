import numpy as np
import pytest

from chiralwalk.linalg import (diag_block_product, matmul, mul_diag_block_left,
                               mul_diag_block_right)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense(d):
    """The dense 2x2 block matrix whose blocks are diag(d11), ..., diag(d22)."""
    d11, d12, d21, d22 = d
    return np.block([[np.diag(d11), np.diag(d12)], [np.diag(d21), np.diag(d22)]])


def test_matmul_identity():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.array_equal(matmul(np.eye(3), m), m)


def test_matmul_annihilator():
    m = np.arange(6, dtype=complex).reshape(2, 3)
    assert np.array_equal(matmul(m, np.zeros((3, 2))), np.zeros((2, 2)))


def test_matmul_shift_coshift():
    shift = np.array([[0, 1], [0, 0]], dtype=complex)
    coshift = np.array([[0, 0], [1, 0]], dtype=complex)
    assert np.array_equal(matmul(shift, coshift), np.diag([1.0, 0.0]).astype(complex))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        matmul(np.eye(3), np.eye(4))


def test_matmul_associativity_random_triples():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = random_complex(rng, 7, 5)
        b = random_complex(rng, 5, 6)
        c = random_complex(rng, 6, 4)
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.linalg.norm(left - right) <= 1e-12 * max(np.linalg.norm(left), 1.0)


def test_diag_block_multiplication_matches_dense():
    rng = np.random.default_rng(9)
    n = 6
    d = tuple(random_complex(rng, n) for _ in range(4))
    dense_d = dense(d)
    x = random_complex(rng, 2 * n, 2 * n)
    assert np.allclose(mul_diag_block_left(d, x), dense_d @ x, atol=1e-13)
    assert np.allclose(mul_diag_block_right(x, d), x @ dense_d, atol=1e-13)


def test_diag_block_product_matches_dense():
    rng = np.random.default_rng(11)
    n = 5
    d = tuple(random_complex(rng, n) for _ in range(4))
    e = tuple(random_complex(rng, n) for _ in range(4))
    combined = dense(diag_block_product(d, e))
    assert np.allclose(combined, dense(d) @ dense(e), atol=1e-13)

