import numpy as np

from chiralwalk.linalg import diag_block_product, mul_diag_block_left, mul_diag_block_right


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def dense(d):
    """The dense 2x2 block matrix whose blocks are diag(d11), ..., diag(d22)."""
    d11, d12, d21, d22 = d
    return np.block([[np.diag(d11), np.diag(d12)], [np.diag(d21), np.diag(d22)]])


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

