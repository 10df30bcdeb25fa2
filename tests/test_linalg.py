import numpy as np
import pytest

from chiralwalk.linalg import (RankProfile, block2, diag_block_product,
                               matmul, mul_diag_block_left,
                               mul_diag_block_right, svd_rank_profile)


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


def test_rank_profile_zero_matrix():
    profile = svd_rank_profile(np.zeros((3, 3)), 1e-8)
    assert profile == RankProfile(3, 3, pytest.approx([0.0, 0.0, 0.0]))


def test_rank_profile_identity():
    profile = svd_rank_profile(np.eye(4), 1e-8)
    assert (profile.kernel_dim, profile.cokernel_dim) == (0, 0)
    assert profile.singular_values == pytest.approx([1.0] * 4)


def test_rank_profile_threshold():
    profile = svd_rank_profile(np.diag([1.0, 1e-12]), 1e-8)
    assert (profile.kernel_dim, profile.cokernel_dim) == (1, 1)
    assert profile.singular_values == pytest.approx([1.0, 1e-12])


def test_rank_profile_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        svd_rank_profile(bad, 1e-8)


def test_rank_profile_rejects_bad_tol():
    with pytest.raises(ValueError, match="positive"):
        svd_rank_profile(np.eye(2), 0.0)


def test_kernel_of_adjoint_is_cokernel():
    rng = np.random.default_rng(3)
    for rows, cols in [(5, 8), (8, 5), (6, 6)]:
        m = random_complex(rng, rows, cols)
        m[:, 0] = 0  # force rank defect
        p = svd_rank_profile(m, 1e-10)
        q = svd_rank_profile(m.conj().T, 1e-10)
        assert p.kernel_dim == q.cokernel_dim
        assert p.cokernel_dim == q.kernel_dim


def test_unitary_singular_values():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_complex(rng, 9, 9))
    s = svd_rank_profile(q, 1e-8).singular_values
    assert np.max(np.abs(s - 1.0)) < 1e-12


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


def test_block2_layout():
    m = block2(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), 2 * np.eye(2))
    assert m.shape == (4, 4)
    assert m[0, 0] == 1 and m[3, 3] == 2
