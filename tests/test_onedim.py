import numpy as np
import pytest

from chiralwalk.onedim import (InconclusiveTruncationError, build_line,
                               chirality_map, fredholm_index)
from chiralwalk.walk import LineWalkSpec
from helpers import sphere_coeff


def wall_spec(a_left, a_right, ramp=5):
    middle = []
    for n in range(-ramp, ramp + 1):
        t = (n + ramp) / (2 * ramp)
        a = a_left + t * (a_right - a_left)
        middle.append((n, sphere_coeff(a)))
    return LineWalkSpec.make(sphere_coeff(a_left), sphere_coeff(a_right), middle)


@pytest.fixture(scope="module")
def wall_bundle():
    return build_line(wall_spec(0.9, 0.3), 150)


def coin_and_projections(b):
    """Dense coin [[a, conj(b)], [b, -a]] over sites and its projections
    (1 + C)/2 and 1 - (1 + C)/2, from the bundle's per-site coin data."""
    coin = np.block([[np.diag(b.a.astype(complex)), np.diag(np.conj(b.b))],
                     [np.diag(b.b), np.diag(-b.a.astype(complex))]])
    eye2 = np.eye(2 * len(b.sites), dtype=np.complex128)
    pplus = (eye2 + coin) / 2.0
    return coin, pplus, eye2 - pplus


def test_identities_on_interior(wall_bundle):
    b = wall_bundle
    n = len(b.sites)
    inner = np.flatnonzero(np.abs(b.sites) <= b.halfwidth - 2)
    idx = np.concatenate([inner, n + inner])
    # the lattice symmetry (1/sqrt 2) [[1, L*], [L, -1]], L e_j = e_{j+1}
    shift, eye = np.eye(n, k=-1), np.eye(n)
    symmetry = np.block([[eye, shift.T], [shift, -eye]]) / np.sqrt(2.0)
    gamma_sq = symmetry[idx, :] @ symmetry[:, idx] - np.eye(len(idx))
    assert np.max(np.abs(gamma_sq)) < 1e-12
    coin, _, _ = coin_and_projections(b)
    coin_sq = coin[idx, :] @ coin[:, idx] - np.eye(len(idx))
    assert np.max(np.abs(coin_sq)) < 1e-12
    assert np.max(np.abs(b.skew + b.skew.conj().T)) == 0.0
    # the bundle's skew part is U - U* for U = (symmetry)(coin)
    evolution = symmetry @ coin
    assert np.max(np.abs(b.skew - (evolution - evolution.conj().T))) < 1e-12


def test_projections_complementary(wall_bundle):
    b = wall_bundle
    _, pplus, pminus = coin_and_projections(b)
    assert np.array_equal(pplus + pminus, np.eye(2 * len(b.sites)))
    assert np.max(np.abs(pplus @ pplus - pplus)) < 1e-12


def test_chirality_map_matches_projection_block(wall_bundle):
    # B- adjoint Q B+ must equal the compression (1-C)/2 Q (1+C)/2 expressed
    # back in the full space: P- Q P+ = B- M B+ adjoint
    b = wall_bundle
    n = len(b.sites)
    m = chirality_map(b)
    s_plus = np.sqrt(1 + b.a)
    s_minus = np.sqrt(1 - b.a)
    r = 1 / np.sqrt(2)
    bplus = np.vstack([np.diag(r * s_plus), np.diag(r * b.b / s_plus)])
    bminus = np.vstack([np.diag(-r * s_minus), np.diag(r * b.b / s_minus)])
    _, pplus, pminus = coin_and_projections(b)
    compression = pminus @ b.skew @ pplus
    assert np.max(np.abs(bminus @ m @ bplus.conj().T - compression)) < 1e-12


@pytest.mark.parametrize("tails,expected", [((0.9, 0.3), 1),
                                            ((0.3, 0.9), -1),
                                            ((0.9, 0.9), 0)])
def test_theorem_values(tails, expected):
    bundle = build_line(wall_spec(*tails), 150)
    assert fredholm_index(bundle, tol=1e-8).index == expected


def test_index_stable_under_doubling():
    for tails in [(0.9, 0.3), (0.3, 0.9), (0.9, 0.9)]:
        small = fredholm_index(build_line(wall_spec(*tails), 120), tol=1e-8).index
        large = fredholm_index(build_line(wall_spec(*tails), 240), tol=1e-8).index
        assert small == large


def test_reflection_negates_index():
    spec = wall_spec(0.9, 0.3)
    reflected = LineWalkSpec.make(spec.right, spec.left,
                                  [(-n, c) for n, c in spec.middle])
    plus = fredholm_index(build_line(spec, 150), tol=1e-8).index
    minus = fredholm_index(build_line(reflected, 150), tol=1e-8).index
    assert plus == -minus == 1


def test_index_invariant_under_middle_perturbation():
    rng = np.random.default_rng(61)
    for _ in range(20):
        middle = []
        for n in range(-4, 5):
            a = rng.uniform(-0.6, 0.6)
            middle.append((n, sphere_coeff(a, rng.uniform(0, 2 * np.pi))))
        spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3), middle)
        assert fredholm_index(build_line(spec, 100), tol=1e-8).index == 1


def test_middle_support_guard():
    spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3),
                             [(80, sphere_coeff(0.1))])
    with pytest.raises(ValueError, match="support"):
        build_line(spec, 100)


def test_tail_near_critical_rejected():
    close = 1 / np.sqrt(2) + 0.01
    spec = LineWalkSpec.make(sphere_coeff(close), sphere_coeff(0.3), [])
    bundle = build_line(spec, 60)
    with pytest.raises(ValueError, match="Fredholm"):
        fredholm_index(bundle)


def test_ambiguous_singular_values_rejected(wall_bundle):
    # pick a tolerance that lands a genuine singular value inside (tol, 100 tol)
    m = chirality_map(wall_bundle)
    s = np.linalg.svd(m, compute_uv=False)
    clean = s[s > 1e-6]
    tol = clean.min() / 50.0
    with pytest.raises(InconclusiveTruncationError, match="halfwidth"):
        fredholm_index(wall_bundle, tol=tol)


def test_diagnostics_fields(wall_bundle):
    result = fredholm_index(wall_bundle, tol=1e-8)
    assert result.index == 1
    assert result.kernel_kept == 1
    assert result.cokernel_kept == 0
    assert result.cokernel_discarded >= 1
    assert result.gap > 0.1
    doc = result.to_json()
    assert doc["index"] == 1 and "gap" in doc
