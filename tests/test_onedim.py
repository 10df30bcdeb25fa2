import time

import numpy as np
import pytest

from chiralwalk import onedim
from chiralwalk.onedim import (InconclusiveIndexError, build_line,
                               chirality_map, fredholm_index)
from chiralwalk.walk import LineWalkSpec
from helpers import (InconclusiveTruncationError, dense_build_line, dense_chirality_map,
                     dense_fredholm_index, line_sites, site_coeffs, sphere_coeff)


def wall_spec(a_left, a_right, ramp=5):
    middle = []
    for n in range(-ramp, ramp + 1):
        t = (n + ramp) / (2 * ramp)
        a = a_left + t * (a_right - a_left)
        middle.append((n, sphere_coeff(a)))
    return LineWalkSpec.make(sphere_coeff(a_left), sphere_coeff(a_right), middle)


@pytest.fixture(scope="module")
def wall_bundle():
    # the dense witness: truncated operators on sites -150..150
    return dense_build_line(wall_spec(0.9, 0.3), 150)


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
    m = dense_chirality_map(b)
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
    m = dense_chirality_map(wall_bundle)
    s = np.linalg.svd(m, compute_uv=False)
    clean = s[s > 1e-6]
    tol = clean.min() / 50.0
    with pytest.raises(InconclusiveTruncationError, match="halfwidth"):
        dense_fredholm_index(wall_bundle, tol=tol)


def test_diagnostics_fields(wall_bundle):
    result = dense_fredholm_index(wall_bundle, tol=1e-8)
    assert result.index == 1
    assert result.kernel_kept == 1
    assert result.cokernel_kept == 0
    assert result.cokernel_discarded >= 1
    assert result.gap > 0.1
    doc = result.to_json()
    assert doc["index"] == 1 and "gap" in doc


# --- the transfer count against the dense witness ----------------------------

TAILS = (-0.95, -0.9, -0.78, -0.64, -0.5, -0.2, 0.0, 0.3, 0.5, 0.64, 0.78, 0.9, 0.95)


def random_wall(rng, far):
    """A wall between two tails drawn from TAILS over a ramp of 1-8 sites,
    with +-0.05 jitter in a.  The phase of b ramps linearly, or on a third of
    the walls jumps to a random value at every ramp site; 30% of the walls add
    an isolated site of random a and phase up to ``far`` sites out."""
    a_left, a_right = (float(x) for x in rng.choice(TAILS, size=2))
    phi_left, phi_right = rng.uniform(0.0, 2 * np.pi, size=2)
    ramp = int(rng.integers(1, 9))
    jumps = rng.random() < 1 / 3
    middle = []
    for n in range(-ramp, ramp + 1):
        t = (n + ramp) / (2 * ramp)
        a = a_left + t * (a_right - a_left) + rng.uniform(-0.05, 0.05)
        phase = rng.uniform(0.0, 2 * np.pi) if jumps else phi_left + t * (phi_right - phi_left)
        middle.append((n, sphere_coeff(float(np.clip(a, -0.97, 0.97)), phase)))
    if rng.random() < 0.3:
        n = int(rng.integers(ramp + 2, far + 1)) * int(rng.choice([-1, 1]))
        middle.append((n, sphere_coeff(rng.uniform(-0.95, 0.95), rng.uniform(0.0, 2 * np.pi))))
    return LineWalkSpec.make(sphere_coeff(a_left, phi_left),
                             sphere_coeff(a_right, phi_right), middle)


def test_closed_form_diagonals_are_the_dense_map():
    rng = np.random.default_rng(14)
    for _ in range(20):
        spec = random_wall(rng, 15)
        bundle = build_line(spec, 40)
        sub, diag, sup = chirality_map(bundle)
        dense = dense_chirality_map(dense_build_line(spec, 40))
        assert np.array_equal(dense, np.triu(np.tril(dense, 1), -1))
        sites = line_sites(spec)
        assert len(diag) == len(sites)
        window = dense[sites[:, None] + 40, sites[None, :] + 40]
        assert np.max(np.abs(np.diag(window) - diag)) < 2e-15
        assert np.max(np.abs(np.diag(window, 1) - sup)) < 2e-15
        assert np.max(np.abs(np.diag(window, -1) - sub)) < 2e-15


def dense_counts(spec, halfwidth):
    """(kernel, cokernel) of the witness at ``halfwidth``, or at twice it
    where a singular value of the truncation lies inside (tol, 100 tol)."""
    try:
        result = dense_fredholm_index(dense_build_line(spec, halfwidth), tol=1e-8)
    except InconclusiveTruncationError:
        result = dense_fredholm_index(dense_build_line(spec, 2 * halfwidth), tol=1e-8)
    return result.kernel_kept, result.cokernel_kept


def test_transfer_counts_match_the_dense_witness():
    # 160 walls at N = 120; on a slowly decaying tail (|a| = 0.64 or 0.78)
    # with an isolated site far out, the truncation can be inconclusive, and
    # the witness is taken at N = 240 instead
    rng = np.random.default_rng(401)
    counts = set()
    for _ in range(160):
        spec = random_wall(rng, 55)
        exact = fredholm_index(build_line(spec, 120), tol=1e-8)
        assert (exact.kernel_kept, exact.cokernel_kept) == dense_counts(spec, 120), spec
        counts.add((exact.kernel_kept, exact.cokernel_kept))
    assert counts == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)}


@pytest.mark.parametrize("tails,expected", [((0.9, 0.3), 1),
                                            ((0.3, 0.9), -1),
                                            ((0.9, 0.9), 0)])
def test_acceptance_walls_match_the_witness(tails, expected):
    exact = fredholm_index(build_line(wall_spec(*tails), 300), tol=1e-8)
    assert exact.index == expected
    for halfwidth in (300, 600):
        witness = dense_fredholm_index(dense_build_line(wall_spec(*tails), halfwidth), tol=1e-8)
        assert ((exact.kernel_kept, exact.cokernel_kept)
                == (witness.kernel_kept, witness.cokernel_kept))


def test_result_does_not_depend_on_the_halfwidth():
    spec = wall_spec(0.9, 0.3)
    results = {fredholm_index(build_line(spec, halfwidth)) for halfwidth in (12, 40, 100_000)}
    assert len(results) == 1
    assert len(build_line(spec, 100_000).a) == 2 * 5 + 1 + 2 * onedim.TAIL_SITES


def test_tail_margins_are_the_transfer_eigenvalue_distances():
    # in a constant tail the transfer eigenvalues have moduli
    # (sqrt 2 -+ 1) / |rho| with |rho| = sqrt((1 - a) / (1 + a))
    def margin(a):
        rho = np.sqrt((1 - a) / (1 + a))
        return min(abs(k / rho - 1) for k in (np.sqrt(2) - 1, np.sqrt(2) + 1))

    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_wall(rng, 20)
        result = fredholm_index(build_line(spec, 60))
        assert result.tail_margins == pytest.approx(
            (margin(spec.left.a), margin(spec.right.a)), abs=1e-12)


def test_sines_depend_only_on_the_tails():
    # the kernel equations only scale the carried line, so the middle never
    # moves it: a wall between two narrow tails never has a bound state
    rng = np.random.default_rng(8)
    reference = fredholm_index(build_line(wall_spec(0.3, -0.2), 40))
    assert reference.index == 0 and None not in reference.sines
    for _ in range(20):
        middle = [(n, sphere_coeff(rng.uniform(-0.95, 0.95), rng.uniform(0, 2 * np.pi)))
                  for n in range(-6, 7)]
        spec = LineWalkSpec.make(sphere_coeff(0.3), sphere_coeff(-0.2), middle)
        result = fredholm_index(build_line(spec, 40))
        assert (result.kernel_kept, result.cokernel_kept) == (0, 0)
        assert result.sines == pytest.approx(reference.sines, abs=1e-12)


def test_sine_band_is_inconclusive():
    # between two narrow tails both counts compare two lines, at sines near
    # 0.98; at tol = 0.02 they fall inside (tol, 100 tol)
    narrow = build_line(wall_spec(0.3, 0.0), 40)
    assert min(fredholm_index(narrow, tol=1e-8).sines) > 2.0 * 0.02
    with pytest.raises(InconclusiveIndexError, match="sine"):
        fredholm_index(narrow, tol=0.02)
    # where the dimensions decide, the tolerance plays no part
    wide = build_line(wall_spec(0.9, 0.3), 40)
    result = fredholm_index(wide, tol=0.02)
    assert result.sines == (None, None)
    assert result == fredholm_index(wide, tol=1e-8)


@pytest.mark.parametrize("middle, kernel", [(1.0, 1), (1.0 + 5e-10, None), (1.001, 0)])
def test_null_count_meets_the_ambiguous_band_on_hand_built_diagonals(middle, kernel):
    # walk-derived sines stay far from tol, so the band is reached by hand:
    # tails x_{i-1} + 2.5 x_i + x_{i+1} = 0 decay as (-2)^i to the left and
    # (-1/2)^i to the right, and the two lines meet where the middle entry is 1
    diag = np.full(12, 2.5 + 0j)
    diag[6] = middle
    sub = sup = np.ones(11, dtype=np.complex128)
    if kernel is None:   # sine 1.02e-7, inside (tol, AMBIGUOUS_FACTOR tol)
        with pytest.raises(InconclusiveIndexError, match=r"sine 1\.02e-07 .* inside"):
            onedim._null_count(sub, diag, sup, 1e-8)
        return
    count, sine, margins = onedim._null_count(sub, diag, sup, 1e-8)
    assert count == kernel and margins == pytest.approx((0.5, 0.5))
    assert sine < 1e-13 if kernel else sine == pytest.approx(0.159, abs=1e-3)


def test_tail_rule_disagreement_is_inconclusive(monkeypatch):
    monkeypatch.setattr(onedim, "classify_point", lambda a, p: 0)
    with pytest.raises(InconclusiveIndexError, match="tail windings"):
        fredholm_index(build_line(wall_spec(0.9, 0.3), 40))


def test_halfwidth_guard():
    spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3), [])
    with pytest.raises(ValueError, match="halfwidth >= 2"):
        build_line(spec, 1)


def test_build_line_on_16000_middle_sites_is_fast():
    rng = np.random.default_rng(16)
    middle = [(n, sphere_coeff(float(a))) for n, a in zip(range(-8000, 8000),
                                                          rng.uniform(-0.6, 0.6, 16000))]
    spec = LineWalkSpec.make(sphere_coeff(0.9), sphere_coeff(0.3), middle)
    start = time.perf_counter()
    bundle = build_line(spec, 16000)
    assert time.perf_counter() - start < 1.0
    sites = line_sites(spec)
    assert len(bundle.a) == len(sites)
    inside = (sites >= -8000) & (sites < 8000)
    assert bundle.a[inside].tolist() == [c.a for _, c in middle]
    assert set(bundle.a[sites < -8000]) == {spec.left.a}
    assert set(bundle.a[sites >= 8000]) == {spec.right.a}
    # a two-site wall spanning 1M sites: every site between is a tail value
    ends = [(-500_000, sphere_coeff(0.5, 1.0)), (499_999, sphere_coeff(-0.4, 2.0))]
    spec = LineWalkSpec.make(sphere_coeff(0.9, 0.5), sphere_coeff(0.3, 1.5), ends)
    start = time.perf_counter()
    bundle = build_line(spec, 1_000_000)
    assert time.perf_counter() - start < 0.2
    assert len(bundle.a) == len(bundle.b) == 1_000_000 + 2 * onedim.TAIL_SITES
    assert (bundle.a[0], bundle.b[-1]) == (spec.left.a, spec.right.b)
    assert (bundle.a[3], bundle.a[-4]) == (ends[0][1].a, ends[1][1].a)
    assert set(bundle.b[4:500_003]) == {spec.left.b}
    assert set(bundle.b[500_003:-4]) == {spec.right.b}


def test_build_line_is_the_per_site_lookup():
    # the sliced fill equals a scalar lookup of every site byte for byte,
    # with the empty middle, a middle at site 0 and one at +-halfwidth/2
    rng = np.random.default_rng(21)

    def coeff():
        return sphere_coeff(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(0, 2 * np.pi)))

    walls = [(10, []), (10, [0]), (10, [-5]), (10, [5]), (40, [-20, 20]), (3, [-1, 0, 1])]
    for _ in range(300):
        halfwidth = int(rng.integers(2, 200))
        reach = halfwidth // 2
        walls.append((halfwidth, rng.choice(np.arange(-reach, reach + 1),
                                            size=int(rng.integers(0, min(12, 2 * reach + 1))),
                                            replace=False).tolist()))
    for halfwidth, positions in walls:
        spec = LineWalkSpec.make(coeff(), coeff(), [(n, coeff()) for n in positions])
        bundle = build_line(spec, halfwidth)
        low, high = min(positions + [0]), max(positions + [0])
        sites = np.arange(low - onedim.TAIL_SITES, high + onedim.TAIL_SITES + 1)
        a, b = site_coeffs(spec, sites)
        for got, want in ((bundle.a, a), (bundle.b, b)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
