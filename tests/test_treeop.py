import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import chiralwalk.treeop as treeop
from chiralwalk import cli
from chiralwalk.cli import CHECK_CELL_BYTES, CHECK_ROW_BYTES
from chiralwalk.linalg import matmul
from chiralwalk.tree import TruncatedTree, truncated_tree
from chiralwalk.treeop import (IDENTITY_NAMES, build_bundle, check_identities,
                               chirality_direct, coin_blocks, conjugated_skew,
                               coin_values, conjugator_blocks, route_disagreement,
                               row_count, shift_symmetry, tree_operators)
from chiralwalk.walk import WalkSpec, parse_walk
from helpers import (addresses, assert_slots_exact, class_firsts, dense_chirality_direct,
                     dense_conjugated_skew, dense_skew, dense_symmetry, dense_tree_operators,
                     densify, expand_rows, random_walk_spec, refine_walk, scan_eval_vertex,
                     shift_matrix, slot_neighbours, sphere_coeff, vertex_coins,
                     vertex_operators)

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "level2_walk.json"


@pytest.fixture(scope="module")
def ops6():
    return tree_operators(truncated_tree(6))


@pytest.fixture(scope="module")
def rows6():
    return vertex_operators(6)


@pytest.fixture(scope="module")
def dense6():
    return dense_tree_operators(truncated_tree(6))


def dense(d):
    """The dense 2x2 block matrix whose blocks are diag(d[0, 0]), ..., diag(d[1, 1])."""
    return np.block([[np.diag(block) for block in row] for row in d])


def chirality(w, dense_ops, rule="leftmost"):
    """The walk's chirality block on the whole truncation, by the direct
    route on the dense tree operators."""
    a, b = vertex_coins(w, dense_ops.tree, rule)
    return dense_chirality_direct(w.p, w.q, a, b, dense_ops.isometry, dense_ops.defect)


def basis_vector(t, v):
    e = np.zeros(t.size, dtype=complex)
    e[addresses(t.depth).index(v)] = 1.0
    return e


# --- shift family ---------------------------------------------------------------

def test_shift_maps_root_to_children():
    t = truncated_tree(1)
    s = shift_matrix(t)
    expected = basis_vector(t, "0") + basis_vector(t, "1")
    assert np.array_equal(s @ basis_vector(t, ""), expected)


def test_adjoint_shift_kills_root():
    t = truncated_tree(3)
    s = shift_matrix(t)
    assert np.linalg.norm(s.conj().T @ basis_vector(t, "")) == 0.0


def test_shift_gram_is_two_above_leaves():
    t = truncated_tree(4)
    s = shift_matrix(t)
    gram = s.conj().T @ s
    inner = (1 << t.depth) - 1  # all vertices of depth <= d-1
    assert np.allclose(gram[:inner, :inner], 2.0 * np.eye(inner), atol=1e-14)


def test_isometry_and_defect_structure(dense6):
    t, isometry, defect = dense6.tree, dense6.isometry, dense6.defect
    inner = (1 << t.depth) - 1
    gram = isometry.conj().T @ isometry
    assert np.allclose(gram[:inner, :inner], np.eye(inner), atol=1e-14)
    # defect fixes the root
    assert np.allclose(defect @ basis_vector(t, ""), basis_vector(t, ""), atol=1e-14)
    # and maps e_v to (e_v - e_sibling)/2
    expected = 0.5 * (basis_vector(t, "0") - basis_vector(t, "1"))
    assert np.allclose(defect @ basis_vector(t, "0"), expected, atol=1e-14)
    # idempotent projection
    assert np.max(np.abs(defect @ defect - defect)) < 1e-14
    # annihilates the isometry everywhere on the truncation
    assert np.max(np.abs(defect @ isometry)) < 1e-14


@pytest.mark.parametrize("depth", range(1, 11))
def test_defect_closed_form_is_the_dense_product(depth):
    # the closed form reproduces 1 - L L* bit for bit, signed zeros included,
    # and the depth's two rows laid over the interior vertices hold L's
    # interior columns (by columns: the rows of L.T) and E's interior rows
    t = truncated_tree(depth)
    isometry = shift_matrix(t) / math.sqrt(2.0)
    dense_defect = np.eye(t.size, dtype=np.complex128) - isometry @ isometry.conj().T
    dense = dense_tree_operators(t)
    assert dense.defect.tobytes() == dense_defect.tobytes()
    assert dense.isometry.tobytes() == isometry.tobytes()
    assert tree_operators(t).isometry.shape == tree_operators(t).defect.shape == (1, 1, 5, 2)
    m = (1 << (depth - 1)) - 1
    if m:   # depth 1 has no interior
        ops = vertex_operators(depth)
        assert ops.isometry.shape == ops.defect.shape == (1, 1, 5, m)
        assert_slots_exact(ops.isometry, isometry[:, :m].T, cols=t.size)
        assert_slots_exact(ops.defect, dense_defect[:m], cols=t.size)


def test_tree_operators_real_entries(ops6, dense6):
    for m in (shift_matrix(ops6.tree), ops6.isometry, ops6.defect,
              dense6.isometry, dense6.defect):
        assert np.max(np.abs(m.imag)) == 0.0


# --- symmetry ---------------------------------------------------------------------

def test_symmetry_specializes_at_p_zero(rows6, dense6):
    n = rows6.tree.size
    m = (1 << 5) - 1
    gamma = densify(shift_symmetry(rows6, 0.0, 1.0), cols=n)
    assert np.array_equal(gamma[:m, :n], np.zeros((m, n)))
    assert np.array_equal(gamma[:m, n:], dense6.isometry.conj().T[:m])
    assert np.array_equal(gamma[m:, :n], dense6.isometry[:m])
    assert np.array_equal(gamma[m:, n:], dense6.defect[:m])


def test_symmetry_squares_to_identity_on_interior(rows6, dense6):
    rng = np.random.default_rng(12)
    n = rows6.tree.size
    m = (1 << 5) - 1
    for _ in range(5):
        angle = rng.uniform(0, np.pi)
        p = float(np.cos(angle))
        q = np.sqrt(1 - p * p) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        gamma = densify(shift_symmetry(rows6, p, q), cols=n)
        residual = gamma @ gamma.conj().T - np.eye(2 * m)
        assert np.max(np.abs(residual)) < 1e-12, p
    block = gamma[:, np.r_[:m, n:n + m]]
    assert np.max(np.abs(block - block.conj().T)) < 1e-14  # self-adjoint
    full = dense_symmetry(dense6.isometry, dense6.defect, p, q)
    assert np.max(np.abs(full - full.conj().T)) < 1e-14


def test_symmetry_rejects_off_sphere(ops6):
    with pytest.raises(ValueError, match="sphere"):
        shift_symmetry(ops6, 0.5, 1.0)


def test_symmetry_degenerate_corner():
    # (p, q) = (1, 0): the shift blocks vanish and the lower-right block is
    # the involution form 2E - 1 of the defect projection, so the square of
    # the full involution is the identity on the whole truncation, not only
    # the interior
    dense = dense_tree_operators(truncated_tree(4))
    n = dense.tree.size
    gamma = dense_symmetry(dense.isometry, dense.defect, 1.0, 0.0)
    assert np.allclose(gamma[:n, :n], np.eye(n), atol=1e-14)
    assert np.max(np.abs(gamma[:n, n:])) == 0.0
    assert np.max(np.abs(gamma[n:, :n])) == 0.0
    assert np.allclose(gamma[n:, n:], 2.0 * dense.defect - np.eye(n), atol=1e-14)
    assert np.max(np.abs(gamma @ gamma - np.eye(2 * n))) < 1e-14
    strip = densify(shift_symmetry(vertex_operators(4), 1.0, 0.0), cols=n)
    m = len(strip) // 2
    assert np.array_equal(strip, gamma[np.r_[:m, n:n + m]])


# --- coin and conjugator ------------------------------------------------------------

def test_constant_swap_coin(ops6):
    t = ops6.tree
    w = WalkSpec.make(0.0, 1.0, [("", sphere_coeff(0.0))])  # (a, b) = (0, 1)
    a, b = vertex_coins(w, t)
    c = dense(coin_blocks(a, b))
    n = t.size
    eye = np.eye(n)
    assert np.allclose(c[:n, n:], eye) and np.allclose(c[n:, :n], eye)
    assert np.allclose(c[:n, :n], 0) and np.allclose(c[n:, n:], 0)
    eps = dense(conjugator_blocks(a, b))
    r = 1 / np.sqrt(2)
    assert np.allclose(eps[:n, :n], r * eye) and np.allclose(eps[:n, n:], -r * eye)
    assert np.allclose(eps[n:, :n], r * eye) and np.allclose(eps[n:, n:], r * eye)


def test_coin_eigenvalues_are_signs():
    t = truncated_tree(3)
    rng = np.random.default_rng(3)
    w = random_walk_spec(rng, max_level=2)
    a, b = vertex_coins(w, t)
    c = dense(coin_blocks(a, b))
    eigenvalues = np.linalg.eigvalsh(c)
    assert np.max(np.abs(np.abs(eigenvalues) - 1.0)) < 1e-10


def test_conjugator_rejects_degenerate_a():
    with pytest.raises(ValueError, match=r"\|a\| = 1"):
        conjugator_blocks(np.array([1.0]), np.array([0.0 + 0j]))


# --- chirality block ---------------------------------------------------------------

def test_routes_agree_for_random_specs(ops6):
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = random_walk_spec(rng)
        bundle = build_bundle(w, 6, ops=ops6)
        assert route_disagreement(bundle) < 1e-12


def test_chirality_conjugation_route_matches_everywhere(dense6):
    # agreement is exact as matrices, not only on the interior: the
    # conjugation route on the dense skew part of the whole truncation
    rng = np.random.default_rng(2)
    w = random_walk_spec(rng)
    a, b = vertex_coins(w, dense6.tree)
    n = dense6.tree.size
    skew = dense_skew(dense_symmetry(dense6.isometry, dense6.defect, w.p, w.q), a, b)
    conj = dense_conjugated_skew(skew, a, b)[n:, :n]
    assert np.max(np.abs(chirality(w, dense6) - conj)) < 1e-12


def test_constant_swap_walk_chirality_formula(dense6):
    # (a, b) = (0, 1), (p, q) = (0, 1): the block collapses to L - L* + E
    w = WalkSpec.make(0.0, 1.0, [("", sphere_coeff(0.0))])
    expected = dense6.isometry - dense6.isometry.conj().T + dense6.defect
    assert np.max(np.abs(chirality(w, dense6) - expected)) < 1e-14


def test_p_zero_drops_scalar_term(dense6):
    # at p = 0 the -2p|b| term vanishes: the block is unchanged when the
    # diagonal term is removed by hand
    rng = np.random.default_rng(14)
    w = random_walk_spec(rng, p_value=0.0)
    a, b = vertex_coins(w, dense6.tree)
    direct = dense_chirality_direct(0.0, w.q, a, b, dense6.isometry, dense6.defect)
    assert np.max(np.abs(chirality(w, dense6) - direct)) == 0.0
    assert np.max(np.abs(np.diag(direct) - np.diag(direct - np.diag(
        2 * 0.0 * np.abs(b))))) == 0.0


def test_identities_random_specs(ops6):
    rng = np.random.default_rng(40)
    for _ in range(10):
        w = random_walk_spec(rng)
        bundle = build_bundle(w, 6, ops=ops6)
        residuals = check_identities(bundle)
        assert set(residuals) == set(IDENTITY_NAMES)
        for name, value in residuals.items():
            assert value < 1e-10, (name, value)
        assert residuals["defect_kills_shift"] < 1e-14


def by_vertex(bundle):
    """The bundle's coin data, strip and interior skew part with each row
    repeated for every vertex of its class."""
    first, m = class_firsts(bundle), bundle.ops.tree.size // 4
    return [expand_rows(x, first, m) for x in (bundle.a, bundle.b, bundle.symmetry, bundle.skew)]


def test_bundle_holds_the_dense_interior():
    # the coin data are the interior entries of the full coin data, and each
    # slot of the strip and of the interior skew part is the entry of the
    # full symmetry's interior rows and of the dense U - U*'s interior block,
    # bit for bit, once each row class is repeated for its vertices; every
    # entry off the pattern is a zero there
    rng = np.random.default_rng(16)
    for depth in range(2, 9):
        w = random_walk_spec(rng)
        dense = dense_tree_operators(truncated_tree(depth))
        for rule in ("leftmost", "rightmost"):
            a_in, b_in, symmetry, skew_in = by_vertex(build_bundle(w, depth, rule=rule))
            n = dense.tree.size
            inner = np.flatnonzero([len(v) <= depth - 2 for v in addresses(depth)])
            inner2 = np.concatenate([inner, n + inner])
            a, b = vertex_coins(w, dense.tree, rule)
            assert a_in.tobytes() == a[inner].tobytes(), (depth, rule)
            assert b_in.tobytes() == b[inner].tobytes(), (depth, rule)
            gamma = dense_symmetry(dense.isometry, dense.defect, w.p, w.q)
            skew = dense_skew(gamma, a, b)
            assert_slots_exact(symmetry, gamma[inner2], cols=n)
            assert_slots_exact(skew_in, skew[np.ix_(inner2, inner2)])


def test_products_match_the_dense_oracle():
    # the Gram product of the strip and E L on the slots against the dense
    # products of the oracle's interior rows and columns; the chirality
    # block's three-factor terms and the conjugated skew part bit for bit,
    # being the same products and two-term sums; each on the walk's row
    # classes, repeated for their vertices
    rng = np.random.default_rng(17)
    for depth in range(2, 9):
        w = random_walk_spec(rng)
        dense = dense_tree_operators(truncated_tree(depth))
        for rule in ("leftmost", "rightmost"):
            bundle = build_bundle(w, depth, rule=rule)
            ops, n, m = bundle.ops, dense.tree.size, dense.tree.size // 4
            full = lambda x: expand_rows(x, class_firsts(bundle), m)
            inner2 = np.r_[:m, n:n + m]
            gamma = dense_symmetry(dense.isometry, dense.defect, w.p, w.q)[inner2]
            gram = densify(full(matmul(bundle.symmetry, np.conj(bundle.symmetry.swapaxes(0, 1)),
                                       ops.pattern)))
            assert np.max(np.abs(gram - gamma @ gamma.conj().T), initial=0.0) <= 1e-15
            el = densify(full(matmul(ops.defect, ops.isometry, ops.pattern)))
            assert np.max(np.abs(el - dense.defect[:m] @ dense.isometry[:, :m]),
                          initial=0.0) <= 1e-15
            a, b = vertex_coins(w, dense.tree, rule)
            direct = dense_chirality_direct(w.p, w.q, a, b, dense.isometry, dense.defect)
            assert_slots_exact(full(chirality_direct(w.p, w.q, bundle.a, bundle.b, ops)),
                               direct[:m, :m])
            skew = dense_skew(dense_symmetry(dense.isometry, dense.defect, w.p, w.q), a, b)
            conj = dense_conjugated_skew(skew[np.ix_(inner2, inner2)], a[:m], b[:m])
            eps = conjugator_blocks(bundle.a, bundle.b)
            assert_slots_exact(full(conjugated_skew(bundle.skew, eps, ops.pattern)), conj)


def test_row_classes_expand_to_the_all_rows_bundle():
    # random codes of levels 0-6 at depths 2-13, with p = 0 and |p| = 1
    # (q = 0) among them: repeating each row for its class gives, bit for bit,
    # the bundle of the same walk refined so that every interior vertex is its
    # own row, from the same code path; the residuals are the same numbers
    rng = np.random.default_rng(58)
    for case in range(48):
        depth, level = int(rng.integers(2, 14)), int(rng.integers(0, 7))
        p_value = (None, 0.0, 1.0, -1.0)[case % 4]
        if level:
            w = random_walk_spec(rng, max_level=level, p_value=p_value)
        else:   # the one-cell code: each level is one class
            p = 0.3 if p_value is None else p_value
            w = WalkSpec.make(p, np.sqrt(1 - p * p) * np.exp(0.4j),
                              [("", sphere_coeff(float(rng.uniform(-0.9, 0.9)), 0.7))])
        whole = refine_walk(w, depth - 2)
        for rule in ("leftmost", "rightmost"):
            bundle, rows = build_bundle(w, depth, rule=rule), build_bundle(whole, depth, rule=rule)
            assert len(bundle.a) == row_count(w, depth), (case, depth)
            assert len(rows.a) == row_count(whole, depth) == rows.ops.tree.size // 4
            for got, want in zip(by_vertex(bundle), (rows.a, rows.b, rows.symmetry, rows.skew)):
                assert got.tobytes() == want.tobytes(), (case, depth, rule)
            assert check_identities(bundle) == check_identities(rows), (case, depth, rule)


def test_row_counts_are_pinned():
    # configs/level2_walk.json has 3 vertices above its four level-2 cells
    # and a class in each cell on each of the levels 2 .. d - 2: 3 + 4 (d - 3)
    # rows; a balanced code of level d - 2 keeps every interior vertex its
    # own row
    w = parse_walk(CONFIG.read_text())
    for depth, rows in ((4, 7), (10, 31), (16, 55)):
        assert row_count(w, depth) == len(build_bundle(w, depth).a) == rows
    balanced = refine_walk(w, 6)
    assert row_count(balanced, 8) == len(build_bundle(balanced, 8).a) == 2 ** 7 - 1
    assert row_count(balanced, 10) == 2 ** 6 - 1 + 2 ** 6 * 3


def test_skew_is_antiselfadjoint(ops6):
    rng = np.random.default_rng(15)
    w = random_walk_spec(rng)
    skew = densify(by_vertex(build_bundle(w, 6, ops=ops6))[3])
    assert np.max(np.abs(skew + skew.conj().T)) == 0.0


def test_truncation_monotonicity():
    # interior entries of the chirality block are unchanged by deepening the
    # truncation: breadth-first indexing makes the restriction a leading block
    rng = np.random.default_rng(33)
    w = random_walk_spec(rng, max_level=2)
    small = dense_tree_operators(truncated_tree(5))
    large = dense_tree_operators(truncated_tree(6))
    inner = np.arange((1 << 4) - 1)
    diff = chirality(w, small)[np.ix_(inner, inner)] - chirality(w, large)[np.ix_(inner, inner)]
    assert np.max(np.abs(diff)) < 1e-12
    res_small = check_identities(build_bundle(w, 5))
    for name, value in res_small.items():
        assert value < 1e-12, name


def test_identity_residuals_stable_under_deepening():
    rng = np.random.default_rng(34)
    w = random_walk_spec(rng, max_level=2)
    r5 = check_identities(build_bundle(w, 5))
    r6 = check_identities(build_bundle(w, 6))
    for name in IDENTITY_NAMES:
        assert abs(r5[name] - r6[name]) < 1e-12


def test_chirality_locality():
    # changing the coin on the subtree below "11" cannot move entries whose
    # row and column both live under "00"
    base = WalkSpec.make(0.3, np.sqrt(1 - 0.09), [
        ("0", sphere_coeff(0.5)), ("10", sphere_coeff(-0.4)), ("11", sphere_coeff(0.7))])
    changed = WalkSpec.make(0.3, np.sqrt(1 - 0.09), [
        ("0", sphere_coeff(0.5)), ("10", sphere_coeff(-0.4)), ("11", sphere_coeff(-0.8, 1.0))])
    dense = dense_tree_operators(truncated_tree(5))
    far = [i for i, v in enumerate(addresses(5)) if v.startswith("00")]
    block = np.ix_(far, far)
    c1, c2 = chirality(base, dense), chirality(changed, dense)
    assert np.array_equal(c1[block], c2[block])
    # and something does change under "11"
    near = [i for i, v in enumerate(addresses(5)) if v.startswith("11")]
    assert np.max(np.abs(c1[np.ix_(near, near)] - c2[np.ix_(near, near)])) > 1e-3


def test_interior_rule_does_not_affect_identities(ops6):
    rng = np.random.default_rng(50)
    w = random_walk_spec(rng)
    for rule in ("leftmost", "rightmost"):
        bundle = build_bundle(w, 6, ops=ops6, rule=rule)
        residuals = check_identities(bundle)
        for name, value in residuals.items():
            assert value < 1e-10, (rule, name)
        assert route_disagreement(bundle) < 1e-12


def test_bundle_dimensions(ops6):
    rng = np.random.default_rng(51)
    w = random_walk_spec(rng)
    bundle = build_bundle(w, 6, ops=ops6)
    n = 2 ** 7 - 1
    m = 2 ** 5 - 1
    rows = row_count(w, 6)
    assert ops6.isometry.shape == ops6.defect.shape == (1, 1, 5, 2)
    assert bundle.ops.isometry.shape == bundle.ops.defect.shape == (1, 1, 5, rows)
    assert bundle.a.shape == bundle.b.shape == class_firsts(bundle).shape == (rows,)
    assert bundle.ops.pattern.neighbour.shape == (5, rows)
    assert bundle.symmetry.shape == bundle.skew.shape == (2, 2, 5, rows)
    _, _, symmetry, skew = by_vertex(bundle)
    assert densify(symmetry, cols=n).shape == (2 * m, 2 * n)
    assert densify(skew).shape == (2 * m, 2 * m)
    # the first m vertices are those of depth <= d - 2
    assert [len(v) <= 4 for v in addresses(6)] == [i < m for i in range(n)]


def test_skew_slots_do_not_depend_on_the_depth():
    # rows whose neighbours all lie in the depth-10 interior hold the same
    # bits at depth 13, where one slot block is above the 256 KiB at which
    # numpy evaluates x * tmp in place as tmp * x: every complex product has
    # one operand order at every size.  The walk is refined so that every
    # interior vertex is its own row; its row classes give the same bits
    w = random_walk_spec(np.random.default_rng(56))
    whole = refine_walk(w, 11)
    small, large = build_bundle(whole, 10), build_bundle(whole, 13)
    assert large.skew[0, 0].nbytes >= 256 * 1024 > small.skew.nbytes
    rows = (small.skew.shape[-1] - 1) // 2
    assert small.skew[..., :rows].tobytes() == large.skew[..., :rows].tobytes()
    for depth, bundle in ((10, small), (13, large)):
        assert by_vertex(build_bundle(w, depth))[3].tobytes() == bundle.skew.tobytes()


def test_check_sorts_nothing(monkeypatch):
    # the pattern is fixed, so no step of the bundle, the check or the
    # route comparison orders anything
    def refuse(*args, **kwargs):
        raise AssertionError("sorted")
    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    bundle = build_bundle(random_walk_spec(np.random.default_rng(57)), 8)
    assert max(check_identities(bundle).values()) < 1e-10
    assert route_disagreement(bundle) < 1e-12


def _check_peak(depth: int, w: WalkSpec) -> int:
    """tracemalloc peak of building and checking a walk's bundle."""
    tracemalloc.start()
    try:
        check_identities(build_bundle(w, depth))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_holds_no_dense_square():
    # the peak of building and checking a depth-9 bundle stays below 3.5
    # n x n complex arrays (about 0.08 on the triples; 3.1 with the dense
    # strip, 4.6 when L and E were n x n)
    n = truncated_tree(9).size
    peak = _check_peak(9, random_walk_spec(np.random.default_rng(53)))
    assert peak < 3.5 * 16 * n * n, peak / (16 * n * n)


def test_check_memory_is_linear_in_the_vertices():
    # four times the vertices: about 4x the peak when it is linear, 16x when
    # it is quadratic
    w = random_walk_spec(np.random.default_rng(54))
    assert _check_peak(14, w) < 6 * _check_peak(12, w)


def test_check_memory_does_not_grow_with_the_cell_depth():
    # a comb whose cells reach level 2000, and a balanced code whose every
    # interior vertex is its own row class: the check's peak stays within the
    # preflight's budget for its row classes and cells (about 10.7 KB per
    # vertex when every vertex's address was padded to the deepest cell level)
    code = ["0" * k + "1" for k in range(2000)] + ["0" * 2000]
    rng = np.random.default_rng(55)
    comb = WalkSpec.make(0.3, np.sqrt(1 - 0.09),
                         [(prefix, sphere_coeff(float(rng.uniform(-0.9, 0.9)))) for prefix in code])
    balanced = refine_walk(random_walk_spec(rng, max_level=3), 10)
    assert row_count(balanced, 12) == truncated_tree(10).size
    for w in (comb, balanced):
        budget = CHECK_ROW_BYTES * row_count(w, 12) + CHECK_CELL_BYTES * len(w.cells)
        assert _check_peak(12, w) < budget


def test_check_holds_no_full_depth_arrays():
    # configs/level2_walk.json keeps 63 row classes at depth 18: the check
    # peaked at 60 MB while it built the depth's operators on all 131 071
    # interior vertices and walked each vertex in the coin descent
    assert _check_peak(18, parse_walk(CONFIG.read_text())) < 1e6


def test_check_calls_each_traced_binding(monkeypatch):
    # the benchmark's tracer counts the calls through these bindings of
    # chiralwalk.treeop, per layer: one bundle and its check make one call to
    # each of the first three, two products and nine diagonal-block products
    # (four of them of two coin-type operators)
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    names = ("truncated_tree", "tree_operators", "coin_values", "matmul",
             "mul_diag_block_left", "mul_diag_block_right")
    for name in names:
        monkeypatch.setattr(treeop, name, counted(name, getattr(treeop, name)))
    w = random_walk_spec(np.random.default_rng(59))
    cli.check_identities(cli.build_bundle(w, 10))
    assert [counts[name] for name in names] == [1, 1, 1, 2, 6, 3]


def test_descent_names_the_classes_of_the_addresses():
    # each interior vertex's class, found from its address (its cell and
    # level inside a cell, the vertex itself above the cells), is a run
    # that starts at its class's first vertex; the table names the class of
    # each of the vertex's neighbours, and the class's coin is the vertex's
    rng = np.random.default_rng(60)
    for case in range(36):
        depth, level = int(rng.integers(2, 14)), int(rng.integers(0, 7))
        family = case % 3
        if not level:   # the one-cell code
            w = WalkSpec.make(0.3, np.sqrt(0.91), [("", sphere_coeff(0.4, 0.7))])
        elif family == 0:
            w = random_walk_spec(rng, max_level=level)
        elif family == 1:   # a comb, often deeper than the interior
            comb = ["0" * k + "1" for k in range(3 * level)] + ["0" * 3 * level]
            w = WalkSpec.make(0.3, np.sqrt(0.91), [(prefix, sphere_coeff(0.1 * (k % 9) - 0.4))
                                                   for k, prefix in enumerate(comb)])
        else:   # balanced
            w = refine_walk(random_walk_spec(rng, max_level=1), level)
        vertices = addresses(depth - 2)
        key = [next(((prefix, len(v)) for prefix in w.prefixes if v.startswith(prefix)), v)
               for v in vertices]
        start = [True] + [here != before for before, here in zip(key, key[1:])]
        cls = np.cumsum(start) - 1
        m, rows = len(vertices), int(cls[-1]) + 1
        assert len(set(key)) == rows, (case, depth)   # each class is one run
        column = slot_neighbours(m)
        named = np.where((column >= 0) & (column < m), cls[np.clip(column, 0, m - 1)], rows)
        for rule in ("leftmost", "rightmost"):
            a, b, first, neighbour = coin_values(w, TruncatedTree(depth - 2), rule)
            assert np.array_equal(first, np.flatnonzero(start)), (case, depth)
            assert np.array_equal(neighbour[:, cls], named), (case, depth)
            coins = [scan_eval_vertex(w, v, rule) for v in vertices]
            assert a[cls].tolist() == [c.a for c in coins], (case, rule)
            assert b[cls].tolist() == [c.b for c in coins], (case, rule)


def test_build_bundle_rejects_mismatched_ops(ops6):
    rng = np.random.default_rng(52)
    w = random_walk_spec(rng)
    with pytest.raises(ValueError, match="depth"):
        build_bundle(w, 7, ops=ops6)


# --- pinned residuals -------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def random_check_table() -> str:
    """The seven residuals, as the ``check`` CSV prints them (repr), of seeded
    random walks at depths 2-11 under both interior rules: three walks per
    depth, then one with q = 0 and one with p = 0 at depths 7 and 11."""
    rng = np.random.default_rng(2711)
    walks = [(depth, random_walk_spec(rng, max_level=int(rng.integers(1, 6))))
             for depth in range(2, 12) for _ in range(3)]
    walks += [(depth, random_walk_spec(rng, p_value=p)) for depth in (7, 11) for p in (1.0, 0.0)]
    lines = ["depth,rule,p," + ",".join(IDENTITY_NAMES)]
    for depth, w in walks:
        for rule in ("leftmost", "rightmost"):
            residuals = check_identities(build_bundle(w, depth, rule=rule))
            lines.append(f"{depth},{rule},{w.p!r}," + ",".join(
                repr(residuals[name]) for name in IDENTITY_NAMES))
    return "\n".join(lines) + "\n"


def test_random_residuals_are_pinned():
    # every residual's digits, byte for byte, as the triple kernel printed
    # them: a change of summation order or of a complex product's operand
    # order shows here
    assert random_check_table() == (GOLDEN / "check_random.csv").read_text()
