import time

import numpy as np
import pytest

from chiralwalk import symbol
from chiralwalk.cantor import Cylinder, ProductMeasure, cylinder_measure
from chiralwalk.symbol import (ROUTE_TOL, SymbolLoop, SymbolSingularError, _circle,
                               agreed_windings, falk_cylinder_pairing, falk_pairing,
                               half_line_operator, kernel_recursion, loop_min, poles,
                               residue_numeric, solve_w0, unilateral_shift,
                               winding_quadrature, winding_residues)
from helpers import dense_falk_pairing


def loop(a, p=0.0, b_phase=0.0, q_phase=0.0):
    b = np.sqrt(1 - a * a) * np.exp(1j * b_phase)
    q = np.sqrt(1 - p * p) * np.exp(1j * q_phase)
    return SymbolLoop(a=a, b=complex(b), p=p, q=complex(q))


GRID_A = [round(-0.95 + 0.05 * k, 10) for k in range(39)]
GRID_P = [0.0, 0.25, 0.5, 0.75]


def grid_points():
    for p in GRID_P:
        for a in GRID_A:
            if abs(abs(a) - p) > 0.04:
                yield a, p


# --- loop evaluation ----------------------------------------------------------

def eval_loop(s, angle):
    """Value of the loop at w = exp(i * angle)."""
    return complex(s(np.exp(1j * np.array([angle])))[0])


def test_eval_loop_anchor():
    s = SymbolLoop(0.6, 0.8, 0.0, 1.0)
    assert eval_loop(s, 0.0) == pytest.approx(1.2)
    assert s(1.0 + 0j) == pytest.approx(1.2)


def test_loop_vanishes_at_a_zero():
    s = SymbolLoop(0.0, 1.0, 0.0, 1.0)
    assert eval_loop(s, 0.0) == pytest.approx(0.0)


def test_loop_periodicity():
    s = loop(0.37, 0.25, b_phase=1.1, q_phase=0.4)
    for phi in [0.0, 0.7, 2.9]:
        assert eval_loop(s, phi) == pytest.approx(eval_loop(s, phi + 2 * np.pi))


def test_loop_validates_sphere():
    with pytest.raises(ValueError):
        SymbolLoop(0.5, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        SymbolLoop(0.6, 0.8, 0.5, 1.0)


# --- w0 and invertibility -------------------------------------------------------

def solve_w0_oracle(s):
    """Independent route: g(w) = 0 as a real-linear 2x2 system in (Re w, Im w)."""
    c1 = s.q * (1 + s.a)          # coefficient of w
    c2 = -np.conj(s.q) * (1 - s.a)  # coefficient of conj(w)
    mat = np.array([[(c1 + c2).real, (1j * (c1 - c2)).real],
                    [(c1 + c2).imag, (1j * (c1 - c2)).imag]])
    rhs = np.array([2 * s.p * abs(s.b), 0.0])
    x, y = np.linalg.solve(mat, rhs)
    return complex(x, y)


def test_solve_w0_matches_linear_system():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = rng.uniform(-0.9, 0.9)
        if abs(a) < 0.05:
            continue
        s = loop(a, rng.uniform(-0.9, 0.9), rng.uniform(0, 6), rng.uniform(0, 6))
        w0 = solve_w0(s)
        assert w0 == pytest.approx(solve_w0_oracle(s), abs=1e-10)
        assert abs(s(w0)) < 1e-12


def test_solve_w0_anchors():
    s = loop(0.5, 0.5)
    assert solve_w0(s) == pytest.approx(1.0)
    assert abs(abs(solve_w0(s)) - 1.0) < 1e-10

    assert solve_w0(loop(0.7, 0.0)) == 0.0

    s2 = SymbolLoop(0.8, 0.6, 0.5, np.sqrt(0.75))
    assert solve_w0(s2) == pytest.approx(0.4330127018922193)
    assert abs(solve_w0(s2)) < 1.0


def test_solve_w0_errors():
    with pytest.raises(ValueError, match="unique"):
        solve_w0(loop(0.0, 0.5))
    with pytest.raises(ValueError, match="q = 0"):
        solve_w0(SymbolLoop(0.5, np.sqrt(0.75), 1.0, 0.0))


# --- windings -------------------------------------------------------------------

def test_winding_anchors():
    assert winding_quadrature(SymbolLoop(0.6, 0.8, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-9)
    assert winding_quadrature(SymbolLoop(-0.6, 0.8, 0.0, 1.0)) == pytest.approx(-1.0, abs=1e-9)
    assert winding_quadrature(loop(0.0, 0.5)) == pytest.approx(0.0, abs=1e-9)
    assert winding_residues(SymbolLoop(0.6, 0.8, 0.0, 1.0)) == 1
    assert winding_residues(SymbolLoop(-0.6, 0.8, 0.0, 1.0)) == -1
    assert winding_residues(loop(0.0, 0.5)) == 0


def test_winding_requires_samples():
    with pytest.raises(ValueError, match="64"):
        winding_quadrature(loop(0.6), n_samples=10)


def test_winding_singular_loop_raises():
    with pytest.raises(SymbolSingularError):
        winding_quadrature(loop(0.5, 0.5))
    with pytest.raises(SymbolSingularError):
        winding_residues(loop(0.5, 0.5))
    # inside the 1e-9 band around the locus, too near to tell
    with pytest.raises(SymbolSingularError):
        winding_quadrature(loop(0.5, 0.5 + 1e-12))
    with pytest.raises(SymbolSingularError):
        winding_residues(loop(0.5, 0.5 + 1e-12))


@pytest.mark.parametrize("samples", [64, 4096])
def test_route_rule_never_returns_disagreeing_windings(samples):
    # near the locus the quadrature misses the turn with too few samples;
    # the shared rule must then raise, never hand back the two routes apart
    rng = np.random.default_rng(samples)
    returned = raised = 0
    for k in range(1, 14):
        for _ in range(8):
            p = float(rng.uniform(-0.9, 0.9))
            a = float(rng.choice([1.0, -1.0]) * abs(p) + rng.choice([1.0, -1.0]) * 10.0 ** -k)
            s = loop(a, p, b_phase=rng.uniform(0, 2 * np.pi), q_phase=rng.uniform(0, 2 * np.pi))
            try:
                residue, quadrature = agreed_windings(winding_residues(s),
                                                      winding_quadrature(s, samples))
            except SymbolSingularError:
                raised += 1
                continue
            returned += 1
            assert abs(quadrature - residue) <= ROUTE_TOL, (a, p)
            assert residue == (1 if a > abs(p) else (-1 if a < -abs(p) else 0)), (a, p)
    assert returned and raised


def test_winding_constant_loop_q_zero():
    s = SymbolLoop(0.5, np.sqrt(0.75), 1.0, 0.0)
    assert winding_residues(s) == 0
    assert winding_quadrature(s) == pytest.approx(0.0)


def test_quadrature_residue_agreement_on_grid():
    for a, p in grid_points():
        s = loop(a, p)
        quad = winding_quadrature(s)
        res = winding_residues(s)
        assert abs(quad - res) < 1e-6, (a, p)
        expected = 1 if a > p else (-1 if a < -p else 0)
        assert res == expected, (a, p)


def test_phase_covariance():
    for phase in [0.0, 0.9, 2.2, -1.3]:
        s = loop(0.4, 0.25, b_phase=phase)
        assert winding_residues(s) == 1
        assert winding_quadrature(s) == pytest.approx(1.0, abs=1e-9)


def test_winding_matches_unscaled_symbol_in_z():
    # The raw symbol alpha z - beta conj(z) differs from the normalized loop by
    # the positive factor sqrt(1 - a^2)/|b| and the rotation z -> w; neither
    # can change the winding.  Unwrap it independently and compare.
    for a, phase in [(0.6, 0.0), (0.6, 1.3), (-0.4, 2.0), (0.2, -0.7)]:
        b = np.sqrt(1 - a * a) * np.exp(1j * phase)
        alpha = np.sqrt((1 + a) / (1 - a)) * np.conj(b)
        beta = np.sqrt((1 - a) / (1 + a)) * b
        z = np.exp(1j * 2 * np.pi * np.arange(4097) / 4096)
        values = alpha * z - beta * np.conj(z)
        increments = np.angle(np.exp(1j * np.diff(np.angle(values))))
        independent = increments.sum() / (2 * np.pi)
        s = SymbolLoop(a, complex(b), 0.0, 1.0)
        assert winding_quadrature(s) == pytest.approx(independent, abs=1e-9)


# --- poles and residues -----------------------------------------------------------

def test_pole_positions_and_moduli():
    s = SymbolLoop(0.8, 0.6, 0.5, np.sqrt(0.75))
    data = poles(s)
    assert abs(data.alpha) == pytest.approx(0.5773502691896257)
    assert abs(data.beta) == pytest.approx(0.19245008972987526)
    # roots of the quadratic q(1+a) w^2 - 2 p |b| w - conj(q)(1-a)
    quad = np.poly1d([s.q * 1.8, -2 * 0.5 * 0.6, -np.conj(s.q) * 0.2])
    for root in (data.alpha, data.beta):
        assert abs(quad(root)) < 1e-12


def test_pole_modulus_classification():
    for a, p in grid_points():
        if p == 0.0:
            continue
        data = poles(loop(a, p))
        assert (abs(data.alpha) < 1) == (a > p)
        assert (abs(data.beta) < 1) == (a > -p)


def test_poles_need_nonzero_q():
    with pytest.raises(ValueError, match="q = 0"):
        poles(SymbolLoop(0.5, np.sqrt(0.75), 1.0, 0.0))


def residue_radius(pole, others):
    return 0.25 * min(abs(c - pole) for c in others if abs(c - pole) > 1e-12)


def test_numeric_residues():
    for a, p, phases in [(0.8, 0.5, (0.0, 0.0)), (0.3, 0.6, (1.0, 0.5)),
                         (-0.7, 0.25, (2.0, 1.5))]:
        s = loop(a, p, *phases)
        data = poles(s)
        all_poles = (0.0, data.alpha, data.beta)
        for pole, expected in zip(all_poles, data.residues):
            r = residue_radius(pole, all_poles)
            value = residue_numeric(s, pole, r)
            assert value == pytest.approx(expected, abs=1e-6), (a, p, pole)


def test_residue_radius_guard():
    s = loop(0.8, 0.5)
    data = poles(s)
    with pytest.raises(ValueError, match="radius"):
        residue_numeric(s, data.alpha, abs(data.alpha - data.beta))


# --- half-line operator -------------------------------------------------------------

def test_half_line_p0_pattern():
    # independent construction: alpha V - beta V* + |b| (1 - V V*)
    a, phase = 0.5, 0.8
    b = np.sqrt(0.75) * np.exp(1j * phase)
    s = SymbolLoop(a, complex(b), 0.0, 1.0)
    n = 12
    v = unilateral_shift(n)
    alpha = np.sqrt((1 + a) / (1 - a)) * np.conj(b)
    beta = np.sqrt((1 - a) / (1 + a)) * b
    corner = np.zeros((n, n), dtype=complex)
    corner[0, 0] = 1.0
    expected = alpha * v - beta * v.conj().T + abs(b) * corner
    assert np.allclose(half_line_operator(s, n).matrix, expected, atol=1e-14)


def test_kernel_recursion_anchor():
    s = SymbolLoop(0.5, np.sqrt(0.75), 0.0, 1.0)
    kv = kernel_recursion(s, 16)
    assert kv.side == "adjoint"
    assert kv.coeffs[0] == 1.0
    assert kv.coeffs[1] == pytest.approx(-1 / np.sqrt(3))
    assert abs(kv.coeffs[3] / kv.coeffs[1]) == pytest.approx(1 / 3)
    assert kv.decay_ratio == pytest.approx(1 / 3)


def test_kernel_recursion_residuals():
    n = 500
    s = SymbolLoop(0.5, np.sqrt(0.75), 0.0, 1.0)
    kv = kernel_recursion(s, n)
    t = half_line_operator(s, n).matrix
    assert np.linalg.norm(t.conj().T @ kv.coeffs) / np.linalg.norm(kv.coeffs) < 1e-8

    mirror = SymbolLoop(-0.5, np.sqrt(0.75), 0.0, 1.0)
    kv2 = kernel_recursion(mirror, n)
    assert kv2.side == "direct"
    t2 = half_line_operator(mirror, n).matrix
    assert np.linalg.norm(t2 @ kv2.coeffs) / np.linalg.norm(kv2.coeffs) < 1e-8


def test_kernel_recursion_complex_coin():
    s = SymbolLoop(0.4, np.sqrt(1 - 0.16) * np.exp(0.9j), 0.0, 1.0)
    n = 300
    kv = kernel_recursion(s, n)
    t = half_line_operator(s, n).matrix
    assert np.linalg.norm(t.conj().T @ kv.coeffs) / np.linalg.norm(kv.coeffs) < 1e-8


def test_truncated_rank_defect_is_one_sided():
    n = 400
    s = SymbolLoop(0.5, np.sqrt(0.75), 0.0, 1.0)
    t = half_line_operator(s, n).matrix
    singular_values = np.linalg.svd(t.conj().T, compute_uv=False)
    assert np.count_nonzero(singular_values <= 1e-8) == 1
    # the genuine null vector sits at the head; the paired artifact on the
    # other side of the square truncation sits at the tail
    u, sv, vh = np.linalg.svd(t)
    head = slice(0, n // 10)
    tail = slice(9 * n // 10, n)
    left = u[:, -1]          # near-null of t.conj().T
    right = vh[-1].conj()    # near-null of t
    assert np.linalg.norm(left[head]) ** 2 > 0.9
    assert np.linalg.norm(right[tail]) ** 2 > 0.9


def test_kernel_recursion_guards():
    with pytest.raises(ValueError, match="p = 0"):
        kernel_recursion(loop(0.5, 0.3), 10)
    with pytest.raises(ValueError, match="a = 0"):
        kernel_recursion(SymbolLoop(0.0, 1.0, 0.0, 1.0), 10)


# --- Falk pairing ---------------------------------------------------------------

def test_falk_pairing_values():
    assert falk_pairing(1, 200) == pytest.approx(1.0, abs=1e-12)
    assert falk_pairing(0, 200) == pytest.approx(0.0, abs=1e-12)


def test_falk_sign_matches_winding_of_generator():
    # the winding of the circle generator itself is +1 by direct unwrapping
    z = np.exp(1j * 2 * np.pi * np.arange(257) / 256)
    winding = np.angle(np.exp(1j * np.diff(np.angle(z)))).sum() / (2 * np.pi)
    assert winding == pytest.approx(1.0)
    assert falk_pairing(1, 64) == pytest.approx(winding)


def test_falk_truncation_invariance():
    assert falk_pairing(1, 16) == falk_pairing(1, 400)


@pytest.mark.parametrize("f_value", [0, 1])
def test_falk_pairing_matches_the_dense_trace(f_value):
    for trunc in range(16, 81):
        assert repr(falk_pairing(f_value, trunc)) == repr(dense_falk_pairing(f_value, trunc))


def test_falk_rejects_bad_input():
    with pytest.raises(ValueError):
        falk_pairing(2, 100)
    with pytest.raises(ValueError):
        falk_pairing(1, 4)


def test_falk_cylinder_aggregates():
    uniform = ProductMeasure.uniform()
    assert falk_cylinder_pairing(Cylinder("0"), uniform, 64) == pytest.approx(0.5, abs=1e-12)
    assert falk_cylinder_pairing(Cylinder("01"), uniform, 64) == pytest.approx(0.25, abs=1e-12)
    assert falk_cylinder_pairing(Cylinder(""), uniform, 64) == pytest.approx(1.0, abs=1e-12)
    third = ProductMeasure.bernoulli(1 / 3)
    assert falk_cylinder_pairing(Cylinder("0"), third, 64) == pytest.approx(1 / 3, abs=1e-12)


def falk_cylinder_loop(cyl, measure, trunc):
    """The level-partition sum: every cylinder of cyl's level pairs with
    f = 1 inside cyl and f = 0 outside, weighted by its measure."""
    total = 0.0
    for i in range(1 << cyl.level):
        cell = Cylinder(format(i, f"0{cyl.level}b") if cyl.level else "")
        total += (float(cylinder_measure(measure, cell))
                  * falk_pairing(1 if cell.prefix.startswith(cyl.prefix) else 0, trunc))
    return total


def test_falk_cylinder_closed_form_matches_level_loop():
    measures = [ProductMeasure.uniform(), ProductMeasure.bernoulli(0.3)]
    for level in range(6):
        for i in range(1 << level):
            cyl = Cylinder(format(i, f"0{level}b") if level else "")
            for m in measures:
                closed = falk_cylinder_pairing(cyl, m, 16)
                assert repr(closed) == repr(falk_cylinder_loop(cyl, m, 16)), (cyl, m)
                assert closed == float(cylinder_measure(m, cyl))


def test_falk_cylinder_deep_prefix_is_fast():
    cyl = Cylinder("0110" * 7 + "01")
    start = time.perf_counter()
    value = falk_cylinder_pairing(cyl, ProductMeasure.uniform(), 200)
    assert time.perf_counter() - start < 1.0
    assert value == 2.0 ** -30


def test_loop_min_detects_degeneracy():
    value, witness = loop_min(loop(0.5, 0.5), 8192)
    assert value < 1e-3
    assert abs(abs(witness) - 1.0) < 1e-12
    # on the singular locus |a| = |p| the minimizing sample is a circle zero
    for a, p in [(0.5, 0.5), (0.0, 0.0)]:
        value, witness = loop_min(loop(a, p), 8192)
        assert value < 1e-10, (a, p)
        assert abs(witness) == pytest.approx(1.0)
    assert loop_min(loop(0.8, 0.5), 8192)[0] > 0.1


def _uncached_quadrature(s, n):
    angles = 2.0 * np.pi * np.arange(n + 1) / n
    increments = np.angle(np.exp(1j * np.diff(np.angle(s(np.exp(1j * angles))))))
    return float(np.sum(increments) / (2.0 * np.pi))


def _uncached_min(s, n):
    angles = 2.0 * np.pi * np.arange(n) / n
    values = np.abs(s(np.exp(1j * angles)))
    k = int(np.argmin(values))
    return float(values[k]), complex(np.exp(1j * angles[k]))


def test_circle_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        _circle(64)[0] = 0.0


@pytest.mark.parametrize("n", [64, 1000, 4096, 8192])
def test_circle_is_the_exponentiated_grid_bit_for_bit(n):
    want = np.exp(1j * (2.0 * np.pi * np.arange(n + 1) / n))
    assert _circle(n).tobytes() == want.tobytes()


def test_cached_circles_give_the_uncached_values():
    # each call asks for the other count, so each one evicts the other's circle
    rng = np.random.default_rng(26)
    for _ in range(6):
        s = loop(float(rng.uniform(-0.95, 0.95)), float(rng.uniform(-0.95, 0.95)),
                 b_phase=rng.uniform(0, 2 * np.pi), q_phase=rng.uniform(0, 2 * np.pi))
        assert loop_min(s, 8192) == _uncached_min(s, 8192)
        assert winding_quadrature(s, 4096) == _uncached_quadrature(s, 4096)


def test_loop_min_witness_is_the_sampled_root_of_unity():
    s = loop(0.5, 0.5, b_phase=0.4, q_phase=1.1)
    for n in (64, 1000, 8192):
        k = int(np.argmin(np.abs(s(np.exp(1j * (2.0 * np.pi * np.arange(n) / n))))))
        assert loop_min(s, n)[1] == complex(np.exp(1j * (2.0 * np.pi * k / n)))


@pytest.mark.parametrize("samples", [0, -3])
def test_loop_min_rejects_an_empty_circle(samples):
    with pytest.raises(ValueError, match=f"got {samples}"):
        loop_min(loop(0.6), samples)


def _bits(x):
    """The bits of a float or a complex number, so that 0.0 and -0.0 differ."""
    x = complex(x)
    return x.real.hex(), x.imag.hex()


def test_loop_memo_is_keyed_by_identity_not_equality():
    # the two loops compare equal (0.0 == -0.0), so an equality-keyed memo
    # would serve the second one the first one's values
    b = complex(0.8 * np.exp(0.7j))
    plus, minus = (SymbolLoop(a=0.6, b=b, p=p, q=complex(np.exp(1.3j))) for p in (0.0, -0.0))
    assert plus == minus
    for n in (64, 1000, 4096):
        for s in (plus, minus, plus):
            value, witness = loop_min(s, n)
            assert symbol._last_values[0] is s
            want_value, want_witness = _uncached_min(s, n)
            assert (_bits(value), _bits(witness)) == (_bits(want_value), _bits(want_witness))
            assert _bits(winding_quadrature(s, n)) == _bits(_uncached_quadrature(s, n))


def test_sweep_row_evaluates_its_loop_once(monkeypatch, capsys):
    from chiralwalk.cli import main
    calls = []
    evaluate = SymbolLoop.__call__

    def counted(s, w):
        calls.append(s)
        return evaluate(s, w)

    monkeypatch.setattr(SymbolLoop, "__call__", counted)
    assert main(["sweep", "--p-grid", "0.5", "--a-grid", "0.2", "--samples", "64"]) == 0
    assert capsys.readouterr().out.count(",ok") == 1
    assert len(calls) == 1


def test_memoised_loop_values_are_read_only():
    s = loop(0.3, 0.6, b_phase=0.2)
    loop_min(s, 64)
    values = symbol._last_values[2]
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0.0
