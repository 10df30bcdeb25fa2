"""Circle-loop symbols of the chirality operator and their winding numbers.

For coin data (a, b) and chirality parameters (p, q), the loop

    g(w) = q (1 + a) w  -  conj(q) (1 - a) conj(w)  -  2 p |b|,   |w| = 1,

is the quotient symbol of the chirality operator at one boundary point, after
the substitution w = exp(-i theta) z that absorbs the phase of b = |b| e^{i
theta} and after dropping a positive scalar factor sqrt(1 - a^2)/|b| that
cannot change a winding number.  The winding of g is computed two independent
ways: by phase unwrapping around the circle (argument principle) and by
classifying the poles of g^-1 dg against the unit disk.  The half-line
truncation of the symbol operator and the Falk trace pairing live here too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cantor import Cylinder, ProductMeasure, cylinder_measure

SPHERE_TOL = 1e-12
QUADRATURE_MIN_SAMPLES = 64   # fewest circle samples winding_quadrature accepts
FALK_MIN_TRUNC = 16           # smallest window falk_pairing accepts
LOCUS_BAND = 1e-9             # a margin ||a| - |p|| at most this is on the locus
ROUTE_TOL = 1e-6              # widest accepted gap between the two winding routes


class SymbolSingularError(ValueError):
    """No winding: the margin ||a| - |p|| is at most ``LOCUS_BAND`` (or NaN),
    or the quadrature winding is more than ``ROUTE_TOL`` from the residue one,
    as it is for too few circle samples (seen up to a margin of 4e-4 at 64
    samples, 3e-5 at 256 and 1e-7 at 4096).  ``cell`` names the loop's cell."""

    def __init__(self, message: str, cell: str | None = None):
        super().__init__(message)
        self.cell = cell


def on_locus(x: float, y: float, band: float = LOCUS_BAND) -> bool:
    """Whether ||x| - |y|| is at most ``band``; a NaN margin is on the locus."""
    return not abs(abs(x) - abs(y)) > band


def check_off_locus(a: float, p: float, cell: str | None = None) -> None:
    """Raise SymbolSingularError when the symbol at (a, p) is not invertible."""
    if on_locus(a, p):
        raise SymbolSingularError(f"|a| = {abs(a)} and |p| = {abs(p)} lie within "
                                  f"{LOCUS_BAND}", cell=cell)


def agreed_windings(residue: int, quadrature: float, cell: str | None = None):
    """The residue and quadrature windings of one loop, which must agree."""
    if not abs(quadrature - residue) <= ROUTE_TOL:
        raise SymbolSingularError(f"quadrature winding {quadrature!r} is more than "
                                  f"{ROUTE_TOL} from the residue one, {residue}", cell=cell)
    return residue, quadrature


@dataclass(frozen=True, slots=True)
class SymbolLoop:
    """One boundary point's loop data: coin value (a, b) and parameters (p, q)."""

    a: float
    b: complex
    p: float
    q: complex

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.a, self.b, self.p, self.q))):
            raise ValueError(f"(a, b, p, q) = {self.a, self.b, self.p, self.q} is not finite")
        if not abs(self.a) < 1.0:
            raise ValueError(f"|a| must be below 1, got {self.a}")
        if abs(self.a ** 2 + abs(self.b) ** 2 - 1.0) > SPHERE_TOL:
            raise ValueError(f"(a, b) = ({self.a}, {self.b}) not on the unit sphere")
        if abs(self.p ** 2 + abs(self.q) ** 2 - 1.0) > SPHERE_TOL:
            raise ValueError(f"(p, q) = ({self.p}, {self.q}) not on the unit sphere")

    @property
    def b_abs(self) -> float:
        return abs(self.b)

    def __call__(self, w):             # a complex w, or an array of them
        return (self.q * (1.0 + self.a) * w
                - self.q.conjugate() * (1.0 - self.a) * w.conjugate()
                - 2.0 * self.p * self.b_abs)


@dataclass(frozen=True)
class PoleData:
    """Poles of g^-1 dg in the w plane and the claimed residues (-1, 1, 1)."""

    alpha: complex
    beta: complex
    residues: tuple[float, float, float] = field(default=(-1.0, 1.0, 1.0))


def poles(s: SymbolLoop) -> PoleData:
    """Pole locations of the logarithmic derivative: 0, alpha, beta.

    alpha = |b|(p + 1) / (q(1 + a)) and beta = |b|(p - 1) / (q(1 + a)); the
    modulus tests |alpha| < 1 iff a > p and |beta| < 1 iff a > -p drive the
    residue count.  Undefined when q = 0 (the loop is then constant).
    """
    if s.q == 0:
        raise ValueError("pole data undefined for q = 0 (constant loop)")
    denom = s.q * (1.0 + s.a)
    alpha = s.b_abs * (s.p + 1.0) / denom
    beta = s.b_abs * (s.p - 1.0) / denom
    return PoleData(alpha=alpha, beta=beta)


def solve_w0(s: SymbolLoop) -> complex:
    """The unique w with g(w) = 0 over the plane (a real-linear 2x2 system).

    Closed form: w0 = conj(q) p |b| / (a |q|^2); it lies on the unit circle
    exactly when p^2 = a^2, which is the non-invertibility locus.
    """
    if s.q == 0:
        raise ValueError("w0 undefined for q = 0")
    if s.a == 0.0:
        raise ValueError("no unique root: the real-linear system is singular at a = 0")
    return s.q.conjugate() * s.p * s.b_abs / (s.a * abs(s.q) ** 2)


@functools.lru_cache(maxsize=1)
def _circle(n: int) -> np.ndarray:
    """The n + 1 points exp(2 pi i k / n), k = 0..n, closing on the first.

    One circle is cached, so the calls of one sample count share it until a
    call asks for another count; the array is read-only because it is shared.
    """
    w = np.exp(1j * (2.0 * np.pi * np.arange(n + 1) / n))
    w.flags.writeable = False
    return w


_last_values = [None, 0, None]   # the last loop, its sample count and its values


def _loop_values(s: SymbolLoop, n: int) -> np.ndarray:
    """g on the n + 1 points of the cached circle, read-only.  The last loop's
    values are kept for ``loop_min`` and ``winding_quadrature``, keyed by the
    loop object, never by equality: loops compare fields, and 0.0 == -0.0."""
    if _last_values[0] is not s or _last_values[1] != n:
        values = s(_circle(n))
        values.flags.writeable = False
        _last_values[:] = s, n, values
    return _last_values[2]


def winding_quadrature(s: SymbolLoop, n_samples: int = 4096) -> float:
    """Winding number by phase unwrapping over the cached circle of
    ``n_samples`` points.

    The summed, wrapped argument increments telescope to 2 pi k exactly once
    the sampling resolves every increment below pi.  Near the locus too few
    samples miss the turn, and ``agreed_windings`` tells that apart.
    """
    if n_samples < QUADRATURE_MIN_SAMPLES:
        raise ValueError(f"need at least {QUADRATURE_MIN_SAMPLES} samples, got {n_samples}")
    check_off_locus(s.a, s.p)
    steps = np.diff(np.angle(_loop_values(s, n_samples)))
    # each step wrapped into (-pi, pi]: the same bits as np.angle(np.exp(1j * steps))
    increments = np.arctan2(np.sin(steps), np.cos(steps))
    return float(np.sum(increments) / (2.0 * np.pi))


def winding_residues(s: SymbolLoop, cell: str | None = None) -> int:
    """Winding number by pole classification: -1 + [|alpha| < 1] + [|beta| < 1].

    Equals +1 for a > |p|, 0 for |a| < |p| and -1 for a < -|p|.  For q = 0 the
    loop is the nonzero constant -2p|b|, which winds 0.  A point on the locus
    raises SymbolSingularError naming ``cell``.
    """
    check_off_locus(s.a, s.p, cell)
    if s.q == 0:
        return 0
    data = poles(s)
    return -1 + int(abs(data.alpha) < 1.0) + int(abs(data.beta) < 1.0)


def _log_derivative(s: SymbolLoop, w: np.ndarray) -> np.ndarray:
    # g^-1 dg/dw as a rational function of w, using conj(w) = 1/w on the circle:
    #   [q(1+a) w^2 + conj(q)(1-a)] / [w (q(1+a) w^2 - 2p|b| w - conj(q)(1-a))]
    qa = s.q * (1.0 + s.a)
    qc = np.conj(s.q) * (1.0 - s.a)
    return (qa * w ** 2 + qc) / (w * (qa * w ** 2 - 2.0 * s.p * s.b_abs * w - qc))


def residue_numeric(s: SymbolLoop, pole: complex, radius: float,
                    n_samples: int = 2048) -> complex:
    """Residue of g^-1 dg at ``pole`` by quadrature over a small circle.

    An independent check on the claimed residues (-1, 1, 1).  The circle must
    stay clear of the other poles: each must sit at distance > 2 * radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    data = poles(s)
    others = [c for c in (0.0, data.alpha, data.beta) if abs(c - pole) > 1e-12]
    nearest = min(abs(c - pole) for c in others)
    if nearest <= 2.0 * radius:
        raise ValueError(f"pole at distance {nearest:.3g} inside 2 * radius = {2 * radius:.3g}")
    phi = 2.0 * np.pi * np.arange(n_samples) / n_samples
    w = pole + radius * np.exp(1j * phi)
    # (1 / 2 pi i) * integral = (r / n) * sum h(w_k) e^{i phi_k}
    return complex(radius * np.mean(_log_derivative(s, w) * np.exp(1j * phi)))


# --- half-line model of the symbol operator ---------------------------------


def unilateral_shift(n: int) -> np.ndarray:
    """The isometry e_k -> e_{k+1} truncated to an n x n matrix."""
    v = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    v[idx + 1, idx] = 1.0
    return v


@dataclass(frozen=True)
class HalfLineOperator:
    """Truncation of the symbol operator with the unilateral shift in place
    of the tree isometry."""

    matrix: np.ndarray


def half_line_operator(s: SymbolLoop, n: int) -> HalfLineOperator:
    """Symbol operator on span{e_0, ..., e_{n-1}}.

    q sqrt((1+a)/(1-a)) conj(b) V - conj(q) sqrt((1-a)/(1+a)) b V*
      + (1 + p) |b| (1 - V V*) - 2 p |b|.

    For p = 0 this is the tridiagonal-plus-corner pattern
    alpha V - beta V* + |b|(1 - V V*).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    v = unilateral_shift(n)
    s_plus = math.sqrt(1.0 + s.a)
    s_minus = math.sqrt(1.0 - s.a)
    c_plus = s.q * (s_plus / s_minus) * np.conj(s.b)
    c_minus = np.conj(s.q) * (s_minus / s_plus) * s.b
    corner = np.zeros((n, n), dtype=np.complex128)
    corner[0, 0] = 1.0
    m = (c_plus * v - c_minus * v.conj().T
         + (1.0 + s.p) * s.b_abs * corner
         - 2.0 * s.p * s.b_abs * np.eye(n))
    return HalfLineOperator(m)


class KernelVector(NamedTuple):
    side: str                 # "adjoint" (a > 0) or "direct" (a < 0)
    coeffs: np.ndarray
    decay_ratio: float        # |C_{n+1} / C_{n-1}|, strictly below 1


def kernel_recursion(s: SymbolLoop, n: int) -> KernelVector:
    """Coefficients of the one-dimensional null vector of the half-line symbol
    operator at p = 0.

    For a > 0 the adjoint has the null vector: C_1 = -(sqrt(1-a)/sqrt(1+a))
    (|b|/b) C_0 and C_{k+1} = ((1-a)/(1+a)) (conj(b)/b) C_{k-1}; for a < 0 the
    operator itself does, with the mirrored coefficients.  The two-step ratio
    is below 1 in modulus, so the vector is square-summable and the truncated
    operator shows exactly one near-zero singular value.
    """
    if s.p != 0.0:
        raise ValueError("kernel recursion applies to the p = 0 symbol only")
    if s.a == 0.0:
        raise ValueError("a = 0 is the non-invertible locus; no isolated kernel")
    if n < 2:
        raise ValueError("need n >= 2")
    s_plus = math.sqrt(1.0 + s.a)
    s_minus = math.sqrt(1.0 - s.a)
    phase = s.b_abs / s.b                      # exp(-i theta)
    if s.a > 0:
        side = "adjoint"
        first = -(s_minus / s_plus) * phase
        ratio = ((1.0 - s.a) / (1.0 + s.a)) * (np.conj(s.b) / s.b)
    else:
        side = "direct"
        first = (s_plus / s_minus) * phase
        ratio = ((1.0 + s.a) / (1.0 - s.a)) * (np.conj(s.b) / s.b)
    coeffs = np.empty(n, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[1] = first
    for k in range(2, n):
        coeffs[k] = ratio * coeffs[k - 2]
    return KernelVector(side, coeffs, abs(ratio))


# --- Falk trace pairing ------------------------------------------------------


def falk_pairing(f_value: int, trunc: int) -> float:
    """Trace pairing of the loop u = z f + (1 - f) at one boundary point.

    With scalar f in {0, 1} and lifts M = V f + (1 - f), N = V* f + (1 - f),
    the pairing is the windowed trace of (1 - M N)^2 minus that of
    (1 - N M)^2, oriented so that f = 1 (the loop z itself) pairs to +1,
    matching its winding.  The trace is restricted to the first ``trunc``
    diagonal entries of a padded window; the factors have bandwidth <= 2, so
    the windowed diagonal of the tridiagonal 1 - M N and 1 - N M is exactly
    the half-line value.
    """
    if f_value not in (0, 1):
        raise ValueError(f"f must be the scalar 0 or 1, got {f_value}")
    if trunc < FALK_MIN_TRUNC:
        raise ValueError(f"need truncation >= {FALK_MIN_TRUNC}")
    f = float(f_value)
    d = np.full(trunc + 4, 1.0 - f)        # M is real: diagonal d, subdiagonal s
    s = np.full(trunc + 3, f)
    # 1 - M N and 1 - N M have diagonals 1 - d^2 - s^2, with s shifted down or
    # up, and off-diagonals -d s, which vanish for f in {0, 1}; so the diagonal
    # of their square is their diagonal squared
    top = 1.0 - d * d - np.append(0.0, s * s)
    bottom = 1.0 - d * d - np.append(s * s, 0.0)
    return float((top[:trunc] ** 2).sum() - (bottom[:trunc] ** 2).sum())


def falk_cylinder_pairing(cyl: Cylinder, measure: ProductMeasure, trunc: int) -> float:
    """Measure-weighted aggregate of the pointwise Falk pairing over the
    boundary, with f = 1 on ``cyl`` and f = 0 off it.

    The pointwise pairing depends only on f, so the aggregate is
    mu(cyl) falk(1) + (1 - mu(cyl)) falk(0): two pairings, whatever the level
    of the cylinder.  Both are exact (1.0 and 0.0), so the value is mu(cyl).
    """
    mu = float(cylinder_measure(measure, cyl))
    return mu * falk_pairing(1, trunc) + (1.0 - mu) * falk_pairing(0, trunc)


def loop_min(s: SymbolLoop, samples: int = 8192) -> tuple[float, complex]:
    """Minimum of |g| over the ``samples`` points of the cached circle (the
    values ``winding_quadrature`` reads at that count, without the closing
    point), with the minimizing point exp(2 pi i k / samples)."""
    if samples < 1:
        raise ValueError(f"need at least 1 circle sample, got {samples}")
    values = np.abs(_loop_values(s, samples)[:samples])
    k = int(np.argmin(values))
    return float(values[k]), complex(_circle(samples)[k])
