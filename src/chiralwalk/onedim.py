"""Coined walks on the integer lattice and the Fredholm index of their
chirality block.

The lattice symmetry is (1/sqrt 2) [[1, L*], [L, -1]] for the forward shift
L e_j = e_{j+1}.  Between orthonormal bases of the coin's +1 and -1
eigenspaces, the chirality block (1-C)/2 Q (1+C)/2 is the tridiagonal
operator M = 2 V* Gamma U+ on l^2(Z), whose entries have a closed form.  Its
off-diagonals never vanish for |a| < 1, so a null vector is fixed by two
consecutive entries, and a 2x2 transfer matrix carries it along the chain.
In a constant tail the transfer matrix is constant, and the solutions that
decay are its eigenvectors with |lambda| > 1 (to the left) or |lambda| < 1
(to the right).  The kernel of M is the intersection of the left-decaying
space, carried across the middle, with the right-decaying space; the
cokernel is the same count for M*.  M is Fredholm whenever both tails keep
|a| away from 1/sqrt(2), and the count is exact: it reads the middle sites
and three sites of each tail, whatever the halfwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .index import classify_point
from .symbol import on_locus
from .walk import LineWalkSpec, line_coeff

CRITICAL = 1.0 / math.sqrt(2.0)
TAIL_GAP = 0.05          # required distance of |a(tails)| from 1/sqrt(2)
AMBIGUOUS_FACTOR = 100.0
TAIL_SITES = 3           # sites of each tail that its transfer matrix reads


class InconclusiveIndexError(RuntimeError):
    """A sine fell between tol and 100 tol, or the counts broke the tail rule."""


@dataclass
class LineBundle:
    """Per-site coin data ``a`` and ``b`` of one line walk on the sites the
    transfer matrices read: the middle, the sites -1 and 0 where the tails
    meet, and ``TAIL_SITES`` sites of each tail beyond them."""

    spec: LineWalkSpec
    sites: np.ndarray
    a: np.ndarray
    b: np.ndarray


def build_line(spec: LineWalkSpec, halfwidth: int) -> LineBundle:
    """Coin data of the walk on the sites the transfer count reads.

    ``halfwidth`` sets no size: it must be at least 2, and the middle must lie
    within halfwidth/2 of site 0.
    """
    if halfwidth < 2:
        raise ValueError("need halfwidth >= 2")
    support = [pos for pos, _ in spec.middle]
    if support and (min(support) < -halfwidth / 2 or max(support) > halfwidth / 2):
        raise ValueError(
            f"middle support {min(support)}..{max(support)} exceeds halfwidth/2 = {halfwidth / 2}")
    sites = np.arange(min(support + [0]) - TAIL_SITES, max(support + [0]) + TAIL_SITES + 1)
    coeffs = [line_coeff(spec, int(n)) for n in sites]
    a = np.array([c.a for c in coeffs])
    b = np.array([c.b for c in coeffs], dtype=np.complex128)
    return LineBundle(spec=spec, sites=sites, a=a, b=b)


def chirality_map(bundle: LineBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonals ``(sub, diag, sup)`` of M = 2 V* Gamma U+ over the
    bundle's sites: M[i+1, i] = sub[i], M[i, i] = diag[i], M[i, i+1] = sup[i].

    The coin's +1 and -1 eigenvectors are the per-site columns
    U+ = (u1, u2) = (s+, b/s+)/sqrt(2) and V = (v1, v2) = (-s-, b/s-)/sqrt(2),
    s+- = sqrt(1 +- a).
    """
    s_plus = np.sqrt(1.0 + bundle.a)
    s_minus = np.sqrt(1.0 - bundle.a)
    r = 1.0 / math.sqrt(2.0)
    u1, u2 = r * s_plus, r * bundle.b / s_plus
    v1, v2 = -r * s_minus, r * bundle.b / s_minus
    root2 = math.sqrt(2.0)
    diag = root2 * (np.conj(v1) * u1 - np.conj(v2) * u2)
    sup = root2 * np.conj(v1[:-1]) * u2[1:]
    sub = root2 * np.conj(v2[1:]) * u1[:-1]
    return sub, diag, sup


@dataclass(frozen=True)
class LineIndexResult:
    """Exact counts and their margins.  An exact count discards nothing, so
    ``kernel_discarded`` and ``cokernel_discarded`` are always 0; they stay
    for readers of the report format."""

    index: int
    kernel_kept: int
    cokernel_kept: int
    kernel_discarded: int
    cokernel_discarded: int
    tail_margins: tuple[float, float]
    sines: tuple[float | None, float | None]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kernel_kept": self.kernel_kept,
            "cokernel_kept": self.cokernel_kept,
            "kernel_discarded": self.kernel_discarded,
            "cokernel_discarded": self.cokernel_discarded,
            "tail_margins": list(self.tail_margins),
            "sines": list(self.sines),
        }


def _decaying(t: np.ndarray, grow: bool) -> tuple[np.ndarray, float]:
    """Basis (as columns) of the span of the eigenvectors of ``t`` with
    |lambda| > 1 (``grow``) or < 1, and min ||lambda| - 1|.  The two moduli
    differ whenever one eigenvector is kept, so that one is well defined."""
    lam, vecs = np.linalg.eig(t)
    moduli = np.abs(lam)
    keep = moduli > 1.0 if grow else moduli < 1.0
    count = int(keep.sum())
    basis = vecs[:, keep] if count == 1 else np.eye(2)[:, :count]
    return basis, float(np.min(np.abs(moduli - 1.0)))


def _null_count(sub, diag, sup, tol: float):
    """dim ker of the infinite tridiagonal operator with the given diagonals,
    constant beyond the first and last ``TAIL_SITES`` sites; the sine between
    the two decaying lines (None when their dimensions decide); and the left
    and right tail margins.

    Row i of M x = 0 reads sub[i-1] x_{i-1} + diag[i] x_i + sup[i] x_{i+1} = 0,
    so (x_i, x_{i+1}) = T_i (x_{i-1}, x_i) with the transfer matrix
    T_i = [[0, 1], [-sub[i-1]/sup[i], -diag[i]/sup[i]]].
    """
    transfer = np.zeros((len(diag) - 2, 2, 2), dtype=np.complex128)
    transfer[:, 0, 1] = 1.0
    transfer[:, 1, 0] = -sub[:-1] / sup[1:]
    transfer[:, 1, 1] = -diag[1:-1] / sup[1:]
    left, left_margin = _decaying(transfer[0], grow=True)
    right, right_margin = _decaying(transfer[-1], grow=False)
    margins = (left_margin, right_margin)
    if left.shape[1] != 1 or right.shape[1] != 1:
        return max(left.shape[1] + right.shape[1] - 2, 0), None, margins
    x = left[:, 0]
    for t in transfer:
        x = t @ x
        x /= np.linalg.norm(x)
    y = right[:, 0]
    sine = float(abs(x[0] * y[1] - x[1] * y[0]))
    if tol < sine < AMBIGUOUS_FACTOR * tol:
        raise InconclusiveIndexError(
            f"sine {sine:.3g} between the decaying lines inside ({tol}, {AMBIGUOUS_FACTOR * tol})")
    return int(sine <= tol), sine, margins


def fredholm_index(bundle: LineBundle, tol: float = 1e-8) -> LineIndexResult:
    """Kernel, cokernel and index of the chirality block on l^2(Z), counted
    exactly by transfer matrices.

    The decaying lines of M (or M*) meet when the sine between them is at
    most ``tol``; a sine inside (tol, 100 tol) is inconclusive.  The index must
    equal the winding of the left tail minus that of the right tail.
    """
    spec = bundle.spec
    for side, value in (("left", spec.left.a), ("right", spec.right.a)):
        if on_locus(value, CRITICAL, TAIL_GAP):
            raise ValueError(
                f"{side} tail |a| = {abs(value):.4f} within {TAIL_GAP} of 1/sqrt(2); "
                "the chirality block is not Fredholm there")
    sub, diag, sup = chirality_map(bundle)
    kernel, kernel_sine, margins = _null_count(sub, diag, sup, tol)
    cokernel, cokernel_sine, _ = _null_count(np.conj(sup), np.conj(diag), np.conj(sub), tol)
    index = kernel - cokernel
    tails = classify_point(spec.left.a, CRITICAL) - classify_point(spec.right.a, CRITICAL)
    if index != tails:
        raise InconclusiveIndexError(
            f"transfer counts give index {index}, the tail windings {tails}")
    return LineIndexResult(
        index=index,
        kernel_kept=kernel,
        cokernel_kept=cokernel,
        kernel_discarded=0,
        cokernel_discarded=0,
        tail_margins=margins,
        sines=(kernel_sine, cokernel_sine),
    )
