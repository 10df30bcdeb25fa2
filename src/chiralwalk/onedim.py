"""Coined walks on the integer lattice and the Fredholm index of their
chirality block.

The lattice symmetry is (1/sqrt 2) [[1, L*], [L, -1]] for the forward shift
L e_j = e_{j+1}; combined with a coin whose tails settle on constants, the
chirality block (1-C)/2 Q (1+C)/2 is Fredholm whenever both tail values keep
|a| away from 1/sqrt(2), and its index is read off a truncation: kernel and
cokernel vectors of the infinite problem decay exponentially off the
transition region, so after discarding singular vectors that pile up on the
lattice edges (truncation artifacts), the SVD rank defect of the truncated
block recovers the true index.  The one dense operator a line bundle keeps
is the skew part U - U* of the walk unitary; the coin stays per-site data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import block2, mul_diag_block_right
from .walk import LineWalkSpec, line_coeff

CRITICAL = 1.0 / math.sqrt(2.0)
TAIL_GAP = 0.05          # required distance of |a(tails)| from 1/sqrt(2)
EDGE_FRACTION = 0.10     # outermost share of sites counted as "edge"
EDGE_MASS = 0.50         # mass on the edge above which a vector is discarded
AMBIGUOUS_FACTOR = 100.0


class InconclusiveTruncationError(RuntimeError):
    """Singular values fell between tol and 100 tol; enlarge the halfwidth."""


@dataclass
class LineBundle:
    """Truncated lattice operators for one line walk.

    ``skew = U - U*`` is the one dense operator kept: it is what
    ``chirality_map`` compresses.  The shift, the symmetry and the walk
    unitary ``U`` it is built from are dropped once it is formed.  The coin
    is kept only as its per-site data ``a`` and ``b``, from which
    ``chirality_map`` writes the coin eigenspaces.
    """

    spec: LineWalkSpec
    halfwidth: int
    sites: np.ndarray
    a: np.ndarray
    b: np.ndarray
    skew: np.ndarray


def build_line(spec: LineWalkSpec, halfwidth: int) -> LineBundle:
    """Operators on sites -N..N (dimension 2(2N+1) for the block operators)."""
    n_sites = 2 * halfwidth + 1
    if halfwidth < 2:
        raise ValueError("need halfwidth >= 2")
    support = [pos for pos, _ in spec.middle]
    if support and (min(support) < -halfwidth / 2 or max(support) > halfwidth / 2):
        raise ValueError(
            f"middle support {min(support)}..{max(support)} exceeds halfwidth/2 = {halfwidth / 2}")
    sites = np.arange(-halfwidth, halfwidth + 1)
    coeffs = [line_coeff(spec, int(n)) for n in sites]
    a = np.array([c.a for c in coeffs])
    b = np.array([c.b for c in coeffs], dtype=np.complex128)

    shift = np.zeros((n_sites, n_sites), dtype=np.complex128)
    idx = np.arange(n_sites - 1)
    shift[idx + 1, idx] = 1.0

    eye = np.eye(n_sites, dtype=np.complex128)
    symmetry = block2(eye, shift.conj().T, shift, -eye) / math.sqrt(2.0)
    del shift, eye
    cblocks = (a.astype(np.complex128), np.conj(b), b, -a.astype(np.complex128))
    evolution = mul_diag_block_right(symmetry, cblocks)
    del symmetry
    skew = evolution - evolution.conj().T
    return LineBundle(spec=spec, halfwidth=halfwidth, sites=sites, a=a, b=b, skew=skew)


def chirality_map(bundle: LineBundle) -> np.ndarray:
    """The block (1-C)/2 Q (1+C)/2 written between orthonormal bases of the
    coin eigenspaces.

    The coin is block diagonal over sites, so its +-1 eigenvectors are the
    per-site columns (s+, b/s+)/sqrt(2) and (-s-, b/s-)/sqrt(2); in those
    bases the block is a square matrix indexed by lattice sites.
    """
    n = len(bundle.sites)
    s_plus = np.sqrt(1.0 + bundle.a)
    s_minus = np.sqrt(1.0 - bundle.a)
    r = 1.0 / math.sqrt(2.0)
    u1, u2 = r * s_plus, r * bundle.b / s_plus            # basis of Ran (1+C)/2
    v1, v2 = -r * s_minus, r * bundle.b / s_minus         # basis of Ran (1-C)/2
    q = bundle.skew
    qb = q[:, :n] * u1 + q[:, n:] * u2                    # Q restricted to +1 side
    return np.conj(v1)[:, None] * qb[:n] + np.conj(v2)[:, None] * qb[n:]


@dataclass(frozen=True)
class LineIndexResult:
    index: int
    kernel_kept: int
    cokernel_kept: int
    kernel_discarded: int
    cokernel_discarded: int
    null_singular_values: tuple[float, ...]
    gap: float

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kernel_kept": self.kernel_kept,
            "cokernel_kept": self.cokernel_kept,
            "kernel_discarded": self.kernel_discarded,
            "cokernel_discarded": self.cokernel_discarded,
            "null_singular_values": list(self.null_singular_values),
            "gap": self.gap,
        }


def _edge_mass(vec: np.ndarray, edge: np.ndarray) -> float:
    weight = np.abs(vec) ** 2
    total = weight.sum()
    return float(weight[edge].sum() / total) if total > 0 else 1.0


def fredholm_index(bundle: LineBundle, tol: float = 1e-8) -> LineIndexResult:
    """Index of the chirality block from the filtered SVD rank defect.

    Singular values below ``tol`` count as null directions; any value between
    tol and 100 tol makes the truncation inconclusive.  Null singular vectors
    carrying at least half their mass on the outermost tenth of sites are
    truncation artifacts (a square truncation always pairs every small
    singular value with vectors on both sides; the spurious side localizes at
    the lattice edge) and are discarded before counting.
    """
    for side, value in (("left", bundle.spec.left.a), ("right", bundle.spec.right.a)):
        if abs(abs(value) - CRITICAL) < TAIL_GAP:
            raise ValueError(
                f"{side} tail |a| = {abs(value):.4f} within {TAIL_GAP} of 1/sqrt(2); "
                "the chirality block is not Fredholm there")
    m = chirality_map(bundle)
    u, s, vh = np.linalg.svd(m)
    ambiguous = s[(s > tol) & (s < AMBIGUOUS_FACTOR * tol)]
    if ambiguous.size:
        raise InconclusiveTruncationError(
            f"singular values {ambiguous} inside ({tol}, {AMBIGUOUS_FACTOR * tol}); "
            "increase the halfwidth")
    null_idx = np.flatnonzero(s <= tol)
    edge = np.abs(bundle.sites) >= (1.0 - EDGE_FRACTION) * bundle.halfwidth
    kernel_kept = kernel_discarded = cokernel_kept = cokernel_discarded = 0
    for i in null_idx:
        right = vh[i].conj()
        left = u[:, i]
        if _edge_mass(right, edge) < EDGE_MASS:
            kernel_kept += 1
        else:
            kernel_discarded += 1
        if _edge_mass(left, edge) < EDGE_MASS:
            cokernel_kept += 1
        else:
            cokernel_discarded += 1
    above = s[s >= AMBIGUOUS_FACTOR * tol]
    gap = float(above.min()) if above.size else float("inf")
    return LineIndexResult(
        index=kernel_kept - cokernel_kept,
        kernel_kept=kernel_kept,
        cokernel_kept=cokernel_kept,
        kernel_discarded=kernel_discarded,
        cokernel_discarded=cokernel_discarded,
        null_singular_values=tuple(float(x) for x in s[null_idx]),
        gap=gap,
    )
