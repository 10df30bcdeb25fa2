"""Shared generators for randomized walk specs, the scans that witness the
prefix-code lookup of ``chiralwalk.cantor``, the dense full-truncation tree
route that witnesses the interior slabs and bundle of ``chiralwalk.treeop``,
the dense Falk trace that witnesses ``chiralwalk.symbol.falk_pairing``, and
the dense lattice route that witnesses ``chiralwalk.onedim``."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chiralwalk.cantor import Cylinder
from chiralwalk.linalg import mul_diag_block_right
from chiralwalk.onedim import CRITICAL, TAIL_GAP
from chiralwalk.symbol import unilateral_shift
from chiralwalk.tree import check_vertex
from chiralwalk.treeop import TreeOperators, coin_blocks
from chiralwalk.walk import LineWalkSpec, SphereCoeff, ValidationError, WalkSpec, line_coeff


def sphere_coeff(a: float, phase: float = 0.0) -> SphereCoeff:
    return SphereCoeff.make(a, np.sqrt(1.0 - a * a) * np.exp(1j * phase))


# --- the scanning prefix-code lookup ---------------------------------------
#
# The cell lookup as it was before ``cantor.prefix_cell`` searched the sorted
# prefixes: a test of every pair for nesting, and a scan over every cell.


def scan_check_prefix_partition(prefixes: list[str]) -> None:
    """Oracle for ``cantor.check_prefix_partition``: the same error text."""
    for p in prefixes:
        check_vertex(p)
    top = max((len(p) for p in prefixes), default=0)
    nested = any(a.startswith(b) or b.startswith(a)
                 for i, a in enumerate(prefixes) for b in prefixes[i + 1:])
    if nested or sum(1 << (top - len(p)) for p in prefixes) != 1 << top:
        raise ValueError(f"prefixes do not form a complete prefix code: {sorted(prefixes)}")


def scan_eval_boundary(w: WalkSpec, c: Cylinder) -> SphereCoeff:
    """Coefficient of the cell holding the cylinder ``c``.  Oracle for the
    cells that ``cantor.refine_partition`` pairs with its cylinders."""
    for prefix, coeff in w.cells:
        if c.prefix.startswith(prefix):
            return coeff
    raise ValidationError(
        f"cylinder {c.prefix!r} is coarser than the cell partition; "
        f"refine to level >= {w.max_level}")


def scan_eval_vertex(w: WalkSpec, v: str, rule: str = "leftmost") -> SphereCoeff:
    """Coefficient of the tree vertex ``v``.  Oracle for ``treeop.coin_values``:
    a scan for the vertex's cell, then a second scan for its all-zeros or
    all-ones continuation."""
    check_vertex(v)
    for prefix, coeff in w.cells:
        if v.startswith(prefix):
            return coeff
    if rule == "leftmost":
        probe = v + "0" * (w.max_level - len(v))
    elif rule == "rightmost":
        probe = v + "1" * (w.max_level - len(v))
    else:
        raise ValueError(f"unknown interior rule {rule!r}")
    return scan_eval_boundary(w, Cylinder(probe))


def dense_falk_pairing(f_value: int, trunc: int) -> float:
    """Oracle for ``symbol.falk_pairing``: the windowed traces read off dense
    (trunc + 4)^2 products of the lifts M = V f + (1 - f), N = V* f + (1 - f)."""
    pad = trunc + 4
    v = unilateral_shift(pad)
    eye = np.eye(pad, dtype=np.complex128)
    f = float(f_value)
    m = v * f + (1.0 - f) * eye
    n_ = v.conj().T * f + (1.0 - f) * eye
    top = eye - m @ n_
    bottom = eye - n_ @ m
    window = slice(0, trunc)
    raw = (np.trace((bottom @ bottom)[window, window])
           - np.trace((top @ top)[window, window]))
    return float((-raw).real) + 0.0


def shift_matrix(t) -> np.ndarray:
    """The dense tree shift of a truncated tree: (S f)(v) = f(parent(v)),
    with a zero root row.  Oracle for :func:`dense_tree_operators`, which
    writes S / sqrt(2) in place at the breadth-first parent (i - 1) // 2; this
    one finds each parent from its address instead."""
    n = t.size
    index = {v: i for i, v in enumerate(t.addresses)}
    s = np.zeros((n, n), dtype=np.complex128)
    for child, v in enumerate(t.addresses[1:], start=1):
        s[child, index[v[:-1]]] = 1.0
    return s


def dense_tree_operators(t) -> TreeOperators:
    """The n x n isometry L = S / sqrt(2) and defect E = 1 - L L* of the whole
    truncation, E in closed form.  Oracle for ``treeop.tree_operators``,
    whose slabs are L[:, :m] and E[:m] for the m interior vertices."""
    n = t.size
    r = 1.0 / math.sqrt(2.0)
    below = np.arange(1, n)
    # S / sqrt(2) written in place, r at (child, parent): the bytes of the
    # quotient without a second n x n array
    isometry = np.zeros((n, n), dtype=np.complex128)
    isometry[below, (below - 1) // 2] = r
    defect = np.zeros((n, n), dtype=np.complex128)
    defect[below, below] = 1.0 - r * r
    defect[0, 0] = 1.0
    odd = np.arange(1, n, 2)
    defect[odd, odd + 1] = -r * r
    defect[odd + 1, odd] = -r * r
    return TreeOperators(t, isometry, defect)


def dense_symmetry(isometry: np.ndarray, defect: np.ndarray, p: float,
                   q: complex) -> np.ndarray:
    """The full 2n x 2n involution [[p, conj(q) L*], [q L, (1 + p) E - p]].
    Oracle for ``treeop.shift_symmetry``, which forms only its interior rows
    by the same entry expressions."""
    n = isometry.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    idx = np.arange(n)
    out[idx, idx] = p
    out[:n, n:] = np.conj(q) * isometry.conj().T
    out[n:, :n] = q * isometry
    out[n:, n:] = (1.0 + p) * defect
    out[n + idx, n + idx] -= p
    return out


def dense_skew(symmetry: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """U - U* for the dense walk unitary U = (symmetry)(coin) on the whole
    truncation.  Oracle for the interior skew part of ``treeop.build_bundle``."""
    u = mul_diag_block_right(symmetry, coin_blocks(a, b))
    return u - u.conj().T


def random_partition(rng: np.random.Generator, max_level: int, splits: int | None = None):
    """Random complete prefix code with prefixes no longer than max_level."""
    cells = [""]
    n_splits = int(rng.integers(1, 6)) if splits is None else splits
    for _ in range(n_splits):
        i = int(rng.integers(len(cells)))
        p = cells[i]
        if len(p) < max_level:
            cells.pop(i)
            cells += [p + "0", p + "1"]
    return sorted(cells)


def random_walk_spec(rng: np.random.Generator, max_level: int = 3,
                     p_value: float | None = None, a_bound: float = 0.95,
                     a_margin_from_p: float = 0.0) -> WalkSpec:
    """Random valid walk: random partition, coefficients away from |a| = 1,
    and optionally away from the degenerate locus |a| = |p|."""
    if p_value is None:
        angle = rng.uniform(0.0, np.pi)
        p = float(np.cos(angle)) * 0.9
    else:
        p = p_value
    q = np.sqrt(1.0 - p * p) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    cells = []
    for prefix in random_partition(rng, max_level):
        while True:
            a = float(rng.uniform(-a_bound, a_bound))
            if abs(abs(a) - abs(p)) > a_margin_from_p:
                break
        cells.append((prefix, sphere_coeff(a, float(rng.uniform(0.0, 2.0 * np.pi)))))
    return WalkSpec.make(p, q, cells)


def reference_montecarlo(w: WalkSpec, m, samples: int, seed: int):
    """The scalar Monte Carlo pairing: one ``rng.random()`` and one
    ``m.weight`` call per boundary bit.  Reference for the vectorized decode
    in ``s_index_montecarlo``, whose reports must match it byte for byte."""
    from chiralwalk.index import CellWinding, IndexReport, loop_for_cell
    from chiralwalk.symbol import winding_quadrature

    cell_winding = {prefix: int(round(winding_quadrature(loop_for_cell(w, coeff))))
                    for prefix, coeff in w.cells}
    rng = np.random.default_rng(seed)
    hits = {prefix: 0 for prefix in cell_winding}
    values = np.empty(samples, dtype=float)
    for i in range(samples):
        prefix = ""
        while prefix not in cell_winding:
            w0 = m.weight(len(prefix) + 1, "0")
            prefix += "0" if rng.random() < w0 else "1"
        hits[prefix] += 1
        values[i] = cell_winding[prefix]
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    return IndexReport(
        mode="mc",
        numeric=float(values.mean()),
        per_cell=tuple(CellWinding(prefix, cell_winding[prefix], hits[prefix] / samples)
                       for prefix in sorted(cell_winding)),
        classification_counts={
            "plus": int(np.count_nonzero(values == 1)),
            "zero": int(np.count_nonzero(values == 0)),
            "minus": int(np.count_nonzero(values == -1)),
        },
        mc_stderr=stderr,
        samples=samples,
        seed=seed,
    )


# --- the dense lattice route ----------------------------------------------
#
# The truncated lattice operators and the filtered SVD count that ``onedim``
# used before it counted kernels with transfer matrices, kept as a witness:
# on sites -N..N it forms the skew part U - U* densely, compresses it to the
# chirality block, and counts singular values below tol whose vectors do not
# pile up on the lattice edge.

EDGE_FRACTION = 0.10     # outermost share of sites counted as "edge"
EDGE_MASS = 0.50         # mass on the edge above which a vector is discarded
AMBIGUOUS_FACTOR = 100.0


class InconclusiveTruncationError(RuntimeError):
    """Singular values fell between tol and 100 tol; enlarge the halfwidth."""


@dataclass
class DenseLineBundle:
    """Truncated lattice operators for one line walk: the per-site coin data
    ``a`` and ``b`` on sites -N..N and the dense skew part ``U - U*``."""

    spec: LineWalkSpec
    halfwidth: int
    sites: np.ndarray
    a: np.ndarray
    b: np.ndarray
    skew: np.ndarray


def dense_build_line(spec: LineWalkSpec, halfwidth: int) -> DenseLineBundle:
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
    symmetry = np.block([[eye, shift.conj().T], [shift, -eye]]) / math.sqrt(2.0)
    del shift, eye
    cblocks = (a.astype(np.complex128), np.conj(b), b, -a.astype(np.complex128))
    evolution = mul_diag_block_right(symmetry, cblocks)
    del symmetry
    skew = evolution - evolution.conj().T
    return DenseLineBundle(spec=spec, halfwidth=halfwidth, sites=sites, a=a, b=b, skew=skew)


def dense_chirality_map(bundle: DenseLineBundle) -> np.ndarray:
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
class DenseLineIndexResult:
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


def dense_fredholm_index(bundle: DenseLineBundle, tol: float = 1e-8) -> DenseLineIndexResult:
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
    m = dense_chirality_map(bundle)
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
    return DenseLineIndexResult(
        index=kernel_kept - cokernel_kept,
        kernel_kept=kernel_kept,
        cokernel_kept=cokernel_kept,
        kernel_discarded=kernel_discarded,
        cokernel_discarded=cokernel_discarded,
        null_singular_values=tuple(float(x) for x in s[null_idx]),
        gap=gap,
    )
