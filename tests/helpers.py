"""Shared generators for randomized walk specs, the JSON writers of the walk
file formats that ``chiralwalk.walk`` parses, the address enumeration that
witnesses the breadth-first vertex index of ``chiralwalk.tree``, the
partition refinement by a sorted search and the scans that witness the
prefix-code lookups of ``chiralwalk.cantor`` and ``chiralwalk.treeop``, the
dense two-term kernels and the address-built neighbour pattern that witness
the slot kernel of ``chiralwalk.linalg``, the row expansion and the dense
full-truncation tree route that witness the tree operators and bundle of
``chiralwalk.treeop``, the dense Falk trace that witnesses
``chiralwalk.symbol.falk_pairing``, and the per-site lookup and dense lattice
route that witness ``chiralwalk.onedim``."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from chiralwalk.cantor import Cylinder, check_prefix_partition, check_vertex
from chiralwalk.onedim import CRITICAL, TAIL_GAP, TAIL_SITES
from chiralwalk.symbol import unilateral_shift
from chiralwalk.tree import TruncatedTree
from chiralwalk.treeop import build_bundle, coin_blocks, coin_values, conjugator_blocks
from chiralwalk.walk import LineWalkSpec, SphereCoeff, ValidationError, WalkSpec


def sphere_coeff(a: float, phase: float = 0.0) -> SphereCoeff:
    return SphereCoeff.make(a, np.sqrt(1.0 - a * a) * np.exp(1j * phase))


# --- walk files ---------------------------------------------------------------


def _complex_to(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def walk_to_json(w: WalkSpec) -> str:
    doc = {
        "p": w.p,
        "q": _complex_to(w.q),
        "cells": [{"prefix": prefix, "a": c.a, "b": _complex_to(c.b)}
                  for prefix, c in w.cells],
    }
    return json.dumps(doc, indent=2)


def line_walk_to_json(spec: LineWalkSpec) -> str:
    doc = {
        "left": {"a": spec.left.a, "b": _complex_to(spec.left.b)},
        "right": {"a": spec.right.a, "b": _complex_to(spec.right.b)},
        "middle": [{"n": n, "a": c.a, "b": _complex_to(c.b)} for n, c in spec.middle],
    }
    return json.dumps(doc, indent=2)


# --- the tree's vertex addresses ----------------------------------------------


def addresses(depth: int) -> list[str]:
    """The vertex bit strings of the tree truncated at ``depth``, in
    breadth-first order, enumerated level by level.  Oracle for the
    breadth-first index that names a vertex in ``chiralwalk.tree``: entry
    ``i`` is the address of vertex ``i``."""
    out, level = [""], [""]
    for _ in range(depth):
        level = [v + bit for v in level for bit in "01"]
        out.extend(level)
    return out


# --- the sorted and the scanning prefix-code lookups --------------------------
#
# The cell lookup as the library made it before it walked the code's trie: a
# sorted search among the prefixes, and before that a test of every pair for
# nesting and a scan over every cell.


def prefix_cell(prefixes, codes) -> np.ndarray:
    """Index of the prefix that each of ``codes`` extends in the sorted
    complete prefix code ``prefixes`` (bit strings as ``str`` or ``bytes``).

    Every code must be at least as long as the deepest prefix, so it extends
    exactly one prefix; in sorted order a prefix comes right before the
    strings that extend it, so that prefix is the last one not after the code.
    """
    return np.searchsorted(np.asarray(prefixes, dtype=bytes), np.asarray(codes, dtype=bytes),
                           side="right") - 1


def refine_partition(cells: list[Cylinder], level: int) -> list[tuple[Cylinder, Cylinder]]:
    """Refine a cylinder partition to the full level-n partition.

    Returns the 2**level cylinders of the given level in lexicographic order,
    each paired with the ancestor cell it refines.  Fails when the cells do
    not partition the boundary or when any cell is already finer than the
    requested level.
    """
    check_prefix_partition([c.prefix for c in cells])
    too_deep = [c for c in cells if c.level > level]
    if too_deep:
        raise ValueError(
            f"cannot refine to level {level}: cells {[c.prefix for c in too_deep]} are finer")
    if level > 30:
        raise ValueError(f"refusing to enumerate 2^{level} cylinders")
    cells = sorted(cells, key=lambda c: c.prefix)
    codes = [format(i, f"0{level}b") if level else "" for i in range(1 << level)]
    owners = prefix_cell([c.prefix for c in cells], codes)
    return [(Cylinder(p), cells[i]) for p, i in zip(codes, owners)]


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
    cells that :func:`refine_partition` pairs with its cylinders."""
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


# --- the slot pattern and the dense two-term kernels --------------------------
#
# The slot kernel holds a block by its entries at each vertex's self, parent,
# sibling and children; the oracle here finds those neighbours from the
# vertex addresses.  The coin-type products as ``chiralwalk.linalg`` formed
# them on dense matrices before it held operators sparsely: every output
# entry is the same two-term sum the slot kernels form, so their densified
# results must agree exactly.


def slot_neighbours(m: int) -> np.ndarray:
    """The (5, m) columns that the self, parent, sibling and two child slots
    of the m interior vertices name, -1 where there is none, found from the
    vertex addresses.  Oracle for the neighbour table of
    ``treeop.coin_values`` and for ``linalg.pattern``."""
    vertices = addresses((m + 1).bit_length())
    index = {v: i for i, v in enumerate(vertices)}
    out = np.full((5, m), -1)
    for i, v in enumerate(vertices[:m]):
        parent, sibling = (v[:-1], v[:-1] + "10"[int(v[-1])]) if v else (None, None)
        for s, u in enumerate((v, parent, sibling, v + "0", v + "1")):
            if u is not None:
                out[s, i] = index[u]
    return out


def _slot_positions(x: np.ndarray, cols: int | None):
    """A block's column count (default m), the slots that name a column
    inside it, and each slot's row and column."""
    m = x.shape[-1]
    cols = m if cols is None else cols
    column = slot_neighbours(m)
    row = np.broadcast_to(np.arange(m), column.shape)
    return cols, (column >= 0) & (column < cols), row, column


def densify(x: np.ndarray, cols: int | None = None) -> np.ndarray:
    """The dense matrix of a grid of slot blocks held by rows, each block m x
    ``cols`` (default m); a slot that names no column inside must be 0."""
    rows_b, cols_b, _, m = x.shape
    cols, inside, row, column = _slot_positions(x, cols)
    out = np.zeros((rows_b * m, cols_b * cols), dtype=np.complex128)
    for i in range(rows_b):
        for j in range(cols_b):
            assert not np.any(x[i, j][~inside])
            out[i * m + row[inside], j * cols + column[inside]] = x[i, j][inside]
    return out


def assert_slots_exact(x: np.ndarray, dense: np.ndarray, cols: int | None = None) -> None:
    """Every slot that names a column is the dense entry bit for bit, every
    other slot is 0, and every dense entry off the pattern is a zero (of
    either sign)."""
    rows_b, cols_b, _, m = x.shape
    cols, inside, row, column = _slot_positions(x, cols)
    assert dense.shape == (rows_b * m, cols_b * cols)
    off = np.ones(dense.shape, dtype=bool)
    for i in range(rows_b):
        for j in range(cols_b):
            at = (i * m + row[inside], j * cols + column[inside])
            assert x[i, j][inside].tobytes() == dense[at].tobytes(), (i, j)
            assert not np.any(x[i, j][~inside])
            off[at] = False
    assert not np.any(dense[off])


def dense_mul_diag_block_left(d, x: np.ndarray) -> np.ndarray:
    """D @ x for D the 2x2 diagonal-block matrix with blocks d = (d11, d12, d21, d22)."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    n = x.shape[0] // 2
    top, bot = x[:n], x[n:]
    return np.vstack([d11[:, None] * top + d12[:, None] * bot,
                      d21[:, None] * top + d22[:, None] * bot])


def dense_mul_diag_block_right(x: np.ndarray, d) -> np.ndarray:
    """x @ D for D the 2x2 diagonal-block matrix with blocks d = (d11, d12, d21, d22)."""
    d11, d12, d21, d22 = (np.asarray(v) for v in d)
    n = x.shape[1] // 2
    left, right = x[:, :n], x[:, n:]
    return np.hstack([left * d11 + right * d21, left * d12 + right * d22])


# --- row classes ----------------------------------------------------------------
#
# A walk's bundle holds one row per class of interior vertices, each class a
# run of consecutive vertices from its first vertex; repeating each row over
# its run gives the arrays of a bundle whose every vertex is its own row.


def expand_rows(x: np.ndarray, first: np.ndarray, m: int) -> np.ndarray:
    """Each row of ``x`` (its last axis) repeated for every vertex of its
    class: row r stands for vertices first[r] up to first[r + 1], the last
    row up to m."""
    return np.repeat(x, np.diff(first, append=m), axis=-1)


def vertex_coins(w: WalkSpec, t, rule: str = "leftmost") -> tuple[np.ndarray, np.ndarray]:
    """The coin data (a, b) of every vertex of t, from ``treeop.coin_values``'s
    classes."""
    a, b, first, _ = coin_values(w, t, rule)
    return expand_rows(a, first, t.size), expand_rows(b, first, t.size)


def class_firsts(bundle) -> np.ndarray:
    """The first vertex of each row class of a bundle's interior, which the
    code alone fixes, whatever the interior rule."""
    return coin_values(bundle.walk, TruncatedTree(bundle.ops.tree.depth - 2))[2]


def refine_walk(w: WalkSpec, level: int) -> WalkSpec:
    """The walk with each cell above ``level`` split into its descendants at
    that level, each with the cell's coefficient.  Every vertex keeps its coin
    under either interior rule, and at depth level + 2 or less every interior
    vertex is its own row class."""
    cells = []
    for prefix, coeff in w.cells:
        k = max(level - len(prefix), 0)
        cells += [(prefix + tail, coeff) for tail in addresses(k)[(1 << k) - 1:]]
    return WalkSpec.make(w.p, w.q, cells)


def vertex_operators(depth: int):
    """The tree operators laid over every interior vertex at a depth: those
    of the bundle of a walk whose every interior vertex is its own row class."""
    w = WalkSpec.make(0.0, 1.0, [("", sphere_coeff(0.0))])
    return build_bundle(refine_walk(w, depth - 2), depth).ops


# --- the dense tree route -----------------------------------------------------


def shift_matrix(t) -> np.ndarray:
    """The dense tree shift of a truncated tree: (S f)(v) = f(parent(v)),
    with a zero root row.  Oracle for :func:`dense_tree_operators`, which
    writes S / sqrt(2) in place at the breadth-first parent (i - 1) // 2; this
    one finds each parent from its address instead."""
    n = t.size
    vertices = addresses(t.depth)
    index = {v: i for i, v in enumerate(vertices)}
    s = np.zeros((n, n), dtype=np.complex128)
    for child, v in enumerate(vertices[1:], start=1):
        s[child, index[v[:-1]]] = 1.0
    return s


class DenseTreeOperators(NamedTuple):
    tree: object
    isometry: np.ndarray
    defect: np.ndarray


def dense_tree_operators(t) -> DenseTreeOperators:
    """The dense n x n isometry L = S / sqrt(2) and defect E = 1 - L L* of
    the whole truncation, E in closed form.  Oracle for
    ``treeop.tree_operators``, whose slots hold L[:, :m] by columns and E[:m]
    by rows for the m interior vertices."""
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
    return DenseTreeOperators(t, isometry, defect)


def dense_symmetry(isometry: np.ndarray, defect: np.ndarray, p: float,
                   q: complex) -> np.ndarray:
    """The full 2n x 2n involution [[p, conj(q) L*], [q L, (1 + p) E - p]].
    Oracle for ``treeop.shift_symmetry``, which forms only its interior rows,
    as slots, by the same entry expressions."""
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
    u = dense_mul_diag_block_right(symmetry, coin_blocks(a, b))
    return u - u.conj().T


def dense_chirality_direct(p: float, q: complex, a: np.ndarray, b: np.ndarray,
                           isometry: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Chirality block assembled term by term on dense operators:

        q (conj(b)/s-) L s+  -  conj(q) s- L* (b/s+)
          + (1 + p) (conj(b)/s-) E (b/s+)  -  2 p |b|.

    Oracle for ``treeop.chirality_direct``, which forms the interior block
    of this matrix as slots by the same entry expressions, bit for bit.  The
    products by q are ``np.multiply`` calls: numpy evaluates ``q * tmp`` with a
    temporary of 256 KiB or more in place as ``tmp * q``, which rounds apart."""
    s_plus = np.sqrt(1.0 + a)
    s_minus = np.sqrt(1.0 - a)
    left = np.conj(b) / s_minus
    out = np.multiply(q, left[:, None] * isometry * s_plus[None, :])
    out -= np.multiply(np.conj(q), s_minus[:, None] * isometry.conj().T * (b / s_plus)[None, :])
    out += (1.0 + p) * (left[:, None] * defect * (b / s_plus)[None, :])
    out -= np.diag(2.0 * p * np.abs(b)).astype(np.complex128)
    return out


def dense_conjugated_skew(skew: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """eps* Q eps on a dense skew part Q.  Oracle for ``treeop.conjugated_skew``."""
    eps = conjugator_blocks(a, b)
    d11, d12, d21, d22 = eps
    dagger = (np.conj(d11), np.conj(d21), np.conj(d12), np.conj(d22))
    return dense_mul_diag_block_left(dagger, dense_mul_diag_block_right(skew, eps))


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


def line_sites(spec: LineWalkSpec) -> np.ndarray:
    """The sites whose coin data ``onedim.build_line`` holds, in order: the
    middle, sites -1 and 0, and ``TAIL_SITES`` tail sites beyond each end."""
    support = [n for n, _ in spec.middle] + [0]
    return np.arange(min(support) - TAIL_SITES, max(support) + TAIL_SITES + 1)


def site_coeffs(spec: LineWalkSpec, sites) -> tuple[np.ndarray, np.ndarray]:
    """Per-site ``a`` and ``b`` by a scalar lookup: a middle entry where one
    is listed, else the left tail for n < 0 and the right tail for n >= 0."""
    by_site = dict(spec.middle)
    coeffs = [by_site.get(int(n), spec.left if n < 0 else spec.right) for n in sites]
    return np.array([c.a for c in coeffs]), np.array([c.b for c in coeffs], dtype=np.complex128)


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
    a, b = site_coeffs(spec, sites)

    shift = np.zeros((n_sites, n_sites), dtype=np.complex128)
    idx = np.arange(n_sites - 1)
    shift[idx + 1, idx] = 1.0

    eye = np.eye(n_sites, dtype=np.complex128)
    symmetry = np.block([[eye, shift.conj().T], [shift, -eye]]) / math.sqrt(2.0)
    del shift, eye
    cblocks = (a.astype(np.complex128), np.conj(b), b, -a.astype(np.complex128))
    evolution = dense_mul_diag_block_right(symmetry, cblocks)
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
