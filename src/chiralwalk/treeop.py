"""Shift-family operators on the truncated tree and the walk operator bundle.

All operators are compressions to the span of vertices of depth <= d.  The
shift maps a parent basis vector to the sum of its children, its rescaling by
1/sqrt(2) is an isometry below the outermost layer, and the defect projection
1 - L L* kills shifted vectors exactly on the whole truncation (children come
in sibling pairs, which are always both inside the window).  Identity checks
are therefore restricted to the interior (depth <= d - 2), where compression
artifacts vanish; the margin is two layers because the chirality block
composes two depth-shifting factors.  In breadth-first order the interior is
the first m = 2^(d-1) - 1 vertices, and :func:`tree_operators` is the one
place that counts them: every other function reads m off a shape.  Tree
operators are triples of their nonzeros (chiralwalk.linalg), at most three per
row, so a bundle and its check are linear in the vertices; coin-type operators
(C and the conjugator) exist only as their four diagonal blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cantor import prefix_cell
from .linalg import (Triples, add, adjoint, block, diag_block_product, matmul,
                     mul_diag_block_left, mul_diag_block_right, triples)
from .tree import TruncatedTree, truncated_tree
from .walk import WalkSpec


class TreeOperators(NamedTuple):
    """The tree operators on the interior, as triples: ``isometry`` holds L's
    n x m interior columns and ``defect`` E's m x n interior rows."""

    tree: TruncatedTree
    isometry: Triples
    defect: Triples


def tree_operators(t: TruncatedTree) -> TreeOperators:
    """Isometry L = S / sqrt(2) of the shift S, and defect projection E = 1 - L L*,
    on the m = 2^(d-1) - 1 interior vertices (depth <= d - 2).

    (S f)(v) = f(parent(v)), and the root row is zero.  Column u holds the
    children of u, which for an interior u are the vertices 1..2m.  E is 1 at
    the root, 1 - r r on every other diagonal entry and -r r between siblings
    (i and i + 1 for odd i in breadth-first order), with r = 1/sqrt(2): the
    entries of 1 - L L*, bit for bit, without the product.
    """
    n = t.size
    m = n // 4  # (2^(d+1) - 1) // 4 = 2^(d-1) - 1
    r = 1.0 / math.sqrt(2.0)
    children = np.arange(1, 2 * m + 1)
    isometry = Triples(children, (children - 1) // 2,  # one entry per row, in row order
                       np.full(2 * m, r, dtype=np.complex128), (n, m))
    inner, odd = np.arange(m), np.arange(1, m, 2)
    diagonal = np.full(m, 1.0 - r * r)
    diagonal[:1] = 1.0
    defect = triples([inner, odd, odd + 1], [inner, odd + 1, odd],
                     [diagonal, np.full(2 * len(odd), -r * r)], (m, n))
    return TreeOperators(t, isometry, defect)


def coin_values(w: WalkSpec, t: TruncatedTree, rule: str = "leftmost"):
    """Per-vertex coin data (a_v, b_v) as diagonal vectors in tree order.

    Vertices at or below the cell partition take their cell's value.  A
    vertex above the partition takes the value at a boundary point of its
    subtree: the all-zeros continuation under the default ``leftmost`` rule,
    or the all-ones continuation under ``rightmost``.  Interior assignments
    differ from each other by finitely many vertices only, so they never
    affect boundary quantities; see the index-invariance tests.  A vertex
    keeps its parent's cell unless the parent lies above that cell; level by
    level, only such vertices are looked up, their bits filled to max_level.
    """
    fill = {"leftmost": "0", "rightmost": "1"}.get(rule)
    if fill is None:
        raise ValueError(f"unknown interior rule {rule!r}")
    width = max(w.max_level, 1)
    prefixes = np.asarray(w.prefixes, dtype=bytes)
    length = np.array([len(p) for p in w.prefixes])
    cell = np.zeros(t.size, dtype=np.intp)
    for k in range(t.depth + 1):
        first = (1 << k) - 1
        level = cell[first:2 * first + 1]
        if k:
            level[:] = np.repeat(cell[first // 2:first], 2)
        offset = np.flatnonzero(length[level] >= k)
        if offset.size:
            codes = np.full((offset.size, width), ord(fill), dtype=np.uint8)
            codes[:, :k] = (offset[:, None] >> np.arange(k - 1, -1, -1)) & 1 | ord("0")
            level[offset] = prefix_cell(prefixes, codes.view(f"S{width}")[:, 0])
    a = np.array([coeff.a for _, coeff in w.cells])
    b = np.array([coeff.b for _, coeff in w.cells], dtype=np.complex128)
    return a[cell], b[cell]


def coin_blocks(a: np.ndarray, b: np.ndarray):
    """Diagonal blocks of the coin symmetry [[a, conj(b)], [b, -a]]."""
    return (a.astype(np.complex128), np.conj(b), b, -a.astype(np.complex128))


def conjugator_blocks(a: np.ndarray, b: np.ndarray):
    """Diagonal blocks of the unitary that diagonalizes the coin pointwise:
    (1/sqrt 2) [[s+, -s-], [b/s+, b/s-]] with s+- = sqrt(1 +- a)."""
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("conjugator undefined where |a| = 1")
    r, s_plus, s_minus = 1.0 / math.sqrt(2.0), np.sqrt(1.0 + a), np.sqrt(1.0 - a)
    return (r * s_plus.astype(np.complex128), -r * s_minus.astype(np.complex128),
            r * b / s_plus, r * b / s_minus)


def _dagger_blocks(d):
    d11, d12, d21, d22 = d
    return (np.conj(d11), np.conj(d21), np.conj(d12), np.conj(d22))


def shift_symmetry(isometry: Triples, defect: Triples, p: float, q: complex) -> Triples:
    """The interior rows of the involution [[p, conj(q) L*], [q L, (1 + p) E - p]]
    from the k x m ``isometry`` and m x k ``defect``: the 2m x 2n strip from
    :func:`tree_operators`' triples, or the 2m x 2m interior block from their
    leading m x m blocks, each entry the dense involution's bit for bit.  The
    coefficient 1 + p makes the lower right block square to |q|^2 E + p^2
    against |q|^2 L L*, so the square is 1 wherever L*L = 1 (the interior)."""
    if abs(p * p + abs(q) ** 2 - 1.0) > 1e-12:
        raise ValueError(f"(p, q) = ({p}, {q}) not on the unit sphere")
    k, m = isometry.shape
    inner, lower = np.arange(m), isometry.row < m
    diagonal = np.full(m, p, dtype=np.complex128)
    return triples([inner, isometry.col, m + isometry.row[lower], m + defect.row, m + inner],
                   [inner, k + isometry.row, isometry.col[lower], k + defect.col, k + inner],
                   [diagonal, np.conj(q) * np.conj(isometry.val), q * isometry.val[lower],
                    (1.0 + p) * defect.val, -diagonal], (2 * m, 2 * k))


def chirality_direct(p: float, q: complex, a: np.ndarray, b: np.ndarray,
                     isometry: Triples, defect: Triples) -> Triples:
    """Chirality block on the interior, assembled term by term:

        q (conj(b)/s-) L s+  -  conj(q) s- L* (b/s+)
          + (1 + p) (conj(b)/s-) E (b/s+)  -  2 p |b|,

    with functions of the interior vertex values acting diagonally and L, E
    the interior blocks of the triples; the conjugation route reproduces it.
    """
    m = len(a)
    s_plus, s_minus = np.sqrt(1.0 + a), np.sqrt(1.0 - a)
    left, right = np.conj(b) / s_minus, b / s_plus
    ell, e = block(isometry, range(m), range(m)), block(defect, range(m), range(m))
    inner = np.arange(m)
    return triples([ell.row, ell.col, e.row, inner], [ell.col, ell.row, e.col, inner],
                   [q * (left[ell.row] * ell.val * s_plus[ell.col]),
                    -(np.conj(q) * (s_minus[ell.col] * np.conj(ell.val) * right[ell.row])),
                    (1.0 + p) * (left[e.row] * e.val * right[e.col]), -2.0 * p * np.abs(b)],
                   (m, m))


def conjugated_skew(skew: Triples, a: np.ndarray, b: np.ndarray) -> Triples:
    """The skew part conjugated into the coin eigenbasis: eps* Q eps.  Its
    lower-left block is the chirality operator."""
    eps = conjugator_blocks(a, b)
    return mul_diag_block_left(_dagger_blocks(eps), mul_diag_block_right(skew, eps))


@dataclass
class OperatorBundle:
    """The operators ``check_identities`` and ``route_disagreement`` read: the
    coin data ``a`` and ``b`` on the m interior vertices, the triples of
    :func:`tree_operators`, and as triples the 2m x 2n ``symmetry`` strip of
    interior rows and the 2m x 2m interior block ``skew`` of U - U*."""

    walk: WalkSpec
    isometry: Triples
    defect: Triples
    a: np.ndarray
    b: np.ndarray
    symmetry: Triples
    skew: Triples


def build_bundle(w: WalkSpec, depth: int, rule: str = "leftmost",
                 ops: TreeOperators | None = None) -> OperatorBundle:
    """Construct the operator bundle at a truncation depth; pass ``ops`` to
    share the walk-independent tree operators across walks at one depth.  The
    coin couples each vertex only to itself, so the interior block of
    U = (symmetry)(coin) is the symmetry's interior block times the interior
    coin, and its skew part the interior block of U - U*, entry for entry."""
    if ops is None:
        ops = tree_operators(truncated_tree(depth))
    elif ops.tree.depth != depth:
        raise ValueError(f"tree operators are at depth {ops.tree.depth}, not {depth}")
    m = ops.defect.shape[0]
    a, b = (v[:m] for v in coin_values(w, ops.tree, rule))
    rows = range(m)
    inner = shift_symmetry(block(ops.isometry, rows, rows), block(ops.defect, rows, rows),
                           w.p, w.q)
    u = mul_diag_block_right(inner, coin_blocks(a, b))
    return OperatorBundle(walk=w, isometry=ops.isometry, defect=ops.defect,
                          a=a, b=b, symmetry=shift_symmetry(ops.isometry, ops.defect, w.p, w.q),
                          skew=triples([u.row, u.col], [u.col, u.row], [u.val, -np.conj(u.val)],
                                       u.shape))


IDENTITY_NAMES = ("symmetry_squared", "coin_squared", "conjugator_unitary", "coin_diagonalized",
                  "defect_kills_shift", "coin_anticommutes_skew", "conjugated_skew_diag_blocks")


def _block_residual(blocks, diagonal: tuple[float, float]) -> float:
    """Max |block - target| over the blocks, the target ``diagonal`` on d11, d22."""
    d11, d12, d21, d22 = blocks
    return float(np.max(np.abs([d11 - diagonal[0], d12, d21, d22 - diagonal[1]])))


def _max_abs(values: np.ndarray) -> float:
    """Max |entry| over stored values; the entries triples omit are 0."""
    return float(np.max(np.abs(values), initial=0.0))


def check_identities(bundle: OperatorBundle) -> dict[str, float]:
    """Max-norm residuals of the defining operator identities on the interior.

    Checks, in order: the shift symmetry squares to 1; the coin squares to 1;
    the conjugator is unitary; it diagonalizes the coin to diag(1, -1); the
    defect annihilates the isometry; the coin anticommutes with the skew part;
    and the conjugated skew part has vanishing diagonal blocks.  Only the
    symmetry square and E L contract over the truncation, on the triples."""
    a, b, gamma, skew = bundle.a, bundle.b, bundle.symmetry, bundle.skew
    m = len(a)
    cblocks, eblocks = coin_blocks(a, b), conjugator_blocks(a, b)
    edagger = _dagger_blocks(eblocks)
    i = np.arange(2 * m)
    minus_eye = Triples(i, i, np.full(2 * m, -1.0 + 0j), (2 * m, 2 * m))
    conj = conjugated_skew(skew, a, b)
    return {
        "symmetry_squared": _max_abs(add(matmul(gamma, adjoint(gamma)), minus_eye).val),
        "coin_squared": _block_residual(diag_block_product(cblocks, cblocks), (1, 1)),
        "conjugator_unitary": _block_residual(diag_block_product(edagger, eblocks), (1, 1)),
        "coin_diagonalized": _block_residual(
            diag_block_product(edagger, diag_block_product(cblocks, eblocks)), (1, -1)),
        "defect_kills_shift": _max_abs(matmul(bundle.defect, bundle.isometry).val),
        "coin_anticommutes_skew": _max_abs(
            add(mul_diag_block_left(cblocks, skew), mul_diag_block_right(skew, cblocks)).val),
        "conjugated_skew_diag_blocks": _max_abs(conj.val[(conj.row < m) == (conj.col < m)]),
    }


def route_disagreement(bundle: OperatorBundle) -> float:
    """Interior max difference between the two chirality constructions."""
    a, b, m = bundle.a, bundle.b, len(bundle.a)
    direct = chirality_direct(bundle.walk.p, bundle.walk.q, a, b, bundle.isometry, bundle.defect)
    conj = block(conjugated_skew(bundle.skew, a, b), range(m, 2 * m), range(m))
    return _max_abs(add(direct, conj._replace(val=-conj.val)).val)
