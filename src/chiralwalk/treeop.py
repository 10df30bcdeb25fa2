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
place that counts them: every other function reads m off an array shape.

Coin-type operators (C and the conjugator) are 2x2 block matrices with
diagonal blocks and exist only as their four diagonal blocks: products among
them are blockwise, and products with dense operators are exact row and
column scaling (see chiralwalk.linalg), so no dense coin is ever formed.  The
tree operators are formed only where the identities read them: L on the
interior's columns and the defect, in closed form, on the interior's rows.
The operator bundle holds the symmetry only as its interior rows and the
skew part U - U* only as its interior block; no n x n array and no walk
unitary U = (symmetry)(coin) is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy import matmul

from .linalg import diag_block_product, mul_diag_block_left, mul_diag_block_right
from .tree import TruncatedTree, truncated_tree
from .walk import WalkSpec, eval_vertex


class TreeOperators(NamedTuple):
    """The tree operators on the interior: ``isometry`` is the n x m slab of
    L's interior columns and ``defect`` the m x n slab of E's interior rows."""

    tree: TruncatedTree
    isometry: np.ndarray
    defect: np.ndarray


def tree_operators(t: TruncatedTree) -> TreeOperators:
    """Isometry L = S / sqrt(2) of the shift S, and defect projection E = 1 - L L*,
    on the m = 2^(d-1) - 1 interior vertices (depth <= d - 2).

    (S f)(v) = f(parent(v)), and the root row is zero.  Column u holds the
    children of u, which for an interior u are the vertices 1..2m.

    E is 1 at the root, 1 - r r on every other diagonal entry and -r r
    between siblings (i and i + 1 for odd i in breadth-first order), with
    r = 1/sqrt(2): the entries of 1 - L L*, bit for bit, without the product.
    """
    n = t.size
    m = n // 4  # (2^(d+1) - 1) // 4 = 2^(d-1) - 1
    r = 1.0 / math.sqrt(2.0)
    children = np.arange(1, 2 * m + 1)
    isometry = np.zeros((n, m), dtype=np.complex128)
    isometry[children, np.asarray(t.parent_index)[children]] = r
    defect = np.zeros((m, n), dtype=np.complex128)
    inner = np.arange(m)
    defect[inner, inner] = 1.0 - r * r
    defect[:1, 0] = 1.0
    odd = np.arange(1, m, 2)
    defect[odd, odd + 1] = -r * r
    defect[odd + 1, odd] = -r * r
    return TreeOperators(t, isometry, defect)


def coin_values(w: WalkSpec, t: TruncatedTree, rule: str = "leftmost"):
    """Per-vertex coin data (a_v, b_v) as diagonal vectors in tree order."""
    a = np.empty(t.size, dtype=float)
    b = np.empty(t.size, dtype=np.complex128)
    for i, v in enumerate(t.addresses):
        coeff = eval_vertex(w, v, rule)
        a[i] = coeff.a
        b[i] = coeff.b
    return a, b


def coin_blocks(a: np.ndarray, b: np.ndarray):
    """Diagonal blocks of the coin symmetry [[a, conj(b)], [b, -a]]."""
    return (a.astype(np.complex128), np.conj(b), b, -a.astype(np.complex128))


def conjugator_blocks(a: np.ndarray, b: np.ndarray):
    """Diagonal blocks of the unitary that diagonalizes the coin pointwise:
    (1/sqrt 2) [[s+, -s-], [b/s+, b/s-]] with s+- = sqrt(1 +- a)."""
    if np.any(np.abs(a) >= 1.0):
        raise ValueError("conjugator undefined where |a| = 1")
    r = 1.0 / math.sqrt(2.0)
    s_plus = np.sqrt(1.0 + a)
    s_minus = np.sqrt(1.0 - a)
    return (r * s_plus.astype(np.complex128), -r * s_minus.astype(np.complex128),
            r * b / s_plus, r * b / s_minus)


def _dagger_blocks(d):
    d11, d12, d21, d22 = d
    return (np.conj(d11), np.conj(d21), np.conj(d12), np.conj(d22))


def shift_symmetry(isometry: np.ndarray, defect: np.ndarray,
                   p: float, q: complex) -> np.ndarray:
    """The interior rows of the involution [[p, conj(q) L*], [q L, (1 + p) E - p]],
    from the n x m ``isometry`` and m x n ``defect`` of :func:`tree_operators`.

    The lower right block must square to |q|^2 E + p^2 against |q|^2 L L*,
    which forces the coefficient 1 + p on the defect; with it the square is
    the identity wherever L*L = 1 holds (all of the interior).  At p = 0 this
    reduces to [[0, L*], [L, E]], and on a lattice without defect (E = 0) to
    the familiar [[p, conj(q) L*], [q L, -p]].

    Only the 2m x 2n strip of rows ``inner`` and ``n + inner`` is formed,
    where ``inner`` is the first m vertices; its entries are those of the
    full involution.  An interior row of L is zero beyond column m, and q
    multiplies those zeros too, so the strip keeps their signs.
    """
    if abs(p * p + abs(q) ** 2 - 1.0) > 1e-12:
        raise ValueError(f"(p, q) = ({p}, {q}) not on the unit sphere")
    n, m = isometry.shape
    out = np.zeros((2 * m, 2 * n), dtype=np.complex128)
    idx = np.arange(m)
    out[idx, idx] = p
    out[:m, n:] = np.conj(q) * isometry.conj().T
    lower = np.zeros((m, n), dtype=np.complex128)
    lower[:, :m] = isometry[:m]
    out[m:, :n] = q * lower
    out[m:, n:] = (1.0 + p) * defect
    out[m + idx, n + idx] -= p
    return out


def chirality_direct(p: float, q: complex, a: np.ndarray, b: np.ndarray,
                     isometry: np.ndarray, defect: np.ndarray) -> np.ndarray:
    """Chirality block assembled term by term:

        q (conj(b)/s-) L s+  -  conj(q) s- L* (b/s+)
          + (1 + p) (conj(b)/s-) E (b/s+)  -  2 p |b|,

    with every function acting diagonally through the vertex values.  The
    conjugation route below reproduces this matrix exactly, entry for entry.
    """
    s_plus = np.sqrt(1.0 + a)
    s_minus = np.sqrt(1.0 - a)
    left = np.conj(b) / s_minus
    out = q * (left[:, None] * isometry * s_plus[None, :])
    out -= np.conj(q) * (s_minus[:, None] * isometry.conj().T * (b / s_plus)[None, :])
    out += (1.0 + p) * (left[:, None] * defect * (b / s_plus)[None, :])
    out -= np.diag(2.0 * p * np.abs(b)).astype(np.complex128)
    return out


def conjugated_skew(skew: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The skew part conjugated into the coin eigenbasis: eps* Q eps.  Its
    lower-left block is the chirality operator."""
    eps = conjugator_blocks(a, b)
    return mul_diag_block_left(_dagger_blocks(eps), mul_diag_block_right(skew, eps))


@dataclass
class OperatorBundle:
    """The operators ``check_identities`` and ``route_disagreement`` read.

    With m the number of interior vertices, the coin is kept only as its
    data ``a`` and ``b`` on them; its blocks and the conjugator's are formed
    from these where needed.  ``isometry`` (n x m) and ``defect`` (m x n) are
    the slabs of :func:`tree_operators`, ``symmetry`` is the 2m x 2n strip
    of the symmetry's interior rows and ``skew`` the 2m x 2m interior block of
    U - U*; no n x n array and no walk unitary U is formed.
    """

    tree: TruncatedTree
    walk: WalkSpec
    isometry: np.ndarray
    defect: np.ndarray
    a: np.ndarray
    b: np.ndarray
    symmetry: np.ndarray
    skew: np.ndarray


def build_bundle(w: WalkSpec, depth: int, rule: str = "leftmost",
                 ops: TreeOperators | None = None) -> OperatorBundle:
    """Construct the operator bundle at a truncation depth.

    Pass a precomputed ``ops`` to share the walk-independent tree operators
    across several walks at the same depth.  The coin couples each vertex
    only to itself, so the interior block of U = (symmetry)(coin) is the
    symmetry's interior block times the interior coin, and its skew part the
    interior block of U - U*, entry for entry.
    """
    if ops is None:
        ops = tree_operators(truncated_tree(depth))
    elif ops.tree.depth != depth:
        raise ValueError(f"tree operators are at depth {ops.tree.depth}, not {depth}")
    t = ops.tree
    m = len(ops.defect)
    a, b = coin_values(w, t, rule)
    a, b = a[:m], b[:m]
    symmetry = shift_symmetry(ops.isometry, ops.defect, w.p, w.q)
    u = mul_diag_block_right(symmetry[:, np.r_[:m, t.size:t.size + m]], coin_blocks(a, b))
    return OperatorBundle(tree=t, walk=w, isometry=ops.isometry, defect=ops.defect,
                          a=a, b=b, symmetry=symmetry, skew=u - u.conj().T)


IDENTITY_NAMES = (
    "symmetry_squared",
    "coin_squared",
    "conjugator_unitary",
    "coin_diagonalized",
    "defect_kills_shift",
    "coin_anticommutes_skew",
    "conjugated_skew_diag_blocks",
)


def _block_residual(blocks, diagonal: tuple[float, float]) -> float:
    """Max over the four diagonal blocks of |block - target|, where the target
    is ``diagonal`` on the two diagonal blocks and 0 off them."""
    d11, d12, d21, d22 = blocks
    return float(max(np.max(np.abs(d11 - diagonal[0])), np.max(np.abs(d12)),
                     np.max(np.abs(d21)), np.max(np.abs(d22 - diagonal[1]))))


def check_identities(bundle: OperatorBundle) -> dict[str, float]:
    """Max-norm residuals of the defining operator identities on the interior.

    Checks, in order: the shift symmetry squares to 1; the coin squares to 1;
    the conjugator is unitary; it diagonalizes the coin to diag(1, -1); the
    defect annihilates the isometry; the coin anticommutes with the skew part;
    and the conjugated skew part has vanishing diagonal blocks.

    Coin-type operators never couple interior to exterior vertices, so they
    are formed on the interior alone; identities among them are blockwise
    products.  Only genuinely depth-mixing products (the symmetry square,
    defect times isometry) contract over the full truncation.
    """
    a, b = bundle.a, bundle.b
    m = len(a)
    cblocks = coin_blocks(a, b)
    eblocks = conjugator_blocks(a, b)
    edagger = _dagger_blocks(eblocks)

    residuals: dict[str, float] = {}

    gamma = bundle.symmetry
    sq = matmul(gamma, gamma.conj().T)
    residuals["symmetry_squared"] = float(np.max(np.abs(sq - np.eye(2 * m))))

    residuals["coin_squared"] = _block_residual(diag_block_product(cblocks, cblocks), (1, 1))
    residuals["conjugator_unitary"] = _block_residual(
        diag_block_product(edagger, eblocks), (1, 1))
    residuals["coin_diagonalized"] = _block_residual(
        diag_block_product(edagger, diag_block_product(cblocks, eblocks)), (1, -1))

    el = matmul(bundle.defect, bundle.isometry)
    residuals["defect_kills_shift"] = float(np.max(np.abs(el)))

    skew = bundle.skew
    anti = mul_diag_block_left(cblocks, skew) + mul_diag_block_right(skew, cblocks)
    residuals["coin_anticommutes_skew"] = float(np.max(np.abs(anti)))

    conj = conjugated_skew(skew, a, b)
    top = np.max(np.abs(conj[:m, :m]))
    bottom = np.max(np.abs(conj[m:, m:]))
    residuals["conjugated_skew_diag_blocks"] = float(max(top, bottom))

    return residuals


def route_disagreement(bundle: OperatorBundle) -> float:
    """Interior max difference between the two chirality constructions."""
    a, b = bundle.a, bundle.b
    m = len(a)
    direct = chirality_direct(bundle.walk.p, bundle.walk.q, a, b,
                              bundle.isometry[:m], bundle.defect[:, :m])
    return float(np.max(np.abs(direct - conjugated_skew(bundle.skew, a, b)[m:, :m])))
