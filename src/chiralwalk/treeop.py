"""Shift-family operators on the truncated tree and the walk operator bundle.

All operators are compressions to the span of vertices of depth <= d.  The
shift maps a parent basis vector to the sum of its children, its rescaling by
1/sqrt(2) is an isometry below the outermost layer, and the defect projection
1 - L L* kills shifted vectors exactly on the whole truncation (children come
in sibling pairs, which are always both inside the window).  Identity checks
are therefore restricted to the interior (depth <= d - 2), where compression
artifacts vanish; the margin is two layers because the chirality block
composes two depth-shifting factors.  The interior is the first
m = 2^(d-1) - 1 vertices in breadth-first order.  Tree operators are slot
arrays (chiralwalk.linalg) and coin-type operators their diagonal blocks.
The coin is constant on the cylinders of the walk's cells, so every vertex of
one cell at one level has the same coin and the same neighbourhood: a walk's
blocks hold one row per such class, and one per vertex above the cells.  The
coin descent and every operator follow these rows, never the vertices: a row
of L and E is the root's or that of every other vertex."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cantor import code_trie
from .linalg import (CHILD0, CHILD1, PARENT, SELF, SIBLING, Pattern, at_neighbours,
                     diag_block_product, matmul, mul_diag_block_left, mul_diag_block_right,
                     pattern, transpose)
from .tree import TruncatedTree, truncated_tree
from .walk import WalkSpec


class TreeOperators(NamedTuple):
    """L's interior columns held by columns (each vertex's children) and E's
    interior rows held by rows, as 1 x 1 grids on the rows of ``pattern``;
    without a pattern, on two rows: the root's and every other vertex's."""

    tree: TruncatedTree
    isometry: np.ndarray
    defect: np.ndarray
    pattern: Pattern | None = None


def tree_operators(t: TruncatedTree) -> TreeOperators:
    """Isometry L = S / sqrt(2) of the shift (S f)(v) = f(parent(v)), and
    defect E = 1 - L L* on the interior, on its two kinds of row: r = 1/sqrt(2)
    at both children in every column of L; 1 on E's diagonal at the root, and
    1 - r r on it and -r r at the sibling elsewhere, the entries of 1 - L L*
    bit for bit without the product."""
    r = 1.0 / math.sqrt(2.0)
    isometry, defect = np.zeros((2, 1, 1, 5, 2), dtype=np.complex128)
    isometry[0, 0, CHILD0:] = r
    defect[0, 0, SELF] = 1.0, 1.0 - r * r
    defect[0, 0, SIBLING, 1] = -r * r
    return TreeOperators(t, isometry, defect)


def coin_values(w: WalkSpec, t: TruncatedTree, rule: str = "leftmost"):
    """Coin data (a, b) of each row class of the vertices of t, each class's
    first vertex, and the (5, R) table of the classes of that vertex's self,
    parent, sibling and two children (R where there is none), in tree order.

    A class is one vertex above the cell partition, or the vertices of one
    cell at one level, which breadth-first order keeps in one run.  A cell's
    vertices take its value.  A vertex above the partition takes the value at
    a boundary point of its subtree: the all-zeros continuation under the
    default ``leftmost`` rule, or the all-ones continuation under
    ``rightmost``, that is the first or the last cell below it.  Interior
    assignments differ from each other by finitely many vertices only, so
    they never affect boundary quantities; see the index-invariance tests.
    The descent steps down the code's trie one class at a time: a class above
    the cells has a child class at each bit, a cell's class one, its run a
    level down.  So each level's classes are the last level's children in
    order, and all children together are the classes after the root.
    """
    fill = {"leftmost": 0, "rightmost": 1}.get(rule)
    if fill is None:
        raise ValueError(f"unknown interior rule {rule!r}")
    trie = code_trie(w.prefixes)
    children = trie.table.reshape(-1, 2).copy()
    children[trie.inner:, 1] = -1   # a cell is its own child on bit 0 alone
    node, first = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    nodes, firsts, step = [node], [first], np.array([1, 2])
    levels = min(w.max_level, t.depth)   # below the deepest cell every class is a cell's,
    for _ in range(levels):              # whose one child class runs on a level down
        pairs = children[node].ravel()
        kept = pairs >= 0
        node, first = pairs[kept], (2 * first[:, None] + step).ravel()[kept]
        nodes.append(node)
        firsts.append(first)
    below = np.arange(1, t.depth - levels + 1)[:, None]
    nodes.append(node[None].repeat(len(below), axis=0).ravel())
    firsts.append((((first + 1) << below) - 1).ravel())
    last = len(node)   # the classes on each level from the deepest cell's on
    node, first = np.concatenate(nodes), np.concatenate(firsts)
    rows, above = len(node), len(node) - last
    two = node[:above] < trie.inner
    count = 1 + two
    neighbour = np.full((5, rows), rows, dtype=np.intp)
    neighbour[SELF] = np.arange(rows)
    neighbour[CHILD0, :above] = np.cumsum(count) - two
    neighbour[CHILD1, :above] = neighbour[CHILD0, :above] + two
    parent = neighbour[PARENT, 1:] = np.repeat(np.arange(above), count)
    neighbour[SIBLING, 1:] = neighbour[CHILD0:, parent].sum(axis=0) - neighbour[SELF, 1:]
    cell = trie.ends[fill, node]
    a = np.array([coeff.a for _, coeff in w.cells])
    b = np.array([coeff.b for _, coeff in w.cells], dtype=np.complex128)
    return a[cell], b[cell], first, neighbour


def row_count(w: WalkSpec, depth: int) -> int:
    """The number of row classes of the interior at a truncation depth, from
    the cell levels alone: on each level, its vertices above the cells and
    one class per cell that reaches it."""
    at = [0] * (depth - 1)   # cells per interior level
    for prefix in w.prefixes:
        if len(prefix) < depth - 1:
            at[len(prefix)] += 1
    rows = covered = cells = 0
    for k, count in enumerate(at):
        covered, cells = 2 * covered + count, cells + count
        rows += (1 << k) - covered + cells
    return rows


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


def shift_symmetry(ops: TreeOperators, p: float, q: complex) -> np.ndarray:
    """The 2m x 2n strip of interior rows of the involution [[p, conj(q) L*],
    [q L, (1 + p) E - p]], bit for bit.  The coefficient 1 + p makes the lower
    right block square to |q|^2 E + p^2 against |q|^2 L L*, so the square is
    1 wherever L*L = 1 (the interior)."""
    if abs(p * p + abs(q) ** 2 - 1.0) > 1e-12:
        raise ValueError(f"(p, q) = ({p}, {q}) not on the unit sphere")
    gamma = np.zeros((2, 2) + ops.defect.shape[2:], dtype=np.complex128)
    gamma[0, 0, SELF] = p
    gamma[0, 1] = np.conj(q) * np.conj(ops.isometry[0, 0])  # L* by rows: L by columns
    gamma[1, 0] = q * transpose(ops.isometry, ops.pattern)[0, 0]
    gamma[1, 1] = (1.0 + p) * ops.defect[0, 0]
    gamma[1, 1, SELF] -= p
    return gamma


def chirality_direct(p: float, q: complex, a: np.ndarray, b: np.ndarray,
                     ops: TreeOperators) -> np.ndarray:
    """Chirality block on the interior, assembled term by term:

        q (conj(b)/s-) L s+  -  conj(q) s- L* (b/s+)
          + (1 + p) (conj(b)/s-) E (b/s+)  -  2 p |b|,

    with functions of the vertex values acting diagonally, as a 1 x 1 grid;
    the conjugation route reproduces it."""
    s_plus, s_minus = np.sqrt(1.0 + a), np.sqrt(1.0 - a)
    left, right = np.conj(b) / s_minus, at_neighbours(b / s_plus, ops.pattern)
    ell = transpose(ops.isometry, ops.pattern)[0, 0]
    out = (np.multiply(q, left * ell * at_neighbours(s_plus, ops.pattern))
           - np.multiply(np.conj(q), s_minus * np.conj(ops.isometry[0, 0]) * right)
           + (1.0 + p) * np.multiply(left * ops.defect[0, 0], right))
    out[SELF] += -2.0 * p * np.abs(b)
    return out[None, None]


def conjugated_skew(skew: np.ndarray, eps, p: Pattern) -> np.ndarray:
    """The skew part conjugated into the coin eigenbasis: eps* Q eps, for the
    conjugator's diagonal blocks ``eps``.  Its lower-left block is the
    chirality operator."""
    return mul_diag_block_left(_dagger_blocks(eps), mul_diag_block_right(skew, eps, p))


@dataclass
class OperatorBundle:
    """What ``check_identities`` and ``route_disagreement`` read: the coin
    data and the diagonal blocks of the coin on the walk's row classes of the
    interior, the tree operators laid over them, and held by rows the
    2m x 2n ``symmetry`` strip and the 2m x 2m interior block ``skew`` of U - U*."""

    walk: WalkSpec
    ops: TreeOperators
    a: np.ndarray
    b: np.ndarray
    coin: tuple
    symmetry: np.ndarray
    skew: np.ndarray


def build_bundle(w: WalkSpec, depth: int, rule: str = "leftmost",
                 ops: TreeOperators | None = None) -> OperatorBundle:
    """The operator bundle at a truncation depth; pass ``ops`` to share the
    tree operators across walks at one depth; the bundle lays them over the
    walk's row classes of the interior.  The coin couples each vertex only to
    itself, so the interior block of U = (symmetry)(coin) is the symmetry's
    interior block times the interior coin, entry for entry."""
    if ops is None:
        ops = tree_operators(truncated_tree(depth))
    elif ops.tree.depth != depth:
        raise ValueError(f"tree operators are at depth {ops.tree.depth}, not {depth}")
    a, b, first, neighbour = coin_values(w, TruncatedTree(depth - 2), rule)  # the interior's
    kind = np.minimum(first, 1)   # the root's row of L and E, or every other vertex's
    ops = TreeOperators(ops.tree, ops.isometry[..., kind], ops.defect[..., kind],
                        pattern(neighbour))
    coin = coin_blocks(a, b)
    gamma = shift_symmetry(ops, w.p, w.q)  # its interior block drops the children past m
    u = mul_diag_block_right(np.where(neighbour < len(first), gamma, 0), coin, ops.pattern)
    return OperatorBundle(walk=w, ops=ops, a=a, b=b, coin=coin, symmetry=gamma,
                          skew=u - np.conj(transpose(u, ops.pattern)))


IDENTITY_NAMES = ("symmetry_squared", "coin_squared", "conjugator_unitary", "coin_diagonalized",
                  "defect_kills_shift", "coin_anticommutes_skew", "conjugated_skew_diag_blocks")
_IDENTITY = np.eye(2)[:, :, None, None] * (np.arange(5) == SELF)[:, None]  # 1, by rows


def _block_residual(blocks, diagonal: tuple[float, float]) -> float:
    """Max |block - target| over the blocks, the target ``diagonal`` on d11, d22."""
    d11, d12, d21, d22 = blocks
    return float(np.max(np.abs([d11 - diagonal[0], d12, d21, d22 - diagonal[1]])))


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


def check_identities(bundle: OperatorBundle) -> dict[str, float]:
    """Max-norm residuals of the defining operator identities on the interior.

    Checks, in order: the shift symmetry squares to 1; the coin squares to 1;
    the conjugator is unitary; it diagonalizes the coin to diag(1, -1); the
    defect annihilates the isometry; the coin anticommutes with the skew part;
    and the conjugated skew part has vanishing diagonal blocks.  Only the
    symmetry square and E L contract over the truncation."""
    gamma, skew, ops = bundle.symmetry, bundle.skew, bundle.ops
    cblocks, eblocks = bundle.coin, conjugator_blocks(bundle.a, bundle.b)
    edagger = _dagger_blocks(eblocks)
    return {  # each product is dropped once its residual is read
        "symmetry_squared": _max_abs(  # gamma* by columns: conj(gamma), grid transposed
            matmul(gamma, np.conj(gamma.swapaxes(0, 1)), ops.pattern) - _IDENTITY),
        "coin_squared": _block_residual(diag_block_product(cblocks, cblocks), (1, 1)),
        "conjugator_unitary": _block_residual(diag_block_product(edagger, eblocks), (1, 1)),
        "coin_diagonalized": _block_residual(
            diag_block_product(edagger, diag_block_product(cblocks, eblocks)), (1, -1)),
        "defect_kills_shift": _max_abs(matmul(ops.defect, ops.isometry, ops.pattern)),
        "coin_anticommutes_skew": _max_abs(mul_diag_block_left(cblocks, skew)
                                           + mul_diag_block_right(skew, cblocks, ops.pattern)),
        "conjugated_skew_diag_blocks": _max_abs(
            conjugated_skew(skew, eblocks, ops.pattern)[[0, 1], [0, 1]]),
    }


def route_disagreement(bundle: OperatorBundle) -> float:
    """Interior max difference between the two chirality constructions."""
    a, b, ops = bundle.a, bundle.b, bundle.ops
    direct = chirality_direct(bundle.walk.p, bundle.walk.q, a, b, ops)
    eps = conjugator_blocks(a, b)
    return _max_abs(direct - conjugated_skew(bundle.skew, eps, ops.pattern)[1:, :1])
