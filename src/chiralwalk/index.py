"""Measure-weighted aggregation of per-cell windings.

The numerical secondary index of a walk pairs the winding number of its
boundary loop with a product measure on the Cantor boundary: summed exactly
cell by cell (dyadic arithmetic under the uniform measure), or estimated by
seeded Monte Carlo sampling of boundary points.  Both routes require every
cell to carry an invertible loop (``symbol.check_off_locus``); a degenerate
cell aborts the whole computation by name, since the index theorem's
hypothesis is global.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cantor import CodeTrie, Cylinder, Dyadic, ProductMeasure, code_trie, cylinder_measure
from .symbol import (SymbolLoop, agreed_windings, check_off_locus, winding_quadrature,
                     winding_residues)
from .walk import SphereCoeff, WalkSpec


def classify_point(a: float, p: float) -> int:
    """Winding class of a boundary point: +1 for a > |p|, 0 for |a| < |p|,
    -1 for a < -|p|.  The boundary |a| = |p| is degenerate."""
    check_off_locus(a, p)
    if a > abs(p):
        return 1
    if a < -abs(p):
        return -1
    return 0


def loop_for_cell(w: WalkSpec, coeff: SphereCoeff) -> SymbolLoop:
    return SymbolLoop(a=coeff.a, b=coeff.b, p=w.p, q=w.q)


@dataclass(frozen=True)
class CellWinding:
    prefix: str
    winding: int
    measure: float


@dataclass(frozen=True)
class IndexReport:
    """Result of an index pairing: exact dyadic value (uniform measure only),
    float value, per-cell breakdown, and the cell classification counts."""

    mode: str
    numeric: float
    exact: Dyadic | None = None
    per_cell: tuple[CellWinding, ...] = ()
    classification_counts: dict = field(default_factory=dict)
    mc_stderr: float | None = None
    samples: int | None = None
    seed: int | None = None

    def to_json(self) -> str:  # the dict of dataclasses.asdict, without its deep copy
        exact = None if self.exact is None else vars(self.exact)
        doc = dict(vars(self), exact=exact, per_cell=[vars(c) for c in self.per_cell])
        return json.dumps(doc, sort_keys=True, indent=2)


def _checked_cell_windings(w: WalkSpec):
    return [(prefix, coeff, winding_residues(loop_for_cell(w, coeff), cell=prefix))
            for prefix, coeff in w.cells]


def _classification_counts(windings, weights) -> dict:
    """Sum of the integer ``weights`` (cell or sample counts) of each winding."""
    return {name: sum(n for v, n in zip(windings, weights) if v == value)
            for name, value in (("plus", 1), ("zero", 0), ("minus", -1))}


def s_index_exact(w: WalkSpec, m: ProductMeasure) -> IndexReport:
    """Exact pairing: sum over cells of winding times cell measure.

    Windings come from the residue classification (integers, no quadrature
    error), so under the uniform measure the result is an exact dyadic
    rational; other product measures give a float.
    """
    cells = _checked_cell_windings(w)
    per_cell = []
    total: Dyadic | float = Dyadic(0, 0) if m.kind == "uniform" else 0.0
    for prefix, _, winding in cells:
        mu = cylinder_measure(m, Cylinder(prefix))
        per_cell.append(CellWinding(prefix, winding, float(mu)))
        total = total + mu * winding
    return IndexReport(
        mode="exact",
        numeric=float(total),
        exact=total if isinstance(total, Dyadic) else None,
        per_cell=tuple(per_cell),
        classification_counts=_classification_counts([c.winding for c in per_cell],
                                                     [1] * len(per_cell)),
    )


MC_BLOCK = 1 << 14   # uniforms drawn per block, which bound the decode's memory


def _decode_starts(u: np.ndarray, trie: CodeTrie, w0: np.ndarray):
    """Cell index and next start of the point starting at each position of
    ``u`` and at a sentinel position ``len(u)``.  Uniform ``u[s + k]`` is bit
    k of the point starting at s ("0" below ``w0[k]``); pass k moves each
    start whose bit k lies in ``u`` down the trie until all sit in cells.  A
    start left at an inner node (its cell runs past ``u``) and the sentinel
    keep cell -1 and depth 0, so they are their own next start."""
    table, inner, depth, n = trie.table, trie.inner, trie.depth, len(u)
    node = np.zeros(n + 1, dtype=np.intp)    # the sentinel stays at the root
    for k, w in enumerate(w0[:n]):
        head = node[:n - k]
        head[:] = table[2 * head + (u[k:] >= w)]
        if head.min() >= inner:
            break
    return np.where(node >= inner, node - inner, -1), np.arange(n + 1) + depth[node]


def _orbit(nxt: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` points of the orbit of 0 under ``nxt``, or those up
    to a fixed point of ``nxt``.  Pointer doubling makes ``jumps[j]``, which
    moves 2**j steps, up to a stride of 64 steps; the stride is followed
    point by point, and the points between are filled in level by level."""
    jumps = [nxt]
    while len(jumps) <= 6:
        jumps.append(jumps[-1][jumps[-1]])
    stride, coarse = jumps.pop(), [0]
    while len(coarse) * 64 < count and stride[coarse[-1]] != coarse[-1]:
        coarse.append(stride[coarse[-1]])
    path = np.array(coarse, dtype=nxt.dtype)
    for jump in reversed(jumps):
        path = np.stack([path, jump[path]], axis=1).ravel()
    return path[:count]


def _sample_cells(prefixes: list[str], m: ProductMeasure, samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Cell index of each of ``samples`` boundary points drawn from ``m``.

    Bit k of a point is "0" when its uniform is below ``m.weight(k + 1, "0")``
    and each point reads its bits until they spell a cell, so point i + 1
    starts at the uniform after point i's last.  The uniforms come from
    ``rng.random(k)`` in blocks of ``MC_BLOCK``, which is the stream of scalar
    draws; every start in a block walks the trie of ``prefixes`` at once, the
    chain of starts is followed from the first, and a point cut by the
    block's end is decoded again with the next block.  Memory is a few words
    per uniform of a block, at any code depth.
    """
    max_level = max(len(p) for p in prefixes)
    if max_level == 0:                        # one cell: the whole boundary
        return np.zeros(samples, dtype=np.intp)
    trie = code_trie(prefixes)
    w0 = np.array([m.weight(k, "0") for k in range(1, max_level + 1)])
    chunks, remaining = [], samples
    u = np.empty(0)
    while remaining:
        u = np.concatenate([u, rng.random(min(remaining * max_level, MC_BLOCK))])
        cell, nxt = _decode_starts(u, trie, w0)
        path = _orbit(nxt, min(remaining, len(u) + 1))  # a chain in u ends by then
        cells = cell[path]
        cut = np.flatnonzero(cells < 0)
        if cut.size:
            cells = cells[:cut[0]]
            u = u[path[cut[0]]:]
        chunks.append(cells)
        remaining -= len(cells)
    return np.concatenate(chunks)


def s_index_montecarlo(w: WalkSpec, m: ProductMeasure, samples: int,
                       seed: int) -> IndexReport:
    """Monte Carlo pairing: mean winding over boundary points drawn from m.

    Each point draws only enough coordinates to land in a cell of the walk;
    the bit stream is decoded in vectorized blocks (see ``_sample_cells``)
    and gives the same cells as drawing one bit per ``rng.random()`` call.
    Each sampled point contributes the winding of its cell's loop, which the
    phase-unwrap quadrature must confirm (``agreed_windings``), so the
    estimator is an exact average of integers.  Deterministic for a fixed
    seed: the per-cell windings are precomputed and the bit stream is a
    single sequential generator.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    checked = _checked_cell_windings(w)
    windings = [agreed_windings(residue, winding_quadrature(loop_for_cell(w, coeff)),
                                cell=prefix)[0]
                for prefix, coeff, residue in checked]
    prefixes = [prefix for prefix, _, _ in checked]
    sampled = _sample_cells(prefixes, m, samples, np.random.default_rng(seed))
    hits = np.bincount(sampled, minlength=len(prefixes)).tolist()
    values = np.array(windings, dtype=float)[sampled]

    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(samples)) if samples > 1 else 0.0
    per_cell = tuple(CellWinding(prefix, winding, count / samples)
                     for prefix, winding, count in zip(prefixes, windings, hits))
    return IndexReport(
        mode="mc",
        numeric=mean,
        exact=None,
        per_cell=per_cell,
        classification_counts=_classification_counts(windings, hits),
        mc_stderr=stderr,
        samples=samples,
        seed=seed,
    )
