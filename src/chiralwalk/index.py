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

from .cantor import Cylinder, Dyadic, ProductMeasure, cylinder_measure
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

    def to_json(self) -> dict:
        return {"prefix": self.prefix, "winding": self.winding, "measure": self.measure}


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

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "numeric": self.numeric,
            "exact": self.exact.to_json() if self.exact is not None else None,
            "per_cell": [c.to_json() for c in self.per_cell],
            "classification_counts": self.classification_counts,
            "mc_stderr": self.mc_stderr,
            "samples": self.samples,
            "seed": self.seed,
        }
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
    numeric = 0.0
    exact: Dyadic | None = Dyadic(0, 0) if m.kind == "uniform" else None
    for prefix, _, winding in cells:
        mu = cylinder_measure(m, Cylinder(prefix))
        per_cell.append(CellWinding(prefix, winding, float(mu)))
        numeric += winding * float(mu)
        if exact is not None:
            exact = exact + mu * winding
    if exact is not None:
        numeric = float(exact)
    return IndexReport(
        mode="exact",
        numeric=numeric,
        exact=exact,
        per_cell=tuple(per_cell),
        classification_counts=_classification_counts([c.winding for c in per_cell],
                                                     [1] * len(per_cell)),
    )


MC_BLOCK = 1 << 14   # uniforms drawn per block: bounds the decode's memory


def _cell_trie(prefixes: list[str]) -> np.ndarray:
    """Child table of a complete prefix code's trie.

    Row i is an internal node (row 0 the root), column the next bit; an entry
    >= 0 is another internal node and ``~j`` is the leaf ``prefixes[j]``.
    """
    internal = sorted({p[:k] for p in prefixes for k in range(len(p))},
                      key=lambda v: (len(v), v))
    node = {v: i for i, v in enumerate(internal)}
    leaf = {p: j for j, p in enumerate(prefixes)}
    child = np.empty((len(internal), 2), dtype=np.intp)
    for v, i in node.items():
        for bit in (0, 1):
            c = v + str(bit)
            child[i, bit] = node[c] if c in node else ~leaf[c]
    return child


def _decode_starts(u: np.ndarray, child: np.ndarray, w0: np.ndarray):
    """Cell index and next start of the point starting at every position of
    ``u``, with a sentinel position ``len(u)``.

    Uniform ``u[s + k]`` is bit ``k`` of the point starting at ``s``: "0" when
    below ``w0[k]``.  All starts descend the trie together, one level per
    step.  A start whose code runs past the end of ``u``, and the sentinel,
    keep cell -1 and are their own next start.
    """
    n = len(u)
    cell = np.full(n + 1, -1, dtype=np.intp)
    nxt = np.arange(n + 1)
    start = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    for k, threshold in enumerate(w0):
        keep = np.searchsorted(start, n - k)  # starts whose bit k is in u
        start, node = start[:keep], node[:keep]
        node = child[node, (u[start + k] >= threshold).astype(np.intp)]
        done = node < 0
        cell[start[done]] = ~node[done]
        nxt[start[done]] += k + 1
        start, node = start[~done], node[~done]
        if not start.size:
            break
    return cell, nxt


def _orbit(nxt: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` points of the orbit of 0 under ``nxt``, by pointer
    doubling: ``jumps[j]`` moves 2**j steps."""
    jumps = [nxt]
    while 1 << len(jumps) < count:
        jumps.append(jumps[-1][jumps[-1]])
    path = np.zeros(1, dtype=nxt.dtype)
    for jump in reversed(jumps):
        path = np.column_stack([path, jump[path]]).ravel()
    return path[:count]


def _sample_cells(prefixes: list[str], m: ProductMeasure, samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Cell index of each of ``samples`` boundary points drawn from ``m``.

    Bit k of a point is "0" when its uniform is below ``m.weight(k + 1, "0")``
    and each point reads its bits until they spell a cell, so point i + 1
    starts at the uniform after point i's last.  The uniforms come from
    ``rng.random(k)`` in blocks, which is the stream of scalar draws; every
    start in a block is decoded at once, the chain of starts is followed from
    the first, and a point cut by the block's end is decoded again with the
    next block.  Memory is bounded by the block, not by the number of samples
    times the code length.
    """
    max_level = max(len(p) for p in prefixes)
    if max_level == 0:                        # one cell: the whole boundary
        return np.zeros(samples, dtype=np.intp)
    child = _cell_trie(prefixes)
    w0 = np.array([m.weight(k, "0") for k in range(1, max_level + 1)])
    chunks, remaining = [], samples
    u = np.empty(0)
    while remaining:
        block = min(remaining * max_level, max(MC_BLOCK, max_level))
        u = np.concatenate([u, rng.random(block)])
        cell, nxt = _decode_starts(u, child, w0)
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
