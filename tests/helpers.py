"""Shared generators for randomized walk specs."""

from __future__ import annotations

import numpy as np

from chiralwalk.walk import SphereCoeff, WalkSpec


def sphere_coeff(a: float, phase: float = 0.0) -> SphereCoeff:
    return SphereCoeff.make(a, np.sqrt(1.0 - a * a) * np.exp(1j * phase))


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


def reference_montecarlo(w: WalkSpec, m, samples: int, seed: int,
                         quadrature_samples: int = 4096):
    """The scalar Monte Carlo pairing: one ``rng.random()`` and one
    ``m.weight`` call per boundary bit.  Reference for the vectorized decode
    in ``s_index_montecarlo``, whose reports must match it byte for byte."""
    from chiralwalk.index import CellWinding, IndexReport, loop_for_cell
    from chiralwalk.symbol import winding_quadrature

    cell_winding = {prefix: int(round(winding_quadrature(loop_for_cell(w, coeff),
                                                         quadrature_samples)))
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
