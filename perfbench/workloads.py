"""Workload definitions: seeded input generators and the CLI calls of one job.

Every job is a list of calls to ``chiralwalk.cli.main``.  Each call carries
the oracle kind that judges its report and the expectation that oracle needs,
computed here from the generated inputs and never from the program.  Inputs
are written as fresh JSON files before the job's timer starts.

Workloads (one closed-loop client in one process, ``--workers 1``):

- ``tree-check``: ``check --depth 10`` on a random tree walk.  Dense
  ``treeop``/``linalg`` work with cubic time and a 1.6 GB bundle dominates.
  Every job shares the walk-independent tree operators at depth 10.
- ``line-index``: ``onedim --halfwidth 600`` on a random domain wall, tails
  stratified over blocks of nine jobs (see ``stratified_tails``).  The
  dense SVD in ``fredholm_index`` and the dense matrices of ``build_line``
  dominate; no tree code runs.
- ``desk-mix``: a session of seven small calls, one per subcommand.
  ``symbol``, ``index`` and ``cantor`` dominate; ``treeop`` and ``onedim`` run
  at sizes where per-call overhead, not dense work, sets the cost.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TREE_DEPTH = 10          # tree-check
LINE_HALFWIDTH = 600     # line-index
DESK_CHECK_DEPTH = 6
DESK_EXACT_LEVEL = 6     # 64 cells
DESK_MC_SAMPLES = 20000
DESK_LINE_HALFWIDTH = 100
DESK_FALK_LEVEL = 4
DESK_SWEEP_P = "0,0.5"
DESK_SWEEP_A = "-0.95:0.95:0.1"

TREE_MAX_LEVEL = 3       # random tree walks have cells up to this level
CELL_MARGIN = 0.05       # every generated cell keeps ||a| - |p|| >= this
TAIL_VALUES = (-0.95, -0.9, -0.5, -0.3, 0.0, 0.3, 0.5, 0.9, 0.95)
WIDE_TAILS = tuple(a for a in TAIL_VALUES if abs(a) > 2 ** -0.5)
NARROW_TAILS = tuple(a for a in TAIL_VALUES if abs(a) < 2 ** -0.5)
# (left wide, right wide) per job in a block of nine; uniform draws give
# wide-wide 0.20, mixed 0.49, narrow-narrow 0.31
BLOCK_CLASSES = ((1, 1), (1, 1), (1, 0), (1, 0), (0, 1), (0, 1), (0, 0), (0, 0), (0, 0))
RAMP = 5                 # line walls ramp linearly over sites -RAMP..RAMP

WORKLOADS = ("tree-check", "line-index", "desk-mix")


@dataclass
class Call:
    """One ``cli.main(argv)`` call and what its oracle expects."""

    kind: str
    argv: list[str]
    expected: dict = field(default_factory=dict)


def _unit_phase(rng: np.random.Generator) -> complex:
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _coeff_doc(a: float, phase: complex) -> dict:
    b = math.sqrt(1.0 - a * a) * phase
    return {"a": a, "b": {"re": b.real, "im": b.imag}}


def _cell_a(rng: np.random.Generator, p: float) -> float:
    while True:
        a = float(rng.uniform(-0.95, 0.95))
        if abs(abs(a) - abs(p)) >= CELL_MARGIN:
            return a


def _random_prefixes(rng: np.random.Generator, max_level: int) -> list[str]:
    """A random complete prefix code whose cells reach at most ``max_level``."""
    out, stack = [], [""]
    while stack:
        prefix = stack.pop()
        if len(prefix) < max_level and (prefix == "" or rng.random() < 0.6):
            stack += [prefix + "1", prefix + "0"]
        else:
            out.append(prefix)
    return out


def tree_walk(rng: np.random.Generator, prefixes: list[str] | None = None) -> dict:
    """Random tree walk: random p, complex q and b, cells up to level 3."""
    p = float(rng.uniform(-0.9, 0.9))
    q = math.sqrt(1.0 - p * p) * _unit_phase(rng)
    if prefixes is None:
        prefixes = _random_prefixes(rng, TREE_MAX_LEVEL)
    cells = [dict(prefix=prefix, **_coeff_doc(_cell_a(rng, p), _unit_phase(rng)))
             for prefix in prefixes]
    return {"p": p, "q": {"re": q.real, "im": q.imag}, "cells": cells}


def stratified_tails(seed: int, job: int) -> tuple[float, float]:
    """Tail values of job number ``job``.

    A tail is "wide" when |a| > 1/sqrt(2) (it winds) and "narrow" otherwise;
    the SVD's cost grows with the number of wide tails.  Jobs come in blocks
    of nine with a fixed mix of (left, right) classes, near the mix of
    independent uniform draws from TAIL_VALUES, in a seeded order; each value
    is uniform within its class.  So every run sees the same mix of costs.
    """
    block, slot = divmod(job, len(BLOCK_CLASSES))
    classes = np.random.default_rng([seed, block]).permutation(len(BLOCK_CLASSES))
    pair = BLOCK_CLASSES[classes[slot]]
    rng = np.random.default_rng([seed, block, slot])
    return tuple(float(rng.choice(WIDE_TAILS if wide else NARROW_TAILS)) for wide in pair)


def line_wall(rng: np.random.Generator, a_left: float, a_right: float) -> dict:
    """Domain wall between the given tails with random b phases, joined by a
    linear ramp in a and in the phase of b over sites -RAMP..RAMP."""
    phi_left, phi_right = rng.uniform(-math.pi, math.pi, size=2)
    middle = []
    for n in range(-RAMP, RAMP + 1):
        t = (n + RAMP) / (2 * RAMP)
        a = a_left + t * (a_right - a_left)
        phase = cmath.exp(1j * (phi_left + t * (phi_right - phi_left)))
        middle.append(dict(n=n, **_coeff_doc(a, phase)))
    return {"left": _coeff_doc(a_left, cmath.exp(1j * phi_left)),
            "right": _coeff_doc(a_right, cmath.exp(1j * phi_right)),
            "middle": middle}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _check_call(rng, workdir: Path, depth: int) -> Call:
    walk = _write(workdir / "check_walk.json", tree_walk(rng))
    return Call("check", ["check", "--walk", walk, "--depth", str(depth)])


def _onedim_call(rng, workdir: Path, halfwidth: int, tails: tuple[float, float]) -> Call:
    doc = line_wall(rng, *tails)
    wall = _write(workdir / "line_wall.json", doc)
    return Call("onedim", ["onedim", "--walk", wall, "--halfwidth", str(halfwidth)],
                {"left_a": doc["left"]["a"], "right_a": doc["right"]["a"]})


def _desk_session(rng, workdir: Path) -> list[Call]:
    calls = [_check_call(rng, workdir, DESK_CHECK_DEPTH)]

    p = float(rng.uniform(-0.9, 0.9))
    a = _cell_a(rng, p)
    q = math.sqrt(1.0 - p * p) * _unit_phase(rng)
    b_phase = float(rng.uniform(-math.pi, math.pi))
    calls.append(Call("winding", [
        "winding", f"--a={a!r}", f"--p={p!r}", f"--q-re={q.real!r}",
        f"--q-im={q.imag!r}", f"--b-phase={b_phase!r}"], {"a": a, "p": p}))

    level = DESK_EXACT_LEVEL
    exact_doc = tree_walk(rng, [format(i, f"0{level}b") for i in range(1 << level)])
    exact = _write(workdir / "exact_walk.json", exact_doc)
    calls.append(Call("index_exact", [
        "index", "--walk", exact, "--mode", "exact", "--workers", "1"],
        {"walk": exact_doc}))

    mc_doc = tree_walk(rng)
    mc = _write(workdir / "mc_walk.json", mc_doc)
    theta = float(rng.uniform(0.2, 0.8))
    seed = int(rng.integers(0, 2 ** 31))
    calls.append(Call("index_mc", [
        "index", "--walk", mc, "--mode", "mc", "--measure", f"bernoulli:{theta!r}",
        "--samples", str(DESK_MC_SAMPLES), "--seed", str(seed), "--workers", "1"],
        {"walk": mc_doc, "theta": theta, "samples": DESK_MC_SAMPLES}))

    tails = tuple(float(x) for x in rng.choice(TAIL_VALUES, size=2))
    calls.append(_onedim_call(rng, workdir, DESK_LINE_HALFWIDTH, tails))

    prefix = format(int(rng.integers(0, 1 << DESK_FALK_LEVEL)), f"0{DESK_FALK_LEVEL}b")
    calls.append(Call("falk", ["falk", "--cylinder", prefix], {"prefix": prefix}))

    calls.append(Call("sweep", [
        "sweep", "--p-grid", DESK_SWEEP_P, f"--a-grid={DESK_SWEEP_A}", "--workers", "1"],
        {"p_grid": DESK_SWEEP_P, "a_grid": DESK_SWEEP_A}))
    return calls


def make_job(workload: str, seed: int, job: int, workdir: Path) -> list[Call]:
    """Write the inputs of job number ``job`` and return its calls.

    The inputs depend only on ``(seed, job)``.
    """
    rng = np.random.default_rng([seed, job])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "tree-check":
        return [_check_call(rng, workdir, TREE_DEPTH)]
    if workload == "line-index":
        return [_onedim_call(rng, workdir, LINE_HALFWIDTH, stratified_tails(seed, job))]
    if workload == "desk-mix":
        return _desk_session(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def footprint_bytes(workload: str) -> int:
    """Computed peak memory of one job, from the dense complex128 arrays the
    program allocates (16 bytes per entry).

    tree-check: the depth-10 bundle holds 4 n x n and 5 2n x 2n arrays
    (24 n^2 entries, n = 2^11 - 1); building and checking it adds about
    3 n^2 more in transients.  line-index: the halfwidth-600 bundle holds
    one m x m and 6 2m x 2m arrays (25 m^2, m = 1201); ``block2``
    assembly and the SVD add about 9 m^2 more.
    """
    if workload == "tree-check":
        n = 2 ** (TREE_DEPTH + 1) - 1
        return 16 * 27 * n * n
    if workload == "line-index":
        m = 2 * LINE_HALFWIDTH + 1
        return 16 * 34 * m * m
    return 0
