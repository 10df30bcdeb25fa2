"""Span tracing from outside the program.

``Tracer.install()`` replaces public functions of ``chiralwalk`` with
wrappers at the name their caller binds (``chiralwalk.cli.build_bundle`` is
the binding ``cmd_check`` calls; ``chiralwalk.treeop.tree_operators`` the one
``build_bundle`` calls), and ``uninstall()`` puts the originals back.  A
wrapper records a span ``(name, start, end, parent, job)`` in memory; hot
functions called thousands of times per job only count calls.  A binding
that no longer exists is skipped and its metrics are reported as absent.

With ``memory=True`` the large calls also record the peak of ``tracemalloc``
above the level at their entry, folded correctly through nested spans.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "walk", "tree", "treeop", "linalg", "onedim", "symbol", "index", "cantor")
ROOT = "cli.main"

# (module that binds the name, attribute path, span name)
SPANS = [
    ("chiralwalk.cli", "parse_walk", "walk.parse_walk"),
    ("chiralwalk.cli", "parse_line_walk", "walk.parse_line_walk"),
    ("chiralwalk.cli", "build_bundle", "treeop.build_bundle"),
    ("chiralwalk.cli", "check_identities", "treeop.check_identities"),
    ("chiralwalk.cli", "s_index_exact", "index.s_index_exact"),
    ("chiralwalk.cli", "s_index_montecarlo", "index.s_index_montecarlo"),
    ("chiralwalk.cli", "build_line", "onedim.build_line"),
    ("chiralwalk.cli", "fredholm_index", "onedim.fredholm_index"),
    ("chiralwalk.cli", "falk_cylinder_pairing", "symbol.falk_cylinder_pairing"),
    ("chiralwalk.cli", "falk_pairing", "symbol.falk_pairing"),
    ("chiralwalk.cli", "loop_min", "symbol.loop_min"),
    ("chiralwalk.cli", "poles", "symbol.poles"),
    ("chiralwalk.cli", "solve_w0", "symbol.solve_w0"),
    ("chiralwalk.cli", "winding_quadrature", "symbol.winding_quadrature"),
    ("chiralwalk.cli", "winding_residues", "symbol.winding_residues"),
    ("chiralwalk.treeop", "tree_operators", "treeop.tree_operators"),
    ("chiralwalk.treeop", "truncated_tree", "tree.truncated_tree"),
    ("chiralwalk.treeop", "coin_values", "treeop.coin_values"),
    ("chiralwalk.treeop", "eval_vertex", "walk.eval_vertex"),
    ("chiralwalk.treeop", "matmul", "linalg.matmul"),
    ("chiralwalk.treeop", "diag_block2", "linalg.diag_block2"),
    ("chiralwalk.treeop", "mul_diag_block_left", "linalg.mul_diag_block"),
    ("chiralwalk.treeop", "mul_diag_block_right", "linalg.mul_diag_block"),
    ("chiralwalk.onedim", "line_coeff", "walk.line_coeff"),
    ("chiralwalk.onedim", "block2", "linalg.block2"),
    ("chiralwalk.onedim", "mul_diag_block_right", "linalg.mul_diag_block"),
    ("chiralwalk.onedim", "chirality_map", "onedim.chirality_map"),
    ("chiralwalk.index", "winding_residues", "symbol.winding_residues"),
    ("chiralwalk.index", "winding_quadrature", "symbol.winding_quadrature"),
    ("chiralwalk.index", "cylinder_measure", "cantor.cylinder_measure"),
    ("chiralwalk.symbol", "falk_pairing", "symbol.falk_pairing"),
    ("chiralwalk.symbol", "cylinder_measure", "cantor.cylinder_measure"),
]
# called per Monte Carlo bit: a span each would cost more than the call
COUNTERS = [
    ("chiralwalk.cantor", "ProductMeasure.weight", "cantor.weight"),
]
# per-layer values read off a span's result, and the span they come from
VALUE_SOURCES = {
    "treeop.bundle_mb": "treeop.build_bundle",
    "onedim.bundle_mb": "onedim.build_line",
    "tree.vertices": "tree.truncated_tree",
    "index.mc_samples": "index.s_index_montecarlo",
    "onedim.null_kept_ratio": "onedim.fredholm_index",
}
MEMORY_SPANS = frozenset({
    "treeop.tree_operators", "treeop.build_bundle", "treeop.check_identities",
    "onedim.build_line", "onedim.fredholm_index",
})


def payload_mb(obj) -> float:
    """Megabytes held in the arrays among an object's fields (``nbytes``;
    for sparse matrices, their data and index arrays)."""
    total = 0
    fields = obj._asdict() if hasattr(obj, "_asdict") else vars(obj)
    for value in fields.values():
        if hasattr(value, "nbytes") and hasattr(value, "dtype"):
            total += value.nbytes
        else:
            total += sum(getattr(value, part).nbytes for part in ("data", "indices", "indptr")
                         if hasattr(getattr(value, part, None), "nbytes"))
    return total / 1e6


def _resolve(module: str, path: str):
    """(owner, attribute name) of a binding, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Spans and counters for one traced phase of a workload run."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []      # (name, start, end, parent, job)
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)   # MB above entry level
        self.installed: set[str] = set()
        self.unobserved: set[str] = set()   # spans whose result no longer reads
        self.job = -1
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn):
        tracer = self
        track_memory = self.memory and name in MEMORY_SPANS
        observe = name in VALUE_SOURCES.values()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_memory:
                tracer._mem_enter()
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
                if track_memory:
                    tracer._mem_exit(name)
            if observe:
                try:
                    tracer._observe(name, result)
                except (AttributeError, TypeError):   # the result changed shape
                    tracer.unobserved.add(name)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, result) -> None:
        values = self.values
        if name in ("treeop.build_bundle", "onedim.build_line"):
            key = name.split(".")[0] + ".bundle_mb"
            values[key] += payload_mb(result)
            values[key + ".n"] += 1
        elif name == "tree.truncated_tree":
            values["tree.vertices"] = result.size
        elif name == "index.s_index_montecarlo":
            values["index.mc_samples"] += result.samples
        elif name == "onedim.fredholm_index":
            kept = result.kernel_kept + result.cokernel_kept
            values["onedim.null_kept"] += kept
            values["onedim.null_found"] += (
                kept + result.kernel_discarded + result.cokernel_discarded)

    def _mem_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, name: str):
        _, peak = tracemalloc.get_traced_memory()
        base, running = self._mem_stack.pop()
        top = max(running, peak)
        self.peaks[name] = max(self.peaks[name], (top - base) / 1e6)
        if self._mem_stack:
            self._mem_stack[-1][1] = max(self._mem_stack[-1][1], top)
        tracemalloc.reset_peak()

    def install(self) -> None:
        for module, path, name in SPANS + COUNTERS:
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = getattr(owner, attr)
            if (module, path, name) in COUNTERS:
                wrapped = self.counter(name, original)
            else:
                wrapped = self.span(name, original)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))
            self.installed.add(name)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside the root span ``cli.main``."""
        return self.span(ROOT, fn)(*args)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds, summed over
        all jobs.  Self time is the duration minus the children's."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, count in self.counts.items():
            out[name]["calls"] += count
        return out

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
