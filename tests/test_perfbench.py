"""The benchmark's result line: the last line of ``perfbench/run.py`` must be
one JSON object that holds every metric ``BENCHMARK.json`` names, each a
finite number, and no traced binding may have gone missing."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chiralwalk.treeop import build_bundle
from helpers import random_walk_spec

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_of(metric, tracing):
    """The span a per-layer metric is read from, or None for a layer's self
    time and the tracer's own figures."""
    if metric in tracing.VALUE_SOURCES:
        return tracing.VALUE_SOURCES[metric]
    base, _, suffix = metric.rpartition(".")
    if base == "trace" or (base in tracing.LAYERS and suffix == "self_s"):
        return None
    return base


def _resolves(module, path):
    try:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_span_metric_has_a_live_binding():
    # the same rule as the per-layer cases below, with no benchmark run: a
    # refactor that drops a traced import fails here and names the binding
    tracing = _load_tracing()
    bindings = {}
    for module, path, name in tracing.SPANS + tracing.COUNTERS:
        bindings.setdefault(name, []).append((module, path))
    bindings[tracing.ROOT] = [("chiralwalk.cli", "main")]
    for entry in SPEC["per_layer"]:
        span = _span_of(entry["name"], tracing)
        if span is not None:
            candidates = bindings.get(span, [])
            assert any(_resolves(*b) for b in candidates), (entry["name"], span, candidates)


def test_tracer_counts_the_bundle():
    # treeop.bundle_mb sums the ndarray fields of the bundle: slots kept in
    # a dict or a tuple would read 0 and raise nothing
    bundle = build_bundle(random_walk_spec(np.random.default_rng(1)), 8)
    assert _load_tracing().payload_mb(bundle) > 0


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("workload,trace,kind", [
    pytest.param("desk-mix", 1, "per_layer", id="1-per_layer"),
    pytest.param("desk-mix", 0, "end_to_end", id="0-end_to_end"),
    pytest.param("line-index", 1, "per_layer", id="line-index-1-per_layer"),
    pytest.param("line-index", 0, "end_to_end", id="line-index-0-end_to_end"),
    pytest.param("tree-check", 1, "per_layer", id="tree-check-1-per_layer"),
])
def test_result_line_is_complete_and_finite(workload, trace, kind):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    *_, diagnostics_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line, parse_constant=_reject_constant)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for entry in SPEC[kind]:
        assert entry["name"] in metrics, entry["name"]
        assert math.isfinite(metrics[entry["name"]]["value"]), entry["name"]
    diagnostics = json.loads(diagnostics_line, parse_constant=_reject_constant)["diagnostics"]
    assert diagnostics.get("absent", []) == []
