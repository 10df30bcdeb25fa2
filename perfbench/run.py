#!/usr/bin/env python3
"""Benchmark of the chiralwalk command line, end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload tree-check --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this process: a job is a
list of in-process calls to ``chiralwalk.cli.main(argv)`` (``--workers 1``),
on input files generated from ``--seed`` before the job's timer starts.
Every report is judged by an independent oracle (``oracles.py``); a nonzero
exit, an exception or a wrong report fails the job.  OpenBLAS keeps its
default thread count.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median time of
``import chiralwalk.cli`` in fresh interpreters, taken between jobs over the
whole run), ``jobs_per_s``, ``job_s.p50`` and ``peak_rss_mb``.
``--trace 1`` runs each job twice, untraced and traced (spans from
``tracing.py``), then one job under ``tracemalloc``, and prints the
per-layer metrics of ``layer_map.json``, which also names the end-to-end
metric and workload each one should move.  The last line of
standard output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds diagnostics and
provenance.  Spans are written to ``perfbench/.runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, ROOT as ROOT_SPAN, VALUE_SOURCES, Tracer  # noqa: E402

SETUP_REPEATS = 11
MEMORY_MARGIN = 200e6       # bytes kept free beyond the computed footprint
SELF_CHECK_JOB = 2 ** 20    # job number of the self-check's inputs
TAIL_BEYOND = 10            # job_s.tail: highest percentile with this many jobs above it
IMPORT_PROBE = ("import time; t = time.perf_counter(); import chiralwalk.cli; "
                "d = time.perf_counter() - t; import chiralwalk; "
                "print(d); print(chiralwalk.__file__)")


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reasons: list[str]) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(reasons))

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _meminfo(key: str) -> int:
    """A /proc/meminfo field in bytes."""
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024
    raise KeyError(key)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args) -> dict:
    import chiralwalk
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    build = {kind: {k: deps.get(kind, {}).get(k) for k in ("name", "version", "openblas configuration")}
             for kind in ("blas", "lapack")}
    return {
        "git_rev": _git_rev(),
        "chiralwalk": chiralwalk.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_lapack": build,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(_meminfo("MemTotal") / 1e6),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe() -> float:
    """Seconds to ``import chiralwalk.cli`` (numpy and BLAS included) in a
    fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, origin = proc.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported chiralwalk from {origin}, not from {SRC}")
    return float(seconds)


def run_call(main, argv: list[str], tracer: Tracer | None) -> tuple[float, int | None, str, str]:
    """Time one ``cli.main(argv)`` call: (seconds, exit code, stdout, stderr).

    A crash gives exit code None and the exception as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.root(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            err.write(traceback.format_exc(limit=-1).strip().splitlines()[-1])
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


class Runner:
    """Runs jobs of one workload and keeps their tally."""

    def __init__(self, main, workload: str, seed: int, workdir: Path):
        self.main = main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = Tally()
        self.next_job = 0
        self.last: list[tuple] = []   # (call, code, stdout, stderr) of the last job

    def job(self, tracer: Tracer | None = None, number: int | None = None) -> float:
        """Generate, run and judge one job (by default the next in the
        stream); returns its seconds."""
        if number is None:
            number = self.next_job
            self.next_job += 1
        calls = workloads.make_job(self.workload, self.seed, number, self.workdir)
        if tracer is not None:
            tracer.job = number
        seconds, reasons = 0.0, []
        self.last = []
        for call in calls:
            elapsed, code, out, err = run_call(self.main, call.argv, tracer)
            seconds += elapsed
            self.last.append((call, code, out, err))
            reason = oracles.judge(call.kind, code, out, err, call.expected)
            if reason:
                reasons.append(reason)
        self.tally.record(reasons)
        return seconds

    def loop(self, seconds: float, setup: list[float]) -> list[float]:
        """Closed loop: jobs back to back for ``seconds``; returns job times.
        Also appends SETUP_REPEATS set-up probes to ``setup``, spread evenly
        over the loop, outside the jobs and outside the ``seconds``."""
        start = time.perf_counter()
        deadline = start + seconds
        times = []
        while not times or time.perf_counter() < deadline:
            now = time.perf_counter()
            if len(setup) < SETUP_REPEATS and len(setup) * seconds <= SETUP_REPEATS * (now - start):
                setup.append(setup_probe())
                deadline += time.perf_counter() - now
            times.append(self.job())
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_probe())
        return times

    def paired_loop(self, seconds: float, tracer: Tracer) -> tuple[list[float], list[float]]:
        """Each job twice on the same inputs, untraced then traced, for
        ``seconds``; returns (untraced, traced) job times.  Pairing keeps the
        inputs and the machine's state alike on both sides of the overhead."""
        deadline = time.perf_counter() + seconds
        untraced, traced = [], []
        while not traced or time.perf_counter() < deadline:
            number = self.next_job
            self.next_job += 1
            untraced.append(self.job(number=number))
            tracer.install()
            try:
                traced.append(self.job(tracer, number=number))
            finally:
                tracer.uninstall()
        return untraced, traced

    def self_check(self) -> None:
        """Run one job, then judge each of its reports against a deliberately
        wrong expectation: every one must count as failed, or the harness is
        broken.  Its inputs lie outside the stream the loops draw from."""
        self.job(number=SELF_CHECK_JOB)
        probe = Tally()
        for call, code, out, err in self.last:
            wrong = oracles.wrong_expectation(call.kind, call.expected)
            reason = oracles.judge(call.kind, code, out, err, wrong)
            if reason is None:
                raise RuntimeError(f"self-check: the {call.kind} oracle accepted a wrong expectation")
            probe.record([reason])
        if probe.failed_frac != 1.0:
            raise RuntimeError(f"self-check: failed_frac {probe.failed_frac}, expected 1.0")


def tail(times: list[float]) -> tuple[str, float] | None:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    pct = int(100 * (n - TAIL_BEYOND) / n)
    return f"p{pct}", statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def end_to_end(setup: list[float], times: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def per_layer(spec: list[dict], tracer: Tracer, probe: Tracer,
              traced: list[float], untraced: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics, averaged per traced job; absent names listed apart."""
    jobs = len(traced)
    agg = tracer.aggregate()
    installed = tracer.installed | {ROOT_SPAN}
    observed = installed - tracer.unobserved
    layer_self = {layer: sum(v["self_s"] for k, v in agg.items() if k.startswith(layer + "."))
                  / jobs for layer in LAYERS if layer != "cli"}
    traced_rate = jobs / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    values = tracer.values
    named = {
        "treeop.bundle_mb": values["treeop.bundle_mb"] / max(values["treeop.bundle_mb.n"], 1),
        "onedim.bundle_mb": values["onedim.bundle_mb"] / max(values["onedim.bundle_mb.n"], 1),
        "tree.vertices": values["tree.vertices"],
        "index.mc_samples": values["index.mc_samples"] / jobs,
        # nothing found means nothing wasted
        "onedim.null_kept_ratio": (values["onedim.null_kept"] / values["onedim.null_found"]
                                   if values["onedim.null_found"] else 1.0),
        "trace.jobs_per_s": traced_rate,
        "trace.untraced_jobs_per_s": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0,
        "trace.self_sum_s": sum(layer_self.values()) + agg[ROOT_SPAN]["self_s"] / jobs,
    }
    metrics, absent = {}, []
    for entry in spec:
        name = entry["name"]
        base, _, suffix = name.rpartition(".")
        if name in named:
            source = VALUE_SOURCES.get(name)
            if source is not None and source not in observed:
                absent.append(name)
                continue
            value = named[name]
        elif base in layer_self and suffix == "self_s":
            value = layer_self[base]
        elif base not in installed:
            absent.append(name)
            continue
        elif suffix == "peak_mb":
            value = probe.peaks.get(base, 0.0)
        else:
            value = agg[base][suffix] / jobs if base in agg else 0.0
        metrics[name] = (value, entry["unit"])
    return metrics, absent


def preflight(workload: str) -> str | None:
    """Refuse to start a workload whose computed footprint does not fit."""
    need = workloads.footprint_bytes(workload)
    if not need:
        return None
    available = _meminfo("MemAvailable")
    current = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if need + current + MEMORY_MARGIN > available:
        return (f"{workload} needs about {need / 1e9:.2f} GB per job (+{current / 1e9:.2f} GB "
                f"resident, {MEMORY_MARGIN / 1e9:.1f} GB margin) but MemAvailable is "
                f"{available / 1e9:.2f} GB")
    return None


def result_line(correct: bool, tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def run_workload(args) -> int:
    if not (SRC / "chiralwalk" / "cli.py").is_file():
        print(f"error: no chiralwalk sources under {SRC}", file=sys.stderr)
        return 2
    problem = preflight(args.workload)
    if problem:
        print(f"error: memory preflight: {problem}", file=sys.stderr)
        failed = Tally()
        failed.record([problem])
        print(result_line(False, failed, {}))
        return 3

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import chiralwalk.cli
    import_s = time.perf_counter() - start
    if not Path(chiralwalk.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {chiralwalk.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{os.getpid()}"
    runner = Runner(chiralwalk.cli.main, args.workload, args.seed, workdir)
    diagnostics = {"provenance": provenance(args), "cli_import_after_numpy_s": import_s}
    try:
        runner.self_check()
        if args.trace:
            spec = json.loads((HERE / "layer_map.json").read_text())["metrics"]
            tracer = Tracer()
            untraced, traced = runner.paired_loop(args.seconds, tracer)
            probe = Tracer(memory=True)
            probe.install()
            try:
                runner.job(probe)
            finally:
                probe.uninstall()
            metrics, absent = per_layer(spec, tracer, probe, traced, untraced)
            diagnostics.update(traced_jobs=len(traced), untraced_jobs=len(untraced),
                               absent=absent)
            spans_file = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps({"provenance": diagnostics["provenance"],
                                              "spans": tracer.dump()}))
            diagnostics["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            setup = []
            times = runner.loop(args.seconds, setup)
            metrics = end_to_end(setup, times)
            diagnostics.update(setup_samples_s=setup, measured_jobs=len(times))
            worst = tail(times)
            if worst is not None:
                diagnostics["job_s.tail"] = {"percentile": worst[0], "value": worst[1], "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = runner.tally
    diagnostics.update(failed_frac=tally.failed_frac, failures=tally.reasons, self_check="ok")
    print_table(f"{args.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
                f"{tally.attempted} jobs, {tally.failed} failed "
                f"(failed_frac {tally.failed_frac:.3g})", metrics)
    if "job_s.tail" in diagnostics:
        t = diagnostics["job_s.tail"]
        print(f"  job_s.tail ({t['percentile']}, diagnostic)  {t['value']:.6g} s")
    if args.trace:
        untraced_s = 1.0 / metrics["trace.untraced_jobs_per_s"][0]
        print(f"  accounting: self times sum to {metrics['trace.self_sum_s'][0]:.4g} s per traced "
              f"job; an untraced job takes {untraced_s:.4g} s; tracing overhead "
              f"{metrics['trace.overhead'][0]:+.1%}")
    print(json.dumps({"diagnostics": diagnostics}))
    print(result_line(tally.failed == 0, tally, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS belongs to one workload."""
    correct, merged, total = True, {}, Tally()
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        total.attempted += result["attempted"]
        total.failed += result["failed"]
        merged.update({f"{workload}.{k}": (v["value"], v["unit"])
                       for k, v in result["metrics"].items()})
    print(result_line(correct, total, merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
