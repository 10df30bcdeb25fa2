"""Command-line surface: identity checks, windings, index pairings, lattice
indices, Falk pairings, and parameter sweeps.

Exit codes: 0 success, 2 symbol-singular (or an inconclusive lattice index),
3 invalid input (also a non-finite coin or chirality value, and input whose
arrays would not fit in the available memory, both refused before any work),
4 identity-residual breach.  Symbol-singular follows one policy
(``symbol.SymbolSingularError``): a point with ||a| - |p|| at most 1e-9 is on
the locus, and a quadrature winding more than 1e-6 from the residue winding
is unresolved; ``winding`` and ``sweep`` report either as status
``singular``, ``index`` exits 2 naming the cell.  Reports are JSON, grids are
CSV; every command is deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import resource
import sys
from pathlib import Path

from .cantor import Cylinder, ProductMeasure
from .index import s_index_exact, s_index_montecarlo
from .onedim import InconclusiveIndexError, build_line, fredholm_index
from .symbol import (FALK_MIN_TRUNC, QUADRATURE_MIN_SAMPLES, SymbolLoop,
                     SymbolSingularError, agreed_windings, falk_cylinder_pairing,
                     falk_pairing, loop_min, poles, solve_w0, winding_quadrature,
                     winding_residues)
from .tree import MAX_DEPTH
from .treeop import IDENTITY_NAMES, build_bundle, check_identities
from .walk import ValidationError, parse_line_walk, parse_walk

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_INVALID = 3
EXIT_RESIDUAL = 4

MEMINFO = "/proc/meminfo"
STATUS = "/proc/self/status"
BASE_BYTES = 64e6    # interpreter, numpy and BLAS before the first dense array
# peaks per unit of the 1-D inputs, measured with tracemalloc at 1e5-4e6 units
# and rounded up: 72 B per circle sample (winding, sweep), 24 B per Monte Carlo
# sample, 710 B per sweep row (with its loop), 32 B per range-grid value,
# 48 B per unit of falk --trunc (the diagonals of its banded factors) and
# 208 B per lattice site that onedim reads (its coefficient lists, the
# chirality diagonals and the transfer matrices)
CIRCLE_SAMPLE_BYTES = 80
MC_SAMPLE_BYTES = 32
ROW_BYTES = 800
GRID_BYTES = 40
TRUNC_BYTES = 56
SITE_BYTES = 240


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValidationError(f"{flag} must be at least {low}, got {value}")


def _positive(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{flag} must be finite and positive, got {value!r}")


def _proc_bytes(path: str, key: str) -> int | None:
    """The ``key:`` field of a /proc file, given in kB, in bytes, or None
    where it cannot be read."""
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _preflight(flag: str, nbytes: float) -> None:
    """Refuse, before any work, a call whose arrays of ``nbytes`` at their
    peak do not fit in the available memory or in what the soft
    address-space limit leaves above the process's size."""
    try:
        need = BASE_BYTES + nbytes
    except OverflowError:     # an integer count beyond any float
        need = math.inf
    available = _proc_bytes(MEMINFO, "MemAvailable")
    if available is not None and need > available:
        raise ValidationError(f"{flag} needs about {need / 1e9:.1f} GB of memory, "
                              f"but {available / 1e9:.1f} GB is available")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    size = None if limit == resource.RLIM_INFINITY else _proc_bytes(STATUS, "VmSize")
    if size is not None and need > limit - size:
        raise ValidationError(f"{flag} needs about {need / 1e9:.1f} GB of memory, but "
                              f"the address-space limit leaves {(limit - size) / 1e9:.1f} GB")


def _parse_measure(spec: str) -> ProductMeasure:
    if spec == "uniform":
        return ProductMeasure.uniform()
    if spec.startswith("bernoulli:"):
        try:
            return ProductMeasure.bernoulli(float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ValidationError(f"bad measure {spec!r}: {exc}") from None
    raise ValidationError(f"unknown measure {spec!r} (use uniform or bernoulli:THETA)")


def _parse_cylinder(prefix: str) -> Cylinder:
    try:
        return Cylinder(prefix)
    except ValueError:
        raise ValidationError(f"--cylinder must be a bit string, got {prefix!r}") from None


def _parse_grid(flag: str, text: str) -> list[float]:
    """Comma list '0,0.25,0.5' or range 'start:stop:step' (stop inclusive)."""
    def floats(parts):
        try:
            return [float(x) for x in parts]
        except ValueError as exc:
            raise ValidationError(f"bad grid {text!r}: {exc}") from None

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad grid {text!r} (use start:stop:step)")
        start, stop, step = floats(parts)
        if step <= 0:
            raise ValidationError("grid step must be positive")
        span = (stop - start) / step + 1e-9
        if not math.isfinite(span):
            raise ValidationError(f"bad grid {text!r} (the point count is not finite)")
        count = int(math.floor(span)) + 1
        _preflight(f"{flag} {text}", GRID_BYTES * max(count, 0))
        return [start + i * step for i in range(max(count, 0))]
    if not text.strip():
        return []
    return floats(text.split(","))


def cmd_check(args) -> int:
    _positive("--tol", args.tol)
    # the identities are checked two layers in from the truncation depth
    if not 2 <= args.depth <= MAX_DEPTH:
        raise ValidationError(f"--depth must lie in [2, {MAX_DEPTH}], got {args.depth}")
    # a check at depths 8-11 peaks at 3.1-3.5 n x n arrays (the n x m slab of
    # L and m x n slab of E, the 2m x 2n symmetry strip with m ~ n / 4, its
    # adjoint and product, plus transients); 3.9 keeps a margin
    _preflight(f"--depth {args.depth}", 3.9 * 16.0 * (2 ** (args.depth + 1) - 1) ** 2)
    w = parse_walk(_read_text(args.walk))
    bundle = build_bundle(w, args.depth)
    residuals = check_identities(bundle)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["identity", "residual", "threshold", "status"])
    worst_over = False
    for name in IDENTITY_NAMES:
        value = residuals[name]
        ok = value < args.tol
        worst_over = worst_over or not ok
        writer.writerow([name, repr(value), repr(args.tol), "pass" if ok else "fail"])
    _write_out(buf.getvalue(), args.out)
    return EXIT_RESIDUAL if worst_over else EXIT_OK


def _loop(a: float, p: float, q: complex | None = None, b_phase: float = 0.0) -> SymbolLoop:
    """The loop with b = sqrt(1 - a^2) e^{i b_phase}, and q = sqrt(1 - p^2)
    unless given; a non-finite value, |a| >= 1 or (p, q) off the sphere is
    invalid input."""
    try:
        if q is None:
            q = complex(math.sqrt(max(1.0 - p ** 2, 0.0)), 0.0)
        b = math.sqrt(max(1.0 - a * a, 0.0)) * complex(math.cos(b_phase), math.sin(b_phase))
        return SymbolLoop(a=a, b=b, p=p, q=q)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"a = {a!r}, p = {p!r}, b phase {b_phase!r}: {exc}") from None


def _windings(s: SymbolLoop, samples: int) -> tuple[int, float]:
    return agreed_windings(winding_residues(s), winding_quadrature(s, samples))


def cmd_winding(args) -> int:
    _at_least("--samples", args.samples, QUADRATURE_MIN_SAMPLES)
    _preflight(f"--samples {args.samples}", CIRCLE_SAMPLE_BYTES * args.samples)
    q = (None if args.q_re is None and args.q_im is None
         else complex(args.q_re or 0.0, args.q_im or 0.0))
    s = _loop(args.a, args.p, q, args.b_phase)
    min_abs, witness = loop_min(s, args.samples)
    doc: dict = {
        "a": s.a, "p": s.p,
        "q": {"re": s.q.real, "im": s.q.imag},
        "min_abs_loop": min_abs,
    }
    try:
        doc["winding_residues"], doc["winding_quadrature"] = _windings(s, args.samples)
    except SymbolSingularError:
        doc["status"] = "singular"
        doc["witness"] = {"re": witness.real, "im": witness.imag}
        if s.a != 0 and s.q != 0:
            w0 = solve_w0(s)
            doc["w0"] = {"re": w0.real, "im": w0.imag, "abs": abs(w0)}
    else:
        doc["status"] = "ok"
        if s.q != 0:
            data = poles(s)
            doc["poles"] = {
                "alpha": {"re": data.alpha.real, "im": data.alpha.imag, "abs": abs(data.alpha)},
                "beta": {"re": data.beta.real, "im": data.beta.imag, "abs": abs(data.beta)},
            }
    _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_SINGULAR if doc["status"] == "singular" else EXIT_OK


def cmd_index(args) -> int:
    measure = _parse_measure(args.measure)
    if args.mode == "mc":
        _at_least("--samples", args.samples, 1)
        _at_least("--seed", args.seed, 0)
        _preflight(f"--samples {args.samples}", MC_SAMPLE_BYTES * args.samples)
    w = parse_walk(_read_text(args.walk))
    if args.mode == "exact":
        report = s_index_exact(w, measure)
    else:
        report = s_index_montecarlo(w, measure, samples=args.samples, seed=args.seed)
    _write_out(report.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_onedim(args) -> int:
    # the transfer count reads every site from the lowest to the highest
    # middle site and three sites of each tail beyond them, so its memory
    # grows with the span of the middle, never with --halfwidth
    _positive("--tol", args.tol)
    spec = parse_line_walk(_read_text(args.walk))
    support = [n for n, _ in spec.middle] + [0]
    span = max(support) - min(support) + 1
    _preflight(f"a middle spanning {span} sites", SITE_BYTES * span)
    try:
        bundle = build_line(spec, args.halfwidth)
        result = fredholm_index(bundle, tol=args.tol)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    _write_out(json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_falk(args) -> int:
    _at_least("--trunc", args.trunc, FALK_MIN_TRUNC)
    _preflight(f"--trunc {args.trunc}", TRUNC_BYTES * args.trunc)
    if args.cylinder is not None:
        cylinder = _parse_cylinder(args.cylinder)
        measure = _parse_measure(args.measure)
        value = falk_cylinder_pairing(cylinder, measure, args.trunc)
        doc = {"cylinder": args.cylinder, "measure": args.measure,
               "trunc": args.trunc, "pairing": value}
    else:
        if args.f_value is None:
            raise ValidationError("need either --f-value or --cylinder")
        value = falk_pairing(args.f_value, args.trunc)
        doc = {"f": args.f_value, "trunc": args.trunc, "pairing": value}
    _write_out(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _at_least("--samples", args.samples, QUADRATURE_MIN_SAMPLES)
    p_grid = _parse_grid("--p-grid", args.p_grid)
    a_grid = _parse_grid("--a-grid", args.a_grid)
    # the rows are held until the CSV is written; one row's circle samples
    # are live at a time
    _preflight(f"{len(p_grid)} x {len(a_grid)} grid points at --samples {args.samples}",
               ROW_BYTES * len(p_grid) * len(a_grid) + CIRCLE_SAMPLE_BYTES * args.samples)
    loops = [_loop(a, p, math.sqrt(max(1.0 - p * p, 0.0))) for p in p_grid for a in a_grid]

    def row(s):
        min_abs, _ = loop_min(s, args.samples)
        # a point on the locus (grid arithmetic can land within float noise of
        # |a| = |p|) or with unresolved windings is flagged, never emitted as data
        try:
            residue, quadrature = _windings(s, args.samples)
        except SymbolSingularError:
            return [repr(s.p), repr(s.a), "", "", repr(min_abs), "singular"]
        return [repr(s.p), repr(s.a), residue, repr(quadrature), repr(min_abs), "ok"]

    rows = [row(s) for s in loops]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "a", "winding_residues", "winding_quadrature",
                     "min_abs_loop", "status"])
    writer.writerows(rows)
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="chiralwalk",
                     description="Chirality-operator index experiments on trees and lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="identity residual table (CSV)")
    p_check.add_argument("--walk", required=True, help="tree walk JSON file")
    p_check.add_argument("--depth", type=int, default=8)
    p_check.add_argument("--tol", type=float, default=1e-10)

    p_wind = sub.add_parser("winding", help="winding of one boundary loop (JSON)")
    p_wind.add_argument("--a", type=float, required=True)
    p_wind.add_argument("--p", type=float, default=0.0)
    p_wind.add_argument("--q-re", type=float, default=None)
    p_wind.add_argument("--q-im", type=float, default=None)
    p_wind.add_argument("--b-phase", type=float, default=0.0)
    p_wind.add_argument("--samples", type=int, default=4096)

    p_index = sub.add_parser("index", help="measure-paired index report (JSON)")
    p_index.add_argument("--walk", required=True)
    p_index.add_argument("--measure", default="uniform")
    p_index.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p_index.add_argument("--samples", type=int, default=4000)
    p_index.add_argument("--seed", type=int, default=0)

    p_line = sub.add_parser("onedim", help="lattice Fredholm index (JSON)")
    p_line.add_argument("--walk", required=True, help="line walk JSON file")
    p_line.add_argument("--halfwidth", type=int, default=300,
                        help="middle sites must lie in |n| <= N/2; the count never depends on N")
    p_line.add_argument("--tol", type=float, default=1e-8)

    p_falk = sub.add_parser("falk", help="Falk trace pairing (JSON)")
    p_falk.add_argument("--f-value", type=int, choices=[0, 1], default=None)
    p_falk.add_argument("--cylinder", default=None, help="aggregate over this cylinder prefix")
    p_falk.add_argument("--measure", default="uniform")
    p_falk.add_argument("--trunc", type=int, default=200)

    p_sweep = sub.add_parser("sweep", help="winding phase diagram over (p, a) (CSV)")
    p_sweep.add_argument("--p-grid", default="0,0.25,0.5,0.75")
    p_sweep.add_argument("--a-grid", default="-0.95:0.95:0.05")
    p_sweep.add_argument("--samples", type=int, default=4096)

    for p, func in ((p_check, cmd_check), (p_wind, cmd_winding), (p_index, cmd_index),
                    (p_line, cmd_onedim), (p_falk, cmd_falk), (p_sweep, cmd_sweep)):
        p.add_argument("--out")
        p.set_defaults(func=func)
    # accepted and ignored: perfbench/workloads.py still passes --workers 1
    for p in (p_index, p_sweep):
        p.add_argument("--workers", type=int, help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SymbolSingularError as exc:
        cell = f" (cell {exc.cell!r})" if exc.cell is not None else ""
        print(f"symbol singular: {exc}{cell}", file=sys.stderr)
        return EXIT_SINGULAR
    except InconclusiveIndexError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_SINGULAR


if __name__ == "__main__":
    sys.exit(main())
