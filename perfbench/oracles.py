"""Independent oracles: judge each CLI report against a value derived from the
generated inputs by a route the program does not take.

Each oracle returns ``None`` when the report is right and a one-line reason
when it is wrong.  The sign rule used throughout: a boundary loop with coin
value ``a`` and chirality parameter ``p`` winds +1 for ``a > |p|``, 0 for
``|a| < |p|`` and -1 for ``a < -|p|``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

IDENTITY_NAMES = (
    "symmetry_squared", "coin_squared", "conjugator_unitary", "coin_diagonalized",
    "defect_kills_shift", "coin_anticommutes_skew", "conjugated_skew_diag_blocks",
)
RESIDUAL_BOUND = 1e-10
QUADRATURE_TOL = 1e-6
MC_SIGMAS = 5.0
FALK_TOL = 1e-9
LATTICE_CRITICAL = 1.0 / math.sqrt(2.0)   # the lattice is the tree with |p| = 1/sqrt(2)


def sign_rule(a: float, p: float) -> int:
    if a > abs(p):
        return 1
    if a < -abs(p):
        return -1
    return 0


def _bernoulli_mu(prefix: str, theta: float) -> float:
    return math.prod(theta if bit == "0" else 1.0 - theta for bit in prefix)


def _grid(text: str) -> list[float]:
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        count = round((stop - start) / step) + 1
        return [start + i * step for i in range(count)]
    return [float(x) for x in text.split(",")]


def check_identities(out: str, expected: dict) -> str | None:
    """All seven identity residuals are present and below the bound."""
    bound = expected.get("bound", RESIDUAL_BOUND)
    rows = {row["identity"]: row for row in csv.DictReader(io.StringIO(out))}
    for name in IDENTITY_NAMES:
        if name not in rows:
            return f"identity {name} missing from the report"
        residual = float(rows[name]["residual"])
        if not residual < bound:
            return f"identity {name} residual {residual:.3g} not below {bound:.0e}"
    return None


def check_onedim(out: str, expected: dict) -> str | None:
    """Lattice index equals wind(left tail) - wind(right tail)."""
    want = expected.get("index")
    if want is None:
        want = (sign_rule(expected["left_a"], LATTICE_CRITICAL)
                - sign_rule(expected["right_a"], LATTICE_CRITICAL))
    got = json.loads(out)["index"]
    return None if got == want else f"lattice index {got}, tail windings give {want}"


def exact_pairing(walk: dict) -> Fraction:
    """mu({a > |p|}) - mu({a < -|p|}) under the uniform measure, exactly."""
    p = walk["p"]
    return sum((sign_rule(c["a"], p) * Fraction(1, 2 ** len(c["prefix"]))
                for c in walk["cells"]), Fraction(0))


def check_index_exact(out: str, expected: dict) -> str | None:
    want = expected.get("value")
    if want is None:
        want = exact_pairing(expected["walk"])
    doc = json.loads(out)
    exact = doc.get("exact")
    if not exact:
        return "exact index report carries no dyadic value"
    got = Fraction(exact["num"], 2 ** exact["exp"])
    return None if got == want else f"exact index {got}, cells give {want}"


def check_index_mc(out: str, expected: dict) -> str | None:
    """Monte Carlo mean within MC_SIGMAS standard errors of the exact
    Bernoulli pairing; the standard error comes from the exact law."""
    walk, theta, samples = expected["walk"], expected["theta"], expected["samples"]
    mean = expected.get("value")
    second = 0.0
    exact_mean = 0.0
    for cell in walk["cells"]:
        w = sign_rule(cell["a"], walk["p"])
        mu = _bernoulli_mu(cell["prefix"], theta)
        exact_mean += w * mu
        second += w * w * mu
    if mean is None:
        mean = exact_mean
    stderr = math.sqrt(max(second - exact_mean ** 2, 0.0) / samples)
    doc = json.loads(out)
    if doc.get("samples") != samples:
        return f"report has {doc.get('samples')} samples, asked for {samples}"
    diff = abs(doc["numeric"] - mean)
    if diff > MC_SIGMAS * stderr + 1e-12:
        return f"MC {doc['numeric']:.6f} is {diff:.3g} from {mean:.6f} (stderr {stderr:.3g})"
    return None


def check_falk(out: str, expected: dict) -> str | None:
    """The Falk cylinder pairing equals mu(cyl) under the uniform measure."""
    want = expected.get("value", 2.0 ** -len(expected["prefix"]))
    got = json.loads(out)["pairing"]
    return None if abs(got - want) <= FALK_TOL else f"falk pairing {got!r}, mu(cyl) = {want!r}"


def check_winding(out: str, expected: dict) -> str | None:
    want = expected.get("winding")
    if want is None:
        want = sign_rule(expected["a"], expected["p"])
    doc = json.loads(out)
    if doc.get("status") != "ok":
        return f"winding status {doc.get('status')!r} away from the singular locus"
    if doc["winding_residues"] != want:
        return f"residue winding {doc['winding_residues']}, sign rule gives {want}"
    if abs(doc["winding_quadrature"] - want) > QUADRATURE_TOL:
        return f"quadrature winding {doc['winding_quadrature']!r}, sign rule gives {want}"
    return None


def check_sweep(out: str, expected: dict) -> str | None:
    """One row per grid point in canonical order, each following the sign rule."""
    points = expected.get("points")
    if points is None:
        points = [(p, a) for p in _grid(expected["p_grid"]) for a in _grid(expected["a_grid"])]
    rows = list(csv.DictReader(io.StringIO(out)))
    if len(rows) != len(points):
        return f"sweep has {len(rows)} rows for {len(points)} grid points"
    for row, (p, a) in zip(rows, points):
        if abs(float(row["p"]) - p) > 1e-12 or abs(float(row["a"]) - a) > 1e-12:
            return f"sweep row ({row['p']}, {row['a']}) where ({p}, {a}) was due"
        want = sign_rule(a, p)
        if row["status"] != "ok" or int(row["winding_residues"]) != want:
            return f"sweep row (p={p}, a={a}) gives {row['winding_residues']!r}, sign rule {want}"
        if abs(float(row["winding_quadrature"]) - want) > QUADRATURE_TOL:
            return f"sweep row (p={p}, a={a}) quadrature {row['winding_quadrature']}"
    return None


ORACLES = {
    "check": check_identities,
    "onedim": check_onedim,
    "index_exact": check_index_exact,
    "index_mc": check_index_mc,
    "falk": check_falk,
    "winding": check_winding,
    "sweep": check_sweep,
}


def judge(kind: str, code: int | None, out: str, err: str, expected: dict) -> str | None:
    """Failure reason for one call, or None when it exited 0 with a right
    report.  ``code`` is None when the call raised; ``err`` is its stderr."""
    if code is None:
        return f"{kind}: raised {err}"
    if code != 0:
        return f"{kind}: exit code {code} ({err.strip()[:200]})"
    try:
        reason = ORACLES[kind](out, expected)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unreadable report ({type(exc).__name__}: {exc})"
    return None if reason is None else f"{kind}: {reason}"


def wrong_expectation(kind: str, expected: dict) -> dict:
    """A deliberately wrong expectation for the self-check."""
    if kind == "check":
        return {**expected, "bound": 0.0}
    if kind == "onedim":
        right = (sign_rule(expected["left_a"], LATTICE_CRITICAL)
                 - sign_rule(expected["right_a"], LATTICE_CRITICAL))
        return {**expected, "index": right + 1}
    if kind == "index_exact":
        return {**expected, "value": exact_pairing(expected["walk"]) + Fraction(1, 64)}
    if kind == "index_mc":
        return {**expected, "value": 2.0}
    if kind == "falk":
        return {**expected, "value": 2.0 ** -len(expected["prefix"]) + 0.5}
    if kind == "winding":
        return {**expected, "winding": sign_rule(expected["a"], expected["p"]) + 2}
    if kind == "sweep":
        return {**expected, "points": [(0.0, 0.0)]}
    raise ValueError(f"no wrong expectation for {kind!r}")
