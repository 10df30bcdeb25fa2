"""Walk data: sphere-valued coin coefficients on the tree boundary or the line.

A tree walk assigns a coin coefficient (a, b) with a^2 + |b|^2 = 1 to each
cell of a cylinder partition of the boundary; such cylinder-locally-constant
data is what makes the index pairings exactly computable.  A line walk
assigns coefficients to lattice sites with eventually-constant tails.  Both
are read from JSON documents, parsed and validated here.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property

from .cantor import check_prefix_partition

A_MARGIN = 1e-6      # exclusion zone around |a| = 1 (conjugation divides by sqrt(1 -+ a))
SPHERE_TOL = 1e-6    # accepted input deviation from the unit sphere


class ValidationError(ValueError):
    """Raised for malformed or inconsistent walk configuration data."""


def _normalize_pair(x: float, z: complex, what: str, tol: float = SPHERE_TOL):
    if not (math.isfinite(x) and cmath.isfinite(z)):
        raise ValidationError(f"{what} = ({x}, {z}) is not finite")
    try:
        norm = math.sqrt(x * x + abs(z) ** 2)
    except OverflowError:
        raise ValidationError(f"{what} = ({x}, {z}) is not on the unit sphere "
                              "(its norm overflows)") from None
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"{what} = ({x}, {z}) is not on the unit sphere "
                              f"(norm {norm:.9f}, tolerance {tol})")
    if abs(norm - 1.0) <= 1e-14:
        # already normalized to rounding precision: use the input bit for bit
        return x, z
    return x / norm, z / norm


@dataclass(frozen=True)
class SphereCoeff:
    """A point (a, b) on the unit sphere in R x C, with |a| kept away from 1."""

    a: float
    b: complex

    @staticmethod
    def make(a: float, b: complex) -> "SphereCoeff":
        a, b = _normalize_pair(float(a), complex(b), "coin coefficient")
        if abs(a) > 1.0 - A_MARGIN:
            raise ValidationError(f"|a| = {abs(a)} too close to 1 (margin {A_MARGIN})")
        return SphereCoeff(a, b)


@dataclass(frozen=True)
class WalkSpec:
    """Chirality parameters (p, q) plus coin data on a cylinder partition.

    ``cells`` maps prefix -> coefficient and is kept sorted by prefix; the
    prefixes must form a complete prefix code.
    """

    p: float
    q: complex
    cells: tuple[tuple[str, SphereCoeff], ...]

    @staticmethod
    def make(p: float, q: complex, cells) -> "WalkSpec":
        p, q = _normalize_pair(float(p), complex(q), "chirality parameter (p, q)")
        items = sorted(((prefix, coeff) for prefix, coeff in cells), key=lambda item: item[0])
        try:
            check_prefix_partition([prefix for prefix, _ in items])
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        return WalkSpec(p, q, tuple(items))

    @cached_property
    def prefixes(self) -> tuple[str, ...]:
        return tuple(prefix for prefix, _ in self.cells)

    @cached_property
    def max_level(self) -> int:
        return max(map(len, self.prefixes))


# --- JSON formats -----------------------------------------------------------
#
# Tree walk:
#   { "p": <real>, "q": {"re": <real>, "im": <real>},
#     "cells": [ {"prefix": "<bits>", "a": <real>, "b": {"re":., "im":.}}, ... ] }
# Line walk:
#   { "left":  {"a": ., "b": {"re":., "im":.}},
#     "right": {"a": ., "b": {"re":., "im":.}},
#     "middle": [ {"n": <int>, "a": ., "b": {"re":., "im":.}}, ... ] }


def _real(x) -> float:
    """A JSON number as a float (a string or a boolean is a TypeError)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{x!r} is not a JSON number")
    return float(x)


def _complex_from(obj, what: str) -> complex:
    try:
        return complex(_real(obj["re"]), _real(obj["im"]))
    except (TypeError, KeyError, ValueError, OverflowError):
        raise ValidationError(f"{what} must be an object with 're' and 'im'") from None


def _coeff_from(obj, what: str) -> SphereCoeff:
    try:
        a = _real(obj["a"])
        b = _complex_from(obj["b"], f"{what}.b")
    except (TypeError, KeyError, ValueError, OverflowError):
        raise ValidationError(f"{what} must carry numeric 'a' and complex 'b'") from None
    try:
        return SphereCoeff.make(a, b)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def parse_walk(text: str) -> WalkSpec:
    """Parse and validate a tree-walk JSON document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ValidationError("walk document must be an object with a 'cells' list")
    try:
        p = _real(doc["p"])
        q = _complex_from(doc["q"], "q")
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValidationError("walk document needs numeric 'p' and complex 'q'") from None
    cells = []
    for entry in doc["cells"]:
        prefix = entry.get("prefix") if isinstance(entry, dict) else None
        if not isinstance(prefix, str):
            raise ValidationError(f"cell {entry!r} needs a string 'prefix'")
        cells.append((prefix, _coeff_from(entry, f"cell {prefix!r}")))
    return WalkSpec.make(p, q, cells)


@dataclass(frozen=True)
class LineWalkSpec:
    """Coin data on the integer lattice: two tails plus finite middle overrides.

    Sites n < 0 default to the left tail and n >= 0 to the right tail;
    ``middle`` entries override individual sites.
    """

    left: SphereCoeff
    right: SphereCoeff
    middle: tuple[tuple[int, SphereCoeff], ...]

    @staticmethod
    def make(left: SphereCoeff, right: SphereCoeff, middle) -> "LineWalkSpec":
        items = sorted(middle, key=lambda item: item[0])
        positions = [n for n, _ in items]
        if len(set(positions)) != len(positions):
            raise ValidationError(f"duplicate middle positions: {positions}")
        return LineWalkSpec(left, right, tuple(items))


def parse_line_walk(text: str) -> LineWalkSpec:
    try:
        doc = json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "left" not in doc or "right" not in doc:
        raise ValidationError("line walk document needs 'left' and 'right' tails")
    left = _coeff_from(doc["left"], "left")
    right = _coeff_from(doc["right"], "right")
    entries = doc.get("middle", [])
    if not isinstance(entries, list):
        raise ValidationError("line walk 'middle' must be a list of sites")
    middle = []
    for entry in entries:
        n = entry.get("n") if isinstance(entry, dict) else None
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"middle entry {entry!r} needs an integer 'n'")
        middle.append((n, _coeff_from(entry, f"middle site {n}")))
    return LineWalkSpec.make(left, right, middle)
