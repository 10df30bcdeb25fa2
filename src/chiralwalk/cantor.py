"""Clopen cylinders on the boundary Cantor set, exact dyadic arithmetic,
and Bernoulli product measures.

The boundary is modelled as the product space {0,1}^N; a cylinder is the set
of infinite bit sequences extending a finite prefix, and corresponds
one-to-one with the subtree hanging below that prefix.  Measures of cylinders
under the uniform product measure are exact dyadic rationals m / 2^n, so all
uniform-measure pairings stay in exact integer arithmetic.  In sorted order a
prefix comes right before the strings that extend it, so the cells of a
prefix code holding any number of bit strings are one sorted search away
(:func:`prefix_cell`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .tree import check_vertex


@dataclass(frozen=True)
class Dyadic:
    """Exact dyadic rational num / 2**exp.

    Canonical form: ``exp >= 0`` and ``num`` odd whenever ``exp > 0``; zero is
    stored as (0, 0).  Construct through :meth:`make` (or the arithmetic
    operators, which canonicalize their results).
    """

    num: int
    exp: int

    @staticmethod
    def make(num: int, exp: int) -> "Dyadic":
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            return Dyadic(0, 0)
        while exp > 0 and num % 2 == 0:
            num //= 2
            exp -= 1
        return Dyadic(num, exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic.make((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: Union["Dyadic", int]) -> "Dyadic":
        if isinstance(other, int):
            return Dyadic.make(self.num * other, self.exp)
        return Dyadic.make(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __lt__(self, other: "Dyadic") -> bool:
        e = max(self.exp, other.exp)
        return (self.num << (e - self.exp)) < (other.num << (e - other.exp))

    def __le__(self, other: "Dyadic") -> bool:
        return self == other or self < other

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


@dataclass(frozen=True)
class Cylinder:
    """All infinite 0/1 sequences extending ``prefix`` (empty = whole boundary)."""

    prefix: str

    def __post_init__(self):
        check_vertex(self.prefix)

    @property
    def level(self) -> int:
        return len(self.prefix)


@dataclass(frozen=True)
class ProductMeasure:
    """Product measure on {0,1}^N determined by per-coordinate weights.

    ``uniform``   : weight 1/2, 1/2 at every coordinate.
    ``bernoulli`` : weight theta on symbol 0 and 1 - theta on symbol 1,
                    identically at every coordinate.
    ``per_level`` : explicit weights for the first k coordinates, uniform
                    afterwards.
    """

    kind: str
    theta: float = 0.5
    level_thetas: tuple[float, ...] = ()

    @staticmethod
    def uniform() -> "ProductMeasure":
        return ProductMeasure("uniform")

    @staticmethod
    def bernoulli(theta: float) -> "ProductMeasure":
        if not 0.0 < theta < 1.0:
            raise ValueError(f"bernoulli weight must lie in (0, 1), got {theta}")
        return ProductMeasure("bernoulli", theta=theta)

    @staticmethod
    def per_level(*thetas: float) -> "ProductMeasure":
        if any(not 0.0 < t < 1.0 for t in thetas):
            raise ValueError("per-level weights must lie in (0, 1)")
        return ProductMeasure("per_level", level_thetas=tuple(thetas))

    def weight(self, coordinate: int, bit: str) -> float:
        """Weight of ``bit`` at the given 1-based coordinate."""
        if self.kind == "uniform":
            w0 = 0.5
        elif self.kind == "bernoulli":
            w0 = self.theta
        elif self.kind == "per_level":
            w0 = self.level_thetas[coordinate - 1] if coordinate <= len(self.level_thetas) else 0.5
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        return w0 if bit == "0" else 1.0 - w0


def cylinder_measure(m: ProductMeasure, c: Cylinder) -> Union[Dyadic, float]:
    """Measure of a cylinder: the product of per-coordinate weights.

    Exact (a :class:`Dyadic`) for the uniform measure, a float otherwise.
    """
    if m.kind == "uniform":
        return Dyadic.make(1, c.level)
    value = 1.0
    for i, bit in enumerate(c.prefix, start=1):
        value *= m.weight(i, bit)
    return value


def prefix_cell(prefixes, codes) -> np.ndarray:
    """Index of the prefix that each of ``codes`` extends in the sorted
    complete prefix code ``prefixes`` (bit strings as ``str`` or ``bytes``).

    Every code must be at least as long as the deepest prefix, so it extends
    exactly one prefix; in sorted order a prefix comes right before the
    strings that extend it, so that prefix is the last one not after the code.
    """
    return np.searchsorted(np.asarray(prefixes, dtype=bytes), np.asarray(codes, dtype=bytes),
                           side="right") - 1


def check_prefix_partition(prefixes: list[str]) -> None:
    """Raise unless the cylinders over ``prefixes`` partition the boundary."""
    for p in prefixes:
        check_vertex(p)
    ordered = sorted(prefixes)
    top = max((len(p) for p in ordered), default=0)
    nested = any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))
    if nested or sum(1 << (top - len(p)) for p in ordered) != 1 << top:
        raise ValueError(f"prefixes do not form a complete prefix code: {ordered}")


def refine_partition(cells: list[Cylinder], level: int) -> list[tuple[Cylinder, Cylinder]]:
    """Refine a cylinder partition to the full level-n partition.

    Returns the 2**level cylinders of the given level in lexicographic order,
    each paired with the ancestor cell it refines.  Fails when the cells do
    not partition the boundary or when any cell is already finer than the
    requested level.
    """
    check_prefix_partition([c.prefix for c in cells])
    too_deep = [c for c in cells if c.level > level]
    if too_deep:
        raise ValueError(
            f"cannot refine to level {level}: cells {[c.prefix for c in too_deep]} are finer")
    if level > 30:
        raise ValueError(f"refusing to enumerate 2^{level} cylinders")
    cells = sorted(cells, key=lambda c: c.prefix)
    codes = [format(i, f"0{level}b") if level else "" for i in range(1 << level)]
    owners = prefix_cell([c.prefix for c in cells], codes)
    return [(Cylinder(p), cells[i]) for p, i in zip(codes, owners)]
