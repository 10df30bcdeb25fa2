"""Clopen cylinders on the boundary Cantor set, exact dyadic arithmetic,
and Bernoulli product measures.

The boundary is modelled as the product space {0,1}^N; a cylinder is the set
of infinite bit sequences extending a finite prefix, and corresponds
one-to-one with the subtree hanging below that prefix.  Measures of cylinders
under the uniform product measure are exact dyadic rationals m / 2^n, so all
uniform-measure pairings stay in exact integer arithmetic.  A complete
prefix code is walked bit by bit on its trie (:func:`code_trie`), which the
Monte Carlo decode and the tree operators' coin descent share.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np


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

    def __mul__(self, other: Union["Dyadic", int]) -> "Dyadic":
        if isinstance(other, int):
            return Dyadic.make(self.num * other, self.exp)
        return Dyadic.make(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


_BITS = frozenset("01")


def check_vertex(v: str) -> str:
    if not isinstance(v, str) or not _BITS.issuperset(v):
        raise ValueError(f"vertex address must be a bit string, got {v!r}")
    return v


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
    """

    kind: str
    theta: float = 0.5

    @staticmethod
    def uniform() -> "ProductMeasure":
        return ProductMeasure("uniform")

    @staticmethod
    def bernoulli(theta: float) -> "ProductMeasure":
        if not 0.0 < theta < 1.0:
            raise ValueError(f"bernoulli weight must lie in (0, 1), got {theta}")
        return ProductMeasure("bernoulli", theta=theta)

    def weight(self, coordinate: int, bit: str) -> float:
        """Weight of ``bit`` at the given 1-based coordinate."""
        if self.kind == "uniform":
            w0 = 0.5
        elif self.kind == "bernoulli":
            w0 = self.theta
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


def check_prefix_partition(prefixes: list[str]) -> None:
    """Raise unless the cylinders over ``prefixes`` partition the boundary."""
    for p in prefixes:
        check_vertex(p)
    ordered = sorted(prefixes)
    top = max((len(p) for p in ordered), default=0)
    nested = any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))
    if nested or sum(1 << (top - len(p)) for p in ordered) != 1 << top:
        raise ValueError(f"prefixes do not form a complete prefix code: {ordered}")


class CodeTrie(NamedTuple):
    """The trie of a sorted complete prefix code.  Entry 2 i + bit of
    ``table`` is the child of node i; the root is node 0, the inner nodes (the
    proper prefixes of cells) come first, and cell c is node inner + c, its own
    child on both bits."""

    table: np.ndarray
    inner: int
    depth: np.ndarray   # each node's prefix length, 0 at an inner node
    ends: np.ndarray    # (2, nodes): the first and the last cell below each node


def code_trie(prefixes) -> CodeTrie:
    """The trie of the sorted complete prefix code ``prefixes``, built with
    ``bisect`` on the sorted prefixes, one inner node at a time."""
    inner, fresh = len(prefixes) - 1, itertools.count(1)
    table = [0] * (2 * inner) + [c for c in range(inner, 2 * inner + 1) for _ in "01"]
    ends = [[0] * inner + list(range(inner + 1)) for _ in "01"]
    stack = [(0, "", 0, len(prefixes))] if inner else []   # an inner node, its bits, its cells
    while stack:
        node, bits, lo, hi = stack.pop()
        ends[0][node], ends[1][node] = lo, hi - 1
        mid = bisect.bisect_left(prefixes, bits + "1", lo, hi)
        for bit, first, end in ((0, lo, mid), (1, mid, hi)):
            child = table[2 * node + bit] = inner + first if end - first == 1 else next(fresh)
            if child < inner:
                stack.append((child, bits + "01"[bit], first, end))
    return CodeTrie(np.array(table, dtype=np.intp), inner,
                    np.array([0] * inner + [len(p) for p in prefixes], dtype=np.intp),
                    np.array(ends, dtype=np.intp))
