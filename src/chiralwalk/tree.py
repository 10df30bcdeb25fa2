"""Addressing and truncation of the rooted binary tree.

Vertices are bit strings over {'0', '1'}; the empty string is the root.  The
truncated tree at depth ``d`` collects all vertices of depth <= d in
breadth-first order (root first, each level in lexicographic bit order), so
operator matrices indexed this way show their block-by-depth structure.
"""

from __future__ import annotations

from dataclasses import dataclass

ROOT = ""
MAX_DEPTH = 20  # 2^21 - 1 vertices; a check at depth 20 needs about 3.4 GB

_BITS = frozenset("01")


def check_vertex(v: str) -> str:
    if not isinstance(v, str) or not _BITS.issuperset(v):
        raise ValueError(f"vertex address must be a bit string, got {v!r}")
    return v


@dataclass(frozen=True)
class TruncatedTree:
    """Finite window of the binary tree: all vertices of depth <= depth.

    ``addresses[i]`` is the vertex with breadth-first index ``i``; breadth-first
    and lexicographic within a level, so the parent of vertex ``i > 0`` is
    ``(i - 1) // 2``.
    """

    depth: int
    addresses: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.addresses)


def truncated_tree(d: int) -> TruncatedTree:
    """Enumerate the binary tree truncated at depth d (1 <= d <= MAX_DEPTH)."""
    if not isinstance(d, int) or not 1 <= d <= MAX_DEPTH:
        raise ValueError(f"depth must be an integer in [1, {MAX_DEPTH}], got {d}")
    addresses: list[str] = [ROOT]
    level = [ROOT]
    for _ in range(d):
        level = [v + bit for v in level for bit in "01"]
        addresses.extend(level)
    return TruncatedTree(depth=d, addresses=tuple(addresses))
