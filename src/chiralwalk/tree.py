"""Addressing and truncation of the rooted binary tree.

Vertices are bit strings over {'0', '1'}; the empty string is the root.  The
truncated tree at depth ``d`` collects all vertices of depth <= d in
breadth-first order (root first, each level in lexicographic bit order), so
operator matrices indexed this way show their block-by-depth structure.
"""

from __future__ import annotations

from dataclasses import dataclass

ROOT = ""
MAX_DEPTH = 20  # guards against accidental multi-million-dimensional dense work

_BITS = frozenset("01")


def check_vertex(v: str) -> str:
    if not isinstance(v, str) or not _BITS.issuperset(v):
        raise ValueError(f"vertex address must be a bit string, got {v!r}")
    return v


@dataclass(frozen=True)
class TruncatedTree:
    """Finite window of the binary tree: all vertices of depth <= depth.

    ``addresses[i]`` is the vertex with breadth-first index ``i``;
    ``parent_index[i]`` is the index of its parent (-1 for the root).
    """

    depth: int
    addresses: tuple[str, ...]
    parent_index: tuple[int, ...]

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
    # breadth-first and lexicographic within a level, so vertex i's parent is
    # (i - 1) // 2, which is -1 for the root
    parent_index = tuple((i - 1) // 2 for i in range(len(addresses)))
    return TruncatedTree(depth=d, addresses=tuple(addresses), parent_index=parent_index)
