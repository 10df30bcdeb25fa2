"""The breadth-first truncation of the binary tree.

The truncated tree at depth ``d`` names each vertex of depth <= d by its
breadth-first index: the vertex reached from the root by the bits ``v`` is
``2^k - 1 + int(v, 2)`` at level k = len(v), and the parent of ``i > 0`` is
``(i - 1) // 2``, so operators show their block-by-depth form.
"""

from __future__ import annotations

from dataclasses import dataclass

# 2^21 - 1 vertices; a check there peaks at 0.2 MB for a code of a few cells and at
# 1.23 GB when every interior vertex is its own row class (the CLI asks 0.06 and 1.43 GB)
MAX_DEPTH = 20


@dataclass(frozen=True)
class TruncatedTree:
    """The vertices of depth <= depth, as breadth-first indices 0 .. size - 1."""

    depth: int

    @property
    def size(self) -> int:
        return (2 << self.depth) - 1


def truncated_tree(d: int) -> TruncatedTree:
    """The binary tree truncated at depth d (1 <= d <= MAX_DEPTH)."""
    if not isinstance(d, int) or not 1 <= d <= MAX_DEPTH:
        raise ValueError(f"depth must be an integer in [1, {MAX_DEPTH}], got {d}")
    return TruncatedTree(depth=d)
