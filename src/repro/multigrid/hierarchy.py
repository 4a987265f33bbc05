"""The multigrid level hierarchy — the octree abstraction of Fig. 1(a).

Each level halves the grid per axis, so the per-level data volume decays
by 8× per level and the total up-tree traffic is geometrically bounded —
the paper's metascalability condition.
"""

from __future__ import annotations

import numpy as np


class GridHierarchy:
    """Shapes and spacings of a periodic multigrid hierarchy."""

    def __init__(self, lengths, finest_shape, min_size: int = 4) -> None:
        self.lengths = np.asarray(lengths, dtype=float).reshape(3)
        shape = tuple(int(n) for n in np.asarray(finest_shape).reshape(3))
        if any(n < min_size for n in shape):
            raise ValueError(f"finest grid {shape} below min size {min_size}")
        self.shapes: list[tuple[int, int, int]] = [shape]
        while all(n % 2 == 0 and n // 2 >= min_size for n in self.shapes[-1]):
            self.shapes.append(tuple(n // 2 for n in self.shapes[-1]))

    @property
    def nlevels(self) -> int:
        return len(self.shapes)

    def spacing(self, level: int) -> np.ndarray:
        return self.lengths / np.array(self.shapes[level], dtype=float)
