"""The dimer: the smallest system the examples, benchmarks and tests build."""

from __future__ import annotations

import numpy as np

from repro.systems.configuration import Configuration


def dimer(
    symbol_a: str, symbol_b: str, separation: float, cell_edge: float = 16.0
) -> Configuration:
    """Two atoms separated along x, centered in a cubic box."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    cell = np.array([cell_edge] * 3)
    center = cell / 2.0
    half = np.array([separation / 2.0, 0.0, 0.0])
    return Configuration(
        [symbol_a, symbol_b], np.array([center - half, center + half]), cell
    )
