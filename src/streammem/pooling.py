"""Exact average pooling of square token grids."""

from __future__ import annotations

import numpy as np

from .model import FrameFeature, ShapeError

__all__ = ["average_pool"]


def average_pool(feature: FrameFeature, target_grid: int) -> FrameFeature:
    """Pool a (P, P, D) grid down to (p, p, D) by exact block averaging.

    P must be an integer multiple of p; each output cell is the mean of a
    (P/p, P/p) block of input tokens. target_grid == grid_size is identity.
    """
    p_in = feature.grid_size
    if target_grid < 1:
        raise ShapeError(f"target grid must be positive, got {target_grid}")
    if p_in % target_grid != 0:
        raise ShapeError(
            f"pooling not exact: target grid {target_grid} does not divide input grid {p_in}"
        )
    if target_grid == p_in:
        return feature
    block = p_in // target_grid
    pooled = feature.tokens.reshape(
        target_grid, block, target_grid, block, feature.dim
    ).mean(axis=(1, 3))
    return FrameFeature(grid_size=target_grid, dim=feature.dim, tokens=pooled)

