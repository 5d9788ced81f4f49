"""Exact average pooling of square token grids."""

from __future__ import annotations

import numpy as np

from .model import ShapeError, _is_int_at_least

__all__ = ["average_pool"]


def average_pool(tokens: np.ndarray, target_grid: int) -> np.ndarray:
    """Pool a (P, P, D) array down to (p, p, D) by exact block averaging.

    P must be an integer multiple of p; each output cell is the mean of a
    (P/p, P/p) block of input tokens. target_grid == P returns ``tokens``
    itself. Values are not checked: frames are checked once, as FrameFeature.
    """
    if not isinstance(tokens, np.ndarray):
        raise ShapeError(f"tokens must be a numpy array, got {type(tokens).__name__}")
    if tokens.ndim != 3 or tokens.shape[0] != tokens.shape[1]:
        raise ShapeError(f"expected a (P, P, D) array, got shape {tokens.shape}")
    p_in, _, dim = tokens.shape
    if not _is_int_at_least(target_grid, 1):
        raise ShapeError(f"target grid must be a positive integer, got {target_grid!r}")
    if p_in % target_grid != 0:
        raise ShapeError(
            f"pooling not exact: target grid {target_grid} does not divide input grid {p_in}"
        )
    if target_grid == p_in:
        return tokens
    block = p_in // target_grid
    return tokens.reshape(target_grid, block, target_grid, block, dim).mean(axis=(1, 3))
