"""Exact average pooling of square token grids."""

from __future__ import annotations

import numpy as np


def average_pool(tokens: np.ndarray, target_grid: int) -> np.ndarray:
    """Pool a (P, P, D) array down to (p, p, D) by exact block averaging.

    p must divide P, as ``MemoryEngine`` checks once per frame for every bank
    grid; each output cell is the mean of a (P/p, P/p) block of input tokens.
    target_grid == P returns ``tokens`` itself.
    """
    p_in, _, dim = tokens.shape
    if target_grid == p_in:
        return tokens
    block = p_in // target_grid
    return tokens.reshape(target_grid, block, target_grid, block, dim).mean(axis=(1, 3))
