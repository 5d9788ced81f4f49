"""A ``PooledRing`` that holds given rows, for tests that search a fixed buffer."""

import numpy as np

from streammem import default_config
from streammem.retrieval import PooledRing


def ring_of(rows: np.ndarray, newest_slot: int = 0) -> PooledRing:
    """A ring of ``len(rows)`` slots whose slot i holds ``rows[i]``, so its
    picks are row indices. Its newest frame is in slot ``newest_slot`` and
    each next slot, cyclically, holds the next older one; for a
    ``newest_slot`` above 0 the writes wrap the ring."""
    n, m = rows.shape
    ring = PooledRing(default_config(dim=m, p_spa=1, p_tem=1, n_buff=n))
    for t in range(1, n + 1 + -newest_slot % n):
        assert ring.write(t, rows[-t % n]) == -t % n
    return ring
