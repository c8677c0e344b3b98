"""Dense tables of integer compositions.

Compositions of ``total`` into ``parts`` nonnegative parts are listed in
lexicographic order as numpy arrays, so "first maximum found" always means
"lexicographically smallest maximizer".
"""

from __future__ import annotations

from math import comb

import numpy as np

from .common import InvalidArgumentError


def composition_count(total: int, parts: int) -> int:
    if parts < 1 or total < 0:
        raise InvalidArgumentError(f"bad composition shape ({total}, {parts})")
    return comb(total + parts - 1, parts - 1)


class _DenseTable:
    """Memoized dense composition arrays keyed by (total, parts).

    ``dense(total, 0)`` is one empty row for total 0 and no row otherwise.
    Only small arrays are retained: the big ones are each used once, so
    caching them would only hold memory.
    """

    _CACHE_ROWS = 32_768

    def __init__(self):
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def dense(self, total: int, parts: int) -> np.ndarray:
        key = (total, parts)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if parts == 0:
            out = np.zeros((int(total == 0), 0), dtype=np.int64)
        else:
            blocks = []
            for v in range(total + 1):
                sub = self.dense(total - v, parts - 1)
                head = np.full((sub.shape[0], 1), v, dtype=np.int64)
                blocks.append(np.hstack([head, sub]))
            out = np.vstack(blocks)
        if out.shape[0] <= self._CACHE_ROWS:
            self._memo[key] = out
        return out
