"""Vectorized enumeration of integer compositions.

Compositions of ``total`` into ``parts`` nonnegative parts are generated in
lexicographic order as numpy blocks, so "first maximum found" always means
"lexicographically smallest maximizer".
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Optional

import numpy as np

from .common import InvalidArgumentError

_BLOCK_LIMIT = 1 << 20


def composition_count(total: int, parts: int) -> int:
    if parts < 1 or total < 0:
        raise InvalidArgumentError(f"bad composition shape ({total}, {parts})")
    return comb(total + parts - 1, parts - 1)


class _DenseTable:
    """Memoized dense composition arrays keyed by (total, parts).

    Only small arrays are retained: the big ones sit at the top of the
    recursion and are each used exactly once, so caching them would only
    hold memory.
    """

    _CACHE_ROWS = 32_768

    def __init__(self):
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    def dense(self, total: int, parts: int) -> np.ndarray:
        key = (total, parts)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if parts == 1:
            out = np.array([[total]], dtype=np.int64)
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


def iter_composition_blocks(
    total: int,
    parts: int,
    block_limit: int = _BLOCK_LIMIT,
    _table: Optional[_DenseTable] = None,
    _prefix: tuple[int, ...] = (),
) -> Iterator[np.ndarray]:
    """Yield full-width blocks covering all compositions, in lex order."""
    table = _table if _table is not None else _DenseTable()
    count = composition_count(total, parts)
    if count <= block_limit or parts == 1:
        body = table.dense(total, parts)
        if _prefix:
            head = np.tile(np.array(_prefix, dtype=np.int64), (body.shape[0], 1))
            yield np.hstack([head, body])
        else:
            yield body
        return
    for v in range(total + 1):
        yield from iter_composition_blocks(
            total - v, parts - 1, block_limit, table, _prefix + (v,)
        )

