"""Stacked tables of integer compositions.

Compositions of each sum are listed in lexicographic order as numpy arrays,
so "first maximum found" always means "lexicographically smallest maximizer".
"""

from __future__ import annotations

from math import comb

import numpy as np

from .common import InvalidArgumentError


def composition_count(total: int, parts: int) -> int:
    if parts < 1 or total < 0:
        raise InvalidArgumentError(f"bad composition shape ({total}, {parts})")
    return comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every composition of every s <= total into ``parts`` parts, stacked.

    Returns (table, offsets): the rows of sum s are
    ``table[offsets[s]:offsets[s + 1]]``, in lexicographic order, and the
    sums ascend; entries have the smallest unsigned dtype that holds
    ``total``.  Zero parts give one empty row, of sum 0.  Built one part at
    a time with a fixed number of numpy calls: the rows of sum s with first
    part v are the rows of sum s - v of the previous table, behind v.
    """
    dtype = np.min_scalar_type(total)
    if parts == 0:
        return np.zeros((1, 0), dtype), np.minimum(np.arange(total + 2), 1)
    table, counts = np.arange(total + 1, dtype=dtype)[:, None], np.ones(total + 1, np.int64)
    for _ in range(parts - 1):
        # (total + 1)(total + 2) / 2 pairs, no more than the rows they make
        s, v = np.tril_indices(total + 1)
        lengths = counts[s - v]
        # row k of block (s, v) is row starts[s - v] + k of the previous table
        starts = np.cumsum(counts) - counts
        rows = np.repeat(starts[s - v] - (np.cumsum(lengths) - lengths), lengths)
        rows += np.arange(len(rows))
        table = np.column_stack([np.repeat(v.astype(table.dtype), lengths), table[rows]])
        counts = np.cumsum(counts)
    return table, np.concatenate([[0], np.cumsum(counts)])
