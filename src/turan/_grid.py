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
    ``total``.  Zero parts give one empty row, of sum 0.  The last table of
    :func:`composition_tables`.
    """
    for table in composition_tables(total, parts):
        pass
    return table


def composition_tables(total: int, parts: int):
    """Yield :func:`compositions` ``(total, k)`` for k = 0, 1, ..., ``parts``.

    Each table is built from the one before with a fixed number of numpy
    calls: the rows of sum s with first part v are the rows of sum s - v of
    the previous table, behind v, copied as whole rows (one ``np.take`` of
    rows viewed as single void items).
    """
    dtype = np.min_scalar_type(total)
    yield np.zeros((1, 0), dtype), np.minimum(np.arange(total + 2), 1)
    if parts == 0:
        return
    table, counts = np.arange(total + 1, dtype=dtype)[:, None], np.ones(total + 1, np.int64)
    yield table, np.arange(total + 2)
    if parts == 1:
        # the (total + 1)(total + 2) / 2 pairs (s, v) are no more than the
        # rows they make from two parts on, but one part has total + 1 rows
        return
    s, v = np.tril_indices(total + 1)
    rests, heads = s - v, v.astype(dtype)
    for width in range(1, parts):
        lengths = counts[rests]
        ends = np.cumsum(counts)
        # row k of block (s, v) is row starts[s - v] + k of the previous table
        rows = np.repeat((ends - counts)[rests] - (np.cumsum(lengths) - lengths), lengths)
        rows += np.arange(len(rows))
        row = np.dtype((np.void, table.itemsize * width))
        previous, table = table.view(row)[:, 0], np.empty((len(rows), width + 1), dtype)
        table[:, 0] = np.repeat(heads, lengths)
        # void items copy a row at a time, not an entry at a time
        table[:, 1:].view(row)[:, 0] = np.take(previous, rows)
        counts = ends
        yield table, np.concatenate([[0], np.cumsum(counts)])
