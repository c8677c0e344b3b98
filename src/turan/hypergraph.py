"""Core r-uniform hypergraph type and structural queries.

Vertices are the 0-based integers ``0 .. n-1`` everywhere in this package
(the combinatorics literature usually writes ``1 .. n``; shift by one when
comparing against hand calculations).  Edges are strictly sorted r-tuples
and the edge set is kept in lexicographic order, so equal hypergraphs
compare equal structurally.  ``to_text`` writes that canonical form and
``Hypergraph.from_text``, the one reader, reads it back in two steps: one
numpy pass over the bytes of each block of lines takes every plain row, and
Python reads each other line by itself.
"""

from __future__ import annotations

import itertools
import logging
import operator
from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .common import (
    Frozen,
    InvalidArgumentError,
    ParseError,
    UnsupportedUniformityError,
)

Edge = tuple[int, ...]

#: Characters per block of the byte pass of ``Hypergraph.from_text``; a
#: block is cut back to whole lines, so its byte and token arrays stay
#: small whatever the length of the text.
_TEXT_BLOCK = 1 << 16

#: The line breaks of ``str.splitlines`` other than ``\n``.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_log = logging.getLogger(__name__)


class Codegree(NamedTuple):
    """Completions of a vertex pair: the witnessing sets and how many there are.

    For 3-graphs ``neighborhood`` is a frozenset of vertices; for r >= 4 it
    is a frozenset of sorted (r-2)-tuples.
    """

    neighborhood: frozenset
    count: int


def _check_pair(pair: Sequence[int], n: int) -> tuple[int, int]:
    if len(pair) != 2:
        raise InvalidArgumentError(f"pair must have two vertices, got {pair!r}")
    u, v = int(pair[0]), int(pair[1])
    if u == v:
        raise InvalidArgumentError(f"pair vertices must be distinct, got ({u}, {v})")
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidArgumentError(f"pair ({u}, {v}) out of range for n={n}")
    return (u, v) if u < v else (v, u)


def _canonical_edge(raw: Sequence[int], r: int, n: int) -> Edge:
    """The sorted tuple of one edge; raises unless it is an r-subset of 0..n-1."""
    edge = tuple(sorted(int(v) for v in raw))
    if len(edge) != r:
        raise InvalidArgumentError(
            f"edge {tuple(raw)!r} has {len(edge)} vertices, expected {r}"
        )
    if len(set(edge)) != r:
        raise InvalidArgumentError(f"edge {tuple(raw)!r} repeats a vertex")
    if edge and (edge[0] < 0 or edge[-1] >= n):
        raise InvalidArgumentError(f"edge {edge!r} out of range for n={n}")
    return edge


class Hypergraph(Frozen):
    """Immutable r-uniform hypergraph on vertices ``0 .. n-1``.

    ``n`` may exceed the number of vertices actually covered by edges
    (isolated vertices are allowed).  Edges with a repeated vertex are
    rejected rather than silently deduplicated.
    """

    __slots__ = ("r", "n", "edges", "_edge_set")

    def __init__(self, r: int, n: int, edges: Iterable[Sequence[int]] = ()):
        # lazy, so r and n are checked before any edge
        self._fill(r, n, (_canonical_edge(raw, r, n) for raw in edges))

    def _fill(self, r: int, n: int, canonical: Iterable[Edge]) -> None:
        """Check r and n, then store edges that are already canonical."""
        if r < 1:
            raise InvalidArgumentError(f"uniformity must be >= 1, got {r}")
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "n", int(n))
        edges = canonical if type(canonical) is list else list(canonical)
        # blowup and from_text mostly supply strictly increasing runs: one
        # comparison pass, else sort and drop each edge equal to its successor
        if not all(map(operator.lt, edges, itertools.islice(edges, 1, None))):
            edges.sort()
            last = map(operator.ne, edges, itertools.islice(edges, 1, None))
            edges = itertools.compress(edges, itertools.chain(last, (True,)))
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def _from_canonical(cls, r: int, n: int, edges: Iterable[Edge]) -> "Hypergraph":
        """Build from edges already known to be sorted r-subsets of 0..n-1 (unchecked).

        A list of edges is taken over and may be reordered.
        """
        graph = cls.__new__(cls)
        graph._fill(r, n, edges)
        return graph

    @property
    def edge_set(self) -> frozenset:
        """The edges as a frozenset, built on first use and kept."""
        try:
            return self._edge_set
        except AttributeError:
            edge_set = frozenset(self.edges)
            object.__setattr__(self, "_edge_set", edge_set)
            return edge_set

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, r: int, n: int) -> "Hypergraph":
        return cls(r, n, ())

    @classmethod
    def complete(cls, r: int, n: int) -> "Hypergraph":
        """K_n^r: all r-subsets of ``0 .. n-1``."""
        return cls(r, n, itertools.combinations(range(n), r))

    # -- basic dunders ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.r, self.n, self.edges) == (other.r, other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.r, self.n, self.edges))

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, edges={len(self.edges)})"

    # -- structural queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InvalidArgumentError(f"vertex {v} out of range for n={self.n}")
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> list[int]:
        """Every vertex's degree, counted in one pass over the edges."""
        counts = Counter(itertools.chain.from_iterable(self.edges))
        return [counts[v] for v in range(self.n)]

    def shadow(self, steps: int = 1) -> "Hypergraph":
        """All (r-steps)-subsets contained in some edge; same vertex set.

        ``steps`` must satisfy ``1 <= steps < r``.
        """
        if steps < 1:
            raise InvalidArgumentError(f"steps must be >= 1, got {steps}")
        if steps >= self.r:
            raise InvalidArgumentError(
                f"cannot take a {steps}-fold shadow of a {self.r}-uniform hypergraph"
            )
        size = self.r - steps
        sub = set()
        for e in self.edges:
            sub.update(itertools.combinations(e, size))
        return Hypergraph(size, self.n, sub)

    def link(self, v: int) -> "Hypergraph":
        """The (r-1)-graph {E - v : v in E}; keeps the ambient vertex set.

        The vertex v itself is isolated in the result, which keeps indices
        stable for any downstream operation.
        """
        if not 0 <= v < self.n:
            raise InvalidArgumentError(f"vertex {v} out of range for n={self.n}")
        return Hypergraph(
            self.r - 1,
            self.n,
            (tuple(w for w in e if w != v) for e in self.edges if v in e),
        )

    def codegree(self, pair: Sequence[int]) -> Codegree:
        """Completions of a pair: requires r >= 3.

        Any vertex of the ambient vertex set may act as a completion,
        including isolated ones (vacuously: they never do).
        """
        if self.r < 3:
            raise InvalidArgumentError("codegree requires uniformity >= 3")
        u, v = _check_pair(pair, self.n)
        completions = []
        for e in self.edges:
            if u in e and v in e:
                rest = tuple(w for w in e if w != u and w != v)
                completions.append(rest[0] if self.r == 3 else rest)
        return Codegree(frozenset(completions), len(completions))

    def pair_in_shadow(self, u: int, v: int) -> bool:
        """Whether some edge contains both u and v."""
        return any(u in e and v in e for e in self.edges)

    def is_two_covered(self) -> bool:
        """True iff every pair of distinct vertices lies in some edge."""
        if self.n < 2:
            return True
        covered = set()
        for e in self.edges:
            covered.update(itertools.combinations(e, 2))
        return len(covered) == comb(self.n, 2)

    def is_symmetric_pair(self, pair: Sequence[int]) -> bool:
        """Whether L(v1) - v2 = L(v2) - v1 (3-graphs only)."""
        if self.r != 3:
            raise UnsupportedUniformityError(
                f"symmetric pairs are defined for 3-graphs, got r={self.r}"
            )
        v1, v2 = _check_pair(pair, self.n)
        left = {e for e in self.link(v1).edges if v2 not in e}
        right = {e for e in self.link(v2).edges if v1 not in e}
        return left == right

    def induced(self, vertices: Iterable[int]) -> "Hypergraph":
        """Induced subgraph on ``vertices``, relabeled 0..k-1 preserving order."""
        subset = sorted(set(int(v) for v in vertices))
        if subset and (subset[0] < 0 or subset[-1] >= self.n):
            raise InvalidArgumentError(f"vertex set {subset!r} out of range for n={self.n}")
        index = {v: i for i, v in enumerate(subset)}
        keep = set(subset)
        return Hypergraph(
            self.r,
            len(subset),
            (tuple(index[w] for w in e) for e in self.edges if keep.issuperset(e)),
        )

    def relabel(self, perm: Sequence[int]) -> "Hypergraph":
        """Apply the vertex permutation ``i -> perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidArgumentError("perm must be a permutation of 0..n-1")
        return Hypergraph(self.r, self.n, (tuple(perm[w] for w in e) for e in self.edges))

    def shadow_clique_free(self, m: int) -> bool:
        """True iff the (r-2)-fold shadow graph has no clique on m+1 vertices."""
        graph = self if self.r == 2 else self.shadow(self.r - 2)
        return not _has_clique(graph, m + 1)

    def densities(self) -> tuple[Fraction, Fraction]:
        """Exact (edge density, shadow density) = (|H|/C(n,r), |dH|/C(n,r-1))."""
        if self.n < self.r:
            raise InvalidArgumentError(
                f"densities need n >= r, got n={self.n}, r={self.r}"
            )
        edge = Fraction(len(self.edges), comb(self.n, self.r))
        shadow = Fraction(len(self.shadow(1).edges), comb(self.n, self.r - 1))
        return edge, shadow

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: ``r n`` then one sorted edge per line."""
        header = f"{self.r} {self.n}\n"
        if not self.edges:  # r may be huge when there are no edges
            return header
        row = " ".join(["%d"] * self.r) + "\n"
        return header + (row * len(self.edges)) % tuple(
            itertools.chain.from_iterable(self.edges)
        )

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph":
        """Parse the ``to_text`` form.

        Fields may be separated by any whitespace, ``#`` comment lines and
        blank lines are skipped, the vertices of a row may come in any
        order, and repeated edges collapse to one.  Malformed input raises
        ``ParseError`` naming the first bad line.

        Two steps, after the header: blocks of whole lines are classified
        by one numpy pass over their bytes, and every plain line (blank, or
        r strictly increasing decimal numbers below n, in ASCII digits,
        spaces and tabs) is taken straight from the values of that pass.
        Each other line is then read by itself, in text order: a row of r
        strictly increasing integers in 0..n-1 is taken as it is, and any
        other row goes through ``_canonical_edge``, which sorts it or names
        its fault.
        """
        if any(c in text for c in _OTHER_BREAKS):
            # now line k of the text, split at "\n", is text.splitlines()[k]
            text = "\n".join(text.splitlines())
        pos = start = 0
        while True:
            end = text.find("\n", pos)
            raw = text[pos:] if end < 0 else text[pos:end]
            start += 1
            fields = raw.split()
            if fields and fields[0][0] != "#":
                break
            if end < 0:
                raise ParseError("empty input: missing 'r n' header", line=1)
            pos = end + 1
        try:
            header = [int(f) for f in fields]
        except ValueError:
            raise ParseError(f"non-integer token in {raw.strip()!r}", line=start) from None
        if len(header) != 2:
            raise ParseError("header must be 'r n'", line=start)
        r, n = header
        if r < 1 or n < 0:
            raise ParseError(
                f"header 'r n' needs r >= 1 and n >= 0, got {raw.strip()!r}", line=start
            )
        edges: list[Edge] = []
        by_bytes, size, lineno = 0, _TEXT_BLOCK, start  # lineno: the line before the block
        pos = len(text) if end < 0 else end + 1
        while pos < len(text):
            # one byte per character: whatever is not ASCII becomes "?"
            block = np.frombuffer(text[pos : pos + size].encode("ascii", "replace"), np.uint8)
            ends = np.flatnonzero(block == 10)
            if pos + size < len(text):
                if not len(ends):  # a line longer than the block: widen it
                    size *= 2
                    continue
                block = block[: ends[-1] + 1]
            elif block[-1] != 10:
                ends = np.append(ends, len(block))
            counts, values, good = _plain_rows(block, ends, r, min(n, 10**18))
            flat = values[np.repeat(good, counts)]
            if flat.size:
                edges += zip(*[iter(flat.tolist())] * r)
                by_bytes += flat.size // r
            bad = np.flatnonzero(~good)
            starts = (np.append(-1, ends)[bad] + pos + 1).tolist()
            for i, lo, hi in zip(bad.tolist(), starts, (ends[bad] + pos).tolist()):
                raw = text[lo:hi]
                fields = raw.split()
                if not fields or fields[0][0] == "#":
                    continue
                line = lineno + i + 1
                try:
                    row = [int(f) for f in fields]
                    if (len(row) == r and row[0] >= 0 and row[-1] < n
                            and all(map(operator.lt, row, row[1:]))):
                        edges.append(tuple(row))
                    else:
                        edges.append(_canonical_edge(row, r, n))
                except InvalidArgumentError as exc:
                    raise ParseError(str(exc), line=line) from None
                except ValueError:
                    raise ParseError(f"non-integer token in {raw.strip()!r}", line=line) from None
            pos += len(block)
            lineno += len(ends)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("from_text: %d rows, %d by bytes, %d line by line",
                       len(edges), by_bytes, len(edges) - by_bytes)
        return cls._from_canonical(r, n, edges)


def _plain_rows(block: np.ndarray, ends: np.ndarray, r: int, limit: int):
    """Classify the lines of ``block`` (bytes), line i ending at ``ends[i]``.

    Returns the number of digit runs (tokens) on each line, the value of
    every token of up to 18 digits, and whether each line is plain: only
    ASCII digits, spaces and tabs, and either blank or r tokens of at most
    18 digits, strictly increasing, the last below ``limit``.
    """
    digits = block - 48  # wraps, so digits < 10 exactly at b"0".."9"
    is_digit = digits < 10
    flips = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
    first, last = flips[::2], flips[1::2] - 1
    width = last - first + 1
    values = digits[last].astype(np.int64)
    for k in range(1, min(int(width.max(initial=0)), 18)):
        # last - k > -len(block) here; where it wraps, width <= k drops it
        values += digits[last - k] * np.where(width > k, 10**k, 0)
    counts = np.diff(np.searchsorted(first, ends), prepend=0)
    good = (counts == 0) | (counts == r)
    plain = is_digit | (block == 32) | (block == 9) | (block == 10)
    good[np.searchsorted(ends, np.flatnonzero(~plain))] = False
    good[np.searchsorted(ends, first[width > 18])] = False
    full = counts == r
    if full.any():
        rows = values[np.repeat(full, counts)]  # r values per row, end to end
        ok = rows[r - 1 :: r] < limit
        # a value not above its left neighbour in the same row
        drops = np.flatnonzero(rows[1:] <= rows[:-1]) + 1
        ok[drops[drops % r != 0] // r] = False
        good[full] &= ok
    return counts, values, good


def _has_clique(graph: Hypergraph, size: int) -> bool:
    """Whether the 2-graph contains a clique on ``size`` vertices.

    Branch-and-bound over adjacency bitmasks; a clique on <= 1 vertices
    exists whenever the graph has a vertex.
    """
    if size <= 0:
        return True
    if size == 1:
        return graph.n >= 1
    adj = [0] * graph.n
    for u, v in graph.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # only vertices of degree >= size-1 can participate
    candidates = 0
    for v in range(graph.n):
        if bin(adj[v]).count("1") >= size - 1:
            candidates |= 1 << v

    def grow(clique_size: int, allowed: int) -> bool:
        if clique_size == size:
            return True
        if clique_size + bin(allowed).count("1") < size:
            return False
        while allowed:
            v = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            if grow(clique_size + 1, allowed & adj[v]):
                return True
        return False

    return grow(0, candidates)


def read_hypergraph(path) -> Hypergraph:
    # a byte that is not UTF-8 becomes U+FFFD, never a digit: a ParseError
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return Hypergraph.from_text(fh.read())


def write_hypergraph(h: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(h.to_text())
