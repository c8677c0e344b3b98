"""Blowups, crossed blowups, the gamma family, and extremal density points.

The crossed blowup of a 3-graph on a pair (v1, v2) of codegree k >= 2:

  (a) delete every edge containing both v1 and v2;
  (b) append clones v1' (index n) and v2' (index n+1) copying the deleted
      vertices' remaining links;
  (c) listing the completing vertices of the pair in ascending order
      u_1 < ... < u_k, give each u_i with i < k the four edges
      {u_i v1 v2, u_i v1 v2', u_i v1' v2, u_i v1' v2'}, and give u_k the
      rotated set {u_k v1 v1', u_k v1 v2', u_k v2 v1', u_k v2 v2'}.

Taking instead the same edge set at u_k as at the other u_i would produce
an ordinary blowup; the rotation at the largest neighbor is what creates a
one-dimensional family of optimal weightings.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .common import (
    BudgetExceededError,
    InvalidArgumentError,
    PreconditionError,
    UnsupportedUniformityError,
    effective_budget,
)
from .hypergraph import Hypergraph, _check_pair
from .lagrangian import SimplexPoint, maximize
from .polynomial import MultilinearPoly

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BlowupSpec:
    """A base hypergraph plus one nonnegative part size per base vertex."""

    base: Hypergraph
    part_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.part_sizes)
        object.__setattr__(self, "part_sizes", sizes)
        if len(sizes) != self.base.n:
            raise InvalidArgumentError(
                f"need {self.base.n} part sizes, got {len(sizes)}"
            )
        if any(s < 0 for s in sizes):
            raise InvalidArgumentError("part sizes must be >= 0")

    @property
    def total(self) -> int:
        return sum(self.part_sizes)


@dataclass(frozen=True)
class FeasiblePoint:
    """An exact (shadow density, edge density) pair, both in [0, 1]."""

    shadow_density: Fraction
    edge_density: Fraction

    def __post_init__(self):
        for name in ("shadow_density", "edge_density"):
            value = getattr(self, name)
            if not (0 <= value <= 1):
                raise InvalidArgumentError(f"{name} must lie in [0, 1], got {value}")


# ---------------------------------------------------------------------------
# blowups


def blowup_edge_count(spec: BlowupSpec) -> int:
    """Edges of the blowup without materializing it: sum over base edges of
    the product of the chosen part sizes."""
    total = 0
    sizes = spec.part_sizes
    for edge in spec.base.edges:
        prod = 1
        for v in edge:
            prod *= sizes[v]
            if not prod:
                break
        total += prod
    return total


def blowup(spec: BlowupSpec, budget: int | None = None) -> Hypergraph:
    """Materialize a blowup; part i occupies a contiguous index block."""
    count = blowup_edge_count(spec)
    cap = effective_budget(budget)
    if count > cap:
        raise BudgetExceededError(f"blowup would have {count} edges, budget is {cap}")
    offsets = [0, *itertools.accumulate(spec.part_sizes)]
    starts = np.array(offsets, np.min_scalar_type(offsets[-1]))
    # without the base edges that meet an empty part, no array outgrows the result
    return Hypergraph._from_rows(spec.base.r, offsets[-1], _product_rows(_live_rows(spec), starts))


def _live_rows(spec: BlowupSpec) -> np.ndarray:
    """The base rows whose parts are all nonempty."""
    return spec.base.rows[(np.asarray(spec.part_sizes)[spec.base.rows] > 0).all(axis=1)]


def _product_rows(base: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The blowup of the sorted rows ``base``, part v at ``starts[v]:starts[v + 1]``,
    in lexicographic order: each first vertex's part in turn, each of its
    vertices followed by the rows that the rest of its edges blow up to."""
    r = base.shape[1]
    if r == 1:  # the parts of the distinct vertices left, in order
        parts = [np.arange(starts[v], starts[v + 1], dtype=starts.dtype) for v in base[:, 0].tolist()]
        return np.concatenate([np.zeros(0, starts.dtype), *parts])[:, None]
    out = [np.zeros((0, r), starts.dtype)]
    firsts = base[:, 0].tolist()
    bounds = [i for i, v in enumerate(firsts) if not i or v != firsts[i - 1]] + [len(firsts)]
    for lo, hi in zip(bounds, bounds[1:]):
        v = firsts[lo]
        rest = _product_rows(base[lo:hi, 1:], starts)
        block = np.empty((int(starts[v + 1] - starts[v]), len(rest), r), starts.dtype)
        block[..., 0] = np.arange(starts[v], starts[v + 1], dtype=starts.dtype)[:, None]
        block[..., 1:] = rest
        out.append(block.reshape(-1, r))
    return np.concatenate(out)


def _blowup_shadow_count(spec: BlowupSpec) -> int:
    """Pairs in the shadow of a 3-graph blowup, again without materializing.

    A cross pair (part i, part j) appears iff some base edge holding i and j
    has all three parts nonempty; pairs inside one part never appear.
    """
    if spec.base.r != 3:
        raise UnsupportedUniformityError("shadow counting implemented for 3-graphs")
    sizes = spec.part_sizes
    pairs = {p for e in _live_rows(spec).tolist() for p in itertools.combinations(e, 2)}
    return sum(sizes[i] * sizes[j] for i, j in pairs)


# ---------------------------------------------------------------------------
# crossed blowups


def crossed_blowup(graph: Hypergraph, pair: Sequence[int]) -> Hypergraph:
    """The cross operation described in the module docstring."""
    if graph.r != 3:
        raise UnsupportedUniformityError(
            f"crossed blowup is defined for 3-graphs, got r={graph.r}"
        )
    v1, v2 = _check_pair(pair, graph.n)
    cod = graph.codegree((v1, v2))
    if cod.count < 2:
        raise PreconditionError(
            f"pair ({v1}, {v2}) has codegree {cod.count}, need >= 2"
        )
    neighbors = sorted(cod.neighborhood)
    n = graph.n
    c1, c2 = n, n + 1  # clones of v1, v2
    kept = [e for e in graph.edges if not (v1 in e and v2 in e)]
    edges = list(kept)
    # clone links are taken after the removal step
    for e in kept:
        if v1 in e:
            edges.append(tuple(c1 if w == v1 else w for w in e))
        if v2 in e:
            edges.append(tuple(c2 if w == v2 else w for w in e))
    for u in neighbors[:-1]:
        edges.extend([(u, v1, v2), (u, v1, c2), (u, c1, v2), (u, c1, c2)])
    last = neighbors[-1]
    edges.extend([(last, v1, c1), (last, v1, c2), (last, v2, c1), (last, v2, c2)])
    return Hypergraph(3, n + 2, edges)


def k_crossed_blowup(graph: Hypergraph, pair: Sequence[int], k: int) -> Hypergraph:
    """Hypercube generalization: the pair becomes the 2^k cube vertices.

    The pair's completing vertices u_1 < ... < u_d each receive a complete
    bipartite link across one cube axis (axis i for u_i when i < k, axis k
    for the rest).  Cube vertex with bit string s (first axis = top bit)
    gets index n-2 + int(s, 2); top-bit-0 vertices clone v1, top-bit-1
    clone v2.
    """
    if graph.r != 3:
        raise UnsupportedUniformityError(
            f"k-crossed blowup is defined for 3-graphs, got r={graph.r}"
        )
    if k < 2:
        raise InvalidArgumentError(f"k must be >= 2, got {k}")
    v1, v2 = _check_pair(pair, graph.n)
    cod = graph.codegree((v1, v2))
    if cod.count < k:
        raise PreconditionError(
            f"pair ({v1}, {v2}) has codegree {cod.count}, need >= k = {k}"
        )
    neighbors = sorted(cod.neighborhood)
    survivors = [v for v in range(graph.n) if v not in (v1, v2)]
    index = {v: i for i, v in enumerate(survivors)}
    base = len(survivors)
    cube = [base + q for q in range(2**k)]

    def axis_side(q: int, axis: int) -> int:
        # axis 1 is the top bit of the k-bit string
        return (q >> (k - axis)) & 1

    edges = []
    for e in graph.edges:
        if v1 in e and v2 in e:
            continue
        if v1 in e or v2 in e:
            pivot = v1 if v1 in e else v2
            side = 0 if pivot == v1 else 1
            rest = tuple(index[w] for w in e if w != pivot)
            for q in range(2**k):
                if axis_side(q, 1) == side:
                    edges.append(rest + (cube[q],))
        else:
            edges.append(tuple(index[w] for w in e))
    for pos, u in enumerate(neighbors, start=1):
        axis = pos if pos < k else k
        zeros = [cube[q] for q in range(2**k) if axis_side(q, axis) == 0]
        ones = [cube[q] for q in range(2**k) if axis_side(q, axis) == 1]
        ui = index[u]
        edges.extend((ui, a, b) for a in zeros for b in ones)
    return Hypergraph(3, base + 2**k, edges)


# ---------------------------------------------------------------------------
# the gamma family


def gamma(t: int) -> Hypergraph:
    """The crossed extremal template with parameter t >= 1.

    For t >= 2 this is the crossed blowup of the complete 3-graph on t+2
    vertices over its last two vertices; for t = 1 the base is the two-edge
    graph {023, 123} crossed over (2, 3).  Vertices are relabeled so that
    positions t..t+3 hold (v1, v1', v2, v2'): under this labeling the
    codegree of a pair (i, j) is

        t+2  for i < j < t,
        t+1  for i < t <= j,
        t    for {i, j} in {{t, t+3}, {t+1, t+2}},
        t-1  for {i, j} in {{t, t+2}, {t+1, t+3}},
        1    for {i, j} in {{t, t+1}, {t+2, t+3}}.
    """
    base, pair, _ = gamma_base(t)
    return crossed_blowup(base, pair).relabel(gamma_permutation(t))


def gamma_base(t: int) -> tuple[Hypergraph, tuple[int, int], SimplexPoint]:
    """The base 3-graph, its crossed pair, and an exact maximizer of the base.

    For t >= 2 the base is the complete 3-graph on t+2 vertices with the
    uniform maximizer; for t = 1 it is {023, 123}, maximized at
    (1/6, 1/6, 1/3, 1/3).  Crossing the base on the pair gives gamma(t)
    before relabeling.
    """
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    if t == 1:
        third, sixth = Fraction(1, 3), Fraction(1, 6)
        z = SimplexPoint([sixth, sixth, third, third])
        return Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)]), (2, 3), z
    return Hypergraph.complete(3, t + 2), (t, t + 1), SimplexPoint.uniform(t + 2)


def gamma_permutation(t: int) -> tuple[int, ...]:
    """Vertex map from the raw crossed-blowup labels to gamma(t)'s labels.

    The raw operation leaves v1, v2 in place and appends the clones, so the
    only change is swapping v2 with v1' (making the special block read
    v1, v1', v2, v2').
    """
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    size = 6 if t == 1 else t + 4
    swap_a = 3 if t == 1 else t + 1  # v2's raw index
    swap_b = 4 if t == 1 else t + 2  # v1' raw index
    perm = list(range(size))
    perm[swap_a], perm[swap_b] = perm[swap_b], perm[swap_a]
    return tuple(perm)


def gamma_lagrangian(t: int) -> Fraction:
    """Exact optimum t(t+1) / (6 (t+2)^2) of the gamma(t) edge polynomial."""
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    return Fraction(t * (t + 1), 6 * (t + 2) ** 2)


def tight_cycle(n: int) -> Hypergraph:
    """The tight 3-uniform cycle {i, i+1, i+2} (mod n)."""
    if n < 4:
        raise InvalidArgumentError(f"tight cycle needs n >= 4, got {n}")
    return Hypergraph(3, n, [((i, (i + 1) % n, (i + 2) % n)) for i in range(n)])


def double_vertex(graph: Hypergraph, w: int) -> Hypergraph:
    """Clone vertex w as a new vertex n with the same link, sharing no edge."""
    if not 0 <= w < graph.n:
        raise InvalidArgumentError(f"vertex {w} out of range for n={graph.n}")
    clone = graph.n
    edges = list(graph.edges)
    edges.extend(
        tuple(clone if v == w else v for v in e) for e in graph.edges if w in e
    )
    return Hypergraph(graph.r, graph.n + 1, edges)


# ---------------------------------------------------------------------------
# extremal integer blowups

#: Ascents, from the rounded continuous maximizer and then perturbed
#: roundings of it, that ``local`` mode runs.
_LOCAL_RESTARTS = 20


def extremal_blowup_search(
    graph: Hypergraph,
    n: int,
    mode: str = "exhaustive",
    budget: int | None = None,
    seed: int = 0,
) -> tuple[tuple[int, ...], int]:
    """Integer part sizes summing to n that maximize the blowup edge count.

    ``exhaustive`` scans every composition (budgeted, see
    :meth:`PolyKernel.scan`, which skips the prefix rows that provably
    cannot reach the running maximum) and returns the lexicographically
    smallest maximizing size vector.  ``local`` runs a steepest
    single-unit-transfer ascent from the rounded continuous maximizer and
    from ``_LOCAL_RESTARTS - 1`` perturbed roundings (noise drawn from
    ``seed``).  The ascents climb in lockstep: each step scores every unit
    transfer of every ascent still climbing in one exact batch, and each
    ascent takes its first best move in (src, dst) order, or stops when no
    move raises its count.  It returns the lexicographically smallest of
    their local optima with the largest count.  That is not always the
    lex-least of all maximizers: for ``gamma(2)`` at n = 60 both modes count
    13,500 edges, but ``local`` returns (15, 15, 15, 0, 0, 15) and
    ``exhaustive`` (15, 15, 0, 15, 15, 0).  Raises InvalidArgumentError for
    n < 0, seed < 0 (in every mode), a base without vertices or an unknown
    mode.  The local search logs one DEBUG record.
    """
    if n < 0:
        raise InvalidArgumentError(f"n must be >= 0, got {n}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    m = graph.n
    if m == 0:
        raise InvalidArgumentError("base hypergraph has no vertices")
    if mode == "exhaustive":
        return _exhaustive_search(graph, n, budget)
    if mode == "local":
        return _local_search(graph, n, seed)
    raise InvalidArgumentError(f"unknown mode {mode!r}")


def _exhaustive_search(graph, n, budget):
    kernel = MultilinearPoly.from_hypergraph(graph).kernel
    # every edge term has degree r and coefficient 1, so rows scan to counts
    best, row, _ = kernel.scan(n, budget, "exhaustive blowup search")
    return row, best


def _local_search(graph, n, seed):
    poly = MultilinearPoly.from_hypergraph(graph)
    kernel = poly.kernel
    m = graph.n
    result = maximize(poly, starts=max(20, 5 * m), seed=seed)
    target = result.maximizer.as_float_array() * n
    rng = np.random.default_rng(seed)
    # one row per unit transfer e_dst - e_src, in (src, dst) order
    src, dst = np.nonzero(~np.eye(m, dtype=bool))
    unit = np.eye(m, dtype=np.int64)
    moves = unit[dst] - unit[src]

    def round_to_composition(weights: np.ndarray) -> list[int]:
        floors = np.floor(weights).astype(int)
        floors = np.clip(floors, 0, None)
        remainder = n - int(floors.sum())
        order = np.argsort(-(weights - floors), kind="stable")
        for idx in itertools.cycle(order):
            if remainder == 0:
                break
            if remainder > 0:
                floors[idx] += 1
                remainder -= 1
            elif floors[idx] > 0:
                floors[idx] -= 1
                remainder += 1
        return [int(v) for v in floors]

    noise = [rng.normal(0.0, 0.75, size=m) for _ in range(_LOCAL_RESTARTS - 1)]
    starts = [target] + [np.clip(target + z, 0, None) for z in noise]
    current = np.array([round_to_composition(w) for w in starts], dtype=np.int64)
    # edge polynomial: exact_values are edge counts
    value = kernel.exact_values(current, n)
    live = np.arange(len(current))
    steps, scored = 0, len(current)
    while len(live):
        # every unit transfer of every climbing ascent, ascent-major, in (src, dst) order
        here = current[live]
        moved = here[:, None, :] + moves
        legal = here[:, src] > 0
        if not legal.any():
            break
        values = kernel.exact_values(moved[legal], n)
        steps, scored = steps + 1, scored + len(values)
        # an illegal move scores the ascent's own value, so it never wins a step
        table = np.repeat(value[live, None], len(moves), axis=1)
        table[legal] = values
        k = table.argmax(axis=1)  # first best move in (src, dst) order
        up = np.flatnonzero(table[np.arange(len(live)), k] > value[live])
        live = live[up]
        current[live] = moved[up, k[up]]
        value[live] = table[up, k[up]]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("local search: n %d, m %d, %d restarts, %d lockstep steps, %d rows scored "
                   "in %s", n, m, len(current), steps, scored,
                   "int64" if value.dtype == np.int64 else "object integers")
    # the largest count, then the lexicographically smallest sizes
    best = min(range(len(current)), key=lambda i: (-value[i], tuple(current[i])))
    return tuple(int(v) for v in current[best]), int(value[best])


@dataclass(frozen=True)
class ExtremalProfiles:
    """The distinct optimal weighting fractions at a given vertex count."""

    t: int
    n: int
    alphas: tuple[Fraction, ...]
    part_sizes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.alphas)


def count_extremal_profiles(t: int, n: int) -> ExtremalProfiles:
    """All alpha in [0, 1/2] with alpha * n/(t+2) integral, with their blowups.

    Requires (t+2) | n.  With m = n/(t+2) the set is {j/m : 0 <= j <= m/2},
    so there are floor(m/2)+1 > m/2 = n/(2(t+2)) profiles.  Each profile's
    size vector (m, ..., m, j, m-j, m-j, j) attains t(t+1)/(6(t+2)^2) n^3
    edges.
    """
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    if n <= 0 or n % (t + 2):
        raise InvalidArgumentError(f"n must be a positive multiple of t+2={t + 2}")
    m = n // (t + 2)
    alphas = tuple(Fraction(j, m) for j in range(m // 2 + 1))
    if t == 1:
        # gamma(1) has two head vertices; any split of m across them
        # attains the same count, so share it as evenly as possible
        head: tuple[int, ...] = (m // 2, m - m // 2)
    else:
        head = (m,) * t
    sizes = tuple(head + (j, m - j, m - j, j) for j in range(m // 2 + 1))
    return ExtremalProfiles(t=t, n=n, alphas=alphas, part_sizes=sizes)


# ---------------------------------------------------------------------------
# feasible-region density points


def _profile_weights(t: int, alpha: Fraction) -> list[Fraction]:
    if t == 1:
        unit = Fraction(1, 3)
        head = [Fraction(1, 6), Fraction(1, 6)]
    else:
        unit = Fraction(1, t + 2)
        head = [unit] * t
    return head + [alpha * unit, (1 - alpha) * unit, (1 - alpha) * unit, alpha * unit]


def feasible_point(t: int, alpha, n: int) -> FeasiblePoint:
    """Exact densities of the floor-rounded optimal-profile blowup of gamma(t).

    Part i gets floor(x_i * n) vertices where x is the alpha-profile; edge
    and shadow counts come from the counting formulas (no materialization),
    normalized by the realized vertex count.
    """
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    frac_alpha = Fraction(alpha)
    if not 0 <= frac_alpha <= 1:
        raise InvalidArgumentError(f"alpha must lie in [0, 1], got {alpha}")
    base = gamma(t)
    if n < base.n:
        raise InvalidArgumentError(f"n must be at least v(gamma({t})) = {base.n}")
    sizes = tuple(math.floor(x * n) for x in _profile_weights(t, frac_alpha))
    spec = BlowupSpec(base, sizes)
    total = spec.total
    if total < 3:
        raise InvalidArgumentError("profile blowup has fewer than 3 vertices")
    edges = blowup_edge_count(spec)
    shadow = _blowup_shadow_count(spec)
    return FeasiblePoint(
        shadow_density=Fraction(shadow, comb(total, 2)),
        edge_density=Fraction(edges, comb(total, 3)),
    )


def feasible_limit(t: int, alpha) -> FeasiblePoint:
    """Limiting (shadow, edge) densities of the alpha-profile blowups.

    shadow -> (t^2 + 3t + 2 + 4 alpha (1 - alpha)) / (t+2)^2
    edge   -> t (t+1) / (t+2)^2

    As alpha runs over [0, 1/2] the shadow limit sweeps exactly
    [(t+1)/(t+2), (t^2+3t+3)/(t+2)^2].
    """
    if t < 1:
        raise InvalidArgumentError(f"t must be >= 1, got {t}")
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise InvalidArgumentError(f"alpha must lie in [0, 1], got {alpha}")
    denom = (t + 2) ** 2
    return FeasiblePoint(
        shadow_density=Fraction(t * t + 3 * t + 2, denom) + 4 * a * (1 - a) / denom,
        edge_density=Fraction(t * (t + 1), denom),
    )
