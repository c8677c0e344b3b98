"""Backtracking homomorphism search, colorability, and family membership.

A homomorphism maps each edge onto an edge *as a set of r distinct
vertices*: maps collapsing an edge are rejected.  Search assigns the
source vertices in a fixed order (decreasing degree, on the twin quotient
below, for existence queries; index order for enumeration) and keeps, for
every unassigned vertex, a bitmask domain of the target vertices it may
still take.  Forward checking narrows those domains after each
assignment: a vertex sharing a covered pair with the assigned one keeps
only target vertices adjacent to its image, and the last vertex of an edge
whose other r-1 vertices are assigned keeps only the vertices completing
their images to a target edge.  A branch is cut as soon as a domain
empties.  Candidates are tried in ascending order, so enumeration stays
lexicographic, and ``nodes_expanded`` counts the candidate assignments
tried.  Isomorphism runs the same search in injective mode, which also
clears each image from later domains and sends the source's non-edges onto
target non-edges.

Existence queries (``search_homomorphism`` and so ``find_homomorphism``,
``is_colorable`` and ``in_family_FM``) search a smaller source.  Twins,
vertices of equal link, never share an edge, and the source is the blowup
of the graph Q it induces on one vertex per twin class: an r-set meeting
each class at most once is an edge exactly when its projection, each
vertex sent to its class's representative, is one.  So the projection and
the inclusion of Q are homomorphisms, Q is a retract of the source, and a
homomorphism to any target exists exactly when one exists from Q (Hell &
Nesetril, 2004); Q's map, composed with the projection, is the source's.
Twins of Q would be twins of its blowup, so one round leaves none.  In Q,
u and v are clones when swapping them is an automorphism; clones form
classes, and permuting the images within a class keeps a homomorphism one.
Two clones in no common edge would have equal links, so twin-freeness
makes every clone pair covered, and then their images differ.  Sorting
each class's images thus turns any homomorphism of Q into one whose images
strictly increase along each class in search order, and the search keeps
only those.  Twins also swap, but they may need equal images (a blowup of
K4 has no other map into K4), so the strict order would cut every map;
that is why twins collapse first.

Endomorphisms of a two-covered graph (every vertex pair in some edge) run
in injective mode too.  Each pair lies in an edge, whose image has r
distinct vertices, so an endomorphism is injective, hence bijective on the
finite vertex set; it then sends the edges injectively into a set of the
same size, so onto it, and non-edges onto non-edges.  The endomorphisms
are therefore exactly the automorphisms; the graph is a core (Hell &
Nesetril, *Graphs and Homomorphisms*, 2004).  They form a group, listed by
orbit-stabilizer recursion (Sims 1970; McKay 1981): with 0..p-1 fixed, one
first-hit search per candidate image j of p finds a map sending p to j,
or shows that j is not in p's orbit, and that map times the stabilizer of
0..p is the whole coset.  The group is composed from these maps and
sorted, so the list is the lexicographic one of the full search (see
``enumerate_endomorphisms``); ``gamma(6)`` takes 112 nodes against 2,365.

Injective mode seeds its domains with link-profile classes: a vertex v's
profile is its degree and the sorted sizes |link(v) & link(u)| over the
other vertices u, where link(v) is the set of (r-1)-sets completing v to an
edge.  An isomorphism carries links onto links, so it preserves profiles
and the classes prune no solution; they separate vertices that degrees
cannot, such as vertex t-1 of gamma(t).
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .common import BudgetExceededError, InvalidArgumentError, SizeLimitError
from .hypergraph import Hypergraph, _links, _swappable, _twin_classes

_log = logging.getLogger(__name__)

#: Vertex bound for endomorphism enumeration.  On two-covered graphs it also
#: bounds the injective mode's set-up, which lists all C(n, r) r-sets
#: (at most C(10, 5) = 252).
ENDOMORPHISM_VERTEX_BOUND = 10

#: Default vertex bound for isomorphism search.
ISO_VERTEX_BOUND = 12


@dataclass(frozen=True)
class VertexMap:
    """A vertex assignment from one hypergraph into another."""

    from_n: int
    to_n: int
    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(map(int, self.images))
        object.__setattr__(self, "images", images)
        if len(images) != self.from_n:
            raise InvalidArgumentError(
                f"need {self.from_n} images, got {len(images)}"
            )
        if images and (min(images) < 0 or max(images) >= self.to_n):
            raise InvalidArgumentError("image vertex out of range")

    @classmethod
    def _trusted(cls, from_n: int, to_n: int, images: tuple[int, ...]) -> "VertexMap":
        """A map whose images the library built itself: a tuple of ``from_n``
        ints in ``0 .. to_n-1``, so ``__post_init__``'s checks are skipped."""
        vm = object.__new__(cls)
        vm.__dict__.update(from_n=from_n, to_n=to_n, images=images)
        return vm

    def __call__(self, v: int) -> int:
        return self.images[v]

    def is_homomorphism(self, source: Hypergraph, target: Hypergraph) -> bool:
        """Direct check that every source edge maps onto a target edge.

        Each image is tested as a vertex bitmask against
        ``target.edge_masks``; an image that collapses has fewer than r bits,
        so it matches no edge.
        """
        if source.edges and source.r != target.r:
            return False
        masks = target.edge_masks
        bits = [1 << w for w in self.images]
        for e in source.edges:
            mask = 0
            for v in e:
                mask |= bits[v]
            if mask not in masks:
                return False
        return True

    def compose(self, then: "VertexMap") -> "VertexMap":
        """First this map, then ``then``."""
        if self.to_n != then.from_n:
            raise InvalidArgumentError("maps are not composable")
        return VertexMap(
            self.from_n, then.to_n, tuple(then.images[v] for v in self.images)
        )


@dataclass(frozen=True)
class HomSearchResult:
    map: Optional[VertexMap]
    nodes_expanded: int

    @property
    def found(self) -> bool:
        return self.map is not None

    def to_json_dict(self) -> dict:
        return {
            "found": self.found,
            "map": list(self.map.images) if self.map else None,
            "nodes_expanded": self.nodes_expanded,
        }


def _search(
    source: Hypergraph,
    target: Hypergraph,
    order: list[int],
    on_solution: Callable[[tuple[int, ...]], bool],
    *,
    classes: list[int] | None = None,
    cosets: bool = False,
    clones: list[int] | None = None,
) -> int:
    """Forward-checking backtracking over the given vertex order.

    Domains are bitmasks over the target vertices (see the module
    docstring).  ``on_solution`` receives each complete image vector (in
    vertex order, not search order) and returns True to continue
    enumerating.  Returns the number of candidate assignments tried.
    ``classes``, one bitmask per source vertex, seeds the domains and turns
    on injective mode, which finds induced copies: injective maps that also
    send every non-edge onto a non-edge.  Between graphs on equally many
    vertices these are the isomorphisms.

    ``cosets`` walks the identity branch of an automorphism search (source
    is target, index order, injective mode).  At each position p on it,
    every other candidate j starts a search that stops at its first
    solution, the lex-first automorphism fixing 0..p-1 with p -> j; the
    walk then goes on with the next candidate.  ``on_solution`` receives
    the identity and each such first hit and is expected to return False.

    ``clones`` gives each position the next position of its clone chain, or
    0 (no chain continues at the root); that position then keeps only
    target vertices above the image just assigned.  The caller reports the
    search, so no record is logged.
    """
    r = source.r
    size = len(order)
    position = {v: k for k, v in enumerate(order)}
    # adj[w]: target vertices sharing an edge with w (never w itself);
    # link[mask]: vertices completing the (r-1)-set ``mask`` to an edge
    adj = [0] * target.n
    link: dict[int, int] = {}
    for w, rests in enumerate(_links(target)):
        for rest in rests:
            adj[w] |= rest
            link[rest] = link.get(rest, 0) | 1 << w
    domains = [(1 << target.n) - 1] * size
    follows = clones or [0] * size
    # later positions sharing a covered pair with each position
    pair_sets: list[set[int]] = [set() for _ in order]
    closed = [tuple(sorted(position[v] for v in e)) for e in source.edges]
    for spots in closed:
        for i, p in enumerate(spots):
            pair_sets[p].update(spots[i + 1 :])
    later = [sorted(s) for s in pair_sets]
    # bits[size] holds a marker bit above every target vertex
    marker = 1 << target.n
    bits = [0] * size + [marker]
    apart: list[list[int]] = [[] for _ in order]
    if classes is not None:
        domains = [classes[v] for v in order]
        # later positions that do not already lose an image via adj
        apart = [[q for q in range(p + 1, size) if q not in pair_sets[p]] for p in range(size)]
        # a non-edge closes like an edge with the marker slot among its earlier
        # positions, against the complement of link kept under the marker bit
        for rest in itertools.combinations(range(target.n), r - 1):
            mask = sum(1 << w for w in rest)
            link[marker | mask] = (marker - 1) & ~link.get(mask, 0)
        edges = set(closed)
        closed = [s if s in edges else (size, *s) for s in itertools.combinations(range(size), r)]
    # (earlier positions, last position) of each closed r-set, at its second-to-last
    edges_at: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in order]
    for spots in closed:
        if r == 1:
            # one-vertex sets close at the root, where only the marker slot is set
            domains[spots[-1]] &= link.get(sum(bits[p] for p in spots[:-1]), 0)
        else:
            edges_at[spots[-2]].append((spots[:-2], spots[-1]))

    nodes = 0
    stop = False
    # positions below ``spine`` hold the identity; -1 keeps the coset walk off
    spine = 0 if cosets else -1
    searches = hits = 0

    def attempt(pos: int, doms: list[int]) -> None:
        nonlocal nodes, stop, spine, searches, hits
        if pos == size:
            images = [0] * size
            for p, v in enumerate(order):
                images[v] = bits[p].bit_length() - 1
            if not on_solution(tuple(images)):
                stop = True
            return
        neighbours = later[pos]
        distinct = apart[pos]
        closing = edges_at[pos]
        follow = follows[pos]
        d = doms[pos]
        on_spine = pos == spine
        if on_spine:
            home = 1 << order[pos]
            searches += d.bit_count() - 1
        while d:
            bit = d & -d
            d ^= bit
            nodes += 1
            narrowed = doms[:]
            if follow:
                # a clone pair is covered, so ``neighbours`` checks it below
                narrowed[follow] &= -(bit << 1)
            for q in distinct:
                narrowed[q] &= ~bit
            near = adj[bit.bit_length() - 1]
            for q in neighbours:
                left = narrowed[q] & near
                if not left:
                    break
                narrowed[q] = left
            else:
                for earlier, last in closing:
                    mask = bit
                    for p in earlier:
                        mask |= bits[p]
                    left = narrowed[last] & link.get(mask, 0)
                    if not left:
                        break
                    narrowed[last] = left
                else:
                    bits[pos] = bit
                    if on_spine:
                        spine = pos + 1 if bit == home else -1
                    attempt(pos + 1, narrowed)
                    if stop:
                        if not on_spine:
                            return
                        # a first hit ends its own search only
                        stop = False
                        hits += bit != home

    if all(domains):
        attempt(0, domains)
    if _log.isEnabledFor(logging.DEBUG):
        if classes is None:
            if clones is None:
                _log.debug("search: general, %d nodes", nodes)
        elif cosets:
            _log.debug("search: cosets, %d seed classes, %d r-sets listed, %d first-hit searches,"
                       " %d found nothing, %d nodes",
                       len(set(classes)), len(closed), searches, searches - hits, nodes)
        else:
            _log.debug("search: injective, %d seed classes, %d r-sets listed, %d nodes",
                       len(set(classes)), len(closed), nodes)
    return nodes


def search_homomorphism(source: Hypergraph, target: Hypergraph) -> HomSearchResult:
    """First homomorphism found, with node count; None exactly when there is none.

    The search runs on the twin quotient of ``source`` (see the module
    docstring), in decreasing-degree order of the quotient, ties by index,
    and keeps only maps whose images increase along each clone chain.  The
    map returned is the least of those in that order, sent back to
    ``source`` along the projection: each vertex takes the image of its
    twin class's representative.
    """
    if source.n == 0:
        return HomSearchResult(VertexMap(0, target.n, ()), 0)
    if not len(source) and target.n >= 1:
        # edge constraints are vacuous; send everything to vertex 0
        return HomSearchResult(VertexMap(source.n, target.n, (0,) * source.n), 0)
    if source.r != target.r or target.n == 0:
        return HomSearchResult(None, 0)
    quotient, project, links = _twin_quotient(source)
    degrees = quotient.degrees()
    order = sorted(range(quotient.n), key=lambda v: (-degrees[v], v))
    follows, chains = _clone_chains(links, order)
    found: list[tuple[int, ...]] = []
    # list.append returns None, so the search stops at the first solution
    nodes = _search(quotient, target, order, found.append, clones=follows)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("search: general, %d vertices in %d twin classes, %d clone chains, %d nodes",
                   source.n, quotient.n, chains, nodes)
    if found:
        images = found[0]
        lifted = tuple([images[c] for c in project])
        return HomSearchResult(VertexMap._trusted(source.n, target.n, lifted), nodes)
    return HomSearchResult(None, nodes)


def _twin_quotient(graph: Hypergraph) -> tuple[Hypergraph, list[int], list[set[int]]]:
    """The graph induced on the lowest member of each twin class, each
    vertex's image in it (``induced`` keeps the order, so class k becomes
    vertex k), and the quotient's links; a graph without twins is its own
    quotient, and its links are built once.  One round leaves no twins (see
    the module docstring)."""
    links = _links(graph)
    classes = _twin_classes(links)
    project = [0] * graph.n
    for k, members in enumerate(classes):
        for v in members:
            project[v] = k
    if len(classes) == graph.n:
        return graph, project, links
    quotient = graph.induced(members[0] for members in classes)
    return quotient, project, _links(quotient)


def _clone_chains(links: list[set[int]], order: list[int]) -> tuple[list[int], int]:
    """For each search position, the next position of its clone class, or
    0; and the number of classes with more than one member, from the
    graph's links.

    u and v are clones when swapping them is an automorphism.  Clones have
    equal degrees, and cloning is an equivalence, so each vertex is
    compared with one member of each class of its degree.
    """
    groups: dict[int, list[list[int]]] = {}
    for v in order:
        classes = groups.setdefault(len(links[v]), [])
        for members in classes:
            if _swappable(links, members[0], v):
                members.append(v)
                break
        else:
            classes.append([v])
    position = {v: k for k, v in enumerate(order)}
    follows = [0] * len(order)
    chains = 0
    for classes in groups.values():
        for members in classes:
            chains += len(members) > 1
            for u, v in zip(members, members[1:]):
                follows[position[u]] = position[v]
    return follows, chains


def find_homomorphism(source: Hypergraph, target: Hypergraph) -> Optional[VertexMap]:
    return search_homomorphism(source, target).map


def is_colorable(source: Hypergraph, target: Hypergraph) -> bool:
    """Whether ``source`` occurs in some blowup of ``target``
    (equivalently: admits a homomorphism into it)."""
    return find_homomorphism(source, target) is not None


def enumerate_homomorphisms(
    source: Hypergraph, target: Hypergraph, limit: int | None = None
) -> list[VertexMap]:
    """All homomorphisms in lexicographic image order.

    Raises a budget error carrying the partial list when ``limit`` is hit.
    For edgeless sources every map qualifies, whatever the uniformities.
    """
    return _enumerate(source, target, limit)


def enumerate_endomorphisms(graph: Hypergraph, limit: int = 1_000_000) -> list[VertexMap]:
    """All homomorphisms of a small hypergraph into itself, in lexicographic
    image order.

    When every vertex pair lies in an edge, every endomorphism is an
    automorphism (see the module docstring), and the maps are listed by
    stabilizer cosets.  With 0..p-1 fixed, the maps sending p to j form one
    coset g.S of S, the maps that also fix p, where g is any one of them;
    the orbit of p is the set of j with such a g.  A single walk of the
    injective-mode search finds the whole chain.  It follows the identity
    branch, and from every other candidate j of each position it runs a
    first-hit search for g.  The group order, the product of the orbit
    sizes, is known before any map is composed.  Each stabilizer is then
    built from the last position up as S plus every g.s (images g[s[v]]),
    and the group is sorted.  When the order exceeds ``limit``, the
    index-order injective search runs instead and raises with the lex-first
    ``limit`` maps, exactly as for any other graph.
    """
    if graph.n > ENDOMORPHISM_VERTEX_BOUND:
        raise SizeLimitError(
            f"endomorphism enumeration limited to {ENDOMORPHISM_VERTEX_BOUND} vertices"
        )
    if not graph.is_two_covered():
        _log.debug("endomorphisms: not two-covered, general search")
        return _enumerate(graph, graph, limit)
    _log.debug("endomorphisms: two-covered, coset search")
    profiles = _link_profiles(graph)
    classes = [sum(1 << w for w, q in enumerate(profiles) if q == p) for p in profiles]
    found: list[tuple[int, ...]] = []
    # list.append returns None, so each first-hit search stops at its hit
    _search(graph, graph, list(range(graph.n)), found.append, classes=classes, cosets=True)
    # a first hit belongs to the first vertex it moves; the identity moves none
    transversals: list[list[tuple[int, ...]]] = [[] for _ in range(graph.n)]
    for g in found:
        moved = [v for v, w in enumerate(g) if v != w]
        if moved:
            transversals[moved[0]].append(g)
    orbits = [1 + len(reps) for reps in transversals]
    order = math.prod(orbits)
    _log.debug("cosets: orbit sizes %s, group order %d", orbits, order)
    if limit is not None and order > limit:
        # also where limit < 0, which _enumerate rejects
        _log.debug("cosets: group order above the limit of %d, index-order search", limit)
        return _enumerate(graph, graph, limit, classes)
    group = [tuple(range(graph.n))]
    for reps in reversed(transversals):
        group += [tuple([g[w] for w in s]) for g in reps for s in group]
    group.sort()
    return [VertexMap._trusted(graph.n, graph.n, images) for images in group]


def _enumerate(
    source: Hypergraph, target: Hypergraph, limit: int | None, classes: list[int] | None = None
) -> list[VertexMap]:
    """Run ``_search`` in index order, collecting maps up to ``limit``."""
    if limit is not None and limit < 0:
        raise InvalidArgumentError(f"limit must be >= 0, got {limit}")
    if source.edges and source.r != target.r:
        return []
    out: list[VertexMap] = []

    def record(images: tuple[int, ...]) -> bool:
        out.append(VertexMap._trusted(source.n, target.n, images))
        # allow one extra solution so exactly-limit enumerations finish cleanly
        return limit is None or len(out) <= limit

    # index order makes the DFS emit image vectors lexicographically
    _search(source, target, list(range(source.n)), record, classes=classes)
    if limit is not None and len(out) > limit:
        raise BudgetExceededError(
            f"homomorphism enumeration exceeded the limit of {limit}",
            partial=out[:limit],
        )
    return out


def _link_profiles(graph: Hypergraph) -> list[tuple[int, tuple[int, ...]]]:
    """Each vertex's degree and sorted |link(v) & link(u)| over u != v,
    with links held as sets of (r-1)-set masks (see the module docstring)."""
    links = _links(graph)
    return [
        (len(mine), tuple(sorted(len(mine & other) for u, other in enumerate(links) if u != v)))
        for v, mine in enumerate(links)
    ]


def partial_embedding_check(t: int) -> bool:
    """Exhaustively verify how gamma(t) minus one special vertex embeds.

    Deleting the vertex at position t+2 of gamma(t) (one of the two
    middle-block specials) leaves a graph whose every homomorphism back
    into gamma(t) is injective, fixes {0..t-1} setwise, sends the three
    remaining specials into the special block, maps {t, t+3's survivor}
    onto {t, t+3} or {t+1, t+2}, and for t >= 3 fixes {0..t-2} setwise.
    """
    if not 2 <= t <= 4:
        raise InvalidArgumentError(f"supported range is 2 <= t <= 4, got {t}")
    from .constructions import gamma

    big = gamma(t)
    keep = [v for v in range(big.n) if v != t + 2]
    small = big.induced(keep)  # vertex t+3 becomes index t+2
    head = set(range(t))
    inner_head = set(range(t - 1))
    special_targets = set(range(t, t + 4))
    cross_pairs = ({t, t + 3}, {t + 1, t + 2})
    for hom in enumerate_homomorphisms(small, big):
        images = hom.images
        if len(set(images)) != small.n:
            return False
        if {images[v] for v in head} != head:
            return False
        if not {images[t], images[t + 1], images[t + 2]} <= special_targets:
            return False
        if {images[t], images[t + 2]} not in cross_pairs:
            return False
        if t >= 3 and {images[v] for v in inner_head} != inner_head:
            return False
    return True


def are_isomorphic(
    h1: Hypergraph, h2: Hypergraph, max_vertices: int = ISO_VERTEX_BOUND
) -> Optional[tuple[int, ...]]:
    """Isomorphism search for small hypergraphs.

    Returns a bijection ``phi`` with ``phi[v]`` the image of v, or None.
    Runs the forward-checking search in injective mode, in decreasing-degree
    order, with each domain seeded by the target vertices of equal link
    profile (see the module docstring).
    """
    if h1.n > max_vertices or h2.n > max_vertices:
        raise SizeLimitError(
            f"isomorphism search limited to {max_vertices} vertices "
            f"(got {h1.n} and {h2.n})"
        )
    if h1.r != h2.r or h1.n != h2.n or len(h1.edges) != len(h2.edges):
        return None
    prof1 = _link_profiles(h1)
    prof2 = _link_profiles(h2)
    if sorted(prof1) != sorted(prof2):
        return None
    order = sorted(range(h1.n), key=lambda v: (-prof1[v][0], v))
    classes = [sum(1 << w for w, q in enumerate(prof2) if q == p) for p in prof1]
    found: list[tuple[int, ...]] = []
    # list.append returns None, so the search stops at the first solution
    _search(h1, h2, order, found.append, classes=classes)
    return found[0] if found else None


def in_family_FM(candidate: Hypergraph, target: Hypergraph, max_vertices: int) -> bool:
    """Membership in the family of non-colorable graphs on <= M vertices.

    A pure predicate: the family itself is astronomically large and is
    never enumerated.
    """
    if candidate.n > max_vertices:
        return False
    return not is_colorable(candidate, target)
