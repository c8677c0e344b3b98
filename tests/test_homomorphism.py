"""Homomorphism search against exhaustive and permutation oracles."""

import itertools
import logging
import math
from math import comb
from unittest import mock

import numpy as np
import pytest

from turan import (
    BlowupSpec,
    BudgetExceededError,
    Hypergraph,
    InvalidArgumentError,
    SizeLimitError,
    VertexMap,
    are_isomorphic,
    blowup,
    enumerate_endomorphisms,
    enumerate_homomorphisms,
    find_homomorphism,
    gamma,
    in_family_FM,
    is_colorable,
    partial_embedding_check,
    search_homomorphism,
)
from turan import homomorphism, hypergraph

K4 = Hypergraph.complete(3, 4)
K5 = Hypergraph.complete(3, 5)
C5 = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])


def brute_force_has_hom(source, target):
    """Independent oracle: try every map."""
    for images in itertools.product(range(target.n), repeat=source.n):
        ok = True
        for e in source.edges:
            image = tuple(sorted(images[v] for v in e))
            if len(set(image)) != source.r or image not in set(target.edges):
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_homomorphisms(source, target):
    """Independent oracle: every map, in lexicographic image order."""
    return [
        images
        for images in itertools.product(range(target.n), repeat=source.n)
        if VertexMap(source.n, target.n, images).is_homomorphism(source, target)
    ]


def backtrack_maps(source, target):
    """Independent oracle: extend maps vertex by vertex in index order and
    check each edge once its largest vertex is mapped (no domains); yields
    the maps in lexicographic image order."""
    target_edges = set(target.edges)
    closing = [[e for e in source.edges if e[-1] == v] for v in range(source.n)]

    def extend(images):
        v = len(images)
        if v == source.n:
            yield tuple(images)
            return
        for w in range(target.n):
            images.append(w)
            if all(
                len({images[u] for u in e}) == source.r
                and tuple(sorted(images[u] for u in e)) in target_edges
                for e in closing[v]
            ):
                yield from extend(images)
            images.pop()

    yield from extend([])


def backtrack_homomorphisms(source, target):
    return list(backtrack_maps(source, target))


def has_hom_oracle(source, target):
    """Independent oracle: ``backtrack_maps`` on ``source`` relabelled so that
    each vertex shares the most pairs of edges with the vertices before it,
    which closes edges early."""
    placed = []
    while len(placed) < source.n:
        rest = [v for v in range(source.n) if v not in placed]
        placed.append(max(rest, key=lambda v: sum(len(set(e) & set(placed)) for e in source.edges
                                                   if v in e)))
    perm = [0] * source.n
    for k, v in enumerate(placed):
        perm[v] = k
    return next(backtrack_maps(source.relabel(perm), target), None) is not None


def twin_quotient_oracle(graph):
    """Independent oracle: collapse every vertex to the lowest vertex of
    equal link, relabel in order, repeat until no two links are equal.
    Returns the quotient and each source vertex's image in it."""
    project = list(range(graph.n))
    while True:
        links = [{tuple(w for w in e if w != v) for e in graph.edges if v in e}
                 for v in range(graph.n)]
        reps = [min(u for u in range(graph.n) if links[u] == links[v]) for v in range(graph.n)]
        keep = sorted(set(reps))
        if len(keep) == graph.n:
            return graph, project
        index = {v: k for k, v in enumerate(keep)}
        project = [index[reps[v]] for v in project]
        graph = Hypergraph(graph.r, len(keep), [tuple(index[v] for v in e)
                                                for e in graph.edges if set(e) <= index.keys()])


def search_order_oracle(graph):
    degrees = [sum(v in e for e in graph.edges) for v in range(graph.n)]
    return sorted(range(graph.n), key=lambda v: (-degrees[v], v))


def first_map_oracle(source, target):
    """The first map ``search_homomorphism`` must return, by exhaustion: of
    the twin quotient's homomorphisms, those increasing in search order on
    every pair that swapping fixes the quotient, the least in search order,
    lifted to ``source``; None when there is none."""
    quotient, project = twin_quotient_oracle(source)
    order = search_order_oracle(quotient)

    def swaps(u, v):
        perm = list(range(quotient.n))
        perm[u], perm[v] = v, u
        return quotient.relabel(perm) == quotient

    pairs = [(u, v) for u, v in itertools.combinations(order, 2) if swaps(u, v)]
    maps = [images for images in backtrack_maps(quotient, target)
            if all(images[u] < images[v] for u, v in pairs)]
    if not maps:
        return None
    best = min(maps, key=lambda images: [images[v] for v in order])
    return tuple(best[c] for c in project)


def planted_source(rng, r):
    """A blowup (parts 1-3, randomly relabelled) of a random base whose last
    k >= r vertices span a complete r-graph and meet the others alike, so
    any two of them swap."""
    m, k = int(rng.integers(0, 3)), int(rng.integers(r, r + 2))
    others, clones = range(m), range(m, m + k)
    edges = [e for e in itertools.combinations(others, r) if rng.random() < 0.5]
    for size in range(1, r + 1):
        for rest in itertools.combinations(others, r - size):
            if size == r or rng.random() < 0.5:
                edges += [rest + b for b in itertools.combinations(clones, size)]
    base = Hypergraph(r, m + k, edges)
    big = blowup(BlowupSpec(base, tuple(int(x) for x in rng.integers(1, 4, m + k))))
    return base, big.relabel(rng.permutation(big.n).tolist())


def random_graph(rng, r, n, density):
    universe = itertools.combinations(range(n), r)
    return Hypergraph(r, n, [e for e in universe if rng.random() < density])


def has_subgraph_copy(small, big):
    """Independent oracle: injective embeddings by permutation."""
    big_edges = set(big.edges)
    for chosen in itertools.permutations(range(big.n), small.n):
        if all(tuple(sorted(chosen[v] for v in e)) in big_edges for e in small.edges):
            return True
    return False


class TestFindHomomorphism:
    def test_complete_into_gamma2(self):
        phi = find_homomorphism(K4, gamma(2))
        assert phi is not None
        assert phi.is_homomorphism(K4, gamma(2))

    def test_k5_not_into_gamma2(self):
        assert find_homomorphism(K5, gamma(2)) is None

    def test_edgeless_source(self):
        source = Hypergraph.empty(3, 3)
        phi = find_homomorphism(source, Hypergraph(3, 3, [(0, 1, 2)]))
        assert phi is not None

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n1, n2 = int(rng.integers(3, 5)), int(rng.integers(3, 6))
            u1 = list(itertools.combinations(range(n1), 3))
            u2 = list(itertools.combinations(range(n2), 3))
            source = Hypergraph(3, n1, [e for e in u1 if rng.random() < 0.5])
            target = Hypergraph(3, n2, [e for e in u2 if rng.random() < 0.5])
            got = find_homomorphism(source, target)
            assert (got is not None) == brute_force_has_hom(source, target)
            if got is not None:
                assert got.is_homomorphism(source, target)

    def test_nodes_expanded_reported(self):
        result = search_homomorphism(K4, gamma(2))
        assert result.found and result.nodes_expanded > 0
        data = result.to_json_dict()
        assert set(data) == {"found", "map", "nodes_expanded"}


class TestSearchOrder:
    @pytest.mark.parametrize(
        "t, sizes",
        [(2, (3, 3, 1, 2, 2, 1)), (3, (2, 2, 1, 2, 2, 1, 2)), (3, (4, 0, 2, 1, 3, 2, 4)),
         (4, (1, 2, 3, 0, 1, 2, 3, 1))],
    )
    def test_quotient_degree_order_on_blowups(self, t, sizes):
        source = blowup(BlowupSpec(gamma(t), sizes))
        seen = []

        def spy(source, target, order, record, **kwargs):
            seen.append((source, list(order)))
            return real(source, target, order, record, **kwargs)

        real = homomorphism._search
        with mock.patch.object(homomorphism, "_search", spy):
            search_homomorphism(source, gamma(t))
        quotient, _ = twin_quotient_oracle(source)
        assert seen == [(quotient, search_order_oracle(quotient))]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_random_instances(self, r):
        rng = np.random.default_rng(20 + r)
        for _ in range(25):
            source = random_graph(rng, r, int(rng.integers(r, 6)), 0.5)
            target = random_graph(rng, r, int(rng.integers(r, 6)), 0.6)
            want = brute_force_homomorphisms(source, target)
            got = enumerate_homomorphisms(source, target)
            assert [phi.images for phi in got] == want
            if len(want) > 1:
                k = int(rng.integers(1, len(want)))
                with pytest.raises(BudgetExceededError) as err:
                    enumerate_homomorphisms(source, target, limit=k)
                assert [phi.images for phi in err.value.partial] == want[:k]
            first = search_homomorphism(source, target).map
            assert (first is None) == (not want)
            assert (first.images if first else None) == first_map_oracle(source, target)


class TestQuotientSearch:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_planted_twins_and_clones(self, r):
        rng = np.random.default_rng(40 + r)
        for i in range(25):
            base, source = planted_source(rng, r)
            # every other target is the base, into which the source maps
            target = base if i % 2 else random_graph(rng, r, int(rng.integers(r, 6)), 0.6)
            exists = has_hom_oracle(source, target)
            result = search_homomorphism(source, target)
            assert result.found == exists
            assert (result.map.images if exists else None) == first_map_oracle(source, target)
            if exists:
                assert result.map.is_homomorphism(source, target)

    @pytest.mark.parametrize(
        "sizes", [(3, 3, 2, 2, 3, 2, 3), (3, 3, 2, 3, 2, 3, 3), (20, 20, 10, 20, 20, 10, 20)]
    )
    def test_blowups_of_gamma3_take_seven_nodes(self, sizes):
        # the degree-order search of the whole blowup expands 14,551 nodes
        # for (3, 3, 2, 3, 2, 3, 3) and did not finish in 3 minutes for the
        # 120,000-edge (20, 20, 10, 20, 20, 10, 20)
        source = blowup(BlowupSpec(gamma(3), sizes))
        result = search_homomorphism(source, gamma(3))
        assert result.found and result.nodes_expanded <= 7
        assert result.map.is_homomorphism(source, gamma(3))

    def test_links_of_a_twin_free_source_built_once(self):
        # K5 has no twins, so it is its own quotient: one build of its links
        # gives the twin classes and the clone chains
        built = []

        def spy(graph):
            built.append(graph)
            return links(graph)

        links = hypergraph._links
        with (
            mock.patch.object(homomorphism, "_links", spy),
            mock.patch.object(hypergraph, "_links", spy),
        ):
            result = search_homomorphism(K5, gamma(2))
        assert [g is K5 for g in built].count(True) == 1
        assert (result.map, result.nodes_expanded) == (None, 35)

    @pytest.mark.parametrize("t, before", [(2, 156), (3, 727), (4, 4288)])
    def test_complete_graphs_search_fewer_nodes(self, t, before):
        # ``before``: forward checking with no clone order (an index-order
        # scan of every target vertex expands 942, 5096 and 34312 nodes); the
        # t + 3 vertices of the complete graph are all clones
        result = search_homomorphism(Hypergraph.complete(3, t + 3), gamma(t))
        assert not result.found and 0 < result.nodes_expanded < before


class TestColorable:
    def test_blowup_is_colorable(self):
        h = blowup(BlowupSpec(K4, (2, 2, 2, 2)))
        assert is_colorable(h, K4)

    def test_c5_vs_k4(self):
        # oracle: 4^5 maps checked directly
        assert is_colorable(C5, K4) == brute_force_has_hom(C5, K4) == False

    def test_gamma2_vs_k4(self):
        assert is_colorable(gamma(2), K4) == brute_force_has_hom(gamma(2), K4) == False


class TestEnumerate:
    def test_single_edge_endomorphisms(self):
        maps = enumerate_endomorphisms(Hypergraph(3, 3, [(0, 1, 2)]))
        assert len(maps) == 6
        images = [m.images for m in maps]
        assert images == sorted(images)  # lexicographic order

    def test_gamma2_rigidity(self):
        endos = enumerate_endomorphisms(gamma(2))
        assert len(endos) > 0
        for phi in endos:
            assert len(set(phi.images)) == 6
            assert {phi.images[0], phi.images[1]} == {0, 1}
            pairs = {
                frozenset((phi.images[2], phi.images[5])),
                frozenset((phi.images[3], phi.images[4])),
            }
            assert pairs == {frozenset((2, 5)), frozenset((3, 4))}

    def test_gamma3_fixes_inner_head(self):
        for phi in enumerate_endomorphisms(gamma(3)):
            assert {phi.images[0], phi.images[1]} == {0, 1}

    def test_limit_carries_partial(self):
        with pytest.raises(BudgetExceededError) as err:
            enumerate_endomorphisms(Hypergraph(3, 3, [(0, 1, 2)]), limit=4)
        assert len(err.value.partial) == 4

    def test_exact_limit_is_clean(self):
        maps = enumerate_endomorphisms(Hypergraph(3, 3, [(0, 1, 2)]), limit=6)
        assert len(maps) == 6

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            enumerate_endomorphisms(Hypergraph.empty(3, 11))

    def test_edgeless_source_gives_every_map(self):
        # no edge constraints, whatever the uniformities: all 2^3 maps in lex order
        got = enumerate_homomorphisms(Hypergraph.empty(2, 3), Hypergraph.complete(3, 2))
        assert [m.images for m in got] == list(itertools.product(range(2), repeat=3))
        assert enumerate_homomorphisms(Hypergraph.empty(3, 2), Hypergraph.empty(3, 0)) == []

    def test_zero_vertex_source(self):
        source = Hypergraph.empty(3, 0)
        assert [m.images for m in enumerate_homomorphisms(source, K4)] == [()]
        assert [m.images for m in enumerate_homomorphisms(source, K4, limit=1)] == [()]
        with pytest.raises(BudgetExceededError) as err:
            enumerate_homomorphisms(source, K4, limit=0)
        assert err.value.partial == []

    @pytest.mark.parametrize("graph", [Hypergraph.empty(3, 3), Hypergraph(3, 3, [(0, 1, 2)])])
    def test_negative_limit_rejected(self, graph):
        with pytest.raises(InvalidArgumentError):
            enumerate_homomorphisms(graph, K4, limit=-2)
        with pytest.raises(InvalidArgumentError):
            enumerate_endomorphisms(graph, limit=-1)


def search_modes(graph, limit=1_000_000):
    """The path each ``_search`` call of ``enumerate_endomorphisms`` took
    ("cosets", "injective" or "general"), with the images it listed, or
    with the partial list when the limit is hit."""
    modes = []
    real = homomorphism._search

    def spy(*args, classes=None, cosets=False):
        modes.append("cosets" if cosets else "general" if classes is None else "injective")
        return real(*args, classes=classes, cosets=cosets)

    with mock.patch.object(homomorphism, "_search", spy):
        try:
            maps = enumerate_endomorphisms(graph, limit)
        except BudgetExceededError as err:
            maps = err.partial
    return [phi.images for phi in maps], modes


def random_two_covered(rng, r, n):
    while True:
        graph = random_graph(rng, r, n, float(rng.uniform(0.5, 0.9)))
        if graph.is_two_covered():
            return graph


class TestEndomorphismsAsAutomorphisms:
    """Two-covered graphs list their endomorphisms by stabilizer cosets: the
    same list as the index-order injective search and the oracles."""

    def oracle(self, graph):
        if graph.n <= 6:
            return brute_force_homomorphisms(graph, graph)
        return backtrack_homomorphisms(graph, graph)

    def check(self, graph, oracle=True):
        got, modes = search_modes(graph)
        assert modes == ["cosets"]
        assert got == unseeded_injective(graph, graph, list(range(graph.n)))
        if oracle:
            assert got == self.oracle(graph)
        return got

    def test_backtrack_oracle_matches_brute_force(self):
        rng = np.random.default_rng(80)
        for r in (1, 2, 3):
            for _ in range(15):
                source = random_graph(rng, r, int(rng.integers(0, 5)), 0.5)
                target = random_graph(rng, r, int(rng.integers(0, 5)), 0.6)
                want = brute_force_homomorphisms(source, target)
                assert backtrack_homomorphisms(source, target) == want

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_random_two_covered_graphs(self, r):
        rng = np.random.default_rng(70 + r)
        for n in range(r, 8):
            # K_n is the only two-covered 2-graph
            for _ in range(1 if r == 2 or n == 7 else 3):
                self.check(random_two_covered(rng, r, n))

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_gamma_relabelings(self, t):
        rng = np.random.default_rng(90 + t)
        graph = gamma(t).relabel(tuple(int(v) for v in rng.permutation(t + 4)))
        # gamma(6) has ten vertices, too many for the backtracking oracle
        got = self.check(graph, oracle=t <= 5)
        assert len(got) == (8 if t == 2 else 4 * math.factorial(t - 1))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_complete_graphs(self, n):
        got = self.check(Hypergraph.complete(3, n))
        assert got == list(itertools.permutations(range(n)))

    @pytest.mark.parametrize(
        "graph, folds",
        [(Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)]), True), (gamma(1), False)],
        ids=["two-edges", "gamma1"],
    )
    def test_other_graphs_keep_the_general_search(self, graph, folds):
        # {012, 013} folds 3 onto 2; gamma(1)'s endomorphisms happen to be
        # bijective, but its pair {0, 1} lies in no edge
        assert not graph.is_two_covered()
        got, modes = search_modes(graph)
        assert modes == ["general"]
        assert got == brute_force_homomorphisms(graph, graph)
        assert any(len(set(images)) < graph.n for images in got) == folds

    @pytest.mark.parametrize("graph", [K4, gamma(3)], ids=["K4", "gamma3"])
    def test_limit_partial_is_lex_first(self, graph):
        full = self.check(graph)
        assert [m.images for m in enumerate_endomorphisms(graph, limit=len(full))] == full
        for k in range(len(full)):
            with pytest.raises(BudgetExceededError) as err:
                enumerate_endomorphisms(graph, limit=k)
            assert [m.images for m in err.value.partial] == full[:k]
            # above the limit, the index-order injective search lists the partial
            assert search_modes(graph, limit=k) == (full[:k], ["cosets", "injective"])

    @pytest.mark.parametrize(
        "graph",
        [
            Hypergraph.empty(3, 0),
            Hypergraph.empty(3, 1),
            Hypergraph(1, 1, [(0,)]),
            Hypergraph.empty(1, 1),
            Hypergraph(1, 3, [(0,), (2,)]),
            Hypergraph.complete(1, 3),
        ],
        ids=["n0", "n1", "r1-n1-edge", "r1-n1-empty", "r1-n3", "r1-complete"],
    )
    def test_tiny_cases(self, graph):
        got, modes = search_modes(graph)
        assert modes == ["cosets" if graph.n <= 1 else "general"]
        assert got == brute_force_homomorphisms(graph, graph)


def brute_force_isomorphic(h1, h2):
    """Independent oracle: some vertex permutation carries h1's edges onto h2's."""
    if (h1.r, h1.n, len(h1.edges)) != (h2.r, h2.n, len(h2.edges)):
        return False
    target = set(h2.edges)
    return any(
        {tuple(sorted(perm[v] for v in e)) for e in h1.edges} == target
        for perm in itertools.permutations(range(h1.n))
    )


def swap_one_edge(rng, graph):
    """Replace one edge by one non-edge, keeping the edge count."""
    universe = list(itertools.combinations(range(graph.n), graph.r))
    edges = frozenset(graph.edges)
    absent = [e for e in universe if e not in edges]
    if not graph.edges or not absent:
        return graph
    drop = graph.edges[int(rng.integers(len(graph.edges)))]
    add = absent[int(rng.integers(len(absent)))]
    return Hypergraph(graph.r, graph.n, [e for e in graph.edges if e != drop] + [add])


class TestIsomorphism:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_against_permutation_oracle(self, r):
        rng = np.random.default_rng(40 + r)
        answers = set()
        for n in range(7):
            for _ in range(6):
                h1 = random_graph(rng, r, n, 0.5)
                perm = tuple(int(v) for v in rng.permutation(n))
                for h2 in (
                    h1.relabel(perm),
                    swap_one_edge(rng, h1).relabel(perm),
                    random_graph(rng, r, n, 0.5),
                ):
                    phi = are_isomorphic(h1, h2)
                    want = brute_force_isomorphic(h1, h2)
                    assert (phi is not None) == want
                    answers.add(want)
                    if phi is not None:
                        assert sorted(phi) == list(range(n))
                        assert h1.relabel(phi) == h2
        assert answers == {True, False}

    def test_dense_pair_prunes_like_its_complement(self):
        # tight 11-cycle against tight 5- and 6-cycles: same degrees, not
        # isomorphic.  Closing non-edges keeps the dense complements as cheap
        # as the sparse pair; edge closings alone expand about 278,000 nodes.
        def cycle(n, offset=0):
            return [tuple(sorted((i + k) % n + offset for k in range(3))) for i in range(n)]

        def complement(h):
            return Hypergraph(3, h.n, set(itertools.combinations(range(h.n), 3)) - set(h.edges))

        one = Hypergraph(3, 11, cycle(11))
        two = Hypergraph(3, 11, cycle(5) + cycle(6, 5))
        full = [(1 << 11) - 1] * 11
        for a, b in ((one, two), (complement(one), complement(two))):
            assert are_isomorphic(a, b) is None
            nodes = homomorphism._search(a, b, list(range(11)), lambda images: True, classes=full)
            assert nodes < 500

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_injective_mode_finds_induced_copies(self, r):
        # with classes, the search enumerates the injective maps under which
        # every r-set of the source is an edge exactly when its image is one
        rng = np.random.default_rng(60 + r)
        for _ in range(20):
            source = random_graph(rng, r, int(rng.integers(0, 5)), 0.5)
            target = random_graph(rng, r, int(rng.integers(0, 6)), 0.5)
            source_edges, target_edges = frozenset(source.edges), frozenset(target.edges)
            want = [
                images
                for images in itertools.permutations(range(target.n), source.n)
                if all(
                    (e in source_edges)
                    == (tuple(sorted(images[v] for v in e)) in target_edges)
                    for e in itertools.combinations(range(source.n), r)
                )
            ]
            got = []

            def record(images):
                got.append(images)
                return True

            full = (1 << target.n) - 1
            homomorphism._search(
                source, target, list(range(source.n)), record, classes=[full] * source.n
            )
            assert got == want


class TestPartialEmbedding:
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_holds(self, t):
        assert partial_embedding_check(t)

    def test_range_checked(self):
        with pytest.raises(Exception):
            partial_embedding_check(5)


class TestFamilyMembership:
    def test_k5_in_family(self):
        assert in_family_FM(K5, gamma(2), 4 * 6 * 6)

    def test_k4_not_in_family(self):
        assert not in_family_FM(K4, gamma(2), 144)

    def test_vertex_budget(self):
        big = Hypergraph.empty(3, 10)
        assert not in_family_FM(big, gamma(2), 9)


class TestHomProperties:
    def test_composition(self):
        f = blowup(BlowupSpec(K4, (2, 1, 1, 1)))
        phi = find_homomorphism(f, K4)
        psi = find_homomorphism(K4, gamma(2))
        composed = phi.compose(psi)
        assert composed.is_homomorphism(f, gamma(2))

    def test_blowup_invariance_seed(self):
        rng = np.random.default_rng(3)
        target = gamma(1)
        checked = 0
        while checked < 20:
            n = int(rng.integers(3, 5))
            universe = list(itertools.combinations(range(n), 3))
            source = Hypergraph(3, n, [e for e in universe if rng.random() < 0.5])
            if not is_colorable(source, target):
                continue
            sizes = tuple(int(rng.integers(1, 3)) for _ in range(n))
            blown = blowup(BlowupSpec(source, sizes))
            assert is_colorable(blown, target)
            checked += 1

    def test_gamma_blowup_shadows_have_no_large_clique(self):
        rng = np.random.default_rng(4)
        for t in (1, 2, 3):
            base = gamma(t)
            for _ in range(3):
                sizes = tuple(int(rng.integers(0, 3)) for _ in range(base.n))
                h = blowup(BlowupSpec(base, sizes))
                assert h.shadow_clique_free(t + 4)

    def test_two_covered_hom_gives_subgraph_copy(self):
        # for a two-covered source, a homomorphism forces an injective copy
        rng = np.random.default_rng(6)
        sources = [
            Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            Hypergraph(3, 3, [(0, 1, 2)]),
        ]
        checked = 0
        while checked < 12:
            n = int(rng.integers(4, 7))
            universe = list(itertools.combinations(range(n), 3))
            target = Hypergraph(3, n, [e for e in universe if rng.random() < 0.45])
            for source in sources:
                assert source.is_two_covered()
                assert (find_homomorphism(source, target) is not None) == has_subgraph_copy(
                    source, target
                )
            checked += 1


class TestVertexMap:
    def test_validation(self):
        with pytest.raises(Exception):
            VertexMap(3, 2, (0, 1, 2))

    def test_callable(self):
        phi = VertexMap(3, 5, (4, 0, 2))
        assert phi(0) == 4 and phi(2) == 2

    def test_images_and_range(self):
        assert VertexMap(0, 0, ()).images == ()
        assert VertexMap(2, 3, np.array([2, 0])).images == (2, 0)
        for images in ((0, 3), (-1, 0)):
            with pytest.raises(InvalidArgumentError, match="image vertex out of range"):
                VertexMap(2, 3, images)
        with pytest.raises(InvalidArgumentError, match="need 2 images, got 1"):
            VertexMap(2, 3, (0,))

    def test_library_maps_equal_validated_ones(self):
        # maps the library builds skip __post_init__; they must be the same values
        source = blowup(BlowupSpec(gamma(3), (2, 1, 1, 2, 1, 1, 2)))
        maps = (enumerate_endomorphisms(gamma(3)) + enumerate_endomorphisms(gamma(1))
                + enumerate_homomorphisms(K4, gamma(2)) + [find_homomorphism(source, gamma(3))])
        for phi in maps:
            checked = VertexMap(phi.from_n, phi.to_n, phi.images)
            assert phi == checked and hash(phi) == hash(checked)
            assert type(phi.images) is tuple and all(type(w) is int for w in phi.images)


def sorted_tuple_is_homomorphism(phi, source, target):
    """Reference check: each edge image, sorted, is r distinct vertices
    forming a target edge."""
    target_edges = set(target.edges)
    for e in source.edges:
        image = tuple(sorted(phi.images[v] for v in e))
        if len(set(image)) != source.r or image not in target_edges:
            return False
    return True


class TestMaskCheck:
    """``is_homomorphism`` tests edge images as bitmasks."""

    def test_against_sorted_tuple_reference(self):
        rng = np.random.default_rng(110)
        seen = set()
        for _ in range(400):
            r = int(rng.integers(1, 5))
            target_r = r if rng.random() < 0.75 else int(rng.integers(1, 5))
            source = random_graph(rng, r, int(rng.integers(0, 6)), float(rng.uniform(0, 0.5)))
            target = random_graph(rng, target_r, int(rng.integers(0, 7)), float(rng.uniform(0.4, 1)))
            # to_n may differ from target.n: images past the target match no edge
            to_n = max(target.n + int(rng.integers(-1, 3)), 1 if source.n else 0)
            # a small pool of images makes collapsed edges common
            pool = rng.permutation(to_n)[: int(rng.integers(1, to_n + 1))] if to_n else []
            maps = [VertexMap(source.n, to_n, tuple(int(v) for v in rng.choice(pool, source.n)))
                    if source.n else VertexMap(0, to_n, ())]
            if source.r == target.r and to_n == target.n:
                maps += enumerate_homomorphisms(source, target)[:3]
            for phi in maps:
                want = sorted_tuple_is_homomorphism(phi, source, target)
                assert phi.is_homomorphism(source, target) == want
                collapses = any(len({phi.images[v] for v in e}) < r for e in source.edges)
                seen.add((want, collapses, source.r == target.r, bool(source.edges)))
        # every kind of case came up: homomorphisms, collapsed images,
        # uniformity mismatches with and without source edges
        assert {(True, False, True, True), (False, True, True, True), (False, False, False, True),
                (True, False, False, False)} <= seen

    def test_collapse_onto_a_smaller_edge(self):
        # 012 -> {0, 1} has the bits of the 2-edge 01, but is no homomorphism
        phi = VertexMap(3, 2, (0, 0, 1))
        pair = Hypergraph(2, 2, [(0, 1)])
        assert not phi.is_homomorphism(Hypergraph(3, 3, [(0, 1, 2)]), pair)
        assert phi.is_homomorphism(Hypergraph.empty(3, 3), pair)


def unseeded_injective(source, target, order, first=False):
    """``_search`` in injective mode with every domain the full vertex set."""
    found = []

    def record(images):
        found.append(images)
        return not first

    full = (1 << target.n) - 1
    homomorphism._search(source, target, order, record, classes=[full] * source.n)
    return found


class TestLinkProfileClasses:
    """Seeding with link-profile classes prunes no solution."""

    @pytest.mark.parametrize("t", range(1, 7))
    def test_gamma_endomorphisms(self, t):
        graph = gamma(t)
        got = [phi.images for phi in enumerate_endomorphisms(graph)]
        assert got == unseeded_injective(graph, graph, list(range(graph.n)))

    def test_random_two_covered_3_graphs(self):
        rng = np.random.default_rng(120)
        for n in range(3, 9):
            for _ in range(3):
                graph = random_two_covered(rng, 3, n)
                got = [phi.images for phi in enumerate_endomorphisms(graph)]
                assert got == unseeded_injective(graph, graph, list(range(n)))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_first_isomorphism(self, r):
        rng = np.random.default_rng(130 + r)
        answers = set()
        for n in range(8):
            for _ in range(4):
                h1 = random_graph(rng, r, n, 0.5)
                perm = tuple(int(v) for v in rng.permutation(n))
                for h2 in (
                    h1.relabel(perm),
                    swap_one_edge(rng, h1).relabel(perm),
                    random_graph(rng, r, n, 0.5),
                ):
                    degrees = h1.degrees()
                    order = sorted(range(n), key=lambda v: (-degrees[v], v))
                    want = unseeded_injective(h1, h2, order, first=True)
                    got = are_isomorphic(h1, h2)
                    assert got == (want[0] if want else None)
                    answers.add(got is not None)
        assert answers == {True, False}

    @pytest.mark.parametrize("t", range(3, 7))
    def test_vertex_before_the_specials_stands_alone(self, t):
        # degrees put vertex t-1 of gamma(t) with the rest of the head
        graph = gamma(t)
        profiles = homomorphism._link_profiles(graph)
        assert [v for v in range(graph.n) if profiles[v] == profiles[t - 1]] == [t - 1]
        degrees = graph.degrees()
        assert degrees[t - 1] == degrees[0]
        assert [p[0] for p in profiles] == degrees


class TestDebugLog:
    def records(self, caplog, run):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="turan.homomorphism"):
            run()
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        return [r.getMessage() for r in caplog.records]

    def test_quiet_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="turan"):
            enumerate_endomorphisms(gamma(3))
            are_isomorphic(K4, K4)
        assert not caplog.records

    @pytest.mark.parametrize(
        "t, orbits, searches, nodes",
        [
            (3, [2, 1, 1, 4, 1, 1, 1], 4, 26),
            (4, [3, 2, 1, 1, 4, 1, 1, 1], 6, 43),
            (5, [4, 3, 2, 1, 1, 4, 1, 1, 1], 9, 71),
            (6, [5, 4, 3, 2, 1, 1, 4, 1, 1, 1], 13, 112),
        ],
    )
    def test_two_covered_endomorphisms(self, caplog, t, orbits, searches, nodes):
        # the index-order injective search expands 38, 117, 472 and 2,365
        # nodes here; link profiles are gamma(t)'s orbits, so every first
        # hit is found
        n = t + 4
        assert math.prod(orbits) == 4 * math.factorial(t - 1)
        assert self.records(caplog, lambda: enumerate_endomorphisms(gamma(t))) == [
            "endomorphisms: two-covered, coset search",
            f"search: cosets, 3 seed classes, {comb(n, 3)} r-sets listed, "
            f"{searches} first-hit searches, 0 found nothing, {nodes} nodes",
            f"cosets: orbit sizes {orbits}, group order {math.prod(orbits)}",
        ]

    def test_first_hit_that_finds_nothing(self, caplog):
        # 0 and 4 share a link profile, as do 1 and 3; the one automorphism
        # besides the identity swaps both pairs, so with 0 fixed the first-hit
        # search for 1 -> 3 finds nothing
        graph = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 3, 4),
                                  (1, 3, 4), (2, 3, 4)])
        assert self.records(caplog, lambda: enumerate_endomorphisms(graph)) == [
            "endomorphisms: two-covered, coset search",
            "search: cosets, 3 seed classes, 10 r-sets listed, "
            "2 first-hit searches, 1 found nothing, 12 nodes",
            "cosets: orbit sizes [2, 1, 1, 1, 1], group order 2",
        ]
        got = [m.images for m in enumerate_endomorphisms(graph)]
        assert got == brute_force_homomorphisms(graph, graph)

    def test_limit_below_the_group_order(self, caplog):
        with pytest.raises(BudgetExceededError):
            self.records(caplog, lambda: enumerate_endomorphisms(gamma(3), limit=5))
        assert [r.getMessage() for r in caplog.records] == [
            "endomorphisms: two-covered, coset search",
            "search: cosets, 3 seed classes, 35 r-sets listed, "
            "4 first-hit searches, 0 found nothing, 26 nodes",
            "cosets: orbit sizes [2, 1, 1, 4, 1, 1, 1], group order 8",
            "cosets: group order above the limit of 5, index-order search",
            "search: injective, 3 seed classes, 35 r-sets listed, 30 nodes",
        ]

    def test_general_search(self, caplog):
        assert self.records(caplog, lambda: enumerate_endomorphisms(gamma(1))) == [
            "endomorphisms: not two-covered, general search",
            "search: general, 294 nodes",
        ]
        nodes = search_homomorphism(K4, gamma(2)).nodes_expanded
        assert self.records(caplog, lambda: search_homomorphism(K4, gamma(2))) == [
            f"search: general, 4 vertices in 4 twin classes, 1 clone chains, {nodes} nodes"
        ]
        # gamma(3) is twin-free; its vertices 0 and 1 swap
        source = blowup(BlowupSpec(gamma(3), (3, 3, 2, 3, 2, 3, 3)))
        assert self.records(caplog, lambda: search_homomorphism(source, gamma(3))) == [
            "search: general, 19 vertices in 7 twin classes, 1 clone chains, 7 nodes"
        ]
        # without part 2 it is a blowup of K4: parts 3 and 4 are twins, as
        # are 5 and 6, and the four classes are clones
        source = blowup(BlowupSpec(gamma(3), (4, 1, 0, 2, 3, 2, 4)))
        assert self.records(caplog, lambda: search_homomorphism(source, gamma(3))) == [
            "search: general, 16 vertices in 4 twin classes, 1 clone chains, 4 nodes"
        ]

    def test_isomorphism(self, caplog):
        # relabelled K4: one class of four, C(4, 3) r-sets
        assert self.records(caplog, lambda: are_isomorphic(K4, K4.relabel((3, 1, 0, 2)))) == [
            "search: injective, 1 seed classes, 4 r-sets listed, 4 nodes"
        ]
        # tight 11-cycle against tight 5- and 6-cycles: equal degrees, unequal
        # link profiles, so no search runs
        def cycle(n, offset=0):
            return [tuple(sorted((i + k) % n + offset for k in range(3))) for i in range(n)]

        one, two = Hypergraph(3, 11, cycle(11)), Hypergraph(3, 11, cycle(5) + cycle(6, 5))
        assert sorted(one.degrees()) == sorted(two.degrees())
        assert self.records(caplog, lambda: are_isomorphic(one, two)) == []
