"""Blowups, crossing operations, the gamma family, counts, density curves."""

import itertools
import logging
import random
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest

from turan import (
    BlowupSpec,
    BudgetExceededError,
    Hypergraph,
    InvalidArgumentError,
    MultilinearPoly,
    PreconditionError,
    UnsupportedUniformityError,
    are_isomorphic,
    blowup,
    blowup_edge_count,
    count_extremal_profiles,
    crossed_blowup,
    double_vertex,
    extremal_blowup_search,
    feasible_limit,
    feasible_point,
    gamma,
    gamma_lagrangian,
    k_crossed_blowup,
    tight_cycle,
)
from turan import constructions, maximize
from turan.constructions import _blowup_shadow_count
from turan.polynomial import PolyKernel

K4 = Hypergraph.complete(3, 4)
TWO_EDGE_BASE = Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)])


def random_3graph(seed: int, n: int) -> Hypergraph:
    """A fixed 3-graph on n vertices keeping each triple with probability 1/2."""
    rng = random.Random(seed)
    triples = itertools.combinations(range(n), 3)
    return Hypergraph(3, n, [e for e in triples if rng.random() < 0.5])


class TestBlowup:
    def test_balanced_complete(self):
        spec = BlowupSpec(K4, (3, 3, 3, 3))
        h = blowup(spec)
        assert h.n == 12 and len(h.edges) == 108 == blowup_edge_count(spec)

    def test_unit_sizes_identity(self):
        spec = BlowupSpec(tight_cycle(5), (1,) * 5)
        assert blowup(spec) == tight_cycle(5)

    def test_zero_part_matches_deleted_vertex(self):
        spec = BlowupSpec(K4, (2, 2, 2, 0))
        without = K4.induced([0, 1, 2])
        assert are_isomorphic(blowup(spec), blowup(BlowupSpec(without, (2, 2, 2)))) is not None

    def test_zero_on_every_edge(self):
        spec = BlowupSpec(Hypergraph(3, 4, [(0, 1, 3)]), (2, 2, 5, 0))
        assert blowup_edge_count(spec) == 0

    def test_gamma2_support_on_complete_block(self):
        # only the parts {0,1,2,5} survive; they induce a complete block
        spec = BlowupSpec(gamma(2), (3, 3, 3, 0, 0, 3))
        assert blowup_edge_count(spec) == 108

    def test_parts_are_contiguous_blocks(self):
        h = blowup(BlowupSpec(Hypergraph(3, 3, [(0, 1, 2)]), (2, 1, 2)))
        # part 0 = {0,1}, part 1 = {2}, part 2 = {3,4}
        assert set(h.edges) == {
            (0, 2, 3), (0, 2, 4), (1, 2, 3), (1, 2, 4),
        }

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            blowup(BlowupSpec(K4, (30, 30, 30, 30)), budget=1000)

    def test_sizes_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            BlowupSpec(K4, (1, 2, 3))

    def test_count_matches_materialization_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(2, 4))
            n = int(rng.integers(r, 6))
            universe = list(itertools.combinations(range(n), r))
            edges = [e for e in universe if rng.random() < 0.5]
            base = Hypergraph(r, n, edges)
            spec = BlowupSpec(base, tuple(int(rng.integers(0, 4)) for _ in range(n)))
            assert len(blowup(spec).edges) == blowup_edge_count(spec)

    def test_shadow_count_matches_materialization_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(3, 7))
            universe = list(itertools.combinations(range(n), 3))
            base = Hypergraph(3, n, [e for e in universe if rng.random() < 0.4])
            spec = BlowupSpec(base, tuple(int(rng.integers(0, 4)) for _ in range(n)))
            assert _blowup_shadow_count(spec) == len(blowup(spec).shadow().edges)

    def test_matches_checked_constructor(self):
        rng = random.Random(7)
        for _ in range(150):
            r = rng.randint(1, 4)
            n = rng.randint(r, 7)
            universe = list(itertools.combinations(range(n), r))
            base = Hypergraph(r, n, [e for e in universe if rng.random() < 0.4])
            sizes = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
            offsets = [sum(sizes[:v]) for v in range(n)]
            edges = [
                images
                for e in base.edges
                for images in itertools.product(
                    *(range(offsets[v], offsets[v] + sizes[v]) for v in e)
                )
            ]
            got = blowup(BlowupSpec(base, sizes))
            assert got == Hypergraph(r, sum(sizes), edges)
            assert all(type(v) is int for e in got.edges for v in e)

    def test_count_is_polynomial_value(self):
        spec = BlowupSpec(gamma(2), (3, 3, 1, 2, 2, 1))
        poly = MultilinearPoly.from_hypergraph(gamma(2))
        assert blowup_edge_count(spec) == poly.evaluate([Fraction(s) for s in spec.part_sizes])


class TestCrossedBlowup:
    def test_two_edge_base_exact_edges(self):
        got = crossed_blowup(TWO_EDGE_BASE, (2, 3))
        assert set(got.edges) == {
            (0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
        }

    def test_complete_size(self):
        got = crossed_blowup(K4, (2, 3))
        assert got.n == 6 and len(got.edges) == 12

    def test_induced_copies_on_clone_swaps(self):
        # replacing one pair vertex by its clone induces the base back
        for base, pair in ((K4, (2, 3)), (Hypergraph.complete(3, 5), (3, 4)), (TWO_EDGE_BASE, (2, 3))):
            got = crossed_blowup(base, pair)
            v1, v2 = pair
            c1, c2 = base.n, base.n + 1
            u1 = [v for v in range(base.n) if v != v2] + [c2]
            u2 = [v for v in range(base.n) if v != v1] + [c1]
            assert are_isomorphic(got.induced(u1), base) is not None
            assert are_isomorphic(got.induced(u2), base) is not None

    def test_two_covered_preserved(self):
        rng = np.random.default_rng(1)
        seen = {True: 0, False: 0}
        checked = 0
        while checked < 50:
            n = int(rng.integers(4, 7))
            universe = list(itertools.combinations(range(n), 3))
            base = Hypergraph(3, n, [e for e in universe if rng.random() < 0.55])
            pairs = [
                p
                for p in itertools.combinations(range(n), 2)
                if base.codegree(p).count >= 2
            ]
            if not pairs:
                continue
            pair = pairs[int(rng.integers(0, len(pairs)))]
            crossed = crossed_blowup(base, pair)
            assert crossed.is_two_covered() == base.is_two_covered()
            seen[base.is_two_covered()] += 1
            checked += 1
        assert seen[True] >= 5 and seen[False] >= 5

    def test_codegree_too_small(self):
        with pytest.raises(PreconditionError):
            crossed_blowup(Hypergraph(3, 4, [(0, 1, 2)]), (0, 1))

    def test_wrong_uniformity(self):
        with pytest.raises(UnsupportedUniformityError):
            crossed_blowup(Hypergraph.complete(4, 5), (0, 1))


class TestKCrossedBlowup:
    def test_three_axis_example(self):
        base = Hypergraph(3, 5, [(0, 3, 4), (1, 3, 4), (2, 3, 4)])
        got = k_crossed_blowup(base, (3, 4), 3)
        assert got.n == 11 and len(got.edges) == 48
        # cube vertices are 3..10 in bit-string order, top bit = first axis;
        # u_i's link is the complete bipartite graph across axis i
        sides = {
            0: ({3, 4, 5, 6}, {7, 8, 9, 10}),
            1: ({3, 4, 7, 8}, {5, 6, 9, 10}),
            2: ({3, 5, 7, 9}, {4, 6, 8, 10}),
        }
        for u, (zeros, ones) in sides.items():
            expect = {tuple(sorted((a, b))) for a in zeros for b in ones}
            assert set(got.link(u).edges) == expect

    def test_k2_matches_crossed_blowup(self):
        # the third base has an edge, (2, 3, 4), that avoids the pair
        avoiding = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        for base, pair in ((K4, (2, 3)), (TWO_EDGE_BASE, (2, 3)), (avoiding, (0, 1))):
            a = k_crossed_blowup(base, pair, 2)
            b = crossed_blowup(base, pair)
            assert are_isomorphic(a, b) is not None

    def test_k_too_large(self):
        with pytest.raises(PreconditionError):
            k_crossed_blowup(TWO_EDGE_BASE, (2, 3), 3)

    def test_k_minimum(self):
        with pytest.raises(InvalidArgumentError):
            k_crossed_blowup(K4, (2, 3), 1)


class TestGamma:
    def test_gamma2_shape(self):
        g2 = gamma(2)
        assert g2.n == 6 and len(g2.edges) == 12

    def test_gamma1_shape(self):
        g1 = gamma(1)
        assert g1.n == 6 and len(g1.edges) == 8

    def test_codegree_table_all_t(self):
        for t in (1, 2, 3, 4):
            g = gamma(t)
            if t == 1:
                continue  # the head block degenerates; covered separately below
            for i, j in itertools.combinations(range(t + 4), 2):
                got = g.codegree((i, j)).count
                if j < t:
                    assert got == t + 2
                elif i < t:
                    assert got == t + 1
                elif {i, j} in ({t, t + 3}, {t + 1, t + 2}):
                    assert got == t
                elif {i, j} in ({t, t + 2}, {t + 1, t + 3}):
                    assert got == t - 1
                else:
                    assert got == 1

    def test_gamma1_special_block_codegrees(self):
        g = gamma(1)
        assert g.codegree((2, 5)).count == 2 and g.codegree((3, 4)).count == 2
        assert g.codegree((2, 4)).count == 1 and g.codegree((3, 5)).count == 1
        assert g.codegree((2, 3)).count == 1 and g.codegree((4, 5)).count == 1
        assert g.codegree((0, 1)).count == 0

    def test_complete_subgraph_positions(self):
        # the only (t+2)-sets inducing a complete 3-graph are the two crossed blocks
        for t in (2, 3):
            g = gamma(t)
            expect = {
                frozenset(range(t)) | {t, t + 3},
                frozenset(range(t)) | {t + 1, t + 2},
            }
            found = set()
            for subset in itertools.combinations(range(t + 4), t + 2):
                induced = g.induced(subset)
                if len(induced.edges) == comb(t + 2, 3):
                    found.add(frozenset(subset))
            assert found == expect

    def test_link_isomorphism_classes(self):
        for t in (1, 2, 3, 4):
            g = gamma(t)
            head = 2 if t == 1 else t
            heads = [g.link(v) for v in range(head)]
            specials = [g.link(v) for v in range(head, g.n)]
            for a, b in itertools.combinations(heads, 2):
                assert are_isomorphic(a, b) is not None
            for a, b in itertools.combinations(specials, 2):
                assert are_isomorphic(a, b) is not None

    def test_clone_pairs_induce_base_blocks(self):
        g2 = gamma(2)
        for block in ([0, 1, 2, 5], [0, 1, 3, 4]):
            assert are_isomorphic(g2.induced(block), K4) is not None

    def test_bad_t(self):
        with pytest.raises(InvalidArgumentError):
            gamma(0)

    def test_lagrangian_values(self):
        assert gamma_lagrangian(1) == Fraction(1, 27)
        assert gamma_lagrangian(2) == Fraction(1, 16)
        assert gamma_lagrangian(3) == Fraction(2, 25)


class TestDoubleVertex:
    def test_shared_vertex_example(self):
        base = Hypergraph(3, 5, [(0, 1, 4), (2, 3, 4)])
        assert double_vertex(base, 4) == Hypergraph(
            3, 6, [(0, 1, 4), (0, 1, 5), (2, 3, 4), (2, 3, 5)]
        )

    def test_isolated_vertex(self):
        base = Hypergraph(3, 4, [(0, 1, 2)])
        doubled = double_vertex(base, 3)
        assert doubled.n == 5 and doubled.edges == base.edges

    def test_clone_has_identical_link(self):
        base = gamma(2)
        doubled = double_vertex(base, 2)
        clone_link = {e for e in doubled.link(6).edges}
        orig_link = {e for e in doubled.link(2).edges if 6 not in e}
        assert clone_link == orig_link
        assert doubled.codegree((2, 6)).count == 0


class TestTwoCompleteBlocksShareNothing:
    def test_blowups_of_gamma2(self):
        # two complete (t+2)-blocks overlapping in t+1 vertices force the
        # leftover pair out of every edge
        rng = np.random.default_rng(5)
        t = 2
        for _ in range(12):
            sizes = tuple(int(rng.integers(0, 3)) for _ in range(6))
            if sum(sizes) < t + 3:
                continue
            h = blowup(BlowupSpec(gamma(t), sizes))
            complete_blocks = [
                set(sub)
                for sub in itertools.combinations(range(h.n), t + 2)
                if len(h.induced(sub).edges) == comb(t + 2, 3)
            ]
            for a, b in itertools.combinations(complete_blocks, 2):
                if len(a & b) == t + 1:
                    u, v = sorted(a ^ b)
                    assert h.codegree((u, v)).count == 0


class TestExtremalSearch:
    def test_complete_n8(self):
        sizes, count = extremal_blowup_search(K4, 8)
        assert sizes == (2, 2, 2, 2) and count == 32

    def test_gamma2_n12(self):
        sizes, count = extremal_blowup_search(gamma(2), 12)
        assert count == 108

    def test_zero_vertices(self):
        sizes, count = extremal_blowup_search(K4, 0)
        assert sizes == (0, 0, 0, 0) and count == 0

    def test_local_matches_exhaustive(self):
        for base, n in ((K4, 8), (gamma(2), 12)):
            _, exhaustive = extremal_blowup_search(base, n)
            _, local = extremal_blowup_search(base, n, mode="local")
            assert local == exhaustive

    def test_mode_tie_breaks_gamma2_n60(self):
        # both optimal; exhaustive is the lex-least maximizer, local is the
        # lex-least of the local optima its restarts reach
        assert extremal_blowup_search(gamma(2), 60) == ((15, 15, 0, 15, 15, 0), 13500)
        local = extremal_blowup_search(gamma(2), 60, mode="local")
        assert local == ((15, 15, 15, 0, 0, 15), 13500)

    @pytest.mark.parametrize("base, n", [(K4, 8), (gamma(2), 12), (K4, 0)])
    def test_exact_fallback_matches_int64(self, base, n):
        results = [extremal_blowup_search(base, n, mode=mode) for mode in ("exhaustive", "local")]
        with mock.patch.object(PolyKernel, "fits_int64", return_value=False):
            for mode, expected in zip(("exhaustive", "local"), results):
                sizes, count = extremal_blowup_search(base, n, mode=mode)
                assert (sizes, count) == expected and type(count) is int

    @pytest.mark.parametrize(
        "base, n",
        [(gamma(2), 7), (gamma(2), 25), (gamma(2), 90), (gamma(3), 31), (gamma(4), 60)]
        + [(random_3graph(seed, v), n) for seed, v, n in ((1, 5, 17), (2, 6, 40), (3, 7, 23))],
    )
    def test_local_no_unit_transfer_improves(self, base, n):
        sizes, count = extremal_blowup_search(base, n, mode="local")
        assert sum(sizes) == n and count == blowup_edge_count(BlowupSpec(base, sizes))
        for src, dst in itertools.permutations(range(base.n), 2):
            if sizes[src]:
                moved = list(sizes)
                moved[src] -= 1
                moved[dst] += 1
                assert blowup_edge_count(BlowupSpec(base, tuple(moved))) <= count

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            extremal_blowup_search(gamma(2), 100, budget=1000)

    def test_unknown_mode(self):
        with pytest.raises(InvalidArgumentError):
            extremal_blowup_search(K4, 4, mode="annealing")


def sequential_local_search(graph, n, seed):
    """The local search one ascent at a time: restart 0 from the rounded
    maximizer, then each perturbed restart drawn and climbed in turn."""
    poly = MultilinearPoly.from_hypergraph(graph)
    kernel = poly.kernel
    m = graph.n
    result = maximize(poly, starts=max(20, 5 * m), seed=seed)
    target = result.maximizer.as_float_array() * n
    rng = np.random.default_rng(seed)
    src, dst = np.nonzero(~np.eye(m, dtype=bool))
    unit = np.eye(m, dtype=np.int64)
    moves = unit[dst] - unit[src]

    def round_to_composition(weights):
        floors = np.clip(np.floor(weights).astype(int), 0, None)
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

    def ascend(sizes):
        current = np.array(sizes, dtype=np.int64)
        value = kernel.exact_values(current[None, :], n)[0]
        while True:
            rows = (current + moves)[current[src] > 0]
            if not len(rows):
                break
            values = kernel.exact_values(rows, n)
            k = int(np.argmax(values))
            if values[k] <= value:
                break
            current, value = rows[k], values[k]
        return tuple(int(v) for v in current), int(value)

    best_sizes, best_value = ascend(round_to_composition(target))
    for _ in range(constructions._LOCAL_RESTARTS - 1):
        noise = rng.normal(0.0, 0.75, size=m)
        sizes, value = ascend(round_to_composition(np.clip(target + noise, 0, None)))
        if value > best_value or (value == best_value and sizes < best_sizes):
            best_sizes, best_value = sizes, value
    return best_sizes, best_value


LOCKSTEP_BASES = {f"gamma{t}": gamma(t) for t in (1, 2, 3, 4)} | {"C5": tight_cycle(5)} | {
    f"random{v}": random_3graph(seed, v) for seed, v in ((4, 5), (5, 6), (6, 7), (7, 8))
}


class TestLockstepLocalSearch:
    """All restarts climb together; each takes the same steps, and the search
    the same answer, as the ascents run one at a time."""

    @pytest.mark.parametrize("name", LOCKSTEP_BASES)
    @pytest.mark.parametrize("n, seed", [(0, 0), (1, 3), (7, 0), (29, 1), (90, 2), (481, 5)])
    def test_matches_sequential(self, name, n, seed):
        base = LOCKSTEP_BASES[name]
        got = extremal_blowup_search(base, n, mode="local", seed=seed)
        assert got == sequential_local_search(base, n, seed)
        assert all(type(v) is int for v in (*got[0], got[1]))

    def test_object_integers(self, caplog):
        # n**3 edge counts past the int64 bound are scored as Python integers
        n = 10**7
        with caplog.at_level(logging.DEBUG, logger="turan.constructions"):
            got = extremal_blowup_search(gamma(2), n, mode="local")
        assert got == sequential_local_search(gamma(2), n, 0)
        assert got[1] == n**3 // 16 and type(got[1]) is int
        (record,) = [r for r in caplog.records if r.name == "turan.constructions"]
        assert record.getMessage().endswith(" in object integers")

    def test_single_vertex_base(self):
        # no unit transfer exists: every restart stops where it starts
        base = Hypergraph(1, 1, [(0,)])
        assert extremal_blowup_search(base, 5, mode="local") == ((5,), 5)

    @pytest.mark.parametrize("n", [0, 48])
    def test_debug_record(self, caplog, n):
        with caplog.at_level(logging.DEBUG, logger="turan.constructions"):
            extremal_blowup_search(gamma(2), n, mode="local")
        (record,) = [r for r in caplog.records if r.name == "turan.constructions"]
        message = record.getMessage()
        assert message.startswith(f"local search: n {n}, m 6, 20 restarts, ")
        assert message.endswith(" in int64")
        steps = int(message.split(" lockstep steps")[0].rsplit(", ", 1)[1])
        scored = int(message.split(" rows scored")[0].rsplit(", ", 1)[1])
        # 20 start rows, then at most 30 unit transfers per restart and step
        assert (steps, scored) == (0, 20) if n == 0 else 1 <= steps and 20 < scored <= 20 + 600 * steps

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="turan.constructions"):
            extremal_blowup_search(gamma(2), 48, mode="local")
        assert not [r for r in caplog.records if r.name == "turan.constructions"]

    @pytest.mark.parametrize("mode", ["exhaustive", "local"])
    def test_negative_seed(self, mode):
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -3"):
            extremal_blowup_search(K4, 8, mode=mode, seed=-3)


class TestExtremalProfiles:
    def test_t2_n12(self):
        profiles = count_extremal_profiles(2, 12)
        assert profiles.alphas == (Fraction(0), Fraction(1, 3))
        assert profiles.count == 2

    def test_t2_n48(self):
        assert count_extremal_profiles(2, 48).count == 7

    def test_profiles_attain_maximum(self):
        for n in (12, 24):
            profiles = count_extremal_profiles(2, n)
            for sizes in profiles.part_sizes:
                assert sum(sizes) == n
                assert blowup_edge_count(BlowupSpec(gamma(2), sizes)) == n**3 // 16

    def test_distinct_profiles_nonisomorphic(self):
        profiles = count_extremal_profiles(2, 12)
        graphs = [blowup(BlowupSpec(gamma(2), s)) for s in profiles.part_sizes]
        assert are_isomorphic(graphs[0], graphs[1]) is None

    def test_mirrored_profiles_isomorphic(self):
        base = gamma(2)
        left = blowup(BlowupSpec(base, (3, 3, 1, 2, 2, 1)))
        right = blowup(BlowupSpec(base, (3, 3, 2, 1, 1, 2)))
        assert are_isomorphic(left, right) is not None

    def test_t1_profiles(self):
        profiles = count_extremal_profiles(1, 12)
        assert profiles.count == 3  # m = 4: alphas 0, 1/4, 1/2
        for sizes in profiles.part_sizes:
            assert sum(sizes) == 12
            assert blowup_edge_count(BlowupSpec(gamma(1), sizes)) == 12**3 // 27

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidArgumentError):
            count_extremal_profiles(2, 13)


class TestFeasible:
    def test_limit_values(self):
        assert feasible_limit(2, Fraction(1, 2)) == feasible_limit(2, Fraction(1, 2))
        point = feasible_limit(2, Fraction(1, 2))
        assert point.shadow_density == Fraction(13, 16)
        assert point.edge_density == Fraction(3, 8)
        assert feasible_limit(2, 0).shadow_density == Fraction(3, 4)

    def test_alpha_symmetry(self):
        for k in range(5):
            a = Fraction(k, 8)
            assert feasible_limit(3, a) == feasible_limit(3, 1 - a)

    def test_shadow_range(self):
        for t in (1, 2, 3):
            lo = feasible_limit(t, 0).shadow_density
            hi = feasible_limit(t, Fraction(1, 2)).shadow_density
            assert lo == Fraction(t + 1, t + 2)
            assert hi == Fraction(t * t + 3 * t + 3, (t + 2) ** 2)

    def test_finite_point_matches_materialized_blowup(self):
        # oracle: materialize the same blowup and count everything directly
        t, alpha, n = 2, Fraction(1, 4), 32
        point = feasible_point(t, alpha, n)
        weights = [Fraction(1, 4)] * 2 + [
            alpha / 4, (1 - alpha) / 4, (1 - alpha) / 4, alpha / 4
        ]
        sizes = tuple((w * n).__floor__() for w in weights)
        h = blowup(BlowupSpec(gamma(t), sizes))
        assert point.edge_density == Fraction(len(h.edges), comb(h.n, 3))
        assert point.shadow_density == Fraction(len(h.shadow().edges), comb(h.n, 2))

    def test_convergence_at_480(self):
        # t = 1 has its own profile: a two-vertex head of weight 1/6 each
        for t, alpha in itertools.product((1, 2), (Fraction(0), Fraction(1, 4), Fraction(1, 2))):
            point = feasible_point(t, alpha, 480)
            limit = feasible_limit(t, alpha)
            assert abs(point.edge_density - limit.edge_density) <= Fraction(2, 480)
            assert abs(point.shadow_density - limit.shadow_density) <= Fraction(4, 480)

    def test_small_degenerate_point_valid(self):
        point = feasible_point(2, Fraction(1, 2), 8)
        assert 0 <= point.edge_density <= 1
        assert 0 <= point.shadow_density <= 1

    def test_too_small_to_have_densities(self):
        # at n=6 and alpha=1/2 the floors leave only two vertices
        with pytest.raises(InvalidArgumentError):
            feasible_point(2, Fraction(1, 2), 6)

    def test_alpha_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            feasible_limit(2, Fraction(3, 2))
