"""Simplex optimizer, grid oracle, segment certificates, exact derivatives."""

import copy
import itertools
import logging
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turan import (
    AsymmetryError,
    BudgetExceededError,
    Hypergraph,
    InvalidArgumentError,
    MultilinearPoly,
    PreconditionError,
    SegmentCertificate,
    SimplexPoint,
    gamma,
    gamma_lagrangian,
    gamma_permutation,
    grid_oracle,
    maximize,
    predicted_segment,
    symmetrize_point,
    tight_cycle,
    verify_segment,
)
from turan import _grid, lagrangian, polynomial
from turan.constructions import crossed_blowup, double_vertex, gamma_base
from turan.lagrangian import (
    DEFAULT_TOL,
    _check_first_order_maximum,
    _exact_derivatives,
    _concave_on_face,
    _growth_step,
    _kkt_residuals,
    _merge_twins,
)
from turan.polynomial import PolyKernel
from turan.verify import permute_point

from test_polynomial import (
    BIT_POLYS,
    assert_same_bits,
    face_rows,
    plant_twin,
    random_signed_poly,
    random_weighted_poly,
)

K4 = Hypergraph.complete(3, 4)
P_K4 = MultilinearPoly.from_hypergraph(K4)
TWO_EDGE_BASE = Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)])
#: Homogeneous polynomials with positive rational coefficients, degree 2 to 4.
WEIGHTED_POLYS = [
    random_weighted_poly(np.random.default_rng(seed), m, r)
    for seed, (m, r) in enumerate(
        ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3),
         (7, 4))
    )
]


def frac(a, b=1):
    return Fraction(a, b)


class TestSimplexPoint:
    def test_exact_construction(self):
        p = SimplexPoint([frac(1, 2), frac(1, 4), frac(1, 4)])
        assert p.exact and sum(p.coords) == 1

    def test_exact_sum_enforced(self):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint([frac(1, 2), frac(1, 4)])

    def test_exact_nonnegative(self):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint([frac(3, 2), frac(-1, 2)])

    def test_float_renormalized(self):
        p = SimplexPoint([0.5, 0.5 + 4e-13])
        assert not p.exact
        assert sum(p.coords) == pytest.approx(1.0, abs=1e-15)

    def test_float_sum_tolerance(self):
        with pytest.raises(InvalidArgumentError):
            SimplexPoint([0.5, 0.6])

    @pytest.mark.parametrize(
        "point",
        [
            SimplexPoint([frac(1, 3), frac(1, 6), frac(1, 2)]),
            # renormalized on construction: a copy must not renormalize again
            SimplexPoint([0.1, 0.2, 0.7]),
            SimplexPoint([1 / 3, 1 / 3, 1 / 3 + 1e-13]),
        ],
    )
    def test_copy_and_pickle_round_trip(self, point):
        for clone in (copy.copy(point), copy.deepcopy(point), pickle.loads(pickle.dumps(point))):
            assert type(clone) is SimplexPoint
            assert clone == point and clone.exact == point.exact
            assert clone.coords == point.coords

    def test_uniform(self):
        assert SimplexPoint.uniform(4).coords == (frac(1, 4),) * 4


class TestGridOracle:
    def test_triangle(self):
        value, point = grid_oracle(MultilinearPoly(3, {(0, 1, 2): 1}), 3)
        assert value == frac(1, 27)
        assert point.coords == (frac(1, 3),) * 3

    def test_complete_resolution_four(self):
        value, point = grid_oracle(P_K4, 4)
        assert value == frac(1, 16)
        assert point.coords == (frac(1, 4),) * 4

    def test_single_variable(self):
        value, point = grid_oracle(MultilinearPoly.variable(1, 0), 7)
        assert value == 1 and point.coords == (frac(1),)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            grid_oracle(P_K4, 1000, budget=100)

    def test_float_fallback_keeps_every_near_tie(self):
        # the 3^-40 coefficient makes the int64 scan unsafe, and in floats
        # every grid point ties at 1.0
        p = MultilinearPoly(8, {(): 1, (0,): frac(1, 3**40)})
        value, point = grid_oracle(p, 12)
        assert value == 1 + frac(1, 3**40)
        assert point.coords == (frac(1),) + (frac(0),) * 7

    def test_rational_coefficients_exact(self):
        p = MultilinearPoly(3, {(0, 1): frac(1, 3), (1, 2): frac(1, 5), (0,): frac(1, 7)})
        value, point = grid_oracle(p, 6)
        # oracle: exhaustive exact evaluation over the same grid
        best = max(
            (
                p.evaluate([frac(a, 6), frac(b, 6), frac(6 - a - b, 6)])
                for a in range(7)
                for b in range(7 - a)
            ),
        )
        assert value == best == p.evaluate(point.coords)


class TestMaximize:
    def test_complete_exact(self):
        result = maximize(P_K4)
        assert result.exact == frac(1, 16)
        assert abs(result.value - 1 / 16) <= 1e-9

    def test_cycle(self):
        result = maximize(MultilinearPoly.from_hypergraph(tight_cycle(5)))
        assert result.exact == frac(1, 25)

    def test_kkt_residual_describes_reported_maximizer(self):
        # each snapped maximizer is an exact KKT point, so the residual at
        # the reported point is at rounding level even where the ascent
        # stopped short of the tolerance
        for graph in (K4, tight_cycle(5), gamma(2)):
            poly = MultilinearPoly.from_hypergraph(graph)
            result = maximize(poly, starts=10, seed=0)
            assert result.exact is not None
            assert result.kkt_residual <= 1e-14

    def test_zero_polynomial(self):
        result = maximize(MultilinearPoly.zero(3))
        assert result.value == 0.0 and result.exact == 0
        np.testing.assert_allclose(result.maximizer.as_float_array(), np.full(3, 1 / 3))

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            maximize(MultilinearPoly.zero(0))

    @pytest.mark.parametrize(
        "terms, message",
        [
            ({(0, 1): 1, (1, 2): -1}, r"term \(1, 2\) has -1"),
            ({(0,): 1, (1, 2): 1}, "degrees 1 and 2"),
            ({(): 1, (0, 1, 2): 1}, "degrees 0 and 3"),
        ],
        ids=["negative", "mixed", "constant-and-cubic"],
    )
    def test_non_edge_polynomial_rejected(self, terms, message):
        with pytest.raises(PreconditionError, match=message):
            maximize(MultilinearPoly(3, terms))

    @pytest.mark.parametrize("value", [5, -5])
    def test_constant_accepted(self, value):
        result = maximize(MultilinearPoly.constant(3, value), starts=5)
        assert result.exact == value and result.value == value

    def test_weighted_homogeneous(self):
        # 2 x0 x1 + x1 x2 = x1 (2 x0 + x2) peaks at x0 = x1 = 1/2
        result = maximize(MultilinearPoly(3, {(0, 1): 2, (1, 2): 1}))
        assert result.exact == frac(1, 2)
        assert result.maximizer.coords == (0.5, 0.5, 0.0)

    def test_result_invariants(self):
        result = maximize(P_K4, starts=12)
        assert result.value >= result.grid_lower_bound - 1e-12
        attained = P_K4.evaluate_float(result.maximizer.as_float_array())
        assert result.value >= attained - 1e-12
        assert result.starts_used == 12

    def test_deterministic(self):
        a = maximize(MultilinearPoly.from_hypergraph(gamma(2)), starts=17, seed=5)
        b = maximize(MultilinearPoly.from_hypergraph(gamma(2)), starts=17, seed=5)
        assert a == b

    def test_oracle_sandwich(self):
        for graph in (K4, tight_cycle(5), TWO_EDGE_BASE):
            poly = MultilinearPoly.from_hypergraph(graph)
            result = maximize(poly, starts=24)
            grid = grid_oracle(poly, 20 * poly.m)
            assert float(grid.value) <= result.value + 1e-9
            assert result.value <= float(gamma_lagrangian_for(graph)) + 1e-9

    def test_cloning_invariance_quick(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            edges = [
                e
                for e in __import__("itertools").combinations(range(5), 3)
                if rng.random() < 0.6
            ]
            base = Hypergraph(3, 5, edges)
            if not base.edges:
                continue
            w = int(rng.integers(0, 5))
            a = maximize(MultilinearPoly.from_hypergraph(base), starts=30)
            b = maximize(
                MultilinearPoly.from_hypergraph(double_vertex(base, w)), starts=30
            )
            assert abs(a.value - b.value) <= 2e-9


class TestGrowthAscent:
    @given(st.data(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_row_decreases(self, data, seed):
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(2, 7))
        if data.draw(st.booleans()):
            edges = [e for e in itertools.combinations(range(m), 3) if rng.random() < 0.5]
            poly = MultilinearPoly(m, {e: 1 for e in edges})
        else:
            poly = random_weighted_poly(rng, m, data.draw(st.integers(1, min(m, 4))))
        kernel = poly.kernel
        X = rng.dirichlet(np.ones(m), size=20)
        slack = 1e-14 * (1 + sum(abs(c) for c in kernel.float_coefs))
        for _ in range(30):
            Y = _growth_step(X, kernel.gradients(X))
            np.testing.assert_allclose(Y.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (Y >= 0).all()
            assert (kernel.values(Y) >= kernel.values(X) - slack).all()
            X = Y

    @pytest.mark.parametrize("poly", WEIGHTED_POLYS, ids=lambda p: f"m{p.m}t{len(p.terms)}")
    def test_weighted_never_below_grid(self, poly):
        result = maximize(poly, seed=1)
        grid = grid_oracle(poly, 12)
        assert result.value >= float(grid.value) - 1e-12

    @pytest.mark.parametrize(
        "graph, bound",
        [(crossed_blowup(tight_cycle(5), (3, 4)), 150), (gamma(2), 120)],
        ids=["crossed-C5", "gamma(2)"],
    )
    def test_iteration_count_bound(self, graph, bound):
        # 92 and 64 batch steps at seed 0; a slower ascent shows here first
        stats = maximize(MultilinearPoly.from_hypergraph(graph)).stats
        assert stats.iterations <= bound


def reference_kkt_residuals(X, G):
    """Test-only reference: _kkt_residuals through the np.clip and .max wrappers."""
    deviation = G - np.einsum("ij,ij->i", X, G)[:, None]
    active = X > lagrangian._ACTIVE_EPS
    return np.where(active, np.abs(deviation), np.clip(deviation, 0.0, None)).max(axis=1)


def reference_growth_step(X, G):
    """Test-only reference: _growth_step through the .sum wrapper."""
    W = X * G
    total = W.sum(axis=1, keepdims=True)
    return np.divide(W, total, out=X.copy(), where=total > 0)


class TestAscentKernelBits:
    """_kkt_residuals and _growth_step, which call the ufunc reductions
    directly, give the bits of the np.clip, .max and .sum wrappers."""

    @pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "chunked"])
    @pytest.mark.parametrize(
        # from m = 9 up, numpy adds a row's x_i g_i pairwise
        "poly", BIT_POLYS + [MultilinearPoly.from_hypergraph(gamma(6))],
        ids=lambda p: f"r{p.degree()}m{p.m}t{len(p.terms)}",
    )
    def test_matches_reference(self, poly, chunked):
        kernel = PolyKernel(poly)
        rng = np.random.default_rng(poly.m)
        for rows in (1, 2, 7, 40, 81):
            for X in (face_rows(rng, rows, poly.m),
                      rng.uniform(-1.5, 1.5, size=(rows, poly.m))):
                with pytest.MonkeyPatch.context() as patch:
                    if chunked:
                        # gradients in chunks of 3 rows
                        width = kernel._derivative_table(1)[2]
                        patch.setattr(polynomial, "_CHUNK_ELEMENTS", 3 * max(width, 1))
                    G = kernel.gradients(X)
                if rows > 2:
                    # x . g = 0, so the growth step leaves the row
                    X[0], G[0, 0] = np.eye(poly.m)[0], 0.0
                    # a zero row with -0.0 partials: deviations of -0.0
                    X[1], G[1] = 0.0, -0.0
                assert_same_bits(_kkt_residuals(X, G), reference_kkt_residuals(X, G))
                assert_same_bits(_growth_step(X, G), reference_growth_step(X, G))


class TestMaximizeStats:
    def test_fields(self):
        poly = MultilinearPoly.from_hypergraph(gamma(2))
        result = maximize(poly, starts=20, grid_resolution=10)
        stats = result.stats
        assert stats.grid_resolution == 10
        assert stats.grid_points == _grid.composition_count(10, poly.m)
        assert stats.stop_reason in ("tol", "plateau", "cap")
        assert 0 <= stats.starts_converged <= 20
        assert stats.phase in ("ascent", "grid", "snap", "polish")
        assert stats.twins_merged == 0
        assert result.exact is not None
        for c in result.maximizer:
            assert (Fraction(c).limit_denominator(10**6) * stats.snap_denominator).denominator == 1
        hash(result)
        assert "stats" not in result.to_json_dict()

    def test_cap_and_tol(self):
        capped = maximize(P_K4, starts=5, max_iter=3)
        assert capped.stats.iterations == 3 and capped.stats.stop_reason == "cap"
        converged = maximize(P_K4, starts=5)
        assert converged.stats.stop_reason == "tol"
        assert converged.stats.starts_converged == 5

    def test_grid_phase(self):
        # with no ascent step, the grid's exact 1/16 beats every start
        result = maximize(MultilinearPoly.from_hypergraph(gamma(2)), starts=3, max_iter=0)
        assert result.stats.phase == "grid" and result.value == 0.0625

    def test_negative_max_iter_rejected(self):
        with pytest.raises(InvalidArgumentError):
            maximize(P_K4, max_iter=-1)

    @pytest.mark.parametrize("poly", [P_K4, MultilinearPoly.zero(3)], ids=["K4", "zero"])
    def test_negative_seed_rejected(self, poly):
        # before numpy's generator would raise its own ValueError
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
            maximize(poly, seed=-1)


def pool_graph(n):
    """The optimize workload's random n-vertex 3-graph, unrelabeled: drawn
    from a Random(2022) pool in size order 5, 6, 7, 8, each triple kept
    with probability 1/2."""
    rng = random.Random(2022)
    for size in range(5, n + 1):
        triples = list(itertools.combinations(range(size), 3))
        edges = []
        while not edges:
            edges = [e for e in triples if rng.random() < 0.5]
    return Hypergraph(3, n, edges)


def without_polish(patch):
    """Test-only reference: the ascent never reaches a polish step."""
    patch.setattr(lagrangian, "POLISH_EVERY", 10**9)


def without_twin_merge(patch):
    """Test-only reference: every variable is its own twin class."""
    patch.setattr(MultilinearPoly, "twin_classes", lambda self: tuple((i,) for i in range(self.m)))


def known_failure(polys, failing, reason):
    """``polys`` as test parameters, the one with id ``failing`` marked as a
    strict expected failure, so that a fix of ``reason`` fails as XPASS."""
    mark = pytest.mark.xfail(strict=True, reason=reason)
    return [
        pytest.param(p, marks=mark) if f"m{p.m}t{len(p.terms)}" == failing else p for p in polys
    ]


def reference(patcher, poly, **kwargs):
    with pytest.MonkeyPatch.context() as patch:
        patcher(patch)
        return maximize(poly, **kwargs)


RANDOM_7 = pool_graph(7)
RANDOM_7_DOUBLED = double_vertex(RANDOM_7, max(range(7), key=lambda v: (RANDOM_7.degree(v), -v)))
TWIN_POLYS = [
    MultilinearPoly.from_hypergraph(graph)
    for graph in (
        double_vertex(K4, 0),
        double_vertex(tight_cycle(5), 2),
        double_vertex(double_vertex(gamma(2), 3), 3),
        double_vertex(TWO_EDGE_BASE, 2),
        RANDOM_7_DOUBLED,
    )
] + [plant_twin(p, p.m - 1) for p in WEIGHTED_POLYS[:6]]


class TestTwinMerge:
    @pytest.mark.parametrize("poly", TWIN_POLYS, ids=lambda p: f"m{p.m}t{len(p.terms)}")
    def test_grid_oracle_unchanged(self, poly):
        keep = [members[0] for members in poly.twin_classes()]
        assert len(keep) < poly.m
        merged = _merge_twins(poly, keep)
        for resolution in (5, 9):
            assert grid_oracle(merged, resolution).value == grid_oracle(poly, resolution).value

    @pytest.mark.parametrize(
        "poly",
        known_failure(
            TWIN_POLYS,
            "m5t5",
            "unmerged, the optimum is a segment with denominator 381; _snap's "
            "common-denominator roundings stop at 120",
        ),
        ids=lambda p: f"m{p.m}t{len(p.terms)}",
    )
    def test_maximize_matches_unmerged(self, poly):
        result = maximize(poly, starts=20)
        unmerged = reference(without_twin_merge, poly, starts=20)
        classes = poly.twin_classes()
        assert result.stats.twins_merged == poly.m - len(classes)
        assert unmerged.stats.twins_merged == 0
        assert result.exact == unmerged.exact
        assert abs(result.value - unmerged.value) <= 1e-12
        for members in classes:
            assert all(result.maximizer[i] == 0 for i in members[1:])
        if result.exact is not None:
            denominator = result.stats.snap_denominator
            coords = [Fraction(c).limit_denominator(denominator) for c in result.maximizer]
            assert poly.evaluate(coords) == result.exact

    def test_doubling_gap_closes(self):
        # the doubled graph solves as its base, to the last digit
        base = maximize(MultilinearPoly.from_hypergraph(RANDOM_7), starts=10)
        doubled = maximize(MultilinearPoly.from_hypergraph(RANDOM_7_DOUBLED), starts=10)
        assert doubled.value == base.value


class TestPolish:
    @pytest.mark.parametrize(
        "poly",
        known_failure(
            [MultilinearPoly.from_hypergraph(g) for g in (RANDOM_7, RANDOM_7_DOUBLED)]
            + WEIGHTED_POLYS,
            "m6t9",
            "the polished rows bring every row within tol sooner, and the batch "
            "stops with the best row 1.7e-16 below the unpolished one",
        ),
        ids=lambda p: f"m{p.m}t{len(p.terms)}",
    )
    def test_never_below_unpolished(self, poly):
        result = maximize(poly, starts=10, seed=1)
        unpolished = reference(without_polish, poly, starts=10, seed=1)
        assert result.value >= unpolished.value
        assert result.exact == unpolished.exact
        assert result.kkt_residual <= DEFAULT_TOL

    @pytest.mark.parametrize("graph", [RANDOM_7, RANDOM_7_DOUBLED], ids=["random-7", "doubled"])
    def test_step_count_bound(self, graph):
        # 75 batch steps each: the first polish lands the best row on its
        # face at step 25, and the ascent stops 50 steps later on plateau;
        # unpolished, both take over 2,200
        stats = maximize(MultilinearPoly.from_hypergraph(graph), starts=10).stats
        assert stats.iterations <= 200
        if graph is RANDOM_7:
            assert stats.phase == "polish"

    @pytest.mark.parametrize(
        "graph",
        [gamma(t) for t in (1, 2, 3, 4)]
        + [Hypergraph.complete(3, n) for n in (4, 5, 6)]
        + [crossed_blowup(tight_cycle(5), (3, 4))],
        ids=[f"gamma({t})" for t in (1, 2, 3, 4)] + ["K4", "K5", "K6", "crossed-C5"],
    )
    def test_segment_optima_untouched(self, graph):
        # their zero coordinates have partials equal to the multiplier (or
        # Newton only halves its steps), so no polished row is accepted and
        # the result is the unpolished one, field for field
        poly = MultilinearPoly.from_hypergraph(graph)
        assert maximize(poly) == reference(without_polish, poly)

    def test_face_concavity(self):
        # x0 x1 peaks at (1/2, 1/2) along its edge, -x0 x1 bottoms out
        # there, and a linear polynomial is flat; a vertex has no direction
        edge, vertex = np.array([0.5, 0.5, 0.0]), np.array([0.0, 1.0, 0.0])
        for terms, peak in (({(0, 1): 1}, True), ({(0, 1): -1}, False), ({(0,): 1}, False)):
            kernel = MultilinearPoly(3, terms).kernel
            assert _concave_on_face(kernel.hessians(edge[None])[0], edge) == peak
            assert _concave_on_face(kernel.hessians(vertex[None])[0], vertex)

    def test_debug_log(self, caplog):
        poly = MultilinearPoly.from_hypergraph(RANDOM_7_DOUBLED)
        with caplog.at_level(logging.WARNING, logger="turan"):
            maximize(poly, starts=10)
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="turan"):
            maximize(poly, starts=10)
        messages = [r.getMessage() for r in caplog.records]
        assert all(r.name.startswith("turan") and r.levelno == logging.DEBUG for r in caplog.records)
        for head in ("twins: 8 variables in 7 classes", "grid: resolution", "polish at step 25",
                     "ascent: 75 steps, stopped on plateau", "snap: None"):
            assert any(m.startswith(head) for m in messages), head
        (snap,) = [m for m in messages if m.startswith("snap: ")]
        assert snap.endswith("candidates, 0 checked exactly")


def reference_snap(poly, value, x):
    """Test-only reference: the snap without the float filter, every
    candidate evaluated exactly, in order."""
    target = Fraction(value).limit_denominator(lagrangian.SNAP_DENOMINATOR)
    if abs(float(target) - value) > lagrangian.SNAP_WINDOW:
        return None
    for denom in range(1, 121):
        numerators = [round(float(c) * denom) for c in x]
        if sum(numerators) != denom or any(k < 0 for k in numerators):
            continue
        coords = [Fraction(k, denom) for k in numerators]
        if max(abs(float(c) - float(v)) for c, v in zip(coords, x)) > 0.5 / denom + 1e-9:
            continue
        if poly.evaluate(coords) == target:
            return target, tuple(coords)
    coords = [Fraction(float(c)).limit_denominator(lagrangian.SNAP_DENOMINATOR) for c in x]
    total = sum(coords)
    if total <= 0:
        return None
    coords = [c / total for c in coords]
    if poly.evaluate(coords) != target:
        return None
    return target, tuple(coords)


def snap_inputs(poly):
    """The (merged polynomial, value, point) that maximize passes to _snap."""
    calls = []
    real = lagrangian._snap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lagrangian, "_snap", lambda *args: calls.append(args) or real(*args))
        maximize(poly)
    (args,) = calls
    return args


P_RANDOM_7_DOUBLED = MultilinearPoly.from_hypergraph(RANDOM_7_DOUBLED)


class TestSnap:
    @pytest.mark.parametrize(
        "graph",
        [gamma(t) for t in (1, 2, 3, 4)] + [crossed_blowup(tight_cycle(5), (3, 4))],
        ids=[f"gamma({t})" for t in (1, 2, 3, 4)] + ["crossed-C5"],
    )
    def test_matches_reference_above_denominator_1(self, graph):
        args = snap_inputs(MultilinearPoly.from_hypergraph(graph))
        snapped, candidates, checked = lagrangian._snap(*args)
        assert snapped == reference_snap(*args)
        assert math.lcm(*(c.denominator for c in snapped[1])) > 1
        assert 1 <= checked <= candidates

    @pytest.mark.parametrize(
        "poly", [P_RANDOM_7_DOUBLED] + WEIGHTED_POLYS, ids=lambda p: f"m{p.m}t{len(p.terms)}"
    )
    def test_matches_reference(self, poly):
        merged, value, x = snap_inputs(poly)
        # and off the maximizer: a coordinate moved, the value moved within the window
        moved = x.copy()
        moved[np.argmax(moved)] += 3e-3
        for args in ((merged, value, x), (merged, value, moved / moved.sum()),
                     (merged, value + 5e-8, x), (merged, value - 2e-3, x)):
            assert lagrangian._snap(*args)[0] == reference_snap(*args)

    def test_coordinatewise_fallback(self):
        # denominators 7, 11, 13 and 1001: no common one up to 120 reproduces 150/1001
        poly = MultilinearPoly(4, {(0,): 1, (1, 2): 1})
        coords = [Fraction(1, 7), Fraction(1, 11), Fraction(1, 13), Fraction(690, 1001)]
        x = np.array([float(c) for c in coords])
        args = (poly, float(poly.evaluate(coords)), x)
        snapped, candidates, checked = lagrangian._snap(*args)
        assert snapped == reference_snap(*args) == (Fraction(150, 1001), tuple(coords))
        assert checked == 1 and candidates > 1

    def test_irrational_optimum_evaluates_nothing(self):
        args = snap_inputs(P_RANDOM_7_DOUBLED)
        calls = []
        real = MultilinearPoly.evaluate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MultilinearPoly, "evaluate", lambda p, x: calls.append(x) or real(p, x))
            snapped, candidates, checked = lagrangian._snap(*args)
            assert snapped is None and candidates > 0 and checked == 0 and not calls
            # unfiltered, every candidate is evaluated exactly
            assert reference_snap(*args) is None and len(calls) == candidates


def gamma_lagrangian_for(graph):
    known = {
        K4: frac(1, 16),
        tight_cycle(5): frac(1, 25),
        TWO_EDGE_BASE: frac(1, 27),
    }
    return known[graph]


class TestSymmetrizePoint:
    def test_raises_value_toward_optimum(self):
        x = SimplexPoint([frac(3, 10), frac(1, 5), frac(1, 4), frac(1, 4)])
        before = P_K4.evaluate(x.coords)
        out = symmetrize_point(P_K4, 0, 1, x)
        assert out.coords == (frac(1, 4),) * 4
        assert P_K4.evaluate(out.coords) == frac(1, 16) >= before

    def test_fixed_point(self):
        x = SimplexPoint([frac(1, 4)] * 4)
        assert symmetrize_point(P_K4, 0, 1, x) == x

    def test_collapses_unbalanced_pair(self):
        x = SimplexPoint([frac(1, 4), frac(1, 4), frac(1, 2), frac(0)])
        out = symmetrize_point(P_K4, 2, 3, x)
        assert out.coords == (frac(1, 4),) * 4

    def test_asymmetric_rejected(self):
        p = MultilinearPoly.from_hypergraph(tight_cycle(5))
        with pytest.raises(AsymmetryError):
            symmetrize_point(p, 3, 4, SimplexPoint.uniform(5))

    def test_float_mode(self):
        with pytest.raises(PreconditionError, match="exact point"):
            symmetrize_point(P_K4, 0, 1, SimplexPoint([0.3, 0.2, 0.25, 0.25]))


class TestPredictedSegment:
    def test_complete_pair(self):
        first, second = predicted_segment(K4, (2, 3), SimplexPoint.uniform(4))
        assert sorted(first.coords) == sorted(
            [frac(0), frac(0), frac(1, 4), frac(1, 4), frac(1, 4), frac(1, 4)]
        )
        poly = MultilinearPoly.from_hypergraph(crossed_blowup(K4, (2, 3)))
        assert poly.evaluate(first.coords) == frac(1, 16)
        assert poly.evaluate(second.coords) == frac(1, 16)

    def test_two_edge_base(self):
        z = SimplexPoint([frac(1, 3), frac(0), frac(1, 3), frac(1, 3)])
        first, second = predicted_segment(TWO_EDGE_BASE, (2, 3), z)
        poly = MultilinearPoly.from_hypergraph(crossed_blowup(TWO_EDGE_BASE, (2, 3)))
        assert poly.evaluate(first.coords) == frac(1, 27)
        assert poly.evaluate(second.coords) == frac(1, 27)

    def test_midpoint_matches_endpoints(self):
        first, second = predicted_segment(K4, (2, 3), SimplexPoint.uniform(4))
        mid = [(a + b) / 2 for a, b in zip(first.coords, second.coords)]
        poly = MultilinearPoly.from_hypergraph(crossed_blowup(K4, (2, 3)))
        assert poly.evaluate(mid) == frac(1, 16)

    def test_rejects_non_maximizer(self):
        z = SimplexPoint([frac(1, 2), frac(1, 2), frac(0), frac(0)])
        with pytest.raises(PreconditionError):
            predicted_segment(K4, (2, 3), z)

    def test_rejects_float_maximizer(self):
        with pytest.raises(PreconditionError, match="exact maximizer"):
            predicted_segment(K4, (2, 3), SimplexPoint([0.25] * 4))

    def test_first_order_check_matches_symbolic_partials(self):
        # q = p + sum a_k x_k is stationary at z for a chosen a, then one a_k is
        # sometimes nudged; the check must raise exactly when the symbolic
        # partials of q say z is not a first-order maximum
        outcomes = set()
        for seed in range(150):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 7))
            weights = [int(w) for w in rng.integers(0, 5, m) * (rng.random(m) < 0.7)]
            if not any(weights):
                weights[0] = 1
            z = SimplexPoint([frac(w, sum(weights)) for w in weights])
            p = random_signed_poly(rng, m)
            grads = [p.partial(k).evaluate(z.coords) for k in range(m)]
            level = max(grads)
            linear = {
                (k,): level - grads[k] - (0 if weights[k] else frac(int(rng.integers(0, 3)), 4))
                for k in range(m)
            }
            if rng.random() < 0.5:
                k = int(rng.integers(m))
                linear[(k,)] += frac(int(rng.choice([-2, -1, 1, 2])), 8)
            q = p + MultilinearPoly(m, linear)
            partials = [q.partial(k).evaluate(z.coords) for k in range(m)]
            common = next(g for g, w in zip(partials, weights) if w)
            stationary = all(
                g == common if w else g <= common for g, w in zip(partials, weights)
            )
            outcomes.add(stationary)
            if stationary:
                _check_first_order_maximum(q, z)
            else:
                with pytest.raises(PreconditionError):
                    _check_first_order_maximum(q, z)
        assert outcomes == {True, False}

    def test_exact_derivatives_match_symbolic_partials(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 7))
            p = random_signed_poly(rng, m)
            x = [frac(int(rng.integers(-6, 13)), int(rng.integers(1, 9))) for _ in range(m)]
            grads, hessian = _exact_derivatives(p, x, hessian=True)
            assert grads == [p.partial(k).evaluate(x) for k in range(m)]
            assert hessian == [
                [p.partial(j).partial(k).evaluate(x) for k in range(m)] for j in range(m)
            ]
            assert _exact_derivatives(p, x) == (grads, [])

    def test_rejects_asymmetric_pair(self):
        c5 = tight_cycle(5)
        with pytest.raises(AsymmetryError):
            predicted_segment(c5, (3, 4), SimplexPoint.uniform(5))

    def test_rejects_low_codegree(self):
        base = Hypergraph(3, 4, [(0, 1, 2)])
        with pytest.raises(PreconditionError):
            predicted_segment(base, (0, 1), SimplexPoint.uniform(4))


class TestVerifySegment:
    def test_gamma_segments(self):
        for t in (1, 2, 3, 4):
            if t == 1:
                base, pair = TWO_EDGE_BASE, (2, 3)
                z = SimplexPoint([frac(1, 6), frac(1, 6), frac(1, 3), frac(1, 3)])
            else:
                base, pair = Hypergraph.complete(3, t + 2), (t, t + 1)
                z = SimplexPoint.uniform(t + 2)
            first, second = predicted_segment(base, pair, z)
            poly = MultilinearPoly.from_hypergraph(gamma(t))
            perm = gamma_permutation(t)
            cert = verify_segment(
                poly,
                permute_point(first, perm),
                permute_point(second, perm),
                11,
                gamma_lagrangian(t),
            )
            assert cert and cert.failing_alpha is None and cert.proved

    def test_proved_needs_degree_plus_one_samples(self):
        base, pair = Hypergraph.complete(3, 4), (2, 3)
        first, second = predicted_segment(base, pair, SimplexPoint.uniform(4))
        poly = MultilinearPoly.from_hypergraph(gamma(2))
        perm = gamma_permutation(2)
        ends = permute_point(first, perm), permute_point(second, perm)
        deg = poly.degree()
        short = verify_segment(poly, *ends, deg, gamma_lagrangian(2))
        assert short and not short.proved
        full = verify_segment(poly, *ends, deg + 1, gamma_lagrangian(2))
        assert full and full.proved

    def test_degenerate_segment(self):
        point = SimplexPoint.uniform(4)
        assert verify_segment(P_K4, point, point, 5, frac(1, 16))

    def test_failure_reports_alpha(self):
        first = SimplexPoint([frac(1, 2), frac(1, 2), frac(0), frac(0)])
        second = SimplexPoint([frac(0), frac(0), frac(1, 2), frac(1, 2)])
        cert = verify_segment(P_K4, first, second, 5, frac(1, 16))
        assert not cert and not cert.proved
        assert cert.failing_alpha == 0

    def test_requires_exact_points(self):
        with pytest.raises(PreconditionError):
            verify_segment(
                P_K4, SimplexPoint([0.25] * 4), SimplexPoint.uniform(4), 3, frac(1, 16)
            )

    def test_gamma1_triangle_ordering_resolution(self):
        # the optimal triangle's corners pin the coordinate ordering: under
        # gamma(1)'s labels all three give 1/27, while reordering the middle
        # coordinates breaks at least one of them
        poly = MultilinearPoly.from_hypergraph(gamma(1))
        third, zero = frac(1, 3), frac(0)
        corners = [
            (third, zero, third, zero, zero, third),
            (zero, third, third, zero, zero, third),
            (zero, third, zero, third, third, zero),
        ]
        assert all(poly.evaluate(c) == frac(1, 27) for c in corners)
        shuffled = [c[:2] + (c[3], c[2]) + c[4:] for c in corners]  # swap v1 and v1'
        assert any(poly.evaluate(c) != frac(1, 27) for c in shuffled)

    @staticmethod
    def per_sample(poly, y, z, samples, target):
        """The certificate as one exact evaluation per sample, stopping at
        the first miss."""
        goal = frac(target)
        for k in range(samples):
            alpha = frac(k, samples - 1)
            point = [alpha * a + (1 - alpha) * b for a, b in zip(y.as_fractions(), z.as_fractions())]
            if poly.evaluate(point) != goal:
                return SegmentCertificate(False, alpha, samples, goal, False)
        return SegmentCertificate(True, None, samples, goal, samples >= poly.degree() + 1)

    def test_batched_certificate_matches_per_sample_loop(self):
        # wrong targets fail at the same first alpha as one evaluation per
        # sample; the crossed gamma segments stay proved
        first = SimplexPoint([frac(1, 2), frac(1, 2), frac(0), frac(0)])
        second = SimplexPoint([frac(0), frac(0), frac(1, 2), frac(1, 2)])
        values = [P_K4.evaluate([frac(k, 24)] * 2 + [frac(12 - k, 24)] * 2) for k in range(0, 13, 2)]
        cases = [(P_K4, first, second, 13, target) for target in values + [frac(-1)]]
        # x0 - 4/3 x0 x1 along (alpha, 1 - alpha) vanishes at alpha = 0 and 1/4
        bent = MultilinearPoly(2, {(0,): frac(1), (0, 1): frac(-4, 3)})
        ends = SimplexPoint([frac(1), frac(0)]), SimplexPoint([frac(0), frac(1)])
        cases.append((bent, *ends, 5, 0))
        alphas = set()
        for case in cases:
            cert = verify_segment(*case)
            assert cert == self.per_sample(*case)
            alphas.add(cert.failing_alpha)
        assert alphas == {0, frac(1, 12), frac(1, 2)}
        for t in (1, 2, 3):
            base, pair, z = gamma_base(t)
            ends = predicted_segment(base, pair, z)
            poly = MultilinearPoly.from_hypergraph(crossed_blowup(base, pair))
            for target in (gamma_lagrangian(t), gamma_lagrangian(t) + frac(1, 10**9)):
                cert = verify_segment(poly, *ends, 11, target)
                assert cert == self.per_sample(poly, *ends, 11, target)
                assert cert.proved == (target == gamma_lagrangian(t))

    def test_minimum_samples(self):
        point = SimplexPoint.uniform(4)
        with pytest.raises(InvalidArgumentError):
            verify_segment(P_K4, point, point, 1, frac(1, 16))
