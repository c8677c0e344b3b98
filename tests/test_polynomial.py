"""Exact multilinear algebra: construction, evaluation, decomposition, lift."""

import bisect
import copy
import itertools
import logging
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turan import (
    AsymmetryError,
    Hypergraph,
    InvalidArgumentError,
    MultilinearPoly,
    SplitMismatchError,
    crossed_blowup,
    gamma,
    gamma_permutation,
    grid_oracle,
    tight_cycle,
)
from turan import _grid, lagrangian, polynomial
from turan.constructions import double_vertex
from turan.polynomial import PolyKernel

K4 = Hypergraph.complete(3, 4)
P_K4 = MultilinearPoly.from_hypergraph(K4)
P_C5 = MultilinearPoly.from_hypergraph(tight_cycle(5))


def rational_points(rng, m, count, scale=40):
    for _ in range(count):
        weights = [int(rng.integers(0, scale)) for _ in range(m)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        yield [Fraction(w, total) for w in weights]


class TestFromHypergraph:
    def test_single_edge(self):
        p = MultilinearPoly.from_hypergraph(Hypergraph(3, 3, [(0, 1, 2)]))
        assert p.terms == {(0, 1, 2): Fraction(1)}

    def test_complete(self):
        assert len(P_K4.terms) == 4
        assert all(len(s) == 3 and c == 1 for s, c in P_K4.terms.items())
        assert P_K4.m == 4

    def test_empty(self):
        p = MultilinearPoly.from_hypergraph(Hypergraph.empty(3, 5))
        assert p.is_zero() and p.m == 5


class TestEvaluate:
    def test_complete_uniform(self):
        assert P_K4.evaluate([Fraction(1, 4)] * 4) == Fraction(1, 16)

    def test_cycle_uniform(self):
        assert P_C5.evaluate([Fraction(1, 5)] * 5) == Fraction(1, 25)

    def test_basis_vectors(self):
        for i in range(4):
            point = [Fraction(0)] * 4
            point[i] = Fraction(1)
            assert P_K4.evaluate(point) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            P_K4.evaluate([Fraction(1, 2)] * 3)

    def test_floats_rejected_in_exact_mode(self):
        with pytest.raises(InvalidArgumentError):
            P_K4.evaluate([0.25] * 4)
        with pytest.raises(InvalidArgumentError):
            P_K4.evaluate([Fraction(1, 4)] * 3 + [0.25])

    def test_float_variant(self):
        assert P_K4.evaluate_float([0.25] * 4) == pytest.approx(1 / 16, abs=1e-15)

    def test_constant_term(self):
        p = MultilinearPoly(3, {(): Fraction(2, 7), (0, 1): 1})
        assert p.evaluate([Fraction(1), Fraction(0), Fraction(0)]) == Fraction(2, 7)


class TestArithmetic:
    def test_zero_coefficients_dropped(self):
        p = MultilinearPoly(2, {(0,): 1}) + MultilinearPoly(2, {(0,): -1})
        assert p.is_zero()

    def test_non_multilinear_product_rejected(self):
        x0 = MultilinearPoly.variable(2, 0)
        with pytest.raises(InvalidArgumentError):
            x0 * x0

    def test_permuted(self):
        p = MultilinearPoly(3, {(0, 1): Fraction(2)})
        assert p.permuted((2, 0, 1)).terms == {(0, 2): Fraction(2)}


class TestSymmetricDecompose:
    def test_complete_pair(self):
        dec = P_K4.symmetric_decompose(2, 3)
        assert dec.p1.is_zero()
        assert dec.p2.terms == {(0, 1): Fraction(1)}
        assert dec.p3.terms == {(0,): Fraction(1), (1,): Fraction(1)}

    def test_pair_not_in_terms(self):
        p = MultilinearPoly(4, {(0, 1): 1})
        dec = p.symmetric_decompose(2, 3)
        assert dec.p1 == p and dec.p2.is_zero() and dec.p3.is_zero()

    def test_cycle_pair_raises_with_witness(self):
        with pytest.raises(AsymmetryError) as err:
            P_C5.symmetric_decompose(3, 4)
        assert err.value.witness in P_C5.terms

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_exact(self, data):
        m = data.draw(st.integers(4, 7))
        i, j = 0, 1
        rest = list(range(2, m))
        coef = st.fractions(
            min_value=-3, max_value=3, max_denominator=20
        )
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(rest, k) for k in range(0, 3)
            )
        )
        p1 = MultilinearPoly(m, {s: data.draw(coef) for s in data.draw(st.lists(st.sampled_from(subsets), max_size=4))})
        p2 = MultilinearPoly(m, {s: data.draw(coef) for s in data.draw(st.lists(st.sampled_from(subsets), max_size=4))})
        p3 = MultilinearPoly(m, {s: data.draw(coef) for s in data.draw(st.lists(st.sampled_from(subsets), max_size=4))})
        xi, xj = MultilinearPoly.variable(m, i), MultilinearPoly.variable(m, j)
        p = p1 + p2 * (xi + xj) + p3 * xi * xj
        dec = p.symmetric_decompose(i, j)
        assert dec.reconstruct(i, j) == p
        assert (dec.p1, dec.p2, dec.p3) == (p1, p2, p3)


class TestHat:
    def test_complete_pair_gives_gamma2(self):
        p4 = MultilinearPoly.variable(4, 0)
        p5 = MultilinearPoly.variable(4, 1)
        lifted = P_K4.hat(2, 3, p4, p5)
        assert lifted.m == 6
        expect = MultilinearPoly.from_hypergraph(gamma(2))
        assert lifted.permuted(gamma_permutation(2)) == expect

    def test_trivial_split_matches_double_blowup(self):
        dec = P_K4.symmetric_decompose(2, 3)
        lifted = P_K4.hat(2, 3, dec.p3, MultilinearPoly.zero(4))
        doubled = double_vertex(double_vertex(K4, 2), 3)
        assert lifted == MultilinearPoly.from_hypergraph(doubled)

    def test_no_cross_terms(self):
        p = MultilinearPoly(4, {(0, 1): 1})
        zero = MultilinearPoly.zero(4)
        lifted = p.hat(2, 3, zero, zero)
        assert lifted == MultilinearPoly(6, {(0, 1): 1})

    def test_split_mismatch(self):
        with pytest.raises(SplitMismatchError):
            P_K4.hat(2, 3, MultilinearPoly.variable(4, 0), MultilinearPoly.zero(4))

    def test_split_must_avoid_pair(self):
        bad = MultilinearPoly.variable(4, 2)
        with pytest.raises(InvalidArgumentError):
            P_K4.hat(2, 3, bad, MultilinearPoly.zero(4))

    def test_hat_symmetry_under_pair_and_clone_swap(self):
        p4 = MultilinearPoly.variable(4, 0)
        p5 = MultilinearPoly.variable(4, 1)
        lifted = P_K4.hat(2, 3, p4, p5)
        # swap (X_2, X_3) together with the clone pair (X_4, X_5)
        assert lifted.permuted((0, 1, 3, 2, 5, 4)) == lifted

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hat_properties_on_random_symmetric_polys(self, data):
        m = data.draw(st.integers(4, 6))
        i, j = 0, 1
        rest = list(range(2, m))
        coef = st.fractions(min_value=-3, max_value=3, max_denominator=10)
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(rest, k) for k in range(0, 3)
            )
        )
        def draw_poly():
            picked = data.draw(st.lists(st.sampled_from(subsets), max_size=4))
            return MultilinearPoly(m, {s: data.draw(coef) for s in picked})

        p1, p2, p3 = draw_poly(), draw_poly(), draw_poly()
        xi, xj = MultilinearPoly.variable(m, i), MultilinearPoly.variable(m, j)
        p = p1 + p2 * (xi + xj) + p3 * xi * xj
        # random split of the cross coefficient
        p4 = MultilinearPoly(
            m, {s: data.draw(coef) for s in p3.terms}
        )
        p5 = p3 - p4
        lifted = p.hat(i, j, p4, p5)
        assert lifted.m == m + 2
        swap = list(range(m + 2))
        swap[i], swap[j] = j, i
        swap[m], swap[m + 1] = m + 1, m
        assert lifted.permuted(swap) == lifted


class TestGradient:
    def test_triangle(self):
        p = MultilinearPoly(3, {(0, 1, 2): 1})
        np.testing.assert_allclose(p.gradient([1 / 3] * 3), [1 / 9] * 3)

    def test_complete_at_vertex(self):
        np.testing.assert_allclose(P_K4.gradient([1.0, 0.0, 0.0, 0.0]), np.zeros(4))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for poly in (P_K4, P_C5, MultilinearPoly.from_hypergraph(gamma(2))):
            for _ in range(34):
                x = rng.dirichlet(np.ones(poly.m)) * 0.9 + 0.05 / poly.m
                grad = poly.gradient(x)
                for k in range(poly.m):
                    xp, xm = x.copy(), x.copy()
                    xp[k] += h
                    xm[k] -= h
                    fd = (poly.evaluate_float(xp) - poly.evaluate_float(xm)) / (2 * h)
                    assert abs(grad[k] - fd) <= 1e-6 * max(1.0, abs(grad[k]))


class TestPartial:
    def test_drops_the_variable(self):
        p = MultilinearPoly(3, {(0, 1): 2, (1, 2): Fraction(1, 3), (0,): 5, (): 7})
        assert p.partial(1) == MultilinearPoly(3, {(0,): 2, (2,): Fraction(1, 3)})
        assert p.partial(0) == MultilinearPoly(3, {(1,): 2, (): 5})

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            P_K4.partial(4)


@st.composite
def signed_polys(draw, max_m=5):
    """Signed rational polynomials with terms of degree 0 to 4."""
    m = draw(st.integers(1, max_m))
    subsets = st.lists(st.integers(0, m - 1), max_size=4, unique=True)
    coefs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return MultilinearPoly(m, draw(st.lists(st.tuples(subsets, coefs), max_size=10)))


def rational_point(draw, m):
    return [
        draw(st.fractions(min_value=-1, max_value=1, max_denominator=16)) for _ in range(m)
    ]


def wide_coordinates():
    """Exact coordinates: negative, above 1, and numerators near 10**12, whose
    degree-4 products are past the int64 range."""
    big = st.builds(
        lambda sign, n, d: Fraction(sign * n, d),
        st.sampled_from([-1, 1]),
        st.integers(10**12 - 50, 10**12 + 50),
        st.integers(1, 9),
    )
    return st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=16), big)


def fraction_oracle(poly, x):
    """sum c * prod(x_i for i in S), one Fraction term at a time: exact and
    independent of the compiled kernel."""
    return sum((c * math.prod(x[i] for i in s) for s, c in poly.terms.items()), Fraction(0))


def assert_matches_oracle(poly, x):
    """evaluate, evaluate_float, gradient (against the symbolic partials) and
    an exact integer batch at x, all against fraction_oracle."""
    exact = fraction_oracle(poly, x)
    value = poly.evaluate(x)
    assert type(value) is Fraction and value == exact

    def tolerance(q):
        # float error is relative to sum |c| prod |x_i|, not to the value
        size = MultilinearPoly(q.m, {s: abs(c) for s, c in q.terms.items()})
        return 1e-12 * max(1.0, float(fraction_oracle(size, [abs(v) for v in x])))

    xf = [float(v) for v in x]
    at = poly.evaluate_float(xf)
    assert type(at) is float and abs(at - exact) <= tolerance(poly)
    grad = poly.gradient(xf)
    assert grad.shape == (poly.m,)
    for k in range(poly.m):
        partial = poly.partial(k)
        assert abs(grad[k] - fraction_oracle(partial, x)) <= tolerance(partial)
    total = math.lcm(*(v.denominator for v in x))
    row = np.array([[v.numerator * (total // v.denominator) for v in x]], dtype=object)
    coefs, scale = poly.kernel.integer_coefficients(total)
    scored = poly.kernel.batch(row.reshape(1, poly.m), coefs)
    assert Fraction(int(scored[0]), scale) == exact


def plant_twin(poly, v):
    """``poly`` with one more variable, m, whose link is the link of v."""
    terms = dict(poly.terms)
    for subset, coef in poly.terms.items():
        if v in subset:
            terms[tuple(k for k in subset if k != v) + (poly.m,)] = coef
    return MultilinearPoly(poly.m + 1, terms)


def random_signed_poly(rng, m):
    """Rational coefficients in [-3, 3] on random terms of degree 0 to 4."""
    terms = {}
    for _ in range(int(rng.integers(3, 12))):
        size = int(rng.integers(0, min(m, 4) + 1))
        subset = tuple(sorted(int(i) for i in rng.choice(m, size, replace=False)))
        terms[subset] = Fraction(int(rng.integers(-36, 37)), 12)
    return MultilinearPoly(m, terms)


def random_weighted_poly(rng, m, r):
    """Rational coefficients in (0, 3] on random terms of degree r: homogeneous
    and nonnegative, the class maximize accepts."""
    terms = {}
    for _ in range(int(rng.integers(3, 12))):
        subset = tuple(sorted(int(i) for i in rng.choice(m, r, replace=False)))
        terms[subset] = Fraction(int(rng.integers(1, 37)), 12)
    return MultilinearPoly(m, terms)


SIGNED_POLYS = [
    random_signed_poly(np.random.default_rng(seed), m)
    for seed, m in enumerate((3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7))
]


class TestTwinClasses:
    @staticmethod
    def twins(poly, i, j):
        """The definition: no term holds both, and swapping them fixes p."""
        together = any(i in s and j in s for s in poly.terms)
        return not together and poly.asymmetry_witness(i, j) is None

    @given(signed_polys(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_definition(self, poly, data):
        for _ in range(data.draw(st.integers(0, 2))):
            poly = plant_twin(poly, data.draw(st.integers(0, poly.m - 1)))
        classes = poly.twin_classes()
        assert sorted(itertools.chain(*classes)) == list(range(poly.m))
        assert all(list(c) == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        for members in classes:
            assert all(self.twins(poly, i, j) for i, j in itertools.combinations(members, 2))
        for a, b in itertools.combinations(classes, 2):
            assert not self.twins(poly, a[0], b[0])

    def test_doubled_vertex_and_unused_variables(self):
        doubled = MultilinearPoly.from_hypergraph(double_vertex(Hypergraph.complete(3, 4), 1))
        assert doubled.twin_classes() == ((0,), (1, 4), (2,), (3,))
        assert P_K4.twin_classes() == ((0,), (1,), (2,), (3,))
        p = MultilinearPoly(5, {(1,): 2, (3,): 2, (): 1})
        assert p.twin_classes() == ((0, 2, 4), (1, 3))


class TestKernelDifferential:
    """The compiled kernel against exact Fraction evaluation."""

    @given(signed_polys(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_float_value_and_gradient(self, poly, data):
        x = rational_point(data.draw, poly.m)
        xf = [float(v) for v in x]
        assert abs(poly.evaluate_float(xf) - fraction_oracle(poly, x)) <= 1e-12
        grad = poly.gradient(xf)
        for k in range(poly.m):
            assert abs(grad[k] - fraction_oracle(poly.partial(k), x)) <= 1e-12

    @given(signed_polys(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hessian_matches_symbolic_partials(self, poly, data):
        x = rational_point(data.draw, poly.m)
        H = poly.kernel.hessians(np.array([[float(v) for v in x]]))[0]
        np.testing.assert_array_equal(H, H.T)
        for i, j in itertools.product(range(poly.m), repeat=2):
            want = 0 if i == j else fraction_oracle(poly.partial(i).partial(j), x)
            assert abs(H[i, j] - want) <= 1e-12

    @given(signed_polys(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_wide_points_match_oracle(self, poly, data):
        assert_matches_oracle(poly, [data.draw(wide_coordinates()) for _ in range(poly.m)])

    @pytest.mark.parametrize(
        "poly",
        [
            MultilinearPoly.zero(3),
            MultilinearPoly.constant(3, Fraction(-5, 7)),
            MultilinearPoly.zero(0),
            MultilinearPoly.constant(0, 4),
        ],
        ids=["zero", "constant", "zero-m0", "constant-m0"],
    )
    def test_degenerate_polynomials_match_oracle(self, poly):
        x = [Fraction(-3, 2), Fraction(7, 3), Fraction(10**12 + 1, 5)][: poly.m]
        assert_matches_oracle(poly, x)
        assert poly.kernel.rational_values([x, x]) == [fraction_oracle(poly, x)] * 2

    @given(signed_polys(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    # a matrix product summed these four terms in another order for one row
    @example(MultilinearPoly(5, {(0,): 2, (1,): 1, (2,): 1, (3,): 1}), 2, 0)
    def test_batched_rows_match_single_point(self, poly, rows, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(rows, poly.m))
        kernel = poly.kernel
        # a few rows per gradient chunk, so most batches span several chunks
        width = kernel._derivative_table(1)[2]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polynomial, "_CHUNK_ELEMENTS", 3 * max(width, 1))
            values, grads = kernel.values(X), kernel.gradients(X)
            hessians = kernel.hessians(X)
        assert values.shape == (rows,) and grads.shape == (rows, poly.m)
        assert hessians.shape == (rows, poly.m, poly.m)
        for k in range(rows):
            # a row of a chunked batch is bit for bit a one-row batch
            assert values[k] == kernel.values(X[k : k + 1])[0]
            np.testing.assert_array_equal(grads[k], kernel.gradients(X[k : k + 1])[0])
            np.testing.assert_array_equal(hessians[k], kernel.hessians(X[k : k + 1])[0])

    @given(signed_polys(), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_int64_batch_is_scaled_exact(self, poly, total):
        coefs, scale = poly.kernel.integer_coefficients(total)
        assert poly.kernel.fits_int64(coefs, total)
        table, offsets = _grid.compositions(total, poly.m)
        block = table[offsets[total] :].astype(np.int64)
        values = poly.kernel.batch(block, coefs)
        assert values.dtype == np.int64
        for row, value in zip(block, values):
            point = [Fraction(int(k), total) for k in row]
            assert Fraction(int(value), scale) == fraction_oracle(poly, point)

    @given(signed_polys(max_m=4), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_float_grid_oracle_matches_enumeration(self, poly, resolution):
        with mock.patch.object(PolyKernel, "fits_int64", return_value=False):
            value, point = grid_oracle(poly, resolution)
            # one prefix row per product: the running best must carry across chunks
            with mock.patch.object(polynomial, "_SCAN_ELEMENTS", 1):
                assert grid_oracle(poly, resolution) == (value, point)
        best_value, best_row = None, None
        for row in itertools.product(range(resolution + 1), repeat=poly.m):
            if sum(row) != resolution:
                continue
            candidate = poly.evaluate([Fraction(k, resolution) for k in row])
            if best_value is None or candidate > best_value:
                best_value, best_row = candidate, row
        assert value == best_value
        assert point.coords == tuple(Fraction(k, resolution) for k in best_row)


def reference_derivatives(kernel, X, order):
    """Test-only reference: the derivative kernel as one np.prod over the
    gathered (rows, terms, columns) array, times the coefficients, with
    fresh bincount bins, over all rows at once."""
    groups, targets, _ = kernel._derivative_table(order)
    size, n = kernel.m**order, X.shape[0]
    if targets is None:
        return np.zeros((n, size))
    terms = np.concatenate(
        [coefs * np.prod(X[:, others], axis=2) for others, coefs in groups], axis=1
    )
    bins = (np.arange(n)[:, None] * size + targets).ravel()
    return np.bincount(bins, terms.ravel(), n * size).reshape(n, size)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


EDGE_POLYS = [
    MultilinearPoly.from_hypergraph(graph)
    for graph in (
        Hypergraph.complete(2, 5),
        Hypergraph(2, 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
        gamma(3),
        tight_cycle(5),
        Hypergraph.complete(4, 7),
        Hypergraph.complete(5, 8),
    )
]


#: The bit tests' polynomials: unit coefficients (edge polynomials, whose
#: kernels do not multiply them in), signed ones, and positive ones above 1.
BIT_POLYS = EDGE_POLYS + SIGNED_POLYS + [Fraction(3, 2) * EDGE_POLYS[2]]


class TestDerivativeBits:
    """Column products and kept bins give the reference's bits exactly."""

    @pytest.mark.parametrize(
        "poly", BIT_POLYS, ids=lambda p: f"r{p.degree()}m{p.m}t{len(p.terms)}"
    )
    def test_batches_grow_then_shrink(self, poly):
        kernel = PolyKernel(poly)
        rng = np.random.default_rng(poly.m)
        # odd sizes; each larger batch regrows the bins, each smaller one reads a prefix
        for rows in (1, 3, 7, 40, 81, 13, 3, 1):
            for X in (rng.dirichlet(np.ones(poly.m), size=rows),
                      rng.uniform(-1.5, 1.5, size=(rows, poly.m))):
                upper = reference_derivatives(kernel, X, 2).reshape(rows, poly.m, poly.m)
                assert_same_bits(kernel.gradients(X), reference_derivatives(kernel, X, 1))
                assert_same_bits(kernel.hessians(X), upper + upper.transpose(0, 2, 1))

    @pytest.mark.parametrize("poly", [EDGE_POLYS[2], EDGE_POLYS[5], SIGNED_POLYS[-1]],
                             ids=["gamma(3)", "K8^5", "signed"])
    def test_batch_straddles_chunks(self, poly):
        kernel = PolyKernel(poly)
        X = np.random.default_rng(5).dirichlet(np.ones(poly.m), size=23)
        for order in (1, 2):
            _, targets, width = kernel._derivative_table(order)
            with pytest.MonkeyPatch.context() as patch:
                # chunks of 4, 4, ..., 4, 3 rows: the last reads a prefix of the bins
                patch.setattr(polynomial, "_CHUNK_ELEMENTS", 4 * width)
                got = kernel._derivatives(X, order)
            assert kernel._derivative_bins[order].size == 4 * targets.size
            assert_same_bits(got, reference_derivatives(kernel, X, order))
            # the bins kept for 4 rows regrow for a batch of 23 in one chunk
            assert_same_bits(kernel._derivatives(X, order), reference_derivatives(kernel, X, order))


def reference_values(kernel, X):
    """Test-only reference: the value kernel through the np.prod and .sum
    wrappers, one np.prod over the gathered (rows, terms, columns) array per
    degree group, times the coefficients, summed per row, over all rows at
    once."""
    out = np.full(X.shape[0], kernel.constant)
    for idx, coefs in kernel.groups:
        out += (np.prod(X[:, idx], axis=2) * coefs).sum(axis=1)
    return out


def face_rows(rng, rows, m):
    """Dirichlet rows with about a third of their coordinates exactly 0."""
    X = rng.dirichlet(np.ones(m), size=rows)
    X[rng.random((rows, m)) < 1 / 3] = 0.0
    return X


class TestValueBits:
    """The direct reductions of PolyKernel.values give the bits of the
    np.prod and .sum wrappers."""

    @pytest.mark.parametrize(
        "poly", BIT_POLYS, ids=lambda p: f"r{p.degree()}m{p.m}t{len(p.terms)}"
    )
    def test_matches_reference(self, poly):
        kernel = PolyKernel(poly)
        rng = np.random.default_rng(poly.m)
        for rows in (1, 2, 7, 40, 81, 1):
            for X in (face_rows(rng, rows, poly.m),
                      rng.uniform(-1.5, 1.5, size=(rows, poly.m))):
                assert_same_bits(kernel.values(X), reference_values(kernel, X))

    @pytest.mark.parametrize("poly", [EDGE_POLYS[2], EDGE_POLYS[5], SIGNED_POLYS[-1]],
                             ids=["gamma(3)", "K8^5", "signed"])
    def test_batch_straddles_chunks(self, poly):
        kernel = PolyKernel(poly)
        X = face_rows(np.random.default_rng(6), 23, poly.m)
        with pytest.MonkeyPatch.context() as patch:
            # chunks of 4, 4, ..., 4, 3 rows, each summed like a batch of its
            # own; none has one row (see test_one_row_is_a_row_of_a_batch)
            patch.setattr(polynomial, "_CHUNK_ELEMENTS", 4 * kernel._value_width)
            got = kernel.values(X)
        assert_same_bits(got, reference_values(kernel, X))

    @pytest.mark.xfail(strict=True, reason="a one-row batch sums its terms pairwise, a batch "
                       "of more rows in term order; they differ in the last bit")
    def test_one_row_is_a_row_of_a_batch(self):
        kernel = PolyKernel(EDGE_POLYS[2])
        X = np.random.default_rng(1).dirichlet(np.ones(kernel.m), size=40)
        batch = kernel.values(X)
        assert_same_bits(np.concatenate([kernel.values(x[None]) for x in X]), batch)


def lex_compositions(total, m):
    """Every composition of ``total`` into m parts, in lexicographic order,
    by recursion on the first part."""
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in lex_compositions(total - first, m - 1):
            yield (first,) + rest


def brute_force_scan(poly, total):
    """The lexicographically first maximum of the scaled integer values,
    over lex_compositions, with Python integers."""
    coefs, scale = poly.kernel.integer_coefficients(total)
    best = best_row = None
    for row in lex_compositions(total, poly.m):
        value = sum(
            c * math.prod(row[i] for i in s) for s, c in zip(poly.kernel.subsets, coefs)
        )
        if best is None or value > best:
            best, best_row = value, row
    return best, best_row, scale


def scan_cases():
    """(poly, total) for a brute-force scan: m <= 5 with total <= 6, or m <= 8
    with total <= 4 (at most 330 points).  From m = 6 on, the tail has 3 or
    4 variables, and a tail monomial can serve several prefix groups."""
    return st.one_of(
        st.tuples(signed_polys(), st.integers(0, 6)),
        st.tuples(signed_polys(max_m=8), st.integers(0, 4)),
    )


# m = 7 and 8: tail monomials shared by several prefix groups, and tails of
# 4 variables whose one positive row is the maximum at total 4
SHARED_TAILS = [
    MultilinearPoly(7, {(0, 3, 5): 2, (1, 3, 5): -3, (3, 5): Fraction(1, 2), (2, 4, 6): 5,
                        (0, 4, 6): -1, (0,): 4, (): -2}),
    MultilinearPoly(8, {(0, 4, 5, 7): 3, (1, 4, 5, 7): -2, (2, 3, 4): 1, (6,): 7,
                        (0, 1, 6): -5, (2, 6): Fraction(-3, 4), (4, 5, 6, 7): 2}),
    MultilinearPoly(7, {(3, 4, 5, 6): 1, (0, 3): Fraction(-1, 100), (3,): Fraction(-1, 100)}),
    MultilinearPoly(8, {(4, 5, 6, 7): 1, (1, 4): Fraction(-1, 100), (4,): Fraction(-1, 100)}),
]


class TestScanDifferential:
    """PolyKernel.scan against the brute-force lexicographically first maximum."""

    @given(scan_cases(), st.booleans(), st.sampled_from([1, 2, 5, 1 << 20]))
    @example((SHARED_TAILS[0], 4), True, 5)
    @example((SHARED_TAILS[0], 4), False, 1 << 20)
    @example((SHARED_TAILS[1], 4), True, 1 << 20)
    @example((SHARED_TAILS[1], 3), False, 2)
    @example((SHARED_TAILS[2], 4), True, 1 << 20)
    @example((SHARED_TAILS[3], 4), False, 1 << 20)
    @settings(max_examples=300, deadline=None)
    def test_scan_matches_brute_force(self, case, in_int64, elements):
        poly, total = case
        expected = brute_force_scan(poly, total)
        kernel = PolyKernel(poly)
        expected_coefs, _ = kernel.integer_coefficients(total)
        with mock.patch.object(polynomial, "_SCAN_ELEMENTS", elements):
            if in_int64:
                assert kernel.fits_int64(expected_coefs, total)
                got = kernel.scan(total, None, "test scan")
            else:
                with mock.patch.object(PolyKernel, "fits_int64", return_value=False):
                    got = kernel.scan(total, None, "test scan")
        assert got == expected
        assert all(type(v) is int for v in (got[0], got[2], *got[1]))

    @pytest.mark.parametrize("elements", [1, 2, 1 << 20])
    @pytest.mark.parametrize("bits, path", [(53, "exact float64"), (62, "exact int64")])
    def test_exact_product_bounds(self, caplog, bits, path, elements):
        # scores are bounded by sum |c| * total**deg = 16 (3A + 133); A puts
        # that just under 2**bits
        total = 4
        A = (2**bits // 16 - 133) // 3 // 64 * 64
        poly = MultilinearPoly(5, {(0, 1): A + 1, (1, 2): A, (3, 4): A, (2,): -5, (): 7})
        kernel = PolyKernel(poly)
        coefs, _ = kernel.integer_coefficients(total)
        assert 2**bits - 2**(bits - 8) < kernel._score_bound(coefs, total) < 2**bits
        if bits == 62:
            # float64 would tie the maximum (2, 2, 0, 0, 0) with (0, 0, 0, 2, 2)
            assert float(4 * A + 116) == float(4 * A + 112)
        with caplog.at_level(logging.DEBUG, logger="turan.polynomial"):
            with mock.patch.object(polynomial, "_SCAN_ELEMENTS", elements):
                got = kernel.scan(total, None, "test scan")
        assert got == brute_force_scan(poly, total)
        assert got[1] == (2, 2, 0, 0, 0)
        message = caplog.records[-1].getMessage()
        assert f" products in {path}, " in message
        # the bound M[a] . max_b Q[:, b] runs in the same arithmetic
        pruned, scored, points = scan_counts(message)
        assert pruned > 0 and scored < points

    @given(st.integers(1, 5), st.integers(0, 6), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_ties_everywhere(self, m, total, in_int64):
        # a constant polynomial ties on every row: the first row wins
        poly = MultilinearPoly.constant(m, 3)
        with mock.patch.object(polynomial, "_SCAN_ELEMENTS", 1):
            with mock.patch.object(PolyKernel, "fits_int64", return_value=in_int64):
                got = PolyKernel(poly).scan(total, None, "test scan")
        assert got == (3, (0,) * (m - 1) + (total,), 1)


def pruning_scan(poly, total, elements=1 << 20, in_int64=True):
    """PolyKernel.scan with the given scan block size, in its exact paths
    (in_int64) or its float filter, and the message of its DEBUG record."""
    with (
        mock.patch.object(polynomial, "_SCAN_ELEMENTS", elements),
        mock.patch.object(PolyKernel, "fits_int64", return_value=in_int64),
        mock.patch.object(polynomial, "_log") as log,
    ):
        got = PolyKernel(poly).scan(total, None, "test scan")
    (fmt, *args), _ = log.debug.call_args
    return got, fmt % tuple(args)


def scan_counts(message):
    """(prefix rows pruned, points scored, points) from a scan's DEBUG record."""
    pruned = int(message.split(" prefix rows pruned")[0].rsplit(", ", 1)[1])
    scored, _, points = message.split(" points scored")[0].rsplit(", ", 1)[1].split()[:3]
    return pruned, int(scored), int(points)


class TestScanPruning:
    """The bound M[a] . max_b Q[:, b] prunes only rows that cannot reach the
    running maximum: the pruned scan gives the brute-force answer."""

    @given(scan_cases(), st.booleans(), st.sampled_from([1, 2, 5, 1 << 20]))
    @example((MultilinearPoly(3, {(0, 1): 1, (1, 2): 1, (0, 2): -1}), 0), True, 1)
    @example((MultilinearPoly.constant(2, -4), 5), False, 1)
    # scores up to about 2**56: the exact path runs in int64
    @example((MultilinearPoly(3, {(0, 1): 2**50 + 1, (1, 2): -(2**50), (0, 2): 2**49, (): 3}),
              6), True, 1)
    @example((SHARED_TAILS[0], 4), True, 1)
    @example((SHARED_TAILS[1], 4), True, 5)
    @example((SHARED_TAILS[1], 4), False, 1 << 20)
    @example((SHARED_TAILS[2], 4), False, 5)
    @example((SHARED_TAILS[3], 4), True, 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case, in_int64, elements):
        poly, total = case
        got, message = pruning_scan(poly, total, elements, in_int64)
        assert got == brute_force_scan(poly, total)
        pruned, scored, points = scan_counts(message)
        assert points == math.comb(total + poly.m - 1, poly.m - 1)
        if not in_int64:
            assert (pruned, scored) == (0, points)
        assert scored <= points

    @pytest.mark.parametrize("elements", [1, 7, 1 << 20])
    @pytest.mark.parametrize("total", [0, 1, 4, 8, 12])
    @pytest.mark.parametrize("coef", [1, 2**47 - 1])
    def test_gamma2_segment_ties(self, coef, total, elements):
        # gamma(2)'s optimum is a segment: many rows tie the maximum, and the
        # lexicographically first of them must survive pruning (ub == best).
        # Scores reach 12 * total**3 * coef: with coef = 2**47 - 1 the scan
        # runs in int64 from total 4 on, about 2**61.3 at total 12
        edges = MultilinearPoly.from_hypergraph(gamma(2))
        poly = MultilinearPoly(6, {s: coef * c for s, c in edges.terms.items()})
        got, message = pruning_scan(poly, total, elements)
        assert got == brute_force_scan(poly, total)
        if coef > 1 and total >= 4:
            assert " products in exact int64, " in message
        pruned, scored, points = scan_counts(message)
        assert total < 8 or (pruned > 0 and scored < points)

    @pytest.mark.parametrize("elements", [1, 1 << 20])
    def test_tight_bound_tie_in_int64(self, elements):
        # with m = 2 each tail sum has one tail, so the bound is the exact
        # score; (3, 2) and then (2, 3) score 6A, about 2**59.6, and the
        # second replaces the first only if its bound, equal to the running
        # maximum, is computed exactly (float64 would round 6A down)
        A = 2**57 + 1
        poly = MultilinearPoly(2, {(0, 1): A})
        got, message = pruning_scan(poly, 5, elements)
        assert got == brute_force_scan(poly, 5) == (6 * A, (2, 3), 25)
        assert " products in exact int64, " in message
        assert scan_counts(message)[0] > 0

    def test_gamma2_n60_scores_a_fifth_or_less(self, caplog):
        kernel = MultilinearPoly.from_hypergraph(gamma(2)).kernel
        with caplog.at_level(logging.DEBUG, logger="turan.polynomial"):
            best, row, _ = kernel.scan(60, None, "test scan")
        assert (best, row) == (13500, (15, 15, 0, 15, 15, 0))
        (record,) = [r for r in caplog.records if r.name == "turan.polynomial"]
        pruned, scored, points = scan_counts(record.getMessage())
        assert points == 8_259_888 and pruned > 0 and scored <= points // 5

    def test_float_filter_never_prunes(self):
        poly = MultilinearPoly(3, {(0, 1): 2**70, (2,): 1})
        got, message = pruning_scan(poly, 8, in_int64=False)
        assert got == brute_force_scan(poly, 8)
        assert " products in float filter, " in message
        assert scan_counts(message)[:2] == (0, 45)


class TestCompositions:
    """_grid.compositions against itertools.product, for every shape up to (10, 5)."""

    @pytest.mark.parametrize("parts", range(6))
    @pytest.mark.parametrize("total", range(11))
    def test_matches_product(self, total, parts):
        table, offsets = _grid.compositions(total, parts)
        # product is lexicographic; a stable sort by sum keeps that within each sum
        rows = [r for r in itertools.product(range(total + 1), repeat=parts) if sum(r) <= total]
        rows.sort(key=sum)
        assert table.shape == (len(rows), parts)
        assert [tuple(int(v) for v in row) for row in table] == rows
        sums = [sum(r) for r in rows]
        assert offsets.tolist() == [bisect.bisect_left(sums, s) for s in range(total + 2)]

    def test_empty_cases(self):
        # zero parts: one empty row of sum 0, and no row for any other sum
        table, offsets = _grid.compositions(4, 0)
        assert table.shape == (1, 0) and offsets.tolist() == [0, 1, 1, 1, 1, 1]
        table, offsets = _grid.compositions(0, 3)
        assert table.tolist() == [[0, 0, 0]] and offsets.tolist() == [0, 1]

    def test_wide_totals_fit(self):
        table, offsets = _grid.compositions(300, 2)
        assert int(table.max()) == 300 and len(table) == offsets[-1] == 301 * 302 // 2
        assert table[offsets[300] :].tolist() == [[v, 300 - v] for v in range(301)]
        # one part is the column 0..total; a pair (s, v) per part would need 5e11 here
        table, offsets = _grid.compositions(10**6, 1)
        np.testing.assert_array_equal(table[:, 0], np.arange(10**6 + 1))
        np.testing.assert_array_equal(offsets, np.arange(10**6 + 2))


class TestScanStructure:
    """How PolyKernel.scan does its work: counted through mocks and its log,
    never timed."""

    @pytest.mark.parametrize("m", range(3, 9))
    def test_tables_once_factors_per_block(self, m):
        poly = MultilinearPoly.from_hypergraph(Hypergraph.complete(3, m))
        total = lagrangian._auto_resolution(m)
        with (
            mock.patch.object(_grid, "compositions", wraps=_grid.compositions) as single,
            mock.patch.object(
                _grid, "composition_tables", wraps=_grid.composition_tables
            ) as tables,
            mock.patch.object(
                PolyKernel, "_factors", autospec=True, side_effect=PolyKernel._factors
            ) as factors,
        ):
            result = grid_oracle(poly, total)
        assert result == grid_oracle(poly, total)
        # one table build: the tail table's passes through the prefix table's
        assert [c.args for c in tables.call_args_list] == [(total, m - m // 2)]
        assert not single.called
        # factors per block of tail sums (one block up to m = 4), not per tail sum
        assert factors.call_count <= (total + 1) // 2
        assert m > 4 or factors.call_count == 1

    @pytest.mark.parametrize(
        "poly, total, path, rescored",
        [
            (P_K4, 12, "exact float64", 0),
            (MultilinearPoly(3, {(0, 1): 2**52, (2,): 1}), 4, "exact int64", 0),
            (MultilinearPoly(3, {(0, 1): 2**70, (2,): 1}), 4, "float filter", None),
        ],
        ids=["float64", "int64", "float-filter"],
    )
    def test_debug_record(self, caplog, poly, total, path, rescored):
        with caplog.at_level(logging.DEBUG, logger="turan.polynomial"):
            PolyKernel(poly).scan(total, None, "test scan")
        (record,) = [r for r in caplog.records if r.name == "turan.polynomial"]
        message = record.getMessage()
        assert message.startswith(f"scan: total {total}, m {poly.m}, split {poly.m // 2}, ")
        assert f" products in {path}, " in message
        count = int(message.rsplit(", ", 1)[1].split()[0])
        assert count == rescored if rescored is not None else count >= 1

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="turan.polynomial"):
            P_K4.kernel.scan(6, None, "test scan")
        assert not [r for r in caplog.records if r.name == "turan.polynomial"]


def record_counts(message):
    """(factor blocks, products, prefix rows pruned, points scored) from a
    scan's DEBUG record."""
    blocks = int(message.split(" factor blocks")[0].rsplit(", ", 1)[1])
    products = int(message.split(" products in ")[0].rsplit(", ", 1)[1])
    pruned, scored, _ = scan_counts(message)
    return blocks, products, pruned, scored


def maximize_graphs():
    cycle = tight_cycle(5)
    graphs = {f"K{k}": Hypergraph.complete(3, k) for k in (4, 5, 6)}
    graphs.update({f"gamma({t})": gamma(t) for t in (1, 2, 3, 4)})
    graphs.update({"C5": cycle, "C5-crossed": crossed_blowup(cycle, (3, 4))})
    return graphs


class TestBenchScans:
    """The benchmark's scans, beyond brute force, pinned: each result and
    the DEBUG counts of its work (factor blocks, products, prefix rows
    pruned, points scored)."""

    @pytest.mark.parametrize(
        "t, n, result, counts",
        [
            (2, 12, (108, (3, 3, 0, 3, 3, 0), 1728), (1, 8, 295, 893)),
            (2, 24, (864, (6, 6, 0, 6, 6, 0), 13824), (3, 15, 2143, 16684)),
            (2, 48, (6912, (12, 12, 0, 12, 12, 0), 110592), (16, 29, 16539, 429615)),
            (2, 60, (13500, (15, 15, 0, 15, 15, 0), 216000), (30, 36, 32059, 1257815)),
            (3, 25, (1250, (5, 5, 5, 0, 5, 5, 0), 15625), (11, 11, 2681, 12634)),
            (3, 30, (2160, (6, 6, 6, 0, 6, 6, 0), 27000), (17, 13, 4614, 25158)),
        ],
    )
    def test_exhaustive_blowup_scans(self, caplog, t, n, result, counts):
        kernel = MultilinearPoly.from_hypergraph(gamma(t)).kernel
        with caplog.at_level(logging.DEBUG, logger="turan.polynomial"):
            got = kernel.scan(n, None, "test scan")
        (record,) = [r for r in caplog.records if r.name == "turan.polynomial"]
        assert got == result
        assert record_counts(record.getMessage()) == counts

    @pytest.mark.parametrize(
        "label, result, counts",
        [
            ("K4", (6912, (12, 12, 12, 12), 110592), (1, 25, 862, 2759)),
            ("K5", (4376, (7, 7, 8, 8, 8), 54872), (3, 25, 493, 14595)),
            ("K6", (1280, (4, 4, 4, 4, 4, 4), 13824), (3, 13, 2314, 6296)),
            ("gamma(1)", (512, (0, 8, 0, 0, 8, 8), 13824), (2, 18, 1003, 61761)),
            ("gamma(2)", (864, (6, 6, 0, 6, 6, 0), 13824), (3, 15, 2143, 16684)),
            ("gamma(3)", (387, (3, 3, 3, 0, 4, 4, 0), 4913), (4, 9, 858, 2814)),
            ("gamma(4)", (248, (2, 2, 2, 2, 0, 3, 3, 0), 2744), (6, 7, 2258, 2404)),
            ("C5", (2192, (7, 7, 8, 8, 8), 54872), (3, 38, 177, 100898)),
            ("C5-crossed", (240, (0, 3, 6, 4, 0, 4, 0), 4913), (3, 10, 695, 16339)),
        ],
    )
    def test_maximize_grid_scans(self, caplog, label, result, counts):
        # maximize's own scan: of the twin-merged polynomial, at the
        # automatic resolution
        results = []
        scan = PolyKernel.scan

        def recorded(kernel, *args):
            results.append(scan(kernel, *args))
            return results[-1]

        poly = MultilinearPoly.from_hypergraph(maximize_graphs()[label])
        with (
            mock.patch.object(PolyKernel, "scan", recorded),
            caplog.at_level(logging.DEBUG, logger="turan.polynomial"),
        ):
            lagrangian.maximize(poly)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("scan: ")]
        assert results == [result]
        assert record_counts(record.getMessage()) == counts


class TestMultilinearity:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_scaling_one_variable(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        poly = P_K4
        i = data.draw(st.integers(0, 3))
        alpha = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
        x = next(rational_points(rng, 4, 1))
        scaled = list(x)
        scaled[i] = alpha * scaled[i]
        with_i = MultilinearPoly(4, {s: c for s, c in poly.terms.items() if i in s})
        without_i = MultilinearPoly(4, {s: c for s, c in poly.terms.items() if i not in s})
        assert poly.evaluate(scaled) == alpha * with_i.evaluate(x) + without_i.evaluate(x)

    def test_square_identity_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 40)))
            y = Fraction(int(rng.integers(-60, 60)), int(rng.integers(1, 40)))
            assert x * y == ((x + y) / 2) ** 2 - ((x - y) / 2) ** 2


class TestJson:
    def test_round_trip(self):
        p = MultilinearPoly(5, {(0, 2, 4): Fraction(3, 7), (1,): -2, (): Fraction(1, 3)})
        data = p.to_json_dict()
        assert data["m"] == 5
        assert all(isinstance(t["coef"], str) for t in data["terms"])
        assert MultilinearPoly.from_json_dict(data) == p


class TestCopyAndPickle:
    def test_round_trip(self):
        signed = MultilinearPoly(3, {(): Fraction(-1, 7), (0, 2): 2, (1,): Fraction(5, 3)})
        for poly in (P_K4, P_C5, signed, MultilinearPoly.zero(2)):
            for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
                assert type(clone) is MultilinearPoly
                assert clone == poly and hash(clone) == hash(poly)
                assert clone.evaluate([Fraction(1, poly.m or 1)] * poly.m) == poly.evaluate(
                    [Fraction(1, poly.m or 1)] * poly.m
                )

    def test_kernel_cache_not_carried(self):
        poly = MultilinearPoly.from_hypergraph(gamma(2))
        poly.kernel
        for clone in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
            assert not hasattr(clone, "_kernel")
            x = np.full(poly.m, 1 / poly.m)
            assert clone.evaluate_float(x) == poly.evaluate_float(x)
            assert clone.kernel is not poly.kernel
