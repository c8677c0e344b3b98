"""Acceptance gate: every advertised guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; ``turan verify --suite all`` prints the same checks.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from turan import verify
from turan.common import PreconditionError
from turan.constructions import (
    FeasiblePoint,
    blowup_edge_count,
    double_vertex,
    feasible_limit,
    gamma,
    gamma_base,
    gamma_lagrangian,
    gamma_permutation,
)
from turan.homomorphism import enumerate_endomorphisms
from turan.hypergraph import Hypergraph
from turan.lagrangian import _exact_derivatives, predicted_segment
from turan.polynomial import MultilinearPoly
from turan.verify import CHECKS

CRITERIA = [
    ("1", "lagrangian-targets", 5.0 * 10),  # <5s per target, 10 targets
    ("2", "segment-certificates", 1.0),
    ("3", "construction-fidelity", 1.0),
    ("4", "extremal-counts", 10.0),
    ("5", "homomorphism-lemmas", 60.0),
    ("6", "feasible-region", 30.0),
    ("7", "property-suites", 2.0),
    ("8", "stability-fit", 2.0),
]


@pytest.mark.parametrize("number,name,time_budget", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_criterion(number, name, time_budget):
    started = time.monotonic()
    results = CHECKS[name](seed=0)
    elapsed = time.monotonic() - started
    for line in results:
        status = "PASS" if line.passed else "FAIL"
        detail = f"  [{line.detail}]" if line.detail else ""
        print(f"{status}  criterion {number} ({name}): {line.name}{detail}")
    print(f"criterion {number} ({name}) finished in {elapsed:.2f}s")
    failed = [line.name for line in results if not line.passed]
    assert not failed, f"criterion {number} failed: {failed}"
    assert elapsed <= time_budget, f"criterion {number} took {elapsed:.2f}s"


def test_every_check_has_a_budget():
    assert [name for _, name, _ in CRITERIA] == list(CHECKS)


def gamma_with_moved_edge(t):
    """gamma(t) with its first edge moved onto the first triple that is no edge."""
    graph = gamma(t)
    edges = set(graph.edges)
    free = next(e for e in itertools.combinations(range(graph.n), 3) if e not in edges)
    return Hypergraph(3, graph.n, [*graph.edges[1:], free])


def raised_lagrangian(t):
    return gamma_lagrangian(t) + Fraction(1, 10**6)


def limit_without_alpha_term(t, alpha):
    """feasible_limit with the 4 alpha (1 - alpha) / (t+2)^2 shadow term dropped."""
    shadow = Fraction(t * t + 3 * t + 2, (t + 2) ** 2)
    return FeasiblePoint(shadow, feasible_limit(t, alpha).edge_density)


STABILITY_LINES = [
    f"t={t}: every partial is 3*lambda on gamma({t})'s optimal segment,"
    f" and h.H.h < -|h|^2/{t + 2} across it"
    for t in range(2, 7)
]
PROFILE_LINES = [
    f"n={n}: {count} optimal profiles, all attaining the maximum, count >= n/8"
    for n, count in ((12, 2), (24, 4), (48, 7))
]

# criterion, the name patched in verify, its replacement, the lines that fail
PLANTED_DEFECTS = [
    ("lagrangian-targets", "gamma_lagrangian", raised_lagrangian, [
        f"lambda({graph}) = {raised_lagrangian(t)}"
        for t in (1, 2, 3, 4)
        for graph in (f"K_{t + 2}^3", f"gamma({t})")
    ]),
    ("lagrangian-targets", "gamma", gamma_with_moved_edge, [
        "lambda(gamma(1)) = 1/27",
        "lambda(gamma(3)) = 2/25",
        "lambda(gamma(4)) = 5/54",
    ]),
    ("segment-certificates", "gamma", gamma_with_moved_edge, [
        "segment under gamma(1) labels: proved by 11 exact samples = 1/27",
        "segment under gamma(2) labels: proved by 11 exact samples = 1/16",
        "segment under gamma(3) labels: proved by 11 exact samples = 2/25",
        "gamma(1) optimal triangle: proved = 1/27 by the 10-point degree-3 lattice",
    ]),
    ("segment-certificates", "gamma_lagrangian", raised_lagrangian, [
        f"{segment}: proved by 11 exact samples = {raised_lagrangian(t)}"
        for t in (1, 2, 3)
        for segment in (f"segment of crossed base, t={t}", f"segment under gamma({t}) labels")
    ]),
    ("construction-fidelity", "gamma", gamma_with_moved_edge, [
        "gamma(2) reproduces the full codegree table",
    ]),
    ("extremal-counts", "gamma", gamma_with_moved_edge, PROFILE_LINES),
    ("extremal-counts", "gamma_lagrangian", raised_lagrangian, [
        "exhaustive max blowup of gamma(2) on n=12 has 1687527/15625 edges", PROFILE_LINES[0],
        "exhaustive max blowup of gamma(2) on n=24 has 13500216/15625 edges", PROFILE_LINES[1],
        "exhaustive max blowup of gamma(2) on n=48 has 108001728/15625 edges", PROFILE_LINES[2],
    ]),
    ("feasible-region", "feasible_limit", limit_without_alpha_term, [
        "alpha=1/4: finite n=480 densities within 5/n of the limits",
        "alpha=1/2: finite n=480 densities within 5/n of the limits",
        "limit shadow range over alpha in [0, 1/2] is exactly [3/4, 13/16]",
    ]),
    ("stability-fit", "gamma", gamma_with_moved_edge, STABILITY_LINES),
    ("stability-fit", "gamma_lagrangian", raised_lagrangian, STABILITY_LINES),
]


@pytest.mark.parametrize(
    "criterion,name,replacement,failing",
    PLANTED_DEFECTS,
    ids=[f"{criterion}:{name}" for criterion, name, _, _ in PLANTED_DEFECTS],
)
def test_planted_defect_fails_its_lines(monkeypatch, criterion, name, replacement, failing):
    monkeypatch.setattr(verify, name, replacement)
    budget = {c[1]: c[2] for c in CRITERIA}[criterion]
    started = time.monotonic()
    results = CHECKS[criterion](seed=0)
    elapsed = time.monotonic() - started
    assert [line.name for line in results if not line.passed] == failing
    assert elapsed <= budget, f"{criterion} took {elapsed:.2f}s"


class TestStabilityHelpers:
    """The segment geometry and the LDL^T bound behind the stability lines."""

    @staticmethod
    def segment(t):
        perm = gamma_permutation(t)
        ends = predicted_segment(*gamma_base(t))
        return [verify.permute_point(end, perm).as_fractions() for end in ends]

    @pytest.mark.parametrize("t", range(2, 7))
    def test_across_is_a_basis_of_the_transverse_directions(self, t):
        first, second = self.segment(t)
        d = [a - b for a, b in zip(first, second)]
        basis = verify._across(d)
        assert len(basis) == len(d) - 2 == _rank(basis)
        for h in basis:
            assert sum(h) == 0 and sum(a * b for a, b in zip(h, d)) == 0

    @pytest.mark.parametrize("t", range(2, 7))
    def test_hessian_bound_is_strict_below_its_largest_eigenvalue(self, t):
        # on W the Hessian's largest eigenvalue is exactly -2/(t+2): any bound
        # below it passes, and the singular bound itself and anything past fail
        first, second = self.segment(t)
        basis = verify._across([a - b for a, b in zip(first, second)])
        poly = MultilinearPoly.from_hypergraph(gamma(t))
        for end in (first, second):
            _, hessian = _exact_derivatives(poly, end, hessian=True)
            for scale, bends in (("1", True), ("1.99", True), ("2", False), ("2.1", False)):
                c = Fraction(scale) / (t + 2)
                assert verify._bends_below(hessian, basis, c) == bends


def property_line(prefix: str) -> bool:
    """Whether the property-suites line whose name starts with prefix passes."""
    (line,) = [r for r in verify.check_property_suites(seed=0) if r.name.startswith(prefix)]
    return line.passed


class TestExactPropertyLines:
    """The exact identity lines fail when the construction they prove is wrong.

    Unpatched, all pass: ``test_criterion[property-suites]`` runs them.
    """

    def test_doubling_fails_when_the_copies_share_an_edge(self, monkeypatch):
        def double_with_shared_edge(graph, w):
            doubled = double_vertex(graph, w)
            third = min(v for v in range(graph.n) if v != w)
            return Hypergraph(3, doubled.n, [*doubled.edges, (third, w, graph.n)])

        monkeypatch.setattr(verify, "double_vertex", double_with_shared_edge)
        assert not property_line("lambda is invariant under vertex doubling")

    def test_complete_graph_identity_fails_without_one_edge(self, monkeypatch):
        class MissingEdge(Hypergraph):
            @classmethod
            def complete(cls, r, n):
                return Hypergraph(r, n, Hypergraph.complete(r, n).edges[1:])

        monkeypatch.setattr(verify, "Hypergraph", MissingEdge)
        assert not property_line("K_n^3")

    def test_blowup_identity_fails_with_one_extra_edge(self, monkeypatch):
        monkeypatch.setattr(verify, "blowup_edge_count", lambda spec: blowup_edge_count(spec) + 1)
        assert not property_line("blowup counts are")

    def test_pair_averaging_decrease_is_a_fail_line(self, monkeypatch):
        names = [r.name for r in verify.check_property_suites(seed=0)]

        def decreasing(poly, i, j, x):
            raise PreconditionError("averaging decreased the value")

        monkeypatch.setattr(verify, "symmetrize_point", decreasing)
        results = verify.check_property_suites(seed=0)
        # the criterion still reports every line; only the averaging line fails
        assert [r.name for r in results] == names
        assert [r.name for r in results if not r.passed] == [
            name for name in names if name.startswith("pair averaging is monotone")
        ]


class TestHomomorphismLemmaLines:
    def test_a_missed_map_fails_its_line(self, monkeypatch):
        # every map left is a rigid automorphism; only the group order check
        # sees that one is gone
        def one_short(graph):
            return enumerate_endomorphisms(graph)[:-1]

        monkeypatch.setattr(verify, "enumerate_endomorphisms", one_short)
        results = verify.check_homomorphism_lemmas(seed=0)
        failed = [r.detail for r in results if not r.passed]
        assert failed == [
            "7 endomorphisms, group order 8",
            "7 endomorphisms, group order 8",
            "23 endomorphisms, group order 24",
            "95 endomorphisms, group order 96",
            "479 endomorphisms, group order 480",
        ]


def _rank(rows: list[list[Fraction]]) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestDegree3Lattice:
    """The lattice behind the exact K_n^3 and gamma(1) triangle lines."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_standard_simplex_lattice_is_unisolvent(self, n):
        corners = [[int(i == j) for j in range(n)] for i in range(n)]
        lattice = verify._degree3_lattice(corners)
        assert len(lattice) == math.comb(n + 2, 3)
        assert len({tuple(x) for x in lattice}) == len(lattice)
        for x in lattice:
            assert sum(x) == 1
            assert all(c >= 0 and (3 * c).denominator == 1 for c in x)
        # on sum(x) = 1 every cubic is a homogeneous cubic, so the lattice fixes
        # a cubic exactly when the cubic monomials are independent on it
        monomials = list(itertools.combinations_with_replacement(range(n), 3))
        matrix = [[math.prod(x[i] for i in m) for m in monomials] for x in lattice]
        assert _rank(matrix) == len(monomials) == len(lattice)

    def test_triangle_lattice_has_ten_points_on_its_face(self):
        third, zero = Fraction(1, 3), Fraction(0)
        corners = [
            (third, zero, third, zero, zero, third),
            (zero, third, third, zero, zero, third),
            (zero, third, zero, third, third, zero),
        ]
        lattice = verify._degree3_lattice(corners)
        assert len({tuple(x) for x in lattice}) == 10
        assert all(sum(x) == 1 for x in lattice)
        assert all(list(corner) in lattice for corner in corners)
