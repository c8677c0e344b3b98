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
from turan.constructions import blowup_edge_count, double_vertex
from turan.homomorphism import enumerate_endomorphisms
from turan.hypergraph import Hypergraph
from turan.verify import CHECKS

CRITERIA = [
    ("1", "lagrangian-targets", 5.0 * 10),  # <5s per target, 10 targets
    ("2", "segment-certificates", 1.0),
    ("3", "construction-fidelity", 1.0),
    ("4", "extremal-counts", 10.0),
    ("5", "homomorphism-lemmas", 60.0),
    ("6", "feasible-region", 30.0),
    ("7", "property-suites", 2.0),
    ("8", "stability-fit", 60.0),
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
