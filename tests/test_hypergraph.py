"""Structural hypergraph operations against small independent oracles."""

import copy
import itertools
import logging
import pickle
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turan import (
    Hypergraph,
    InvalidArgumentError,
    ParseError,
    SizeLimitError,
    UnsupportedUniformityError,
    BlowupSpec,
    are_isomorphic,
    blowup,
    gamma,
    read_hypergraph,
    write_hypergraph,
)
from turan import blowup_edge_count, hypergraph

K4 = Hypergraph.complete(3, 4)
# tight 5-cycle, zero-based from the 1-based edge list {123,234,345,451,512}
C5 = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])


def brute_shadow(h: Hypergraph, size: int) -> set:
    out = set()
    for e in h.edges:
        out.update(itertools.combinations(e, size))
    return out


@st.composite
def hypergraphs(draw, max_n=7):
    r = draw(st.integers(2, 3))
    n = draw(st.integers(r, max_n))
    universe = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(universe), max_size=12))
    return Hypergraph(r, n, edges)


class TestConstruction:
    def test_canonical_storage(self):
        h = Hypergraph(3, 5, [(4, 2, 0), (0, 2, 4), (1, 3, 2)])
        assert h.edges == ((0, 2, 4), (1, 2, 3))

    def test_duplicate_vertex_in_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 4, [(0, 1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 3, [(0, 1, 3)])

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, 4, [(0, 1)])

    def test_isolated_vertices_allowed(self):
        h = Hypergraph(3, 9, [(0, 1, 2)])
        assert h.n == 9 and len(h.edges) == 1


class TestShadow:
    def test_single_edge(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        assert h.shadow().edges == ((0, 1), (0, 2), (1, 2))

    def test_complete_graph_shadow(self):
        assert K4.shadow() == Hypergraph.complete(2, 4)

    def test_c5_shadow_is_complete(self):
        # oracle: collect the pairs of every edge directly
        assert set(C5.shadow().edges) == brute_shadow(C5, 2)
        assert C5.shadow() == Hypergraph.complete(2, 5)

    def test_steps_bounds(self):
        with pytest.raises(InvalidArgumentError):
            K4.shadow(3)
        with pytest.raises(InvalidArgumentError):
            K4.shadow(0)


class TestLink:
    def test_complete(self):
        assert K4.link(0).edges == ((1, 2), (1, 3), (2, 3))

    def test_c5_vertex_4(self):
        # oracle: scan the edges containing 4
        expect = {tuple(sorted(set(e) - {4})) for e in C5.edges if 4 in e}
        assert set(C5.link(4).edges) == expect == {(2, 3), (0, 3), (0, 1)}

    def test_empty(self):
        assert Hypergraph.empty(3, 5).link(2).edges == ()

    def test_keeps_ambient_vertex_set(self):
        link = C5.link(4)
        assert link.n == 5
        assert all(4 not in e for e in link.edges)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            K4.link(4)


class TestCodegree:
    def test_gamma2_special_pairs(self):
        g2 = gamma(2)
        assert g2.codegree((2, 5)).count == 2
        assert g2.codegree((2, 3)).count == 1

    def test_complete(self):
        got = K4.codegree((0, 1))
        assert got.count == 2
        assert got.neighborhood == frozenset({2, 3})

    def test_r2_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph.complete(2, 4).codegree((0, 1))

    def test_r4_neighborhood_is_tuples(self):
        h = Hypergraph(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)])
        got = h.codegree((0, 1))
        assert got.count == 2
        assert got.neighborhood == frozenset({(2, 3), (2, 4)})

    def test_bad_pair(self):
        with pytest.raises(InvalidArgumentError):
            K4.codegree((1, 1))


class TestTwoCovered:
    def test_complete(self):
        assert K4.is_two_covered()

    def test_gamma2(self):
        assert gamma(2).is_two_covered()

    def test_uncovered_vertex(self):
        assert not Hypergraph(3, 4, [(0, 1, 2)]).is_two_covered()


class TestSymmetricPair:
    def test_complete_pair(self):
        assert K4.is_symmetric_pair((2, 3))

    def test_c5_pair_not_symmetric(self):
        # oracle: reduced links computed directly
        left = {tuple(sorted(set(e) - {3})) for e in C5.edges if 3 in e and 4 not in e}
        right = {tuple(sorted(set(e) - {4})) for e in C5.edges if 4 in e and 3 not in e}
        assert left != right
        assert not C5.is_symmetric_pair((3, 4))

    def test_two_edge_base(self):
        base = Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)])
        assert base.is_symmetric_pair((2, 3))

    def test_non_three_uniform_rejected(self):
        with pytest.raises(UnsupportedUniformityError):
            Hypergraph.complete(2, 4).is_symmetric_pair((0, 1))

    @given(hypergraphs())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_exactly_when_the_swap_fixes_the_graph(self, h):
        if h.r != 3:
            return
        for u, v in itertools.combinations(range(h.n), 2):
            perm = list(range(h.n))
            perm[u], perm[v] = v, u
            assert h.is_symmetric_pair((u, v)) == (h.relabel(perm) == h)


class TestTwinClasses:
    @staticmethod
    def oracle(h: Hypergraph) -> tuple:
        """Twins compared pair by pair: equal links and no edge holding both."""
        links = [{tuple(w for w in e if w != v) for e in h.edges if v in e} for v in range(h.n)]
        classes: list[list[int]] = []
        for v in range(h.n):
            for members in classes:
                u = members[0]
                if links[u] == links[v] and not any(u in e and v in e for e in h.edges):
                    members.append(v)
                    break
            else:
                classes.append([v])
        return tuple(tuple(members) for members in classes)

    @given(hypergraphs())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_oracle(self, h):
        assert h.twin_classes() == self.oracle(h)

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_other_uniformities(self, r):
        rng = np.random.default_rng(r)
        for _ in range(20):
            n = int(rng.integers(r, 8))
            universe = list(itertools.combinations(range(n), r))
            h = Hypergraph(r, n, [e for e in universe if rng.random() < 0.4])
            assert h.twin_classes() == self.oracle(h)

    @given(hypergraphs())
    @settings(max_examples=200, deadline=None)
    def test_one_round_leaves_no_twins(self, h):
        # the graph is the blowup of the quotient over the classes, so twins
        # of the quotient would be twins of the graph
        quotient = h.induced(members[0] for members in h.twin_classes())
        assert quotient.twin_classes() == tuple((v,) for v in range(quotient.n))

    def test_blowup_parts_are_classes(self):
        # gamma(3) has no twins, so the classes are exactly the parts
        sizes = (3, 1, 2, 2, 3, 1, 2)
        starts = np.cumsum((0,) + sizes).tolist()
        parts = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
        assert gamma(3).twin_classes() == tuple((v,) for v in range(7))
        assert blowup(BlowupSpec(gamma(3), sizes)).twin_classes() == parts

    def test_isolated_vertices_form_one_class(self):
        h = Hypergraph(3, 6, [(0, 1, 2), (0, 1, 4)])
        assert h.twin_classes() == ((0,), (1,), (2, 4), (3, 5))
        assert Hypergraph.empty(2, 3).twin_classes() == ((0, 1, 2),)
        assert Hypergraph.empty(2, 0).twin_classes() == ()

    def test_complete_graph_has_none(self):
        # clones, not twins: every pair lies in an edge
        assert K4.twin_classes() == ((0,), (1,), (2,), (3,))


class TestInduced:
    def test_gamma2_contains_complete(self):
        sub = gamma(2).induced([0, 1, 2, 5])
        assert are_isomorphic(sub, K4) is not None

    def test_complete_restriction(self):
        assert K4.induced([0, 1, 2]) == Hypergraph(3, 3, [(0, 1, 2)])

    def test_empty_set(self):
        got = K4.induced([])
        assert got.n == 0 and got.edges == ()

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            K4.induced([0, 9])


class TestIsomorphism:
    def test_relabeled_complete(self):
        relabeled = K4.relabel((2, 0, 3, 1))
        phi = are_isomorphic(K4, relabeled)
        assert phi is not None

    def test_different_sizes(self):
        assert are_isomorphic(K4, C5) is None

    def test_gamma1_clone_pair_swap(self):
        g1 = gamma(1)
        # swap v1 <-> v1' and v2 <-> v2' (positions 2,3 and 4,5)
        swapped = g1.relabel((0, 1, 3, 2, 5, 4))
        assert are_isomorphic(g1, swapped) is not None

    def test_witness_maps_edges(self):
        relabeled = K4.relabel((1, 3, 0, 2))
        phi = are_isomorphic(K4, relabeled)
        mapped = {tuple(sorted(phi[v] for v in e)) for e in K4.edges}
        assert mapped == set(relabeled.edges)

    def test_same_degrees_not_isomorphic(self):
        a = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        b = Hypergraph(3, 6, [(0, 1, 2), (2, 3, 4)])
        assert are_isomorphic(a, b) is None

    def test_size_limit(self):
        big = Hypergraph.empty(3, 13)
        with pytest.raises(SizeLimitError):
            are_isomorphic(big, big)
        assert are_isomorphic(big, big, max_vertices=13) is not None


class TestShadowCliqueFree:
    def test_gamma2_blowup(self):
        from turan import BlowupSpec, blowup

        h = blowup(BlowupSpec(gamma(2), (2, 2, 1, 1, 1, 1)))
        assert h.n == 8
        assert h.shadow_clique_free(6)

    def test_complete_seven(self):
        assert not Hypergraph.complete(3, 7).shadow_clique_free(6)

    def test_empty(self):
        empty = Hypergraph.empty(3, 6)
        for m in (1, 2, 5):
            assert empty.shadow_clique_free(m)


class TestDensities:
    def test_complete(self):
        assert K4.densities() == (Fraction(1), Fraction(1))

    def test_single_edge(self):
        assert Hypergraph(3, 3, [(0, 1, 2)]).densities() == (Fraction(1), Fraction(1))

    def test_balanced_blowup(self):
        from turan import BlowupSpec, blowup

        h = blowup(BlowupSpec(K4, (3, 3, 3, 3)))
        edge, shadow = h.densities()
        assert edge == Fraction(108, 220)
        assert shadow == Fraction(54, 66)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph.empty(3, 2).densities()


class TestTextFormat:
    def test_round_trip(self):
        text = gamma(2).to_text()
        assert Hypergraph.from_text(text) == gamma(2)
        assert Hypergraph.from_text(text).to_text() == text

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "g.hg"
        for graph in (gamma(3), Hypergraph.empty(2, 3), Hypergraph(4, 6, [(0, 2, 3, 5)])):
            write_hypergraph(graph, path)
            assert path.read_text(encoding="utf-8") == graph.to_text()
            assert read_hypergraph(path) == graph

    def test_comments_and_blanks(self):
        text = "# header comment\n3 4\n\n0 1 2\n# inline comment line\n0 1 3\n"
        assert Hypergraph.from_text(text) == Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            Hypergraph.from_text("3 4\n0 1 2\n0 1\n")
        assert err.value.line == 3

    def test_non_integer(self):
        with pytest.raises(ParseError):
            Hypergraph.from_text("3 x\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            Hypergraph.from_text("# nothing\n")

    @pytest.mark.parametrize(
        "text, line",
        [("3 -1\n", 1), ("3 -1\n0 1 2\n", 1), ("0 4\n", 1), ("# r n\n\n-2 5\n1 2\n", 3)],
    )
    def test_bad_header_reports_its_line(self, text, line):
        with pytest.raises(ParseError) as err:
            Hypergraph.from_text(text)
        assert err.value.line == line and "header" in str(err.value)


def old_to_text(h: Hypergraph) -> str:
    """The line-by-line join ``to_text`` used before it formatted whole batches."""
    lines = [f"{h.r} {h.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.edges)
    return "\n".join(lines) + "\n"


def parse_outcome(parse, text: str):
    """The graph a parser returns, or the message and line of its ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def parse_per_line(text: str) -> Hypergraph:
    """Reference reader: every line on its own, edges stored through the checked constructor."""
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(f) for f in line.split()]
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", line=lineno) from None
        if header is None:
            if len(values) != 2:
                raise ParseError("header must be 'r n'", line=lineno)
            header = tuple(values)
            if header[0] < 1 or header[1] < 0:
                raise ParseError(
                    f"header 'r n' needs r >= 1 and n >= 0, got {line!r}", line=lineno
                )
            continue
        try:
            edges.append(Hypergraph(*header, [values]).edges[0])
        except InvalidArgumentError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if header is None:
        raise ParseError("empty input: missing 'r n' header", line=1)
    return Hypergraph(*header, edges)


def declined_rows(text: str) -> list[list[int]]:
    """The integer rows the line loop hands to ``_canonical_edge``, up to the first bad row.

    Empty when the header is bad: no row is read then.
    """
    rows = [line.split() for line in text.splitlines()]
    rows = [f for f in rows if f and not f[0].startswith("#")]
    try:
        r, n = (int(f) for f in rows[0])
    except (IndexError, ValueError):
        return []
    if r < 1 or n < 0:
        return []
    declined = []
    for fields in rows[1:]:
        try:
            values = [int(f) for f in fields]
        except ValueError:
            break
        increasing = all(a < b for a, b in zip(values, values[1:]))
        if len(values) == r and increasing and values[0] >= 0 and values[-1] < n:
            continue
        declined.append(values)
        if len(values) != r or len(set(values)) != r or min(values) < 0 or max(values) >= n:
            break
    return declined

# 600 strictly increasing rows; row j (1-based) is on line j + 1
ROWS = [f"{i} {i + 1} {i + 2}" for i in range(600)]
LONG_TEXT = "3 602\n" + "\n".join(ROWS) + "\n"
LONG_REVERSED = LONG_TEXT.replace("\n399 400 401\n", "\n401 400 399\n")
LONG_MALFORMED = LONG_TEXT.replace("\n399 400 401\n", "\n399 400\n")

# texts read without ``_canonical_edge``: valid header, every row strictly increasing
CANONICAL_TEXTS = [
    "3 4\n",
    "1 0\n",
    "3 4\n0 1 2\n0 1 3\n",
    "3 4\n0 1 2\n0 1 3",
    "# made by hand\n\n   \n3 4\n# first edge\n0 1 2\n\n  # indented comment\n0 1 3\n",
    "3 4\r\n0 1 2\r\n0 1 3\r\n",
    "3\t4\n0\t1  2\n\t0 1\t3 \n",
    "3 4\x0b0 1 2\x0c0 1 3\x1c0 2 3\x1d1 2 3\x1e",
    "3 4\x850 1 2\u20280 1 3\u2029",
    "3 4\n0\x1f1\x1f2\n",
    "3 4\n0 1 2\n0 1 2\n0 1 3\n0 1 2\n",
    "3 12\n+0 1 1_0\n\u0660 \u0661 \u0662\n\uff10 \uff13 \uff19\n",
    "3 300\n0 150 299\n1 256 257\n0 150 299\n",
    "1 5\n4\n0\n2\n",
    "2 5\n3 4\n0 1\n1 4\n",
    "4 6\n0 1 2 3\n2 3 4 5\n",
    "3 0003\n00 1 +2\n",
    f"3 {10**30}\n0 1 {10**25}\n",
    f"3 4\n0 1 {2:025d}\n",
    "3 4\n0 1 \u0662\n",
    "3 4\n0 1 2\n# between rows\n0 1 3\n",
    pytest.param(LONG_TEXT, id="600 rows"),
    pytest.param(LONG_TEXT.rstrip("\n"), id="600 rows, no final newline"),
]

MALFORMED_TEXTS = [
    "",
    "\n\n",
    "# nothing\n",
    "3\n",
    "3 4 5\n",
    "3 x\n",
    "0 4\n",
    "3 -1\n",
    "# r n\n\n-2 5\n1 2\n",
    "\ufeff3 4\n0 1 2\n",
    "3 4\n0 1\n",
    "3 4\n0 1 2 3\n",
    "3 4\n0 1 x\n",
    "3 4\n0 1 2 # trailing comment\n",
    "3 4\n0 1 2#\n",
    "3 4\n0 1 1\n",
    "3 4\n0 1 4\n",
    "3 4\n-1 0 1\n",
    "3 0\n0 1 2\n",
    "3 4\n0 1\n0 1 x\n",
    "3 4\n0 1 x\n0 1\n",
    "3 4\n0 1 1\n0 1 5\n",
    "3 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n1 2 5\n0 0 0\n",
    "3 4\n0 1 2\n3 4\n",
    "3 4\n0 1 2\n\n0 1 2 3\n1.0 2 3\n",
    "3 300\n0 150 300\n",
    f"3 4\n0 1 {10**22 + 2}\n",  # its last 18 digits read 2
    "10000000 2\n0 1\n",
    "3 4\n0 1 2\x00\n",
    "3 4\n0 1 2\n0\x7f1 3\n",
    pytest.param(LONG_MALFORMED, id="600 rows, row 400 short"),
]

# valid texts with a row out of order, which goes through ``_canonical_edge``
SORTED_BY_LOOP_TEXTS = [
    "3 4\n2 1 0\n",
    "3 4\n0 1 2\n3 1 0\n2 1 0\n",
    "3 4\n0 2 1\n0 1 2\n",
    "2 300\n299 0\n257 256\n",
    "4 6\n5 4 3 2\n0 1 2 3\n",
    pytest.param(LONG_REVERSED, id="600 rows, row 400 reversed"),
]

CORPUS = CANONICAL_TEXTS + MALFORMED_TEXTS + SORTED_BY_LOOP_TEXTS

# byte-pass block sizes: small ones put lines of every kind across block edges
BLOCKS = [1, 4, 16, hypergraph._TEXT_BLOCK]


class TestTextPaths:
    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("text", CORPUS)
    def test_from_text_matches_per_line_loop(self, text, block):
        with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
            got = parse_outcome(Hypergraph.from_text, text)
        assert got == parse_outcome(parse_per_line, text)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("text", CANONICAL_TEXTS)
    def test_batch_pass_takes_canonical_texts(self, text, block):
        with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
            with mock.patch.object(
                hypergraph, "_canonical_edge", wraps=hypergraph._canonical_edge
            ) as spy:
                got = Hypergraph.from_text(text)
        assert spy.call_count == 0
        assert got == parse_per_line(text)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("text", MALFORMED_TEXTS + SORTED_BY_LOOP_TEXTS)
    def test_batch_pass_declines_the_rest(self, text, block):
        # exactly the integer rows that are not already canonical, up to the
        # first fault, reach _canonical_edge
        with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
            with mock.patch.object(
                hypergraph, "_canonical_edge", wraps=hypergraph._canonical_edge
            ) as spy:
                got = parse_outcome(Hypergraph.from_text, text)
        assert got == parse_outcome(parse_per_line, text)
        assert [list(call.args[0]) for call in spy.call_args_list] == declined_rows(text)

    @pytest.mark.parametrize("block", BLOCKS)
    def test_only_the_faulty_batch_is_read_row_by_row(self, block):
        with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
            with mock.patch.object(
                hypergraph, "_canonical_edge", wraps=hypergraph._canonical_edge
            ) as spy:
                got = Hypergraph.from_text(LONG_REVERSED)
        assert got == Hypergraph.from_text(LONG_TEXT)
        # row 400 alone is out of order
        assert [list(call.args[0]) for call in spy.call_args_list] == [[401, 400, 399]]

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("3 4\n0 1\n0 1 x\n", 2, "edge (0, 1) has 2 vertices, expected 3"),
            ("3 4\n0 1 x\n0 1\n", 2, "non-integer token in '0 1 x'"),
            ("3 4\n0 1 1\n0 1 5\n", 2, "edge (0, 1, 1) repeats a vertex"),
            ("3 4\n2 1 0\n\n1 2 4\n", 4, "edge (1, 2, 4) out of range for n=4"),
        ],
    )
    def test_first_fault_wins(self, text, line, message):
        for block in BLOCKS:
            with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
                with pytest.raises(ParseError) as err:
                    Hypergraph.from_text(text)
            assert err.value.line == line
            assert str(err.value) == f"line {line}: {message}"

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_every_uniformity(self, data):
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 8))
        universe = list(itertools.combinations(range(n), r))
        edges = data.draw(st.lists(st.sampled_from(universe), max_size=20)) if universe else []
        h = Hypergraph(r, n, edges)
        text = h.to_text()
        assert text == old_to_text(h)
        for block in BLOCKS:
            with mock.patch.object(hypergraph, "_TEXT_BLOCK", block):
                assert Hypergraph.from_text(text) == h

    @pytest.mark.parametrize(
        "graph",
        [
            K4,
            C5,
            Hypergraph.empty(1, 0),
            Hypergraph.empty(3, 5),
            Hypergraph.empty(10**7, 2),
            Hypergraph(1, 3, [(2,), (0,)]),
            Hypergraph(3, 400, [(0, 199, 399), (1, 257, 300)]),
            *(gamma(t) for t in range(1, 5)),
            blowup(BlowupSpec(gamma(2), (3, 3, 1, 2, 2, 1))),
            blowup(BlowupSpec(gamma(3), (4, 4, 0, 4, 3, 1, 5))),
            # rows of dtype uint16, uint32, uint64 and object
            Hypergraph(2, 257, [(0, 256), (9, 10), (99, 100)]),
            Hypergraph(3, 65537, [(0, 9, 65536), (1, 10, 100)]),
            Hypergraph(2, 2**64, [(0, 2**64 - 1), (7, 2**40)]),
            Hypergraph(3, 10**30, [(0, 1, 10**25), (5, 10**29, 10**30 - 1)]),
        ],
    )
    def test_to_text_bytes_unchanged(self, graph):
        assert graph.to_text() == old_to_text(graph)
        assert Hypergraph.from_text(graph.to_text()) == graph

    def test_peak_memory_stays_near_the_graph(self):
        # the graph alone is about 9 times the text; no copy of every line is kept
        text = "3 100002\n" + "".join(f"{i} {i + 1} {i + 2}\n" for i in range(100_000))
        tracemalloc.start()
        try:
            graph = Hypergraph.from_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(graph) == 100_000
        assert peak <= 11 * len(text)

    def test_to_text_peak_memory_is_at_most_four_times_its_output(self):
        # the 138,240-edge gamma(3) blowup at n = 120 that the benchmark writes
        graph = blowup(BlowupSpec(gamma(3), (24, 24, 24, 6, 18, 18, 6)))
        assert len(graph) == 138_240
        tracemalloc.start()
        try:
            text = graph.to_text()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == old_to_text(graph)
        assert peak <= 4 * len(text)

    def test_debug_record_names_each_batch_path(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="turan.hypergraph"):
            Hypergraph.from_text(LONG_REVERSED)
        assert caplog.messages == [
            "from_text: 600 rows, 599 by bytes, 1 line by line"
        ]


class TestInvariants:
    @given(hypergraphs())
    @settings(max_examples=120, deadline=None)
    def test_shadow_composition(self, h):
        for steps in range(1, h.r - 1):
            assert h.shadow(1).shadow(steps) == h.shadow(steps + 1)

    @given(hypergraphs())
    @settings(max_examples=120, deadline=None)
    def test_link_sizes_sum_to_r_edges(self, h):
        degrees = [len(h.link(v).edges) for v in range(h.n)]
        assert all(degrees[v] == h.degree(v) for v in range(h.n))
        assert sum(degrees) == h.r * len(h.edges)

    @given(hypergraphs())
    @settings(max_examples=120, deadline=None)
    def test_degrees_one_pass(self, h):
        assert h.degrees() == [h.degree(v) for v in range(h.n)]

    @given(hypergraphs())
    @settings(max_examples=120, deadline=None)
    def test_two_covered_iff_complete_shadow_graph(self, h):
        graph = h if h.r == 2 else h.shadow(h.r - 2)
        complete = graph == Hypergraph.complete(2, h.n)
        assert h.is_two_covered() == complete

    @given(hypergraphs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_induced_idempotent(self, h, data):
        subset = data.draw(st.lists(st.integers(0, max(h.n - 1, 0)), max_size=h.n))
        if h.n == 0:
            subset = []
        sub = h.induced(subset)
        assert sub.induced(range(sub.n)) == sub

    @given(hypergraphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_isomorphism_reflexive_and_invertible(self, h):
        phi = are_isomorphic(h, h)
        assert phi is not None
        inverse = [0] * h.n
        for v, w in enumerate(phi):
            inverse[w] = v
        assert h.relabel(phi) == h
        assert h.relabel(inverse).relabel(phi) == h


class TestCopyAndPickle:
    @pytest.mark.parametrize("graph", [K4, C5, Hypergraph.empty(2, 3), gamma(3)])
    def test_round_trip(self, graph):
        for clone in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
            assert type(clone) is Hypergraph
            assert clone == graph and hash(clone) == hash(graph)
            assert (clone.r, clone.n, clone.edges) == (graph.r, graph.n, graph.edges)

    def test_edge_masks_cached_and_not_carried(self):
        graph = gamma(3)
        assert graph.edge_masks == frozenset(sum(1 << v for v in e) for e in graph.edges)
        assert len(graph.edge_masks) == len(graph.edges)
        assert graph.edge_masks is graph.edge_masks
        for clone in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
            assert not hasattr(clone, "_edge_masks")
            assert clone.edge_masks == graph.edge_masks

    def test_clone_stays_immutable(self):
        clone = pickle.loads(pickle.dumps(K4))
        with pytest.raises(AttributeError):
            clone.n = 5

    @pytest.mark.parametrize("graph", [K4, Hypergraph.empty(2, 3), Hypergraph(2, 10**30, [(0, 10**29)])])
    def test_clones_carry_read_only_rows_and_no_edge_cache(self, graph):
        graph.edges  # fill the cache
        assert not graph.rows.flags.writeable
        for clone in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
            assert not hasattr(clone, "_edges")
            assert clone.rows.dtype == graph.rows.dtype
            assert (clone.rows.tolist(), clone.edges) == (graph.rows.tolist(), graph.edges)
            assert not clone.rows.flags.writeable
            with pytest.raises(ValueError):
                clone.rows[:1] = 0


def reference_edges(r, n, edges) -> tuple:
    """A per-edge tuple reference: each row sorted and checked in input
    order, then the set of rows in lexicographic order."""
    if r < 1:
        raise InvalidArgumentError(f"uniformity must be >= 1, got {r}")
    if n < 0:
        raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
    out = set()
    for raw in edges:
        edge = tuple(sorted(int(v) for v in raw))
        if len(edge) != r:
            raise InvalidArgumentError(
                f"edge {tuple(raw)!r} has {len(edge)} vertices, expected {r}"
            )
        if len(set(edge)) != r:
            raise InvalidArgumentError(f"edge {tuple(raw)!r} repeats a vertex")
        if edge and (edge[0] < 0 or edge[-1] >= n):
            raise InvalidArgumentError(f"edge {edge!r} out of range for n={n}")
        out.add(edge)
    return tuple(sorted(out))


def build_outcome(build, r, n, edges):
    """The edges a constructor stores, or the type and message of its error."""
    try:
        result = build(r, n, edges)
    except (InvalidArgumentError, TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return result.edges if isinstance(result, Hypergraph) else result


# how a vertex value may arrive: the constructor reads each with int()
VERTEX_KINDS = {
    "int": int,
    "str": str,
    "float": float,
    "half": lambda v: v + 0.5,
    "bool": lambda v: bool(v) if v in (0, 1) else v,
    "int64": lambda v: np.int64(v) if abs(v) < 2**63 else v,
    "uint16": lambda v: np.uint16(v) if 0 <= v < 2**16 else v,
    "int8": lambda v: np.int8(v) if -128 <= v < 128 else v,
}


def product_blowup(spec: BlowupSpec) -> tuple:
    """Reference blowup: every product of the parts of each base edge, sorted."""
    offsets = [0, *itertools.accumulate(spec.part_sizes)]
    rows = set()
    for e in spec.base.edges:
        rows.update(itertools.product(*(range(offsets[v], offsets[v + 1]) for v in e)))
    return tuple(sorted(rows))


class TestArrayRows:
    """The array-backed graph against per-edge tuple references."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_init_matches_tuple_reference(self, data):
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.sampled_from([0, 1, 2, 3, 5, 8, 300, 70_000, 10**20]))
        vertex = st.integers(-2, min(n + 1, 12)) | st.sampled_from([n - 1, n, 255, 256])
        rows = data.draw(
            st.lists(st.lists(vertex, min_size=max(r - 1, 0), max_size=r + 1), max_size=8)
        )
        kinds = data.draw(st.lists(st.sampled_from(sorted(VERTEX_KINDS)), min_size=1, max_size=2))
        edges = [
            tuple(VERTEX_KINDS[kinds[(i + j) % len(kinds)]](v) for j, v in enumerate(row))
            for i, row in enumerate(rows)
        ]
        edges += data.draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else []
        assert build_outcome(Hypergraph, r, n, edges) == build_outcome(reference_edges, r, n, edges)

    @pytest.mark.parametrize(
        "r, n, edges",
        [
            (3, 5, [(4, 2, 0), (0, 2, 4), (1, 3, 2)]),
            (3, 5, np.array([[4, 2, 0], [0, 2, 4], [1, 3, 2]])),
            (3, 5, [(0, 1, 2), (0, 1)]),
            (3, 5, [(0, 1, 2), (0, 1, 2, 3)]),
            (3, 5, [(0, 1, 2), (1, 1, 2), (0, 1, 9)]),
            (3, 5, [(0, 1, 9), (1, 1, 2)]),
            (3, 5, [(-1, 0, 1)]),
            (3, 5, ["012", "431"]),
            (3, 5, [{0, 1, 2}, [2, 1, 0]]),
            (3, 5, [(0, 1, "x")]),
            (3, 5, [(0, 1, None)]),
            (1, 3, [2, 0]),
            (1, 3, [(True,), (False,), (2,)]),
            (2, 10**30, [(10**29, 0), (0, 10**29), (5, 4)]),
            (2, 10**30, [(0, 10**30)]),
            (2, 2**64, [(np.uint64(2**64 - 1), 0)]),
            (0, 5, [(0, 1)]),
            (3, -1, []),
            (10**7, 2, []),
        ],
    )
    def test_init_fixed_cases_match_tuple_reference(self, r, n, edges):
        assert build_outcome(Hypergraph, r, n, edges) == build_outcome(reference_edges, r, n, edges)

    @pytest.mark.parametrize(
        "n, dtype", [(0, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
                     (65_537, np.uint32), (2**64, np.uint64), (2**64 + 1, object)],
    )
    def test_rows_dtype_is_the_smallest_that_holds_n_minus_1(self, n, dtype):
        graph = Hypergraph(2, n, [(0, n - 1)] if n >= 2 else [])
        assert graph.rows.dtype == np.dtype(dtype)
        assert graph.rows.shape == (len(graph), 2)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_blowup_matches_product_reference(self, data):
        r = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(r, 6))
        universe = list(itertools.combinations(range(m), r))
        base = Hypergraph(r, m, data.draw(st.lists(st.sampled_from(universe), max_size=8)))
        sizes = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        spec = BlowupSpec(base, sizes)
        graph = blowup(spec)
        assert (graph.r, graph.n) == (r, sum(sizes))
        assert graph.edges == product_blowup(spec)

    @pytest.mark.parametrize(
        "sizes",
        [
            (250, 3, 2, 2),  # vertices on both sides of 256
            (65_530, 2, 3, 2),  # and of 65,536
            (2**64 - 3, 1, 2, 1),  # uint64 rows
            (10**30, 1, 2, 1),  # object rows
            (0, 0, 3, 4),  # every base edge meets an empty part
        ],
    )
    def test_blowup_across_dtype_boundaries(self, sizes):
        # vertex 0 is isolated, so its part only shifts the others
        spec = BlowupSpec(Hypergraph(3, 4, [(1, 2, 3)]), sizes)
        graph = blowup(spec)
        assert graph.n == sum(sizes)
        assert graph.edges == product_blowup(spec)
        assert Hypergraph.from_text(graph.to_text()) == graph
        assert graph.to_text() == old_to_text(graph)

    def test_blowup_of_a_base_with_vertex_255(self):
        # the base rows are uint8, and part 255 ends where part 256 would begin
        base = Hypergraph(2, 256, [(0, 255), (254, 255)])
        spec = BlowupSpec(base, (1,) * 254 + (2, 3))
        assert blowup(spec).edges == product_blowup(spec)

    def test_edgeless_base_blows_up_to_no_rows(self):
        graph = blowup(BlowupSpec(Hypergraph.empty(3, 4), (1, 2, 3, 4)))
        assert graph == Hypergraph.empty(3, 10) and graph.rows.shape == (0, 3)

    def test_len_and_eq_read_rows_without_building_edges(self):
        spec = BlowupSpec(gamma(2), (3, 3, 1, 2, 2, 1))
        graph, again = blowup(spec), Hypergraph.from_text(blowup(spec).to_text())
        assert len(graph) == blowup_edge_count(spec) and graph == again
        assert not hasattr(graph, "_edges") and not hasattr(again, "_edges")
        assert graph.edges is graph.edges and len(graph.edges) == len(graph)

    @pytest.mark.parametrize(
        "graph", [K4, C5, gamma(3), Hypergraph.empty(3, 4), Hypergraph(2, 10**30, [(10**29, 0), (1, 2)])]
    )
    def test_constructor_keeps_the_tuples_that_rows_build(self, graph):
        # the constructor keeps its sorted tuples; a graph from rows builds them
        again = Hypergraph._from_rows(graph.r, graph.n, graph.rows[::-1])
        assert not hasattr(again, "_edges") and again == graph
        assert again.edges == graph.edges and again.rows.dtype == graph.rows.dtype

    def test_hash_is_that_of_the_edge_tuples(self):
        for graph in (K4, C5, Hypergraph.empty(2, 3), gamma(3)):
            assert hash(graph) == hash((graph.r, graph.n, graph.edges))
