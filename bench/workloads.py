"""The benchmark's three workloads: inputs made from a seed, and operations
that call the library and check every answer against an independent oracle.

Each workload function takes the freshly imported ``turan`` package, the
set-up tracer, the workload seed and the smoke flag, builds all inputs, and
returns the pass as a list of ``(operation id, function)`` pairs.  An
operation calls the library only through ``tr.call`` and raises
:class:`WrongAnswer` when its oracle rejects a result.  The library's own
``seed`` arguments stay at their defaults.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

# Fixed pool of random 3-graphs: the workload seed relabels them (changing
# the trajectory of every ascent start) but does not redraw them, because the
# ascent cost of freshly drawn graphs varies tenfold from seed to seed.
POOL_SEED = 2022
RANDOM_SIZES = (5, 6, 7, 8)
RANDOM_STARTS = 10
GRID_RESOLUTION = 12
SEGMENT_SAMPLES = 21
VALUE_TOL = 1e-9
DOUBLING_TOL = 2e-9
KKT_TOL = 1e-6
ENDOMORPHISM_COUNTS = {3: 8, 4: 24, 5: 96, 6: 480}


class WrongAnswer(Exception):
    """An operation returned a result its oracle rejects."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def closed_form(t: int) -> Fraction:
    """The optimum t(t+1) / (6 (t+2)^2) of K_{t+2}^3 and of gamma(t)."""
    return Fraction(t * (t + 1), 6 * (t + 2) ** 2)


def blowup_maximum(t: int, n: int) -> int:
    """Most edges of an n-vertex blowup of gamma(t) when (t+2) divides n."""
    value = closed_form(t) * n**3
    if value.denominator != 1:
        raise ValueError(f"n={n} is not a multiple of t+2={t + 2}")
    return value.numerator


def compositions(total: int, parts: int) -> int:
    return comb(total + parts - 1, parts - 1)


def random_3graph(T, rng: random.Random, n: int):
    """A 3-graph on n vertices keeping each triple with probability 1/2."""
    triples = list(itertools.combinations(range(n), 3))
    while True:
        edges = [e for e in triples if rng.random() < 0.5]
        if edges:
            return T.Hypergraph(3, n, edges)


# ---------------------------------------------------------------------------
# optimize


def check_maximum(T, tr, poly, result) -> None:
    """Re-evaluate a ``maximize`` result and bracket it with the grid oracle."""
    tr.add("lagrangian.maximize.starts", result.starts_used)
    tr.add("lagrangian.maximize.exact", result.exact is not None)
    x = [float(v) for v in result.maximizer]
    expect(min(x) >= 0 and abs(sum(x) - 1) <= 1e-9, f"maximizer {x} is off the simplex")
    at = tr.call("polynomial.evaluate_float", poly.evaluate_float, x)
    expect(abs(at - result.value) <= VALUE_TOL, f"p(maximizer) = {at!r} != value {result.value!r}")
    grad = tr.call("polynomial.gradient", poly.gradient, x)
    slack = max(grad) - sum(xi * gi for xi, gi in zip(x, grad))
    expect(slack <= KKT_TOL, f"a vertex direction improves the maximizer by {slack:.3g}")
    if result.exact is not None:
        exact_at = tr.call("polynomial.evaluate", poly.evaluate, [Fraction(v) for v in x])
        expect(
            abs(exact_at - result.exact) <= Fraction(1, 10**12),
            f"exact p(maximizer) = {float(exact_at)!r} != exact {result.exact}",
        )
    grid = tr.call("lagrangian.grid_oracle", T.grid_oracle, poly, GRID_RESOLUTION)
    tr.add("lagrangian.grid_oracle.points", compositions(GRID_RESOLUTION, poly.m))
    point = grid.point.as_fractions()
    expect(
        sum(point) == 1 and tr.call("polynomial.evaluate", poly.evaluate, point) == grid.value,
        "grid oracle value is not attained at its point",
    )
    expect(float(grid.value) <= result.value + VALUE_TOL, "grid point beats the maximum")


def solve_target(T, poly, want: Fraction):
    def op(tr):
        result = tr.call("lagrangian.maximize", T.maximize, poly)
        expect(abs(result.value - float(want)) <= VALUE_TOL, f"value {result.value!r} != {want}")
        expect(result.exact in (None, want), f"exact {result.exact} != {want}")
        check_maximum(T, tr, poly, result)

    return op


def solve_doubling(T, poly, doubled):
    def op(tr):
        values = []
        for p in (poly, doubled):
            result = tr.call("lagrangian.maximize", T.maximize, p, starts=RANDOM_STARTS)
            check_maximum(T, tr, p, result)
            values.append(result.value)
        expect(
            abs(values[0] - values[1]) <= DOUBLING_TOL,
            f"doubling a vertex moved the optimum from {values[0]!r} to {values[1]!r}",
        )

    return op


def segment_base(T, t: int):
    """The base graph, symmetric pair and exact maximizer crossed into gamma(t)."""
    if t == 1:
        z = [Fraction(1, 6), Fraction(1, 6), Fraction(1, 3), Fraction(1, 3)]
        return T.Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)]), (2, 3), T.SimplexPoint(z)
    return T.Hypergraph.complete(3, t + 2), (t, t + 1), T.SimplexPoint.uniform(t + 2)


def certify_segment(T, base, pair, z, crossed_poly, want: Fraction):
    def op(tr):
        first, second = tr.call("lagrangian.certify", T.predicted_segment, base, pair, z)
        cert = tr.call(
            "lagrangian.certify", T.verify_segment, crossed_poly, first, second,
            SEGMENT_SAMPLES, want,
        )
        tr.add("lagrangian.certify.samples", cert.samples)
        expect(cert.ok and cert.samples == SEGMENT_SAMPLES, f"fails at alpha {cert.failing_alpha}")
        for end in (first, second):
            value = tr.call("polynomial.evaluate", crossed_poly.evaluate, end.as_fractions())
            expect(value == want, f"segment end has value {value}, want {want}")

    return op


def optimize(T, tr, seed: int, smoke: bool):
    rng = random.Random(seed)

    def poly(graph):
        return tr.call("polynomial.from_hypergraph", T.MultilinearPoly.from_hypergraph, graph)

    ops = []
    targets = []
    for t in (1,) if smoke else (1, 2, 3, 4):
        targets.append((f"K{t + 2}", T.Hypergraph.complete(3, t + 2), closed_form(t)))
        targets.append((f"gamma({t})", tr.call("constructions.gamma", T.gamma, t), closed_form(t)))
    cycle = T.tight_cycle(5)
    targets.append(("C5", cycle, Fraction(1, 25)))
    if not smoke:
        targets.append(("C5-crossed", T.crossed_blowup(cycle, (3, 4)), Fraction(4, 81)))
    for label, graph, want in targets:
        ops.append((f"maximize:{label}", solve_target(T, poly(graph), want)))

    pool_rng = random.Random(POOL_SEED)
    for n in RANDOM_SIZES[:1] if smoke else RANDOM_SIZES:
        drawn = random_3graph(T, pool_rng, n)
        top = max(range(n), key=lambda v: (drawn.degree(v), -v))
        perm = list(range(n))
        rng.shuffle(perm)
        graph = drawn.relabel(perm)
        doubled = T.double_vertex(graph, perm[top])
        ops.append((f"doubling:random-{n}", solve_doubling(T, poly(graph), poly(doubled))))

    for t in (1,) if smoke else (1, 2, 3):
        base, pair, z = segment_base(T, t)
        crossed = poly(T.crossed_blowup(base, pair))
        ops.append((f"segment:t={t}", certify_segment(T, base, pair, z, crossed, closed_form(t))))
    return ops


# ---------------------------------------------------------------------------
# extremal


def best_blowup(T, graph, t: int, n: int, mode: str):
    layer = f"constructions.{mode}"

    def op(tr):
        sizes, count = tr.call(layer, T.extremal_blowup_search, graph, n, mode=mode)
        if mode == "exhaustive":
            tr.add("constructions.exhaustive.points", compositions(n, graph.n))
        expect(count == blowup_maximum(t, n), f"{count} edges, want {blowup_maximum(t, n)}")
        expect(sum(sizes) == n, f"sizes {sizes} do not sum to {n}")
        spec = T.BlowupSpec(graph, sizes)
        counted = tr.call("constructions.blowup_edge_count", T.blowup_edge_count, spec)
        expect(counted == count, f"sizes {sizes} give {counted} edges, search said {count}")

    return op


def profiles(T, graph, t: int, n: int):
    def op(tr):
        found = tr.call(
            "constructions.count_extremal_profiles", T.count_extremal_profiles, t, n
        )
        m = n // (t + 2)
        expect(found.count == m // 2 + 1, f"{found.count} profiles, want {m // 2 + 1}")
        expect(len(found.part_sizes) == found.count, "one size vector per profile")
        for sizes in found.part_sizes:
            spec = T.BlowupSpec(graph, sizes)
            count = tr.call("constructions.blowup_edge_count", T.blowup_edge_count, spec)
            expect(sum(sizes) == n and count == blowup_maximum(t, n), f"profile {sizes}")

    return op


def text_round_trip(T, spec, want_edges: int):
    """Three operations sharing one graph: materialize, write, read back."""
    state = {}

    def make(tr):
        state.clear()
        graph = tr.call("constructions.blowup", T.blowup, spec)
        tr.add("constructions.blowup.edges", len(graph.edges))
        counted = tr.call("constructions.blowup_edge_count", T.blowup_edge_count, spec)
        expect(
            graph.n == spec.total and len(graph.edges) == counted == want_edges,
            f"{len(graph.edges)} edges materialized, {counted} counted, want {want_edges}",
        )
        state["graph"] = graph

    def write(tr):
        graph = state["graph"]
        state["text"] = tr.call("hypergraph.to_text", graph.to_text)
        tr.add("hypergraph.to_text.edges", len(graph.edges))
        expect(state["text"].count("\n") == len(graph.edges) + 1, "one line per edge")

    def read(tr):
        back = tr.call("hypergraph.from_text", T.Hypergraph.from_text, state["text"])
        tr.add("hypergraph.from_text.edges", len(back.edges))
        expect(back == state["graph"], "from_text(to_text(h)) != h")

    return [("blowup", make), ("to_text", write), ("from_text", read)]


def feasible(T, t: int, n: int, alphas):
    def op(tr):
        denom = (t + 2) ** 2
        for alpha in alphas:
            point = tr.call("constructions.feasible_point", T.feasible_point, t, alpha, n)
            shadow = Fraction(t * t + 3 * t + 2, denom) + 4 * alpha * (1 - alpha) / denom
            edge = Fraction(t * (t + 1), denom)
            expect(
                abs(point.shadow_density - shadow) <= Fraction(5, n)
                and abs(point.edge_density - edge) <= Fraction(5, n),
                f"alpha={alpha}: densities not within 5/n of the limits",
            )

    return op


def extremal(T, tr, seed: int, smoke: bool):
    rng = random.Random(seed)
    graphs = {t: tr.call("constructions.gamma", T.gamma, t) for t in (2, 3, 4)}
    if smoke:
        scans = [(2, 12), (2, 24), (3, 10)]
        local = counted = [(2, 48)]
        text_n = 30
        feasible_n = 48
    else:
        scans = [(2, 12), (2, 24), (2, 48), (2, 60), (3, 25), (3, 30)]
        local = [(2, 480), (4, 600)]
        counted = [(2, 480), (3, 600), (4, 600)]
        text_n = 120
        feasible_n = 480
    ops = [
        (f"exhaustive:gamma({t}),n={n}", best_blowup(T, graphs[t], t, n, "exhaustive"))
        for t, n in scans
    ]
    ops += [(f"local:gamma({t}),n={n}", best_blowup(T, graphs[t], t, n, "local")) for t, n in local]
    ops += [(f"profiles:t={t},n={n}", profiles(T, graphs[t], t, n)) for t, n in counted]

    m = text_n // 5
    j = rng.randrange(m // 2 + 1)
    sizes = (m, m, m, j, m - j, m - j, j)
    for name, op in text_round_trip(T, T.BlowupSpec(graphs[3], sizes), blowup_maximum(3, text_n)):
        ops.append((f"{name}:gamma(3),n={text_n},j={j}", op))

    alphas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(rng.randrange(11), 20))
    ops.append((f"feasible:t=2,n={feasible_n}", feasible(T, 2, feasible_n, alphas)))
    return ops


# ---------------------------------------------------------------------------
# rigidity


def is_rigid(images, t: int) -> bool:
    """The automorphism shape every endomorphism of gamma(t) must have."""
    n = t + 4
    head = set(range(t))
    cross = (frozenset({t, t + 3}), frozenset({t + 1, t + 2}))
    return (
        len(set(images)) == n
        and {images[v] for v in head} == head
        and {frozenset(images[v] for v in pair) for pair in cross} == set(cross)
        and (t < 3 or {images[v] for v in range(t - 1)} == set(range(t - 1)))
    )


def endomorphisms(T, graph, t: int):
    def op(tr):
        maps = tr.call("homomorphism.endomorphisms", T.enumerate_endomorphisms, graph)
        tr.add("homomorphism.endomorphisms.maps", len(maps))
        want = ENDOMORPHISM_COUNTS[t]
        expect(len(maps) == want and len(set(maps)) == want, f"{len(maps)} maps, want {want}")
        for phi in maps:
            expect(
                tr.call("homomorphism.is_homomorphism", phi.is_homomorphism, graph, graph),
                f"{phi.images} is not an endomorphism",
            )
            expect(is_rigid(phi.images, t), f"{phi.images} is not rigid")

    return op


def partial_embedding(T, t: int):
    def op(tr):
        ok = tr.call("homomorphism.partial_embedding", T.partial_embedding_check, t)
        expect(ok is True, f"partial embeddings of gamma({t}) are not rigid")

    return op


def search(T, source, target, exists: bool):
    def op(tr):
        result = tr.call("homomorphism.search", T.search_homomorphism, source, target)
        tr.add("homomorphism.search.nodes", result.nodes_expanded)
        expect(result.found == exists, f"found={result.found}, want {exists}")
        if exists:
            expect(
                tr.call("homomorphism.is_homomorphism", result.map.is_homomorphism, source, target),
                f"{result.map.images} is not a homomorphism",
            )

    return op


def rigidity(T, tr, seed: int, smoke: bool):
    rng = random.Random(seed)
    graphs = {t: tr.call("constructions.gamma", T.gamma, t) for t in range(2, 7)}
    ops = [
        (f"endomorphisms:gamma({t})", endomorphisms(T, graphs[t], t))
        for t in ((3, 4) if smoke else (3, 4, 5, 6))
    ]
    small = (2,) if smoke else (2, 3, 4)
    ops += [(f"partial_embedding:t={t}", partial_embedding(T, t)) for t in small]
    # K_{t+3}^3 has no homomorphism into gamma(t): the full tree is searched
    ops += [
        (f"search:K{t + 3}->gamma({t})", search(T, T.Hypergraph.complete(3, t + 3), graphs[t], False))
        for t in small
    ]
    # a blowup always maps back onto its base: the search stops at the first hit
    for t in (2, 3):
        for k in range(1 if smoke else 2):
            sizes = tuple(rng.randint(1, 3) for _ in range(graphs[t].n))
            source = tr.call("constructions.blowup", T.blowup, T.BlowupSpec(graphs[t], sizes))
            ops.append((f"search:blowup{sizes}->gamma({t})", search(T, source, graphs[t], True)))
    return ops


WORKLOADS = {"optimize": optimize, "extremal": extremal, "rigidity": rigidity}
