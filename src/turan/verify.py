"""Runnable verification suite: every advertised identity at its tolerance.

Each criterion is a function returning one line per sub-check; the CLI
``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .common import InvalidArgumentError, PreconditionError
from .constructions import (
    BlowupSpec,
    blowup,
    blowup_edge_count,
    count_extremal_profiles,
    crossed_blowup,
    double_vertex,
    extremal_blowup_search,
    feasible_limit,
    feasible_point,
    gamma,
    gamma_base,
    gamma_lagrangian,
    gamma_permutation,
    k_crossed_blowup,
    tight_cycle,
)
from .homomorphism import (
    enumerate_endomorphisms,
    is_colorable,
    partial_embedding_check,
)
from .hypergraph import Hypergraph
from .lagrangian import (
    SimplexPoint,
    _exact_derivatives,
    maximize,
    predicted_segment,
    symmetrize_point,
    verify_segment,
)
from .polynomial import MultilinearPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    #: ``time.perf_counter()`` when the line was made
    stamp: float = field(default_factory=time.perf_counter, compare=False, repr=False)


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def permute_point(point: SimplexPoint, perm) -> SimplexPoint:
    """Coordinate i of the input becomes coordinate perm[i] of the output."""
    coords = list(point.coords)
    out = list(coords)
    for i, target in enumerate(perm):
        out[target] = coords[i]
    return SimplexPoint(out)


def _degree3_lattice(corners) -> list[list[Fraction]]:
    """The degree-3 principal lattice of the simplex spanned by ``corners``.

    Its points are the averages of the multisets of 3 corners.  The lattice is
    unisolvent for cubics: a polynomial of degree <= 3 is fixed on the affine
    hull of the corners by its values there.
    """
    return [
        [sum(coords, Fraction(0)) / 3 for coords in zip(*triple)]
        for triple in itertools.combinations_with_replacement(corners, 3)
    ]


# ---------------------------------------------------------------------------
# 1. optimizer targets


def check_lagrangian_targets(seed: int = 0) -> list[CheckResult]:
    tol = 1e-9
    time_budget = 5.0

    def run(name, graph, target):
        started = time.monotonic()
        got = maximize(MultilinearPoly.from_hypergraph(graph), seed=seed)
        elapsed = time.monotonic() - started
        return _result(
            f"{name} = {target}",
            abs(got.value - float(target)) <= tol and elapsed < time_budget,
            f"value {got.value:.12f}, exact {got.exact}, {elapsed:.2f}s",
        )

    out = []
    for t in (1, 2, 3, 4):
        target = gamma_lagrangian(t)
        out.append(run(f"lambda(K_{t + 2}^3)", Hypergraph.complete(3, t + 2), target))
        out.append(run(f"lambda(gamma({t}))", gamma(t), target))
    cycle = tight_cycle(5)
    out.append(run("lambda(C_5^3)", cycle, Fraction(1, 25)))
    out.append(
        run("lambda(C_5^3 crossed on (3,4))", crossed_blowup(cycle, (3, 4)), Fraction(4, 81))
    )
    return out


# ---------------------------------------------------------------------------
# 2. exact segment certificates


def check_segment_certificates(seed: int = 0) -> list[CheckResult]:
    out = []

    def segment_line(name, cert):
        return _result(
            f"{name}: proved by {cert.samples} exact samples = {cert.target}",
            cert.proved,
            f"failing alpha: {cert.failing_alpha}",
        )

    for t in (1, 2, 3):
        base, pair, z = gamma_base(t)
        first, second = predicted_segment(base, pair, z)
        target = gamma_lagrangian(t)
        raw_poly = MultilinearPoly.from_hypergraph(crossed_blowup(base, pair))
        cert = verify_segment(raw_poly, first, second, 11, target)
        out.append(segment_line(f"segment of crossed base, t={t}", cert))
        perm = gamma_permutation(t)
        canon_poly = MultilinearPoly.from_hypergraph(gamma(t))
        cert = verify_segment(
            canon_poly, permute_point(first, perm), permute_point(second, perm), 11, target
        )
        out.append(segment_line(f"segment under gamma({t}) labels", cert))
    # p restricted to the triangle is a bivariate cubic, so 10 exact hits on
    # the degree-3 lattice prove p constant there
    third = Fraction(1, 3)
    zero = Fraction(0)
    corners = [
        (third, zero, third, zero, zero, third),
        (zero, third, third, zero, zero, third),
        (zero, third, zero, third, third, zero),
    ]
    poly1 = MultilinearPoly.from_hypergraph(gamma(1))
    lattice = _degree3_lattice(corners)
    ok = all(value == Fraction(1, 27) for value in poly1.kernel.rational_values(lattice))
    out.append(
        _result(
            "gamma(1) optimal triangle: proved = 1/27 by the 10-point degree-3 lattice",
            ok and poly1.degree() <= 3,
            f"{len(lattice)} exact evaluations",
        )
    )
    return out


# ---------------------------------------------------------------------------
# 3. construction fidelity


def check_construction_fidelity(seed: int = 0) -> list[CheckResult]:
    out = []
    crossed = crossed_blowup(Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)]), (2, 3))
    expected = {
        (0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
    }
    link0 = {e for e in crossed.link(0).edges}
    link1 = {e for e in crossed.link(1).edges}
    bipartite_a = {(2, 3), (2, 5), (3, 4), (4, 5)}  # {2,4} x {3,5}
    bipartite_b = {(2, 4), (2, 5), (3, 4), (3, 5)}  # {2,3} x {4,5}
    out.append(
        _result(
            "two-edge base crossed on (2,3): 8 edges, two complete bipartite links",
            set(crossed.edges) == expected
            and link0 == bipartite_a
            and link1 == bipartite_b,
            f"{len(crossed.edges)} edges",
        )
    )

    g2 = gamma(2)
    t = 2
    expected_codegrees = {}
    for i, j in itertools.combinations(range(t + 4), 2):
        if j < t:
            expected_codegrees[(i, j)] = t + 2
        elif i < t:
            expected_codegrees[(i, j)] = t + 1
        elif {i, j} in ({t, t + 3}, {t + 1, t + 2}):
            expected_codegrees[(i, j)] = t
        elif {i, j} in ({t, t + 2}, {t + 1, t + 3}):
            expected_codegrees[(i, j)] = t - 1
        else:
            expected_codegrees[(i, j)] = 1
    table_ok = all(
        g2.codegree(pair).count == want for pair, want in expected_codegrees.items()
    )
    out.append(
        _result(
            "gamma(2) reproduces the full codegree table",
            table_ok,
            f"{len(expected_codegrees)} pairs checked",
        )
    )

    doubled = double_vertex(Hypergraph(3, 5, [(0, 1, 4), (2, 3, 4)]), 4)
    out.append(
        _result(
            "doubling the shared vertex of {014, 234} gives {014, 015, 234, 235}",
            doubled == Hypergraph(3, 6, [(0, 1, 4), (0, 1, 5), (2, 3, 4), (2, 3, 5)]),
            repr(doubled),
        )
    )

    cube = k_crossed_blowup(Hypergraph(3, 5, [(0, 3, 4), (1, 3, 4), (2, 3, 4)]), (3, 4), 3)
    out.append(
        _result(
            "3-crossed blowup of the three-edge base: 48 edges on 11 vertices",
            cube.n == 11 and len(cube.edges) == 48,
            f"n={cube.n}, edges={len(cube.edges)}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# 4. extremal counts


def check_extremal_counts(seed: int = 0) -> list[CheckResult]:
    out = []
    t = 2
    base = gamma(t)
    for n in (12, 24, 48):
        want = gamma_lagrangian(t) * n**3
        sizes, count = extremal_blowup_search(base, n, mode="exhaustive")
        out.append(
            _result(
                f"exhaustive max blowup of gamma(2) on n={n} has {want} edges",
                count == want,
                f"sizes {sizes}, count {count}",
            )
        )
        profiles = count_extremal_profiles(t, n)
        m = n // (t + 2)
        attained = all(
            blowup_edge_count(BlowupSpec(base, s)) == want for s in profiles.part_sizes
        )
        out.append(
            _result(
                f"n={n}: {m // 2 + 1} optimal profiles, all attaining the maximum,"
                f" count >= n/{2 * (t + 2)}",
                profiles.count == m // 2 + 1
                and attained
                and profiles.count >= Fraction(n, 2 * (t + 2)),
                f"alphas {[str(a) for a in profiles.alphas]}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# 5. homomorphism lemmas by exhaustion


def check_homomorphism_lemmas(seed: int = 0) -> list[CheckResult]:
    out = []
    for t in range(2, 7):
        graph = gamma(t)
        head = set(range(t))
        cross = ({t, t + 3}, {t + 1, t + 2})
        endos = enumerate_endomorphisms(graph)
        # the automorphism group orders: a missed map fails the line
        order = 8 if t == 2 else 4 * math.factorial(t - 1)
        ok = len(endos) == order
        for phi in endos:
            images = phi.images
            if len(set(images)) != graph.n:
                ok = False
            if {images[v] for v in head} != head:
                ok = False
            image_pairs = {
                frozenset(images[v] for v in cross[0]),
                frozenset(images[v] for v in cross[1]),
            }
            if image_pairs != {frozenset(cross[0]), frozenset(cross[1])}:
                ok = False
            if t >= 3 and {images[v] for v in range(t - 1)} != set(range(t - 1)):
                ok = False
        out.append(
            _result(
                f"all {len(endos)} endomorphisms of gamma({t}) are rigid automorphisms",
                ok,
                f"{len(endos)} endomorphisms, group order {order}",
            )
        )
    for t in (2, 3, 4):
        out.append(
            _result(
                f"partial embeddings of gamma({t}) minus a special vertex are rigid",
                partial_embedding_check(t),
                "exhaustive enumeration",
            )
        )
    out.append(
        _result(
            "K_5^3 is not gamma(2)-colorable",
            not is_colorable(Hypergraph.complete(3, 5), gamma(2)),
            "exhaustive backtracking",
        )
    )
    return out


# ---------------------------------------------------------------------------
# 6. feasible-region convergence


def check_feasible_region(seed: int = 0) -> list[CheckResult]:
    out = []
    t, n = 2, 480
    bound = Fraction(5, n)
    for alpha in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        point = feasible_point(t, alpha, n)
        limit = feasible_limit(t, alpha)
        ok = (
            abs(point.shadow_density - limit.shadow_density) <= bound
            and abs(point.edge_density - limit.edge_density) <= bound
        )
        out.append(
            _result(
                f"alpha={alpha}: finite n={n} densities within 5/n of the limits",
                ok,
                f"shadow {float(point.shadow_density):.6f} vs {float(limit.shadow_density):.6f}, "
                f"edge {float(point.edge_density):.6f} vs {float(limit.edge_density):.6f}",
            )
        )
    lo = feasible_limit(t, 0).shadow_density
    hi = feasible_limit(t, Fraction(1, 2)).shadow_density
    grid = [feasible_limit(t, Fraction(k, 20)).shadow_density for k in range(11)]
    monotone = all(a <= b for a, b in zip(grid, grid[1:]))
    out.append(
        _result(
            "limit shadow range over alpha in [0, 1/2] is exactly [3/4, 13/16]",
            lo == Fraction(3, 4) and hi == Fraction(13, 16) and monotone,
            f"endpoints {lo}, {hi}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# 7. randomized property suites


def _random_hypergraph(rng, r: int, n: int, density: float = 0.5) -> Hypergraph:
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < density]
    return Hypergraph(r, n, edges)


def _random_exact_simplex_point(rng, m: int, scale: int = 60) -> SimplexPoint:
    weights = [int(rng.integers(0, scale)) for _ in range(m)]
    if sum(weights) == 0:
        weights[int(rng.integers(0, m))] = 1
    return SimplexPoint.normalized(weights)


def check_property_suites(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    out = []

    # blowup counting formula, exact
    ok = True
    for _ in range(200):
        base = _random_hypergraph(rng, int(rng.integers(2, 4)), int(rng.integers(2, 6)))
        sizes = tuple(int(rng.integers(0, 4)) for _ in range(base.n))
        spec = BlowupSpec(base, sizes)
        if len(blowup(spec).edges) != blowup_edge_count(spec):
            ok = False
            break
    out.append(_result("blowup edge counts match materialization (200 cases)", ok, ""))

    # a blowup picks one vertex per part of an edge, so it has n^3 p(sizes/n)
    # edges; p <= lambda on the simplex then bounds it by lambda * n^3
    ok = True
    cases = 0
    for _ in range(20):
        base = _random_hypergraph(rng, 3, int(rng.integers(3, 6)), density=0.6)
        if not base.edges:
            continue
        poly = MultilinearPoly.from_hypergraph(base)
        for _ in range(6):
            sizes = tuple(int(rng.integers(0, 5)) for _ in range(base.n))
            spec = BlowupSpec(base, sizes)
            if spec.total == 0:
                continue
            cases += 1
            weights = [Fraction(s, spec.total) for s in sizes]
            if blowup_edge_count(spec) != poly.evaluate(weights) * spec.total**3:
                ok = False
    out.append(
        _result(
            "blowup counts are n^3 p(sizes/n), so never beat lambda * n^3"
            f" ({cases} exact identities)",
            ok,
            "",
        )
    )

    # averaging a symmetric pair never decreases the value (exact)
    cases = 0
    ok = True
    graphs = [
        Hypergraph.complete(3, 4),
        Hypergraph.complete(3, 5),
        Hypergraph.complete(3, 6),
        Hypergraph(3, 4, [(0, 2, 3), (1, 2, 3)]),
        Hypergraph(3, 6, [(0, 1, 2), (0, 1, 3), (2, 3, 4), (2, 3, 5)]),
    ]
    for graph in graphs:
        poly = MultilinearPoly.from_hypergraph(graph)
        sym_pairs = [
            p
            for p in itertools.combinations(range(graph.n), 2)
            if graph.is_symmetric_pair(p)
        ]
        for pair in sym_pairs[:3]:
            for _ in range(10):
                x = _random_exact_simplex_point(rng, graph.n)
                try:  # compares both values exactly and raises on a decrease
                    symmetrize_point(poly, pair[0], pair[1], x)
                except PreconditionError:
                    ok = False
                cases += 1
    out.append(
        _result(
            f"pair averaging is monotone on {cases} exact cases (>= 100)",
            ok and cases >= 100,
            "",
        )
    )

    # cubic identity for complete 3-graphs: with y = x - 1/n on sum(x) = 1,
    # p = lambda_n - ((n-2)/(2n))|y|^2 + sum(y^3)/3; both sides are cubics, so
    # the degree-3 lattice proves it, and y_i <= (n-1)/n turns it into the bound
    points = 0
    ok = True
    for n in (4, 5, 6):
        poly = MultilinearPoly.from_hypergraph(Hypergraph.complete(3, n))
        lattice = _degree3_lattice([[int(i == j) for j in range(n)] for i in range(n)])
        lam = Fraction(math.comb(n, 3), n**3)
        for x, value in zip(lattice, poly.kernel.rational_values(lattice)):
            y = [c - Fraction(1, n) for c in x]
            square = sum(c * c for c in y)
            cube = sum(c**3 for c in y)
            if value != lam - Fraction(n - 2, 2 * n) * square + cube / 3:
                ok = False
        ok = ok and poly.degree() <= 3
        points += len(lattice)
    out.append(
        _result(
            "K_n^3, n=4,5,6, y = x - 1/n: p = C(n,3)/n^3 - ((n-2)/(2n))|y|^2 + sum(y^3)/3, so"
            " p <= C(n,3)/n^3 - ((n-4)/(6n))|y|^2",
            ok,
            f"proved by {points} exact evaluations on the degree-3 lattice",
        )
    )

    # analytic gradient against central differences
    ok = True
    polys = [
        MultilinearPoly.from_hypergraph(Hypergraph.complete(3, 4)),
        MultilinearPoly.from_hypergraph(tight_cycle(5)),
        MultilinearPoly.from_hypergraph(gamma(2)),
    ]
    h = 1e-6
    checked = 0
    for poly in polys:
        for _ in range(34):
            x = rng.dirichlet(np.ones(poly.m)) * 0.96 + 0.02 / poly.m
            g = poly.gradient(x)
            for k in range(poly.m):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd = (poly.evaluate_float(xp) - poly.evaluate_float(xm)) / (2 * h)
                if abs(g[k] - fd) > 1e-6 * max(1.0, abs(g[k])):
                    ok = False
            checked += 1
    out.append(
        _result(f"gradient matches central differences at {checked} points", ok, "")
    )

    # doubling w substitutes x_w + x_w' for x_w in the edge polynomial, which
    # maps the larger simplex onto the smaller one, so lambda is kept exactly
    ok = True
    for _ in range(20):
        base = _random_hypergraph(rng, 3, int(rng.integers(4, 6)), density=0.7)
        w = int(rng.integers(0, base.n))
        p = MultilinearPoly.from_hypergraph(base).with_variables(base.n + 1)
        slope = p.partial(w)
        x_w = MultilinearPoly.variable(p.m, w)
        rest = p - x_w * slope
        clones = x_w + MultilinearPoly.variable(p.m, base.n)
        if MultilinearPoly.from_hypergraph(double_vertex(base, w)) != rest + clones * slope:
            ok = False
    out.append(
        _result(
            "lambda is invariant under vertex doubling: p(doubled) = p with"
            " x_w -> x_w + x_w' (20 exact identities)",
            ok,
            "",
        )
    )
    return out


# ---------------------------------------------------------------------------
# 8. stability on the optimal segment


def _across(d: list[Fraction]) -> list[list[Fraction]]:
    """A basis of the h with sum(h) = 0 and h . d = 0, for a nonconstant d:
    for each k other than 0 and q (where d_q != d_0), e_k - e_0 less the
    multiple of e_q - e_0 that cancels its d component."""
    q = next(k for k in range(len(d)) if d[k] != d[0])
    basis = []
    for k in range(1, len(d)):
        if k != q:
            scale = (d[k] - d[0]) / (d[q] - d[0])
            h = [Fraction(0)] * len(d)
            h[k], h[q], h[0] = Fraction(1), -scale, scale - 1
            basis.append(h)
    return basis


def _bends_below(
    hessian: list[list[Fraction]], basis: list[list[Fraction]], c: Fraction
) -> bool:
    """Whether h.H.h < -c |h|^2 for every nonzero h spanned by ``basis``:
    the Gram form -Z^T H Z - c Z^T Z is positive definite exactly when its
    exact LDL^T has only positive pivots."""

    def dot(u, v):  # the basis vectors are sparse
        return sum((a * b for a, b in zip(u, v) if b), Fraction(0))

    pushed = [[dot(row, z) for row in hessian] for z in basis]
    form = [[-dot(hz, y) - c * dot(z, y) for hz, z in zip(pushed, basis)] for y in basis]
    for i, row in enumerate(form):
        if row[i] <= 0:
            return False
        for below in form[i + 1 :]:
            factor = below[i] / row[i]
            for k in range(i + 1, len(row)):
                below[k] -= factor * row[k]
    return True


def check_stability_fit(seed: int = 0) -> list[CheckResult]:
    """The second-order sufficient conditions along gamma(t)'s optimal segment.

    Each partial is a quadratic along the segment, so equal to 3 lambda at
    alpha = 0, 1/2, 1 means equal everywhere on it, and Euler's identity
    x . grad p = 3p then gives p = lambda there.  The Hessian is affine in x,
    so a bound at both ends holds along the segment: for nonzero h in the
    directions W that keep the sum and are orthogonal to the segment,
    p(x + h) = lambda + h.H.h / 2 + p(h) < lambda - |h|^2 / (2(t+2)) + p(h).
    """
    out = []
    for t in range(2, 7):
        perm = gamma_permutation(t)
        ends = predicted_segment(*gamma_base(t))
        first, second = (permute_point(end, perm).as_fractions() for end in ends)
        middle = [(a + b) / 2 for a, b in zip(first, second)]
        poly = MultilinearPoly.from_hypergraph(gamma(t))
        target = 3 * gamma_lagrangian(t)
        across = _across([a - b for a, b in zip(first, second)])
        partials_ok = bends = True
        for point, at_end in ((first, True), (middle, False), (second, True)):
            grads, hessian = _exact_derivatives(poly, point, hessian=at_end)
            partials_ok = partials_ok and all(g == target for g in grads)
            if at_end:
                bends = bends and _bends_below(hessian, across, Fraction(1, t + 2))
        out.append(
            _result(
                f"t={t}: every partial is 3*lambda on gamma({t})'s optimal segment,"
                f" and h.H.h < -|h|^2/{t + 2} across it",
                partials_ok and bends,
                f"partials at alpha = 0, 1/2, 1: {partials_ok};"
                f" {len(across)} LDL^T pivots > 0 at both ends: {bends}",
            )
        )
    return out


# ---------------------------------------------------------------------------
# registry


CHECKS = {
    "lagrangian-targets": check_lagrangian_targets,
    "segment-certificates": check_segment_certificates,
    "construction-fidelity": check_construction_fidelity,
    "extremal-counts": check_extremal_counts,
    "homomorphism-lemmas": check_homomorphism_lemmas,
    "feasible-region": check_feasible_region,
    "property-suites": check_property_suites,
    "stability-fit": check_stability_fit,
}


def run_criteria(which: str = "all", seed: int = 0) -> list[tuple[str, CheckResult, float]]:
    """Run the named criterion, or all of them, in order.

    Returns one ``(criterion, line, seconds)`` triple per line, with the
    time since the criterion's previous line (or its start) was made.
    """
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if which == "all":
        names = list(CHECKS)
    elif which in CHECKS:
        names = [which]
    else:
        raise InvalidArgumentError(
            f"unknown suite {which!r}; choose from {['all', *CHECKS]}"
        )
    out = []
    for name in names:
        last = time.perf_counter()
        for line in CHECKS[name](seed=seed):
            out.append((name, line, line.stamp - last))
            last = line.stamp
    return out
