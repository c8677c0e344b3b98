"""Command-line front end.

Exit codes: 0 success, 1 domain errors (bad arguments, unmet
preconditions, budget), 2 file problems (missing, unreadable, malformed).
Domain and file errors both emit a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .common import (
    BudgetExceededError,
    InvalidArgumentError,
    ParseError,
    TuranError,
    effective_budget,
)
from .constructions import (
    BlowupSpec,
    blowup,
    count_extremal_profiles,
    crossed_blowup,
    extremal_blowup_search,
    feasible_limit,
    feasible_point,
    gamma,
    k_crossed_blowup,
)
from .homomorphism import search_homomorphism
from .hypergraph import Hypergraph, read_hypergraph
from .lagrangian import maximize
from .polynomial import MultilinearPoly
from .verify import run_criteria


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_graph(graph: Hypergraph, out_path: str | None) -> None:
    _emit(graph.to_text(), out_path)


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        u, v = (int(p) for p in parts)
    except ValueError:
        raise InvalidArgumentError(f"--pair expects 'u,v', got {text!r}") from None
    return u, v


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidArgumentError(
            f"--sizes expects comma-separated integers, got {text!r}"
        ) from None


def _parse_alphas(text: str) -> list[Fraction]:
    """'start:stop:step' (inclusive) or a comma-separated list, all exact."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise InvalidArgumentError(
                    f"--alphas range expects start:stop:step, got {text!r}"
                )
            start, stop, step = (Fraction(p) for p in parts)
            if step <= 0:
                raise InvalidArgumentError("--alphas step must be positive")
            count = max((stop - start) // step + 1, 0)
            cap = effective_budget()
            if count > cap:
                raise BudgetExceededError(f"--alphas would have {count} values, budget is {cap}")
            return [start + k * step for k in range(count)]
        return [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise InvalidArgumentError(f"--alphas could not be parsed: {text!r}") from None


def _sig12(value: Fraction) -> str:
    return format(float(value), ".12g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turan",
        description="Hypergraph optimum densities, crossed blowups, and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("lagrangian", help="maximize a hypergraph's edge polynomial")
    p.add_argument("--graph", required=True)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--grid-resolution", type=int, default=None)
    p.add_argument("--stats", action="store_true",
                   help="add what the solve did (MaximizeStats) as a 'stats' object")
    common(p)

    p = sub.add_parser("blowup", help="materialize an integer blowup")
    p.add_argument("--graph", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated part sizes")
    common(p)

    p = sub.add_parser("cross-blowup", help="crossed blowup on a vertex pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", required=True, help="u,v")
    common(p)

    p = sub.add_parser("k-cross-blowup", help="hypercube crossed blowup")
    p.add_argument("--graph", required=True)
    p.add_argument("--pair", required=True, help="u,v")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("gamma", help="the crossed extremal template gamma(t)")
    p.add_argument("--t", type=int, required=True)
    common(p)

    p = sub.add_parser("colorable", help="search for a homomorphism")
    p.add_argument("--graph", required=True, help="source hypergraph")
    p.add_argument("--target", required=True, help="target hypergraph")
    common(p)

    p = sub.add_parser("feasible-region", help="density curve of profile blowups")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--alphas", required=True, help="start:stop:step or a,b,c")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)

    p = sub.add_parser("extremal-count", help="optimal integer blowups and profiles")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    common(p)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    common(p)
    return parser


def _run(args) -> int:
    if args.command == "lagrangian":
        poly = MultilinearPoly.from_hypergraph(read_hypergraph(args.graph))
        result = maximize(
            poly,
            starts=args.starts,
            tol=args.tol,
            grid_resolution=args.grid_resolution,
            seed=args.seed,
        )
        data = result.to_json_dict()
        if args.stats:
            data["stats"] = dataclasses.asdict(result.stats)
        _emit(_json(data), args.out)
        return 0

    if args.command == "blowup":
        spec = BlowupSpec(read_hypergraph(args.graph), _parse_sizes(args.sizes))
        _emit_graph(blowup(spec), args.out)
        return 0

    if args.command == "cross-blowup":
        graph = read_hypergraph(args.graph)
        _emit_graph(crossed_blowup(graph, _parse_pair(args.pair)), args.out)
        return 0

    if args.command == "k-cross-blowup":
        graph = read_hypergraph(args.graph)
        _emit_graph(k_crossed_blowup(graph, _parse_pair(args.pair), args.k), args.out)
        return 0

    if args.command == "gamma":
        _emit_graph(gamma(args.t), args.out)
        return 0

    if args.command == "colorable":
        source = read_hypergraph(args.graph)
        target = read_hypergraph(args.target)
        _emit(_json(search_homomorphism(source, target).to_json_dict()), args.out)
        return 0

    if args.command == "feasible-region":
        rows = []
        for alpha in _parse_alphas(args.alphas):
            point = feasible_point(args.t, alpha, args.n)
            limit = feasible_limit(args.t, alpha)
            rows.append((alpha, point, limit))
        if args.format == "csv":
            lines = ["alpha,shadow_density,edge_density,shadow_limit,edge_limit"]
            lines.extend(
                ",".join(
                    (
                        _sig12(alpha),
                        _sig12(point.shadow_density),
                        _sig12(point.edge_density),
                        _sig12(limit.shadow_density),
                        _sig12(limit.edge_density),
                    )
                )
                for alpha, point, limit in rows
            )
            _emit("\n".join(lines) + "\n", args.out)
        else:
            _emit(
                _json(
                    [
                        {
                            "alpha": str(alpha),
                            "shadow_density": str(point.shadow_density),
                            "edge_density": str(point.edge_density),
                            "shadow_limit": str(limit.shadow_density),
                            "edge_limit": str(limit.edge_density),
                        }
                        for alpha, point, limit in rows
                    ]
                ),
                args.out,
            )
        return 0

    if args.command == "extremal-count":
        base = gamma(args.t)
        sizes, count = extremal_blowup_search(base, args.n, mode=args.mode, seed=args.seed)
        profiles = count_extremal_profiles(args.t, args.n)
        _emit(
            _json(
                {
                    "t": args.t,
                    "n": args.n,
                    "max_edges": count,
                    "maximizing_sizes": list(sizes),
                    "profile_count": profiles.count,
                    "alphas": [str(a) for a in profiles.alphas],
                    "profile_sizes": [list(s) for s in profiles.part_sizes],
                }
            ),
            args.out,
        )
        return 0

    if args.command == "verify":
        checks = [
            (criterion, r, seconds)
            for criterion, results, seconds in run_criteria(args.suite, seed=args.seed)
            for r in results
        ]
        if args.format == "json":
            rows = [
                {"criterion": c, "name": r.name, "passed": r.passed, "detail": r.detail,
                 "seconds": s}
                for c, r, s in checks
            ]
            _emit(_json(rows), args.out)
        else:
            lines = [
                f"{'PASS' if r.passed else 'FAIL'}  {r.name}"
                + (f"  [{r.detail}]" if r.detail else "")
                for _, r, _ in checks
            ]
            _emit("\n".join(lines) + "\n", args.out)
        return 0 if all(r.passed for _, r, _ in checks) else 1

    raise TuranError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        effective_budget()  # fail fast on a malformed TURAN_BUDGET
        return _run(args)
    except ParseError as exc:
        sys.stderr.write(_json({"error": exc.kind, "message": str(exc)}))
        return 2
    except OSError as exc:
        sys.stderr.write(_json({"error": "io", "message": str(exc)}))
        return 2
    except TuranError as exc:
        sys.stderr.write(_json({"error": exc.kind, "message": str(exc)}))
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
