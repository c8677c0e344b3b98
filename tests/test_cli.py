"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from turan import Hypergraph, MultilinearPoly, gamma, maximize, read_hypergraph
from turan.cli import main

from test_lagrangian import RANDOM_7_DOUBLED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(graph.to_text())
    return str(path)


# `turan lagrangian --graph <g> --stats` bytes; the float digits are the ascent's bits
GOLDEN_LAGRANGIAN = {
    "K_4^3": (Hypergraph.complete(3, 4), """\
{
  "value": 0.06250000000000001,
  "exact": "1/16",
  "maximizer": [
    0.25,
    0.25,
    0.25,
    0.25
  ],
  "kkt_residual": 0.0,
  "grid_lower_bound": 0.0625,
  "stats": {
    "grid_resolution": 48,
    "grid_points": 20825,
    "iterations": 31,
    "stop_reason": "tol",
    "starts_converged": 50,
    "phase": "ascent",
    "snap_denominator": 4,
    "twins_merged": 0
  }
}
"""),
    "C_5^3": (
        Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]),
        """\
{
  "value": 0.04000000000000001,
  "exact": "1/25",
  "maximizer": [
    0.2,
    0.2,
    0.2,
    0.2,
    0.2
  ],
  "kkt_residual": 1.3877787807814457e-17,
  "grid_lower_bound": 0.03994751421490013,
  "stats": {
    "grid_resolution": 38,
    "grid_points": 111930,
    "iterations": 50,
    "stop_reason": "plateau",
    "starts_converged": 1,
    "phase": "ascent",
    "snap_denominator": 5,
    "twins_merged": 0
  }
}
""",
    ),
    "gamma(2)": (gamma(2), """\
{
  "value": 0.0625,
  "exact": "1/16",
  "maximizer": [
    0.25,
    0.25,
    0.25,
    0.0,
    0.0,
    0.25
  ],
  "kkt_residual": 0.0,
  "grid_lower_bound": 0.0625,
  "stats": {
    "grid_resolution": 24,
    "grid_points": 118755,
    "iterations": 64,
    "stop_reason": "plateau",
    "starts_converged": 8,
    "phase": "grid",
    "snap_denominator": 4,
    "twins_merged": 0
  }
}
"""),
    # irrational optimum: no snap, the polish supplies the value
    "random-7-doubled": (RANDOM_7_DOUBLED, """\
{
  "value": 0.07347921958194821,
  "exact": null,
  "maximizer": [
    0.0,
    0.0400221546340891,
    0.18272285250161877,
    0.16391608306647767,
    0.17934370859092127,
    0.2300569635063262,
    0.20393823770056696,
    0.0
  ],
  "kkt_residual": 5.551115123125783e-17,
  "grid_lower_bound": 0.07252186588921283,
  "stats": {
    "grid_resolution": 14,
    "grid_points": 38760,
    "iterations": 75,
    "stop_reason": "plateau",
    "starts_converged": 6,
    "phase": "polish",
    "snap_denominator": null,
    "twins_merged": 1
  }
}
"""),
}


class TestGraphCommands:
    def test_gamma_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gamma4.hg"
        code, _, _ = run(capsys, "gamma", "--t", "2", "--out", str(out))
        assert code == 0
        assert read_hypergraph(out) == gamma(2)
        assert out.read_text() == gamma(2).to_text()

    def test_blowup(self, tmp_path, capsys):
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        out = tmp_path / "blown.hg"
        code, _, _ = run(capsys, "blowup", "--graph", base, "--sizes", "2,2,2,2",
                         "--out", str(out))
        assert code == 0
        assert len(read_hypergraph(out).edges) == 32

    def test_cross_blowup(self, tmp_path, capsys):
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        code, out, _ = run(capsys, "cross-blowup", "--graph", base, "--pair", "2,3")
        assert code == 0
        assert len(Hypergraph.from_text(out).edges) == 12

    def test_k_cross_blowup(self, tmp_path, capsys):
        base = write_graph(
            tmp_path, "b.hg", Hypergraph(3, 5, [(0, 3, 4), (1, 3, 4), (2, 3, 4)])
        )
        code, out, _ = run(
            capsys, "k-cross-blowup", "--graph", base, "--pair", "3,4", "--k", "3"
        )
        assert code == 0
        got = Hypergraph.from_text(out)
        assert got.n == 11 and len(got.edges) == 48


class TestLagrangianCommand:
    def test_c5_value(self, tmp_path, capsys):
        c5 = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)])
        path = write_graph(tmp_path, "c5.hg", c5)
        code, out, _ = run(capsys, "lagrangian", "--graph", path, "--starts", "40")
        assert code == 0
        data = json.loads(out)
        assert abs(data["value"] - 0.04) < 1e-9
        assert data["exact"] == "1/25"
        assert set(data) == {"value", "exact", "maximizer", "kkt_residual",
                             "grid_lower_bound"}

    def test_stats_flag(self, tmp_path, capsys):
        path = write_graph(tmp_path, "g.hg", gamma(2))
        _, plain, _ = run(capsys, "lagrangian", "--graph", path, "--starts", "20")
        code, out, _ = run(capsys, "lagrangian", "--graph", path, "--starts", "20",
                           "--stats")
        assert code == 0
        data = json.loads(out)
        stats = data.pop("stats")
        assert data == json.loads(plain)
        expected = maximize(MultilinearPoly.from_hypergraph(gamma(2)), starts=20).stats
        assert stats == dataclasses.asdict(expected)
        assert stats["grid_points"] > 0 and stats["phase"] in ("ascent", "grid", "snap", "polish")

    @pytest.mark.parametrize("name", GOLDEN_LAGRANGIAN)
    def test_golden_bytes(self, name, tmp_path, capsys):
        graph, expected = GOLDEN_LAGRANGIAN[name]
        path = write_graph(tmp_path, "g.hg", graph)
        assert run(capsys, "lagrangian", "--graph", path, "--stats") == (0, expected, "")

    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_graph(tmp_path, "g.hg", gamma(2))
        _, first, _ = run(capsys, "lagrangian", "--graph", path, "--starts", "20",
                          "--seed", "3")
        _, second, _ = run(capsys, "lagrangian", "--graph", path, "--starts", "20",
                           "--seed", "3")
        assert first == second


class TestColorableCommand:
    def test_json_shape(self, tmp_path, capsys):
        f = write_graph(tmp_path, "f.hg", Hypergraph.complete(3, 4))
        g = write_graph(tmp_path, "g.hg", gamma(2))
        code, out, _ = run(capsys, "colorable", "--graph", f, "--target", g)
        assert code == 0
        assert json.loads(out) == {"found": True, "map": [0, 1, 2, 5], "nodes_expanded": 4}

    def test_negative_case(self, tmp_path, capsys):
        f = write_graph(tmp_path, "f.hg", Hypergraph.complete(3, 5))
        g = write_graph(tmp_path, "g.hg", gamma(2))
        _, out, _ = run(capsys, "colorable", "--graph", f, "--target", g)
        # K5's vertices are clones, so images increase in search order: 156
        # nodes without that order
        assert json.loads(out) == {"found": False, "map": None, "nodes_expanded": 35}


class TestFeasibleRegionCommand:
    def test_csv_shape_and_range(self, capsys):
        code, out, _ = run(
            capsys, "feasible-region", "--t", "2", "--alphas", "0:0.5:0.05",
            "--n", "480", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,shadow_density,edge_density,shadow_limit,edge_limit"
        assert len(lines) == 12  # header + 11 sampled alphas
        limits = [float(line.split(",")[3]) for line in lines[1:]]
        assert limits[0] == 0.75 and limits[-1] == 0.8125
        assert limits == sorted(limits)

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "feasible-region", "--t", "2", "--alphas", "0,1/4",
            "--n", "48", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0 and len(data) == 2
        assert data[0]["shadow_limit"] == "3/4"


class TestExtremalCountCommand:
    def test_t2_n12(self, capsys):
        code, out, _ = run(capsys, "extremal-count", "--t", "2", "--n", "12")
        data = json.loads(out)
        assert code == 0
        assert data["max_edges"] == 108
        assert data["profile_count"] == 2
        assert data["alphas"] == ["0", "1/3"]


class TestVerifyCommand:
    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "construction-fidelity")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_json_format(self, capsys):
        code, text, _ = run(capsys, "verify", "--suite", "construction-fidelity")
        json_code, out, _ = run(
            capsys, "verify", "--suite", "construction-fidelity", "--format", "json"
        )
        rows = json.loads(out)
        assert code == json_code == 0
        assert rows and all(
            list(row) == ["criterion", "name", "passed", "detail", "seconds"] for row in rows
        )
        assert {row["criterion"] for row in rows} == {"construction-fidelity"}
        assert all(row["passed"] is True and row["seconds"] >= 0 for row in rows)
        assert [row["name"] for row in rows] == [
            line.split("  ")[1] for line in text.strip().splitlines()
        ]

    def test_json_format_failure_exit_code(self, capsys, monkeypatch):
        from turan import verify
        from turan.verify import CheckResult

        checks = {
            "good": lambda seed: [CheckResult("fine", True, "")],
            "bad": lambda seed: [CheckResult("broken", False, "why")],
        }
        monkeypatch.setattr(verify, "CHECKS", checks)
        code, out, _ = run(capsys, "verify", "--format", "json")
        rows = json.loads(out)
        assert code == 1
        assert [(r["criterion"], r["name"], r["passed"], r["detail"]) for r in rows] == [
            ("good", "fine", True, ""),
            ("bad", "broken", False, "why"),
        ]

    def test_json_seconds_are_per_line(self, capsys, monkeypatch):
        import time

        from turan import verify
        from turan.verify import CheckResult

        def slow_second_line(seed):
            first = CheckResult("quick", True, "")
            time.sleep(0.2)
            return [first, CheckResult("slow", True, ""), CheckResult("after", True, "")]

        monkeypatch.setattr(verify, "CHECKS", {"timed": slow_second_line})
        code, out, _ = run(capsys, "verify", "--format", "json")
        quick, slow, after = (row["seconds"] for row in json.loads(out))
        assert code == 0
        # each line carries the time since the line before it, not the criterion's total
        assert slow >= 0.2 > quick + after
        assert min(quick, slow, after) >= 0

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lagrangian", "--graph", "/nonexistent.hg")
        assert code == 2
        assert json.loads(err)["error"] == "io"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("3 4\n0 1 2 3\n")
        code, _, err = run(capsys, "lagrangian", "--graph", str(path))
        assert code == 2
        data = json.loads(err)
        assert data["error"] == "parse-error" and "line 2" in data["message"]

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_bytes(b"3 4\n0 1 \xff\n")
        code, _, err = run(capsys, "lagrangian", "--graph", str(path))
        assert code == 2
        data = json.loads(err)
        assert data["error"] == "parse-error"
        assert data["message"] == "line 2: non-integer token in '0 1 \ufffd'"

    def test_bad_byte_in_comment(self, tmp_path, capsys):
        path = tmp_path / "k4.hg"
        path.write_bytes(b"# made by \xe9\n" + Hypergraph.complete(3, 4).to_text().encode())
        assert read_hypergraph(str(path)) == Hypergraph.complete(3, 4)
        code, out, _ = run(capsys, "lagrangian", "--graph", str(path))
        assert code == 0 and json.loads(out)["exact"] == "1/16"

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "bad.hg"
        path.write_text("3 -1\n")
        code, _, err = run(capsys, "lagrangian", "--graph", str(path))
        assert code == 2
        data = json.loads(err)
        assert data["error"] == "parse-error" and "line 1" in data["message"]

    def test_domain_error(self, tmp_path, capsys):
        path = tmp_path / "thin.hg"
        path.write_text(Hypergraph(3, 4, [(0, 1, 2)]).to_text())
        code, _, err = run(capsys, "cross-blowup", "--graph", str(path),
                           "--pair", "0,1")
        assert code == 1
        assert json.loads(err)["error"] == "precondition"

    def test_bad_sizes(self, tmp_path, capsys):
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        code, out, err = run(capsys, "blowup", "--graph", base, "--sizes", "1,x")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": "--sizes expects comma-separated integers, got '1,x'",
        }

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TURAN_BUDGET", "10")
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        code, _, err = run(capsys, "blowup", "--graph", base, "--sizes", "3,3,3,3")
        assert code == 1
        assert json.loads(err)["error"] == "budget-exceeded"

    def test_alphas_range_is_budgeted(self, capsys, monkeypatch):
        # counted before any value is built: 10**9 values would not fit in memory
        monkeypatch.setenv("TURAN_BUDGET", "10")
        code, _, err = run(capsys, "feasible-region", "--t", "2", "--alphas", "0:1:1e-9",
                           "--n", "12")
        assert code == 1
        data = json.loads(err)
        assert data == {"error": "budget-exceeded",
                        "message": "--alphas would have 1000000001 values, budget is 10"}
        code, out, _ = run(capsys, "feasible-region", "--t", "2", "--alphas", "0:1/2:1/18",
                           "--n", "12")
        assert code == 0 and len(out.splitlines()) == 11  # header + 10 alphas, the budget

    @pytest.mark.parametrize(
        "alphas, message",
        [
            ("0:1:0", "--alphas step must be positive"),
            ("0:1:-1/4", "--alphas step must be positive"),
            ("0:1", "--alphas range expects start:stop:step, got '0:1'"),
            ("0:1:1:1", "--alphas range expects start:stop:step, got '0:1:1:1'"),
            ("x:1:1", "--alphas could not be parsed: 'x:1:1'"),
            ("1,1/0", "--alphas could not be parsed: '1,1/0'"),
        ],
    )
    def test_alphas_errors_keep_their_message(self, capsys, alphas, message):
        code, out, err = run(capsys, "feasible-region", "--t", "2", "--alphas", alphas,
                             "--n", "12")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "invalid-argument", "message": message}

    def test_malformed_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TURAN_BUDGET", "many")
        code, _, err = run(capsys, "gamma", "--t", "2")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"

    def test_bad_flag_value(self, capsys, tmp_path):
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        code, _, err = run(capsys, "cross-blowup", "--graph", base, "--pair", "x,y")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"

    @pytest.mark.parametrize("command", [
        ["lagrangian", "--graph", None],
        ["extremal-count", "--t", "2", "--n", "12", "--mode", "local"],
        ["extremal-count", "--t", "2", "--n", "12", "--mode", "exhaustive"],
        ["verify", "--suite", "extremal-counts"],
    ], ids=["lagrangian", "extremal-local", "extremal-exhaustive", "verify"])
    def test_negative_seed(self, capsys, tmp_path, command):
        base = write_graph(tmp_path, "k4.hg", Hypergraph.complete(3, 4))
        argv = [base if arg is None else arg for arg in command]
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "seed must be >= 0, got -1"}


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "turan", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: turan") and "extremal-count" in proc.stdout
