"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import dataclasses
import json

import pytest

from turan import Hypergraph, MultilinearPoly, gamma, maximize, read_hypergraph
from turan.cli import main


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
        assert json.loads(out) == {"found": False, "map": None, "nodes_expanded": 156}


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
