"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import types
from time import perf_counter

import pytest

import run
from spans import Tracer, layer_metrics, setup_metrics
from workloads import WORKLOADS

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


TURAN = run.import_fresh(run.ROOT / "src")


def build(workload, seed, library=TURAN):
    return WORKLOADS[workload](library, Tracer(False), seed, True)


def inputs(ops):
    """Operation ids plus the data each operation closes over."""
    skip = (types.ModuleType, types.FunctionType, dict, types.SimpleNamespace)
    return [
        (op_id, [c.cell_contents for c in fn.__closure__ or () if not isinstance(c.cell_contents, skip)])
        for op_id, fn in ops
    ]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload):
    assert inputs(build(workload, 5)) == inputs(build(workload, 5))
    assert any(inputs(build(workload, 5)) != inputs(build(workload, s)) for s in range(6, 12))


def planted(T, name, wrong):
    """A stand-in for the library whose ``name`` returns a wrong answer."""
    fake = types.SimpleNamespace(**{k: getattr(T, k) for k in dir(T) if not k.startswith("__")})
    real = getattr(T, name)
    setattr(fake, name, lambda *a, **kw: wrong(real(*a, **kw)))
    return fake


@pytest.mark.parametrize(
    "workload, name, wrong, failing_op",
    [
        ("optimize", "maximize",
         lambda r: dataclasses.replace(r, value=r.value + 1e-6), "maximize:K3"),
        ("extremal", "extremal_blowup_search",
         lambda found: (found[0], found[1] + 1), "exhaustive:gamma(2),n=12"),
        ("rigidity", "enumerate_endomorphisms", lambda maps: maps[:-1], "endomorphisms:gamma(3)"),
        ("rigidity", "search_homomorphism",
         lambda r: dataclasses.replace(r, map=None), "search:blowup"),
    ],
)
def test_oracle_catches_planted_wrong_answer(workload, name, wrong, failing_op):
    ops = build(workload, 1, planted(TURAN, name, wrong))
    result = run.run_pass(ops, Tracer(False), run.speed.Meter(workload))
    failed = [f["op"] for f in result["failures"]]
    assert any(op.startswith(failing_op) for op in failed)
    assert all(op in result["op_s"] for op, _ in ops), "a failure must not stop the pass"


def test_every_metric_has_a_valid_name_and_unit():
    declared = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
    computed = set(layer_metrics(Tracer(True))) | set(setup_metrics(Tracer(True)))
    computed |= {"bench.trace_overhead", "bench.error_rate", "bench.raw_wall_s", "bench.host_speed"}
    assert computed == {m["name"] for m in DECLARED["per_layer"]}
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])


def test_meter_takes_kernel_time_out_of_the_operation():
    meter = run.speed.Meter("rigidity")
    began = perf_counter()
    net, ref, samples = meter.measure(lambda: sum(range(5_000_000)))
    wall = perf_counter() - began
    assert samples >= run.speed.MIN_SAMPLES and samples == len(meter.samples)
    assert wall - net == pytest.approx(meter.stolen, abs=2e-3)
    assert ref > 0


def smoke(workload, trace, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_mode_runs_and_counts_repeat(workload):
    counts = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = smoke(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        counts.append(json.loads(lines[-2])["counts"])
    assert counts[0] == counts[1], "exact counts differ between traced and untraced runs"
    assert counts[0]


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = smoke("optimize", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
