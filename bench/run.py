"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload optimize --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout: the library is imported from the
checkout's ``src`` directory, never from an installed copy, and the run
exits with status 2 when that directory is missing.  The set-up (a fresh
import of ``turan`` plus input generation) is repeated and its median
reported; then whole passes over the workload repeat until ``--seconds``
is used up; a pass starts only while a typical pass still fits.  A fixed
reference kernel of the workload's kind of work runs from a timer signal
during every set-up and every operation, and every reported time is scaled
to the reference speed by the kernel samples taken during it (see
``speed.py``).  With
``--trace 0`` the last line holds the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics,
measured on traced passes that alternate with untraced ones.  Spans, exact
counts, raw times and the environment are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
from spans import Tracer, layer_metrics, setup_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 21
MIN_PASSES = 2


def import_fresh(src: Path):
    """Import ``turan`` from ``src`` anew, dropping any earlier copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "turan" or n.startswith("turan.")]:
        del sys.modules[name]
    module = importlib.import_module("turan")
    if Path(module.__file__).resolve().parent != src / "turan":
        raise ImportError(f"turan was imported from {module.__file__}, not {src}")
    return module


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_rev(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "turan").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_pass(ops, tr: Tracer, meter: speed.Meter):
    """One pass over the workload; a failing operation is counted, not fatal.

    ``op_s`` holds each operation's net seconds and ``ref_op_s`` the same
    at the reference speed (see ``speed.py``).
    """
    op_times, ref_times, samples, failures = {}, {}, {}, []
    for op_id, op in ops:
        tr.op = op_id

        def attempt():
            try:
                op(tr)
            except Exception:  # the run must go on and report the failure
                failures.append({"op": op_id, "error": traceback.format_exc()})

        op_times[op_id], ref_times[op_id], samples[op_id] = meter.measure(attempt)
    wall, ref_wall = sum(op_times.values()), sum(ref_times.values())
    return {"wall_s": wall, "op_s": op_times, "ref_wall_s": ref_wall, "ref_op_s": ref_times,
            "scale": ref_wall / wall, "failures": failures, "tracer": tr, "samples": samples}


def median_of(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "turan" / "__init__.py").is_file():
        print(f"error: no turan sources under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = loadavg()
    build = WORKLOADS[args.workload]
    meter = speed.Meter(args.workload)

    setups, built = [], []
    for _ in range(SETUP_REPEATS):
        tr = Tracer(bool(args.trace), meter.clock)

        def setup():
            built[:] = [build(import_fresh(src), tr, args.seed, args.smoke)]

        raw, ref, _ = meter.measure(setup)
        setups.append((raw, ref, tr))
    ops = built[0]

    passes = []
    began = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(ops, Tracer(traced, meter.clock), meter))
        elapsed = perf_counter() - began
        typical = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    counts = [p["tracer"].exact_counts() for p in passes]
    repeated = all(c == counts[0] for c in counts)
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(ops) * len(passes)
    untraced = [p for p in passes if not p["tracer"].traced]
    traced_passes = [p for p in passes if p["tracer"].traced]
    wall = statistics.median(p["ref_wall_s"] for p in untraced)
    if args.trace:
        values = median_of([layer_metrics(p["tracer"], p["scale"]) for p in traced_passes])
        values.update(median_of([setup_metrics(tr, ref / raw) for raw, ref, tr in setups]))
        values["bench.trace_overhead"] = (
            statistics.median(p["ref_wall_s"] for p in traced_passes) / wall - 1
        )
        values["bench.error_rate"] = len(failures) / attempted
        values["bench.raw_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
        values["bench.host_speed"] = statistics.median(p["scale"] for p in untraced)
        wanted = declared["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "max_op_s": statistics.median(max(p["ref_op_s"].values()) for p in untraced),
            "setup_s": statistics.median(ref for _, ref, _ in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    import numpy  # already loaded by turan; importing it earlier would hide it from set-up

    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(ROOT),
        "source_sha256": source_digest(src),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "cold_setup_s": setups[0][0],
        "passes": len(passes),
        "raw_wall_s": statistics.median(p["wall_s"] for p in untraced),
        "raw_max_op_s": statistics.median(max(p["op_s"].values()) for p in untraced),
        "raw_setup_s": statistics.median(raw for raw, _, _ in setups),
        "host_speed": [p["scale"] for p in passes],
        "setup_host_speed": [ref / raw for raw, ref, _ in setups],
    }
    result = {
        "correct": not failures and repeated,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment,
        "result": result,
        "counts": counts[0],
        "counts_repeat": repeated,
        "failures": failures,
        "passes": [{"traced": p["tracer"].traced, "wall_s": p["wall_s"], "op_s": p["op_s"],
                    "ref_wall_s": p["ref_wall_s"], "ref_op_s": p["ref_op_s"], "scale": p["scale"],
                    "samples": p["samples"]} for p in passes],
        "spans": [
            {"name": name, "layer": layer, "op": op, "start": start, "end": end,
             "pass": k, "workload": args.workload, "seed": args.seed}
            for k, p in enumerate(passes)
            for name, layer, op, start, end in p["tracer"].spans
        ],
    }
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (out / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"FAILED {failure['op']}: {failure['error'].splitlines()[-1]}", file=sys.stderr)
    if not repeated:
        print("FAILED exact counts differ between passes", file=sys.stderr)
    print(json.dumps({"environment": environment}))
    print(json.dumps({"counts": counts[0]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
