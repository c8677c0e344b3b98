"""Spans and counters recorded around calls into the library.

Every library call an operation makes goes through :meth:`Tracer.call`, and
so do the set-up's ``gamma``, ``from_hypergraph`` and ``blowup`` calls;
building other inputs is not traced.  Call counts and the counters added by the
operations are kept on every pass, because they are the exact counts that
must repeat; spans (name, layer, operation, start, end) are kept only on
traced passes, in memory, and written out when the run ends.  Span times
are read from the run's meter clock, which stands still while the
host-speed kernel runs (see ``speed.py``).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class Tracer:
    """Per-pass record of library calls, grouped by layer."""

    def __init__(self, traced: bool, clock=perf_counter):
        self.traced = traced
        self.clock = clock
        self.op = "setup"
        self.spans: list[tuple[str, str, str, float, float]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` on behalf of ``layer``; time it if this pass is traced."""
        self.calls[layer] += 1
        if not self.traced:
            return fn(*args, **kwargs)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            self.spans.append((name, layer, self.op, start, end))

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += int(amount)

    def busy(self, scale: float = 1.0) -> Counter:
        """Seconds spent inside each layer's spans, times ``scale``."""
        out: Counter = Counter()
        for _, layer, _, start, end in self.spans:
            out[layer] += (end - start) * scale
        return out

    def exact_counts(self) -> dict:
        """The counts that must repeat exactly on every pass of a run."""
        merged = {f"{layer}.calls": n for layer, n in self.calls.items()}
        merged.update(self.counts)
        return dict(sorted(merged.items()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer was not called.

    Times are multiplied by ``scale``, the pass's reference-speed factor.
    """
    busy, calls, counts = tr.busy(scale), tr.calls, tr.counts

    def per_call_us(layer):
        return 1e6 * _ratio(busy[layer], calls[layer])

    starts = counts["lagrangian.maximize.starts"]
    return {
        "lagrangian.maximize.calls": calls["lagrangian.maximize"],
        "lagrangian.maximize.busy_s": busy["lagrangian.maximize"],
        "lagrangian.maximize.starts": starts,
        "lagrangian.maximize.ms_per_start": 1e3 * _ratio(busy["lagrangian.maximize"], starts),
        "lagrangian.maximize.exact_ratio": _ratio(
            counts["lagrangian.maximize.exact"], calls["lagrangian.maximize"]
        ),
        "lagrangian.grid_oracle.busy_s": busy["lagrangian.grid_oracle"],
        "lagrangian.grid_oracle.points": counts["lagrangian.grid_oracle.points"],
        "lagrangian.grid_oracle.points_per_s": _ratio(
            counts["lagrangian.grid_oracle.points"], busy["lagrangian.grid_oracle"]
        ),
        "lagrangian.certify.busy_s": busy["lagrangian.certify"],
        "lagrangian.certify.samples": counts["lagrangian.certify.samples"],
        "polynomial.evaluate.us_per_call": per_call_us("polynomial.evaluate"),
        "polynomial.evaluate_float.us_per_call": per_call_us("polynomial.evaluate_float"),
        "polynomial.gradient.us_per_call": per_call_us("polynomial.gradient"),
        "constructions.exhaustive.busy_s": busy["constructions.exhaustive"],
        "constructions.exhaustive.points": counts["constructions.exhaustive.points"],
        "constructions.exhaustive.points_per_s": _ratio(
            counts["constructions.exhaustive.points"], busy["constructions.exhaustive"]
        ),
        "constructions.local.busy_s": busy["constructions.local"],
        "constructions.blowup.busy_s": busy["constructions.blowup"],
        "constructions.blowup.edges": counts["constructions.blowup.edges"],
        "constructions.blowup.edges_per_s": _ratio(
            counts["constructions.blowup.edges"], busy["constructions.blowup"]
        ),
        "constructions.blowup_edge_count.us_per_call": per_call_us(
            "constructions.blowup_edge_count"
        ),
        "hypergraph.to_text.busy_s": busy["hypergraph.to_text"],
        "hypergraph.to_text.edges_per_s": _ratio(
            counts["hypergraph.to_text.edges"], busy["hypergraph.to_text"]
        ),
        "hypergraph.from_text.busy_s": busy["hypergraph.from_text"],
        "hypergraph.from_text.edges_per_s": _ratio(
            counts["hypergraph.from_text.edges"], busy["hypergraph.from_text"]
        ),
        "homomorphism.endomorphisms.busy_s": busy["homomorphism.endomorphisms"],
        "homomorphism.endomorphisms.maps": counts["homomorphism.endomorphisms.maps"],
        "homomorphism.search.busy_s": busy["homomorphism.search"],
        "homomorphism.search.nodes": counts["homomorphism.search.nodes"],
        "homomorphism.search.nodes_per_s": _ratio(
            counts["homomorphism.search.nodes"], busy["homomorphism.search"]
        ),
        "homomorphism.partial_embedding.busy_s": busy["homomorphism.partial_embedding"],
    }


def setup_metrics(tr: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced set-up, times multiplied by ``scale``."""
    busy = tr.busy(scale)
    return {
        "constructions.gamma.busy_s": busy["constructions.gamma"],
        "polynomial.from_hypergraph.busy_s": busy["polynomial.from_hypergraph"],
    }
