"""Span tracing of the package's layers, installed from the benchmark's side.

Each target replaces one function at the name its caller looks it up by
(for example `hetnet_offload.coverage.tagged_load_distribution`, which is
what `coverage` calls, or `scipy.integrate.quad`, which is what
`numerics` calls).  A call becomes a span: name, parent, start, end and
self time, the span's duration minus the time its child spans cover.
Spans stay in memory until the round ends.  The innermost functions run
hundreds of thousands of times a round, so they are only summed (calls,
seconds, self seconds), not kept one by one.

Nothing is installed unless a traced round asks for it.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable

QUAD = "numerics.quad"


@dataclass(frozen=True)
class Target:
    name: str  # "<layer>.<function>"
    module: str  # module whose attribute the caller reads
    attr: str
    hot: bool = False  # sum only, keep no span per call
    measure: Callable | None = None  # (args, kwargs, result) -> {counter: amount}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs, result):
    return {"points": len(result.grid)}


def _pmf_terms(args, kwargs, result):
    return {"pmf_terms": int(result.pmf.size)}


def _ap_points(args, kwargs, result):
    return {"ap_points": int(result.shape[0])}


def _trials(args, kwargs, result):
    config, settings = _arg(args, kwargs, 0, "config"), _arg(args, kwargs, 1, "settings")
    key = "trials_loaded" if config.user_density > 0.0 else "trials_sinr_only"
    return {key: settings.trials}


_PKG = "hetnet_offload"
TARGETS = (
    Target("cli.main", f"{_PKG}.cli", "main"),
    Target("model.require_valid", f"{_PKG}.cli", "require_valid"),
    Target("model.require_valid", f"{_PKG}.montecarlo", "require_valid"),
    Target(QUAD, "scipy.integrate", "quad", hot=True),
    Target("numerics.z_integral", f"{_PKG}.coverage", "z_integral", hot=True),
    Target("numerics.z_integral", f"{_PKG}.offload", "z_integral", hot=True),
    Target("association.association_probabilities", f"{_PKG}.coverage", "association_probabilities"),
    Target("association.tagged_load_distribution", f"{_PKG}.coverage", "tagged_load_distribution",
           measure=_pmf_terms),
    Target("association.tagged_load_distribution", f"{_PKG}.association", "tagged_load_distribution",
           measure=_pmf_terms),
    Target("association.rat_offload_fraction", f"{_PKG}.offload", "rat_offload_fraction"),
    Target("coverage.sinr_ccdf", f"{_PKG}.cli", "sinr_ccdf", measure=_points),
    Target("coverage.rate_ccdf", f"{_PKG}.cli", "rate_ccdf", measure=_points),
    Target("coverage.rate_ccdf", f"{_PKG}.coverage", "rate_ccdf", measure=_points),
    # the objectives that offload's solvers evaluate
    Target("coverage.rate_coverage", f"{_PKG}.offload", "rate_coverage"),
    Target("coverage.rate_coverage_mean_load", f"{_PKG}.offload", "rate_coverage_mean_load"),
    Target("coverage.rate_coverage_closed_form", f"{_PKG}.offload", "rate_coverage_closed_form"),
    Target("coverage.sinr_coverage", f"{_PKG}.offload", "sinr_coverage"),
    Target("offload.percentile_rate", f"{_PKG}.offload", "percentile_rate"),
    Target("offload.optimal_bias_rate", f"{_PKG}.cli", "optimal_bias_rate"),
    Target("offload.bias_sweep", f"{_PKG}.cli", "bias_sweep"),
    Target("montecarlo.run_batch", f"{_PKG}.cli", "run_batch", measure=_trials),
    Target("montecarlo.run_batch", f"{_PKG}.montecarlo", "run_batch", measure=_trials),
    Target("montecarlo.sample_deployment", f"{_PKG}.montecarlo", "sample_deployment", hot=True,
           measure=_ap_points),
)

_OBJECTIVES = (
    "coverage.rate_coverage",
    "coverage.rate_coverage_mean_load",
    "coverage.rate_coverage_closed_form",
    "coverage.sinr_coverage",
)

# (metric, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("cli.self_s", "s"),
    ("model.require_valid.calls", "count"),
    ("model.require_valid_s", "s"),
    ("numerics.quad.calls", "count"),
    ("numerics.quad_s", "s"),
    ("numerics.z_integral.calls", "count"),
    ("numerics.z_integral_s", "s"),
    ("numerics.self_s", "s"),
    ("association.association_probabilities.calls", "count"),
    ("association.association_probabilities_s", "s"),
    ("association.tagged_load_distribution.calls", "count"),
    ("association.tagged_load_distribution_s", "s"),
    ("association.pmf_terms", "count"),
    ("association.self_s", "s"),
    ("coverage.sinr_ccdf_s", "s"),
    ("coverage.rate_ccdf_s", "s"),
    ("coverage.rate_coverage.calls", "count"),
    ("coverage.quad_per_rate_point", "calls/point"),
    ("coverage.self_s", "s"),
    ("offload.objective_evals", "count"),
    ("offload.percentile_rate_s", "s"),
    ("offload.optimal_bias_rate_s", "s"),
    ("offload.bias_sweep_s", "s"),
    ("offload.self_s", "s"),
    ("montecarlo.sample_deployment.calls", "count"),
    ("montecarlo.sample_deployment_s", "s"),
    ("montecarlo.ap_points", "count"),
    ("montecarlo.run_batch_s", "s"),
    ("montecarlo.self_s", "s"),
    ("montecarlo.trial_ms.sinr_only", "ms"),
    ("montecarlo.trial_ms.loaded", "ms"),
    ("trace.overhead_pct", "%"),
)


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the top
    start: float
    end: float = 0.0
    self_s: float = 0.0
    quad_calls: int = 0  # quadrature calls made inside the span
    counts: dict | None = None
    ok: bool = True


class Tracer:
    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[Span] = []
        # name -> [calls, seconds, self seconds, {counter: amount}]
        self.totals: dict[str, list] = {QUAD: [0, 0.0, 0.0, {}]}
        self._stack: list[list] = []  # open calls: [child seconds, span index]
        self._undo: list[tuple] = []

    def install(self, targets=TARGETS) -> "Tracer":
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            setattr(module, t.attr, self._wrap(t, original))
            self._undo.append((module, t.attr, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, target: Target, fn):
        totals = self.totals.setdefault(target.name, [0, 0.0, 0.0, {}])
        quad = self.totals[QUAD]
        stack, spans, clock = self._stack, self.spans, self.clock
        name, keep, measure = target.name, not target.hot, target.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = -1
            if keep:
                index = len(spans)
                parent = stack[-1][1] if stack else -1
                spans.append(Span(name, parent, 0.0, quad_calls=quad[0]))
            frame = [0.0, index]
            stack.append(frame)
            result, ok = None, False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                counts = measure(args, kwargs, result) if (measure and ok) else None
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if counts:
                    for key, amount in counts.items():
                        totals[3][key] = totals[3].get(key, 0) + amount
                if keep:
                    span = spans[index]
                    span.start, span.end, span.self_s, span.ok = start, end, own, ok
                    span.quad_calls = quad[0] - span.quad_calls
                    span.counts = counts

        return traced

    def _get(self, name: str) -> list:
        return self.totals.get(name, [0, 0.0, 0.0, {}])

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but the overhead; absent layers read 0."""
        calls = lambda n: self._get(n)[0]
        secs = lambda n: self._get(n)[1]
        count = lambda n, key: self._get(n)[3].get(key, 0)

        def layer_self(layer: str) -> float:
            return sum(v[2] for k, v in self.totals.items() if k.startswith(layer + "."))

        rate_spans = [s for s in self.spans if s.name == "coverage.rate_ccdf" and s.ok]
        rate_points = sum(s.counts["points"] for s in rate_spans)
        rate_quads = sum(s.quad_calls for s in rate_spans)

        def trial_ms(key: str) -> float:
            spans = [s for s in self.spans if s.name == "montecarlo.run_batch" and s.counts
                     and key in s.counts]
            trials = sum(s.counts[key] for s in spans)
            return 1e3 * sum(s.end - s.start for s in spans) / trials if trials else 0.0

        run_batch = "montecarlo.run_batch"
        out = {
            "cli.self_s": layer_self("cli"),
            "model.require_valid.calls": calls("model.require_valid"),
            "model.require_valid_s": secs("model.require_valid"),
            "numerics.quad.calls": calls(QUAD),
            "numerics.quad_s": secs(QUAD),
            "numerics.z_integral.calls": calls("numerics.z_integral"),
            "numerics.z_integral_s": secs("numerics.z_integral"),
            "numerics.self_s": layer_self("numerics"),
            "association.association_probabilities.calls": calls("association.association_probabilities"),
            "association.association_probabilities_s": secs("association.association_probabilities"),
            "association.tagged_load_distribution.calls": calls("association.tagged_load_distribution"),
            "association.tagged_load_distribution_s": secs("association.tagged_load_distribution"),
            "association.pmf_terms": count("association.tagged_load_distribution", "pmf_terms"),
            "association.self_s": layer_self("association"),
            "coverage.sinr_ccdf_s": secs("coverage.sinr_ccdf"),
            "coverage.rate_ccdf_s": secs("coverage.rate_ccdf"),
            "coverage.rate_coverage.calls": calls("coverage.rate_coverage"),
            "coverage.quad_per_rate_point": rate_quads / rate_points if rate_points else 0.0,
            "coverage.self_s": layer_self("coverage"),
            "offload.objective_evals": sum(calls(n) for n in _OBJECTIVES),
            "offload.percentile_rate_s": secs("offload.percentile_rate"),
            "offload.optimal_bias_rate_s": secs("offload.optimal_bias_rate"),
            "offload.bias_sweep_s": secs("offload.bias_sweep"),
            "offload.self_s": layer_self("offload"),
            "montecarlo.sample_deployment.calls": calls("montecarlo.sample_deployment"),
            "montecarlo.sample_deployment_s": secs("montecarlo.sample_deployment"),
            "montecarlo.ap_points": count("montecarlo.sample_deployment", "ap_points"),
            "montecarlo.run_batch_s": secs(run_batch),
            # run_batch minus its children: serving choice, interference, users, load count
            "montecarlo.self_s": self._get(run_batch)[2],
            "montecarlo.trial_ms.sinr_only": trial_ms("trials_sinr_only"),
            "montecarlo.trial_ms.loaded": trial_ms("trials_loaded"),
        }
        return out

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.self_s, "quad_calls": s.quad_calls, "ok": s.ok, **(s.counts or {})}
            for s in self.spans
        ]
