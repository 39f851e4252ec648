"""The tracer's span accounting, and the metric lists BENCHMARK.json names."""

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Target, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_module():
    """outer() spends 1 s, calls inner() (2 s) twice and a hot leaf (0.5 s) once."""
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")

    def leaf():
        clock.now += 0.5
        return 7

    def inner():
        clock.now += 2.0
        return mod.leaf()

    def outer():
        clock.now += 1.0
        mod.inner()
        mod.inner()
        return "done"

    def broken():
        clock.now += 0.25
        raise ValueError("boom")

    mod.leaf, mod.inner, mod.outer, mod.broken = leaf, inner, outer, broken
    sys.modules["fake_layers"] = mod
    yield mod, clock
    del sys.modules["fake_layers"]


def test_self_time_is_duration_minus_children(fake_module):
    mod, clock = fake_module
    originals = (mod.leaf, mod.inner, mod.outer)
    tr = Tracer(clock=clock).install([
        Target("a.outer", "fake_layers", "outer"),
        Target("b.inner", "fake_layers", "inner"),
        Target("c.leaf", "fake_layers", "leaf", hot=True, measure=lambda a, k, r: {"units": r}),
    ])
    assert mod.outer() == "done"
    tr.uninstall()
    assert (mod.leaf, mod.inner, mod.outer) == originals

    assert tr.totals["a.outer"][:3] == [1, 6.0, 1.0]
    assert tr.totals["b.inner"][:3] == [2, 5.0, 4.0]
    assert tr.totals["c.leaf"][:3] == [2, 1.0, 1.0]
    assert tr.totals["c.leaf"][3] == {"units": 14}
    # spans kept for the non-hot targets only, children pointing at their parent
    assert [s.name for s in tr.spans] == ["a.outer", "b.inner", "b.inner"]
    assert [s.parent for s in tr.spans] == [-1, 0, 0]
    assert sum(v[2] for v in tr.totals.values()) == pytest.approx(6.0)


def test_failed_call_is_recorded_and_reraised(fake_module):
    mod, clock = fake_module
    tr = Tracer(clock=clock).install([Target("a.broken", "fake_layers", "broken")])
    with pytest.raises(ValueError):
        mod.broken()
    tr.uninstall()
    assert tr.spans[0].ok is False
    assert tr.totals["a.broken"][:3] == [1, 0.25, 0.25]


def test_untouched_layers_report_zero():
    metrics = Tracer().metrics()
    names = [n for n, _ in tracing.PER_LAYER if n != "trace.overhead_pct"]
    assert sorted(metrics) == sorted(names)
    assert all(v == 0 for v in metrics.values())


def test_benchmark_json_matches_the_code():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(bench) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    gated = [(n, u) for n, u, g in run.END_TO_END if g]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == gated
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "mc-validate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.monotonic() - start < 60
