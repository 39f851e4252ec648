"""Benchmark of hetnet_offload: one workload, timed end to end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  The run first starts SETUP_PROBES fresh processes that import the
package, load the workload's scenarios and make a first association call
(setup_s is the median of their CPU times).  It then runs whole rounds of the
workload, each in a fresh process (`round.py`), for about S seconds and
at least one round.  With --trace 1 each round is run twice, untraced and
traced, and the run reports the per-layer metrics of the traced rounds and
the tracing overhead against the untraced ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The lines before it are a readable report.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOAD_NAMES = ("analytic-mixed", "analytic-dense", "mc-validate")

# (name, unit, in BENCHMARK.json's end_to_end): the gated metrics are the
# ones every workload measures; the others are printed for the workloads
# that run such operations.
END_TO_END = (
    ("setup_s", "s", True),
    ("run_s", "s", True),
    ("peak_rss_mb", "MB", True),
    ("sinr_points_per_s", "points/s", True),
    ("rate_points_per_s", "points/s", True),
    ("p95_solve_s", "s", False),
    ("bias_opt_s", "s", False),
    ("sweep_points_per_s", "points/s", False),
    ("mc_sinr_trials_per_s", "trials/s", False),
    ("mc_load_trials_per_s", "trials/s", False),
    ("run_cpu_s", "s", False),
    ("run_wall_s", "s", False),
)


class BenchmarkError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _remaining(t_start: float) -> float:
    return RUN_LIMIT_S - (time.monotonic() - t_start)


def _child(args: list[str], t_start: float) -> subprocess.CompletedProcess:
    timeout = _remaining(t_start)
    if timeout <= 0:
        raise BenchmarkError("out of time before a child process could start")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchmarkError(f"{args[0]} did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(workload: str, t_start: float) -> tuple[list[float], list[float]]:
    """CPU seconds of each set-up process, interpreter start included.

    Returns them scaled to the reference machine speed (the machine is
    timed with calibration.calibrate() just before and just after each
    probe) and as measured.
    """
    import calibration

    scaled, measured = [], []
    for _ in range(SETUP_PROBES):
        before = [calibration.calibrate() for _ in range(5)]
        start = _children_cpu()
        _child([str(BENCH / "setup_probe.py"), workload], t_start)
        measured.append(_children_cpu() - start)
        after = [calibration.calibrate() for _ in range(5)]
        scaled.append(calibration.speed_factor(before + after) * measured[-1])
    return scaled, measured


def run_round(workload: str, seed: int, index: int, trace: int, t_start: float) -> dict:
    proc = _child([str(BENCH / "round.py"), "--workload", workload, "--seed", str(seed),
                   "--round", str(index), "--trace", str(trace), "--out", str(OUT)], t_start)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, t_start: float):
    """Whole rounds (untraced, or untraced+traced pairs) for about `seconds`."""
    rounds, traced = [], []
    start = time.monotonic()
    longest = 0.0
    index = 0
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(workload, seed, index, 0, t_start))
        if trace:
            traced.append(run_round(workload, seed, index, 1, t_start))
        longest = max(longest, time.monotonic() - t0)
        index += 1
        elapsed = time.monotonic() - start
        if elapsed + longest > seconds or longest > _remaining(t_start) - 5.0:
            return rounds, traced


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setup: list[float], rounds: list[dict]) -> dict:
    """Median over rounds (and over repeats for sinr and rate) of each figure."""
    out = {"setup_s": statistics.median(setup),
           "peak_rss_mb": _median([r["peak_rss_mb"] for r in rounds])}
    for name, _, _ in END_TO_END:
        if name in out:
            continue
        per_round = [r["metrics"][name] for r in rounds]
        if per_round and isinstance(per_round[0], list):
            per_round = [v for values in per_round for v in values]
        out[name] = _median(per_round)
    return out


def per_layer(rounds: list[dict], traced: list[dict]) -> dict:
    import tracing  # only the traced run needs the metric list

    out = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_pct":
            out[name] = statistics.median(
                100.0 * (t["metrics"]["run_s"] / u["metrics"]["run_s"] - 1.0)
                for u, t in zip(rounds, traced)
            )
        else:  # times scaled to the reference speed like the end-to-end ones
            out[name] = statistics.median(
                t["layers"][name] * (t["speed_factor"] if unit in ("s", "ms") else 1) for t in traced
            )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    if not (ROOT / "src" / "hetnet_offload" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'hetnet_offload'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setup, setup_measured = measure_setup(args.workload, t_start)
        rounds, traced = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace), t_start)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    every = rounds + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    check_failures = [f for r in every for f in r["check_failures"]]
    correct = not check_failures

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          + (f" (+{len(traced)} traced)" if traced else "")
          + f"  python {sys.version.split()[0]}  nproc {os.cpu_count()}")
    print(f"operations attempted {attempted}, failed {failed}; "
          f"checks {sum(r['checks'] for r in every)}, failed {len(check_failures)}")
    for err in sorted({e for r in every for e in r["errors"]}):
        print(f"  failed operation: {err[:300]}")
    for f in check_failures:
        print(f"  FAILED CHECK: {f[:300]}")

    e2e = end_to_end(setup, rounds)
    for name, unit, _ in END_TO_END:
        if e2e[name] is not None:
            print(f"  {name:<24} {e2e[name]:>14.6g} {unit}")
    factors = ", ".join(f"{r['speed_factor']:.3f}" for r in every)
    print(f"  times above are CPU seconds at the reference speed; speed factor of each round {factors}; "
          f"setup_s as measured {statistics.median(setup_measured):.4g} s")
    if args.trace:
        layers = per_layer(rounds, traced)
        import tracing

        units = dict(tracing.PER_LAYER)
        for name, value in layers.items():
            print(f"  {name:<46} {value:>14.6g} {units[name]}")
        print(f"  spans: {', '.join(Path(t['spans_file']).name for t in traced)} in {OUT}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, gated in END_TO_END if gated}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
