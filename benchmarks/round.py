"""One round of a workload in this fresh process; prints a JSON summary.

    python3 benchmarks/round.py --workload NAME --seed N --round K --trace 0|1 --out DIR

`run.py` starts one of these per round, so every round starts with the
caches and memory of a new CLI process.  With --trace 1 the layer wrappers
of `tracing.py` are installed around the operations (not the checks) and
the spans are written to DIR.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    rng = np.random.default_rng([args.seed, args.round])
    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    tracer = tracing.Tracer().install() if args.trace else None
    try:
        r = workloads.Round(workdir, rng)
        workloads.WORKLOADS[args.workload](r)
        if tracer is not None:
            tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed = calibration.speed_factor(r.calibration)
        n_checks, failures = r.run_checks()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "attempted": len(r.ops),
        "failed": sum(not o.ok for o in r.ops),
        "errors": [f"{o.kind} {o.scenario}: {o.error}" for o in r.ops if not o.ok],
        "checks": n_checks,
        "check_failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "speed_factor": speed,
        "metrics": workloads.round_metrics(r.ops, speed),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        spans = args.out / f"spans-{args.workload}-seed{args.seed}-round{args.round}.json"
        spans.write_text(json.dumps(tracer.span_records()) + "\n")
        result["spans_file"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
