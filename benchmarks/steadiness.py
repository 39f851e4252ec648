"""Are the benchmark's figures steady?  Two sets of runs, compared.

    python3 benchmarks/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Runs BENCHMARK.json's command --runs times per workload in each of two
sets, each run with its own seed, workloads interleaved.  Per workload and
end-to-end metric it prints each set's median and quartiles and the spread
(q3 - q1) / median, and whether
  * every spread is within the metric's bound (and below a third of it,
    the margin to aim for),
  * the second set's median is not worse than the first's by more than
    the bound,
  * the share of failed operations is the same in every run.
A JSON summary is the last line; the exit code is 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = (0, 1)


def one_run(command, workload, seed, seconds) -> dict:
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    results = {(s, w): [] for s in SETS for w in names}
    for s in SETS:
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for w in names:
                out = one_run(bench["command"], w, seed, bench["run_seconds"])
                results[(s, w)].append(out)
                shown = " ".join(f"{k}={v['value']:.5g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} seed {seed} {w}: correct={out['correct']} "
                      f"failed {out['failed']}/{out['attempted']} {shown}", flush=True)

    ok = True
    summary = {}
    for w in names:
        shares = {r["failed"] / r["attempted"] for s in SETS for r in results[(s, w)]}
        correct = all(r["correct"] for s in SETS for r in results[(s, w)])
        print(f"\n{w}: failed share {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'}), "
              f"all correct: {correct}")
        ok &= len(shares) == 1 and correct
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summarize([r["metrics"][name]["value"] for r in results[(s, w)]])
                    for s in SETS]
            steady = all(x["spread"] <= bound for x in sets)
            margin = all(x["spread"] <= bound / 3.0 for x in sets)
            a, b = sets[0]["median"], sets[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            agree = worse <= bound
            ok &= steady and agree
            summary[f"{w}/{name}"] = {"sets": sets, "bound": bound, "steady": steady,
                                       "below_third": margin, "agree": agree}
            cells = "  ".join(f"med {x['median']:.5g} [{x['q1']:.5g}, {x['q3']:.5g}] spread {x['spread']:.3f}"
                              for x in sets)
            flags = ("ok" if steady and agree else "FAIL") + ("" if margin else " (spread > bound/3)")
            print(f"  {name:<22} bound {bound:<5} {cells}  {flags}")
    print(json.dumps({"ok": ok, "summary": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
