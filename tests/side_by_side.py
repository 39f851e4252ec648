"""Hold this checkout's package against another's, in one process: every
probe value bit for bit, then the time of a fixed list of operations.

    python3 tests/side_by_side.py OTHER_SRC [--rounds N] [--json PATH]

OTHER_SRC is the other checkout's `src` directory.  The two packages are
loaded under the module names `this` and `other`, and each reads the
scenarios with its own `cli.load_config`: the shipped configs
(`configs/*.json`) and the benchmark's scenarios
(`benchmarks/scenarios/*.json`) of this checkout.

Values: on every scenario, theorem1 rate CCDFs of 5, 20 and 57 points over
1e4-1e8 bit/s and of 33 points over 1e3-1e11, one over 0.999e10-1.03e10
bit/s (1000-1030 bit/s/Hz at one load on a 10 MHz class), meanload rate
coverage at five rates and at the own thresholds, the own-threshold rate
and SINR coverage, a SINR CCDF from 0 to inf, bias sweeps of the last open
class (theorem1, meanload, SIR) and the 95% rate.  A CCDF's array holds
its values and then its per-class curves.  Each array is compared as
uint64, and the script prints its size and how many values differ; an
error is compared by its message.

Time: each operation of `_ops` runs once a round on each side, back to
back, and the side that goes first alternates from round to round.  The
`cli` operations are in-process `cli.main` calls, each side writing into
its own folder of one temporary directory, so a CLI command's own cost
(parsing, writing the files) is timed with its model work.  The
script prints the median CPU time (time.process_time) per call on each
side, the change, and in how many rounds this checkout was faster.  One
warm-up call per side comes first.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "configs").glob("*.json")) + sorted((ROOT / "benchmarks" / "scenarios").glob("*.json"))
EDGE = np.array([9.99e9, 1e10, 1.005e10, 1.02e10, 1.0239e10, 1.03e10])


def load(src: Path, name: str):
    """The package under src, imported as module `name`, with its submodules."""
    init = src / "hetnet_offload" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "coverage", "offload"):
        setattr(package, sub, importlib.import_module(f"{name}.{sub}"))
    return package


def _curve(curve) -> np.ndarray:
    return np.concatenate([curve.values, *curve.per_class.values()])


def probes(pkg, config) -> dict:
    """name -> array (or an error's message) of the probe matrix on one config."""
    cov, off = pkg.coverage, pkg.offload
    target = config.open_classes()[-1].id
    rates, biases = np.logspace(4.0, 8.0, 5), list(range(-20, 21, 4))
    matrix = {f"rate {n}": lambda n=n: _curve(cov.rate_ccdf(config, np.logspace(4.0, 8.0, n))) for n in (5, 20, 57)}
    matrix |= {
        "rate 1e3-1e11": lambda: _curve(cov.rate_ccdf(config, np.logspace(3.0, 11.0, 33))),
        "rate 1000-1030 bit/s/Hz": lambda: _curve(cov.rate_ccdf(config, EDGE)),
        "meanload": lambda: [cov.rate_coverage_mean_load(config, r) for r in rates] + [cov.rate_coverage_mean_load(config)],
        "own thresholds": lambda: [cov.rate_coverage(config), cov.sinr_coverage(config)],
        "sinr 0..inf": lambda: _curve(cov.sinr_ccdf(config, [0.0, *np.logspace(-3.0, 3.0, 25), math.inf])),
        "sweep theorem1": lambda: [v for _, v in off.bias_sweep(config, target, biases)],
        "sweep meanload": lambda: [v for _, v in off.bias_sweep(config, target, biases, method="meanload")],
        "sweep sir": lambda: [v for _, v in off.bias_sweep(config, target, biases, metric="sir_coverage")],
        "p95": lambda: [off.percentile_rate(config, 0.95)],
    }
    out = {}
    for name, probe in matrix.items():
        try:
            out[name] = np.asarray(probe(), dtype=float)
        except Exception as e:  # noqa: BLE001  (compared by message)
            out[name] = f"{type(e).__name__}: {e}"
    return out


def compare(this, other) -> dict:
    """scenario -> probe -> (values, differing)."""
    table = {}
    for path in SCENARIOS:
        mine, theirs = probes(this, this.cli.load_config(path)), probes(other, other.cli.load_config(path))
        rows = {}
        for name, a in mine.items():
            b = theirs[name]
            if isinstance(a, str) or isinstance(b, str) or a.shape != b.shape:
                rows[name] = (1, int(str(a) != str(b)))
            else:
                rows[name] = (a.size, int(np.count_nonzero(a.view(np.uint64) != b.view(np.uint64))))
        table[path.stem] = rows
    return table


def _main(pkg, argv: list[str]) -> None:
    """pkg's `cli.main(argv)`, its message discarded; a failing exit code raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.main(argv)
    if code:
        raise RuntimeError(f"{' '.join(argv)}: exit code {code}")


def _ops(pkg, out: Path) -> dict:
    """name -> call of the timed operations, on pkg's own configs; the CLI
    operations write into `out`."""
    cov, off = pkg.coverage, pkg.offload
    cfg = {p.stem: pkg.cli.load_config(p) for p in SCENARIOS}
    cli = {
        "cli analyze sinr 81 dual_rat_users_off": ["analyze", "sinr", "--tau-grid-db", "-20:60:1"],
        "cli analyze sinr 41 four_class": ["analyze", "sinr", "--tau-grid-db", "-10:30:1"],
        "cli analyze rate 5 dual_rat_500": ["analyze", "rate", "--method", "theorem1", "--rho-grid", "1e4:1e8:5"],
    }
    paths = {p.stem: str(p) for p in SCENARIOS}
    cli = {op: lambda op=op, argv=argv: _main(pkg, [*argv, "--config", paths[op.split()[-1]], "-o", str(out)])
           for op, argv in cli.items()}
    small = pkg.ClassId(2, 3)
    stack = cov._Stack([cfg["two_class_2000"]], "theorem1")
    ops = {f"rate_ccdf 5 {name}": (name, 5) for name in ("two_class_2000", "dual_rat_500", "four_class", "two_rat_three_tier")}
    ops = {op: lambda a=args: cov.rate_ccdf(cfg[a[0]], np.logspace(4.0, 8.0, a[1])) for op, args in ops.items()}
    return ops | {
        "rate_ccdf 20 two_class_sir": lambda: cov.rate_ccdf(cfg["two_class_sir"], np.logspace(4.0, 8.0, 20)),
        "rate_ccdf 20 dual_rat_dense_venue": lambda: cov.rate_ccdf(cfg["dual_rat_dense_venue"], np.logspace(4.0, 8.0, 20)),
        "sinr_ccdf 81 dual_rat_500": lambda: cov.sinr_ccdf(cfg["dual_rat_500"], 10.0 ** np.linspace(-2.0, 2.0, 81)),
        "optimal_bias_rate two_class_2000": lambda: off.optimal_bias_rate(cfg["two_class_2000"], small, (-20.0, 20.0)),
        "percentile_rate 0.95 two_class_2000": lambda: off.percentile_rate(cfg["two_class_2000"], 0.95),
        "_Stack.evaluate [379] two_class_2000": lambda: stack.evaluate([379.0]),
    } | cli


def race(this, other, rounds: int) -> dict:
    """op -> (this's CPU seconds, other's), one each a round."""
    with tempfile.TemporaryDirectory() as tmp:
        sides = [_ops(this, Path(tmp) / "this"), _ops(other, Path(tmp) / "other")]
        times = {op: ([], []) for op in sides[0]}
        for r in range(-1, rounds):  # round -1 warms up
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for op in times:
                for side in order:
                    start = time.process_time()
                    sides[side][op]()
                    if r >= 0:
                        times[op][side].append(time.process_time() - start)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", type=Path, help="the other checkout's src directory")
    parser.add_argument("--rounds", type=int, default=21, help="timed rounds (0: values only)")
    parser.add_argument("--json", type=Path, help="also write the figures to this file")
    args = parser.parse_args()
    this, other = load(ROOT / "src", "this"), load(args.other_src.resolve(), "other")
    table = compare(this, other)
    total = [sum(v for rows in table.values() for v, _ in rows.values()),
             sum(d for rows in table.values() for _, d in rows.values())]
    print(f"values: {total[1]} of {total[0]} differ")
    for scenario, rows in table.items():
        for name, (size, differ) in rows.items():
            print(f"  {scenario:22s} {name:24s} {size:5d} values {differ:5d} differ")
    record = {"values": {"compared": total[0], "differing": total[1], "arrays": table}, "ms": {}}
    if args.rounds:
        print(f"CPU ms a call, medians of {args.rounds} interleaved rounds (this / other)")
        for op, (mine, theirs) in race(this, other, args.rounds).items():
            a, b = statistics.median(mine) * 1e3, statistics.median(theirs) * 1e3
            wins = sum(x < y for x, y in zip(mine, theirs))
            record["ms"][op] = {"this": a, "other": b, "this_faster": wins, "rounds": args.rounds}
            print(f"  {op:38s} {a:9.3f} {b:9.3f} {100.0 * (a / b - 1.0):+6.1f}%  faster {wins}/{args.rounds}")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
