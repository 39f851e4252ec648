"""The three workloads: the operations one round runs, and their checks.

A round runs a workload's operations once, in a fixed order, in a fresh
process, on inputs drawn from (seed, round).  An operation is what a user
runs: a CLI subcommand called in-process through `hetnet_offload.cli.main`,
or the public API call behind one.  Every module function is looked up at
call time (`cli.main`, `offload.percentile_rate`, ...) so that a traced
round sees the wrappers `tracing.py` installs.

Checks run after the timed operations and compare outputs with the
oracles of `oracles.py` and with properties the method must have.
"""

from __future__ import annotations

import io
import json
import math
import resource
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
import checks
import oracles
from inputs import (
    DENSE_VENUE,
    DUAL_RAT_500,
    DUAL_RAT_USERS_OFF,
    TWO_CLASS,
    TWO_CLASS_2000,
    WORKLOAD_SCENARIOS,
)

from hetnet_offload import association, cli, coverage, montecarlo, offload

SINR_REPEATS = 16  # analyze sinr takes 0.05-0.2 s, so a round times it many times
# A round's rate points are computed in RATE_REPEATS grids spread over the
# round, so that the rate figure samples the machine at several times: the
# machine's speed moves by a fifth over a few seconds, and a single 6 s
# CCDF took 3.8-6.0 CPU s in fresh processes minutes apart.
RATE_REPEATS = 4
MC_SINR_TRIALS = 8_000  # users off: about 0.4 ms a trial
MC_LOAD_TRIALS = 1_200  # two-class at 200 users/km^2: about 4 ms a trial
SMALL_CELL = "2,3"  # the class whose bias the design operations move


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (README, "How
    operations are timed"): steal time left out, worker processes counted."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Op:
    kind: str
    scenario: str
    units: int  # points or trials the operation computes
    seconds: float  # CPU seconds
    wall: float
    ok: bool
    error: str = ""
    repeat: int = 0


class Round:
    """Runs operations, times each, and defers their checks."""

    def __init__(self, workdir: Path, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self.ops: list[Op] = []
        self._checks: list[tuple[str, object]] = []
        self._oracle: dict = {}
        self.calibration: list[float] = []  # calibrate() CPU seconds, one per operation

    def call(self, kind: str, path: Path, units: int, fn, repeat: int = 0):
        self.calibration.append(calibration.calibrate())
        sink = io.StringIO()
        error = ""
        start, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                result = fn()
        # a failing operation is counted and reported, not fatal to the round;
        # SystemExit is argparse rejecting the arguments
        except (Exception, SystemExit) as exc:
            result = None
            error = f"{type(exc).__name__}: {exc} {sink.getvalue().strip()}".strip()
        seconds, wall = cpu_seconds() - cpu0, time.perf_counter() - start
        self.ops.append(Op(kind, path.stem, units, seconds, wall, not error, error, repeat))
        return result

    def cli(self, kind: str, path: Path, units: int, args: list[str], repeat: int = 0):
        """Run one CLI command; returns its output directory, None if it failed."""
        outdir = self.workdir / f"op{len(self.ops):03d}-{kind}"

        def run():
            code = cli.main([*args, "--config", str(path), "--output", str(outdir)])
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return outdir

        return self.call(kind, path, units, run, repeat)

    def check(self, what: str, fn) -> None:
        self._checks.append((what, fn))

    def run_checks(self) -> tuple[int, list[str]]:
        failures = []
        for what, fn in self._checks:
            try:
                fn()
            except checks.CheckFailed as exc:
                failures.append(f"{what}: {exc}")
            except Exception as exc:  # an output that cannot be read is a failed check
                failures.append(f"{what}: {type(exc).__name__}: {exc}")
        return len(self._checks), failures

    def oracle(self, path: Path):
        """(oracle scenario, oracle association probabilities) for a file."""
        if path not in self._oracle:
            sc = oracles.load_scenario(path)
            self._oracle[path] = (sc, oracles.associations(sc))
        return self._oracle[path]


# ---------------------------------------------------------------------------
# reading and checking outputs
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def _class_key(column: str) -> tuple[int, int]:
    """'cond_2_3' -> (2, 3); the CLI writes one column per open class."""
    rat, tier = column.split("_")[1:3]
    return int(rat), int(tier)


def _per_class(header, rows, first: int, what: str) -> dict:
    out = {}
    for j, col in enumerate(header[first:], start=first):
        checks.ccdf(rows[:, j], f"{what} {col}")
        out[_class_key(col)] = rows[:, j]
    return out


def _same_classes(per_class: dict, assoc: dict, what: str) -> None:
    if set(per_class) != set(assoc):
        raise checks.CheckFailed(f"{what}: classes {sorted(per_class)} != {sorted(assoc)}")


def _check_program_association(r: Round, path: Path) -> None:
    """The package's association probabilities: sum to 1, equal the oracle's."""
    config = cli.load_config(path)
    _, assoc = r.oracle(path)
    probs = {(c.rat, c.tier): p for c, p in association.association_probabilities(config).items()}
    checks.association_sum(probs, path.stem)
    for key, p in probs.items():
        checks.close(p, assoc[key], f"{path.stem} A{key}", checks.ASSOC_SUM_TOL)


def _check_sinr_csv(r: Round, csv: Path, path: Path, points: int) -> None:
    sc, assoc = r.oracle(path)
    header, rows = _read_csv(csv)
    if rows.shape[0] != points:
        raise checks.CheckFailed(f"{rows.shape[0]} rows, expected {points}")
    checks.ccdf(rows[:, 1], "coverage")
    per_class = _per_class(header, rows, 2, "sinr")
    _same_classes(per_class, assoc, "sinr")
    checks.mix(rows[:, 1], per_class, assoc, "sinr mix")
    taus = 10.0 ** (rows[:, 0] / 10.0)
    for key, curve in per_class.items():
        checks.close(curve, oracles.coverage_oracle(sc, *key, taus, assoc[key]), f"S{key}")


def _check_rate_csv(r: Round, csv: Path, path: Path, points: int, picks) -> None:
    sc, assoc = r.oracle(path)
    header, rows = _read_csv(csv)
    if rows.shape[0] != points:
        raise checks.CheckFailed(f"{rows.shape[0]} rows, expected {points}")
    checks.ccdf(rows[:, 1], "rate coverage")
    per_class = _per_class(header, rows, 2, "rate")
    _same_classes(per_class, assoc, "rate")
    checks.mix(rows[:, 1], per_class, assoc, "rate mix")
    for k in picks:
        checks.close(rows[k, 1], oracles.rate_oracle(sc, rows[k, 0]), f"R({rows[k, 0]:.4g})")


def _check_percentile(r: Round, path: Path, rho: float, target: float) -> None:
    sc, _ = r.oracle(path)
    checks.percentile(oracles.rate_oracle(sc, rho), target, f"rho_{target:g} = {rho:.6g}")


def _small_cell_bias(sc, bias_db: float):
    rat, tier = (int(x) for x in SMALL_CELL.split(","))
    return sc.with_bias(rat, tier, 10.0 ** (bias_db / 10.0))


def _check_sweep_csv(r: Round, csv: Path, path: Path, points: int, pick: int) -> None:
    sc, _ = r.oracle(path)
    _, rows = _read_csv(csv)
    if rows.shape[0] != points:
        raise checks.CheckFailed(f"{rows.shape[0]} rows, expected {points}")
    checks.probabilities(rows[:, 1], "sweep")
    bias_db, value = rows[pick]
    checks.close(value, oracles.rate_oracle(_small_cell_bias(sc, bias_db)), f"R at {bias_db:.3f} dB")


def _check_bias_opt(r: Round, out: Path, path: Path, lo: float, hi: float) -> None:
    sc, _ = r.oracle(path)
    blob = json.loads((out / "optimize_bias.json").read_text())
    checks.bias_optimum(blob["objective"], [v for _, v in blob["trace"]], "optimum")
    checks.probabilities([blob["objective"], blob["offload_fraction"]], "optimum")
    if not lo - 1e-9 <= blob["b_opt_db"] <= hi + 1e-9:
        raise checks.CheckFailed(f"b_opt {blob['b_opt_db']} dB outside [{lo}, {hi}]")
    tuned = _small_cell_bias(sc, blob["b_opt_db"])
    checks.close(blob["objective"], oracles.rate_oracle(tuned), "objective at b_opt")
    rat = int(SMALL_CELL.split(",")[0])
    offload_share = sum(a for (m, _), a in oracles.associations(tuned).items() if m == rat)
    checks.close(blob["offload_fraction"], offload_share, "offload fraction", checks.ASSOC_SUM_TOL)


def _check_pmf(r: Round, path: Path, cid, dist) -> None:
    sc, assoc = r.oracle(path)
    key = (cid.rat, cid.tier)
    ratio = oracles.load_ratio(sc, *key, assoc[key])
    checks.close(dist.ratio / ratio, 1.0, "load ratio", 1e-9)
    n, pmf = oracles.tagged_pmf_oracle(ratio)
    inside = n < dist.pmf.size
    checks.close(dist.pmf[n[inside]], pmf[inside], "tagged-load pmf", 1e-9)
    checks.close(dist.pmf.sum(), 1.0, "tagged-load pmf mass", 1e-9)


def _analytic_sinr(r: Round, path: Path, taus) -> np.ndarray:
    sc, assoc = r.oracle(path)
    return sum(a * oracles.coverage_oracle(sc, *key, taus, a) for key, a in assoc.items())


def _check_association_freq(r: Round, path: Path, freq: dict, trials: int) -> None:
    _, assoc = r.oracle(path)
    if set(freq) != set(assoc):
        raise checks.CheckFailed(f"classes {sorted(freq)} != {sorted(assoc)}")
    for key, f in freq.items():
        checks.binomial_band(f, assoc[key], trials, f"association of {key}")


def _check_simulate(r: Round, out: Path, path: Path, trials: int) -> None:
    header, rows = _read_csv(out / "sim_sinr_ccdf.csv")
    checks.ccdf(rows[:, 1], "simulated SINR")
    checks.dkw_band(rows[:, 1], _analytic_sinr(r, path, 10.0 ** (rows[:, 0] / 10.0)), trials, "SINR")
    _, rate_rows = _read_csv(out / "sim_rate_ccdf.csv")
    checks.ccdf(rate_rows[:, 1], "simulated rate")
    blob = json.loads((out / "sim_summary.json").read_text())
    if blob["trial_count"] != trials:
        raise checks.CheckFailed(f"trial_count {blob['trial_count']} != {trials}")
    freq = {_class_key("cond_" + k): v for k, v in blob["association_freq"].items()}
    _check_association_freq(r, path, freq, trials)


def _check_rate_curve(r: Round, path: Path, curve, picks) -> None:
    """A rate CcdfCurve from the API: properties, and the picked points against the oracle."""
    sc, _ = r.oracle(path)
    weights = {(c.rat, c.tier): w for c, w in curve.weights.items()}
    per_class = {(c.rat, c.tier): v for c, v in curve.per_class.items()}
    checks.association_sum(weights, "compare weights")
    checks.ccdf(curve.values, "analytic rate")
    for key, values in per_class.items():
        checks.ccdf(values, f"analytic rate {key}")
    checks.mix(curve.values, per_class, weights, "analytic rate mix")
    for k in picks:
        checks.close(curve.values[k], oracles.rate_oracle(sc, curve.grid[k]), f"R({curve.grid[k]:.4g})")


def _check_compare(r: Round, path: Path, curve, summary, trials: int, picks) -> None:
    _check_rate_curve(r, path, curve, picks)
    # simulated: SINR and association only, see README ("loaded case")
    checks.ccdf(summary.rate_ccdf.values, "simulated rate")
    sinr = summary.sinr_ccdf
    checks.dkw_band(sinr.values, _analytic_sinr(r, path, sinr.grid), trials, "loaded SINR")
    freq = {(c.rat, c.tier): f for c, f in summary.association_freq.items()}
    _check_association_freq(r, path, freq, trials)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _sinr_repeat(r: Round, k: int, paths, lo_db: float, hi_db: float) -> None:
    """Repeat k of analyze sinr on each scenario, on a 1 dB grid shifted by 0..1 dB."""
    points = int(round(hi_db - lo_db)) + 1
    du = float(r.rng.uniform())
    grid = f"{lo_db + du:.6f}:{hi_db + du:.6f}:1"
    for path in paths:
        out = r.cli("sinr", path, points, ["analyze", "sinr", "--tau-grid-db", grid], repeat=k)
        if out is not None:
            r.check(f"analyze sinr {path.stem} #{k}",
                    lambda out=out, path=path: _check_sinr_csv(r, out / "sinr_ccdf.csv", path, points))


def _interleave(r: Round, paths, ops, lo_db: float = -10.0, hi_db: float = 30.0) -> None:
    """SINR_REPEATS sinr repeats spread between the other operations.

    Spreading them over the round makes the sinr figure sample the machine
    over the whole round, not over its first second.
    """
    for k in range(SINR_REPEATS):
        _sinr_repeat(r, k, paths, lo_db, hi_db)
        for j, op in enumerate(ops):
            if j * SINR_REPEATS // len(ops) == k:
                op()


def _rate_grid(r: Round, points: int) -> tuple[float, float, list[int]]:
    """1e4..1e8 bps shifted by up to 0.1 decade, and the point to hold to the oracle."""
    shift = 10.0 ** (0.1 * r.rng.uniform())
    return 1e4 * shift, 1e8 * shift, [int(r.rng.integers(points))]


def _rate_curve(r: Round, path: Path, points: int, k: int) -> None:
    """Repeat k of analyze rate on one scenario."""
    lo, hi, picks = _rate_grid(r, points)
    args = ["analyze", "rate", "--method", "theorem1", "--rho-grid", f"{lo!r}:{hi!r}:{points}"]
    out = r.cli("rate", path, points, args, repeat=k)
    if out is not None:
        r.check(f"analyze rate {path.stem} #{k}",
                lambda: _check_rate_csv(r, out / "rate_ccdf.csv", path, points, picks))


def _rate_repeats(r: Round, points: dict) -> list:
    """RATE_REPEATS repeats of analyze rate on each scenario, as operations to interleave."""
    return [lambda k=k, path=path, n=n: _rate_curve(r, path, n, k)
            for k in range(RATE_REPEATS) for path, n in points.items()]


def _p95(r: Round, path: Path) -> None:
    target = 0.95

    def solve():
        config = cli.load_config(path)
        return offload.percentile_rate(config, target, method="theorem1")

    rho = r.call("p95", path, 1, solve)
    if rho is not None:
        r.check(f"p95 {path.stem}", lambda: _check_percentile(r, path, rho, target))


def _sweep(r: Round, path: Path, points: int = 5, step: float = 3.0) -> None:
    lo = -6.0 + 2.0 * float(r.rng.uniform())
    hi = lo + step * (points - 1)
    pick = int(r.rng.integers(points))
    args = ["sweep", "bias", "--class", SMALL_CELL, "--range-db", f"{lo:.6f}:{hi:.6f}:{step:g}",
            "--metric", "rate", "--method", "theorem1"]
    out = r.cli("sweep", path, points, args)
    if out is not None:
        r.check(f"sweep bias {path.stem}",
                lambda: _check_sweep_csv(r, out / "bias_sweep.csv", path, points, pick))


def _bias_opt(r: Round, path: Path) -> None:
    lo = -20.0 + float(r.rng.uniform())
    hi = lo + 40.0
    args = ["optimize", "bias", "--mode", "rate", "--method", "theorem1", "--class", SMALL_CELL,
            f"--bracket-lo-db={lo:.6f}", f"--bracket-hi-db={hi:.6f}"]
    out = r.cli("bias_opt", path, 1, args)
    if out is not None:
        r.check(f"optimize bias {path.stem}", lambda: _check_bias_opt(r, out, path, lo, hi))


def _dense_venue_pmf(r: Round, path: Path) -> None:
    """tagged_load_distribution for every open class at 1e5 users/km^2."""
    config = cli.load_config(path)
    for cls in config.open_classes():
        dist = r.call("pmf", path, 1,
                      lambda cid=cls.id: association.tagged_load_distribution(config, cid))
        if dist is not None:
            r.check(f"dense-venue pmf {cls.id.label()}",
                    lambda cid=cls.id, dist=dist: _check_pmf(r, path, cid, dist))


def analytic_mixed(r: Round) -> None:
    paths = WORKLOAD_SCENARIOS["analytic-mixed"]
    for path in paths:
        r.check(f"association {path.stem}", lambda path=path: _check_program_association(r, path))
    ops = _rate_repeats(r, {path: 5 for path in paths})  # 20 points a scenario
    for path in paths:
        ops += [lambda path=path: _p95(r, path), lambda path=path: _sweep(r, path),
                lambda path=path: _bias_opt(r, path)]
    _interleave(r, paths, ops)


def analytic_dense(r: Round) -> None:
    paths = (DUAL_RAT_500, TWO_CLASS_2000)
    for path in paths:
        r.check(f"association {path.stem}", lambda path=path: _check_program_association(r, path))
    # dual-RAT: ~3.5k-term pmf, a quadrature per term; 20 points a scenario
    _interleave(r, paths, _rate_repeats(r, {DUAL_RAT_500: 5, TWO_CLASS_2000: 5}) + [
        lambda: _p95(r, TWO_CLASS_2000),
        lambda: _bias_opt(r, TWO_CLASS_2000),
        lambda: _dense_venue_pmf(r, DENSE_VENUE),
    ])


def mc_validate(r: Round) -> None:
    # compare runs as the two API calls behind it, so that the simulated SINR
    # and association frequencies are there to check; its analytic half runs
    # RATE_REPEATS times on the CLI's default 20-point grid, and the last grid
    # is the one the simulation is compared on
    points = 20
    curves = []

    def analytic_rate(k: int) -> None:
        lo, hi, picks = _rate_grid(r, points)
        grid = np.logspace(math.log10(lo), math.log10(hi), points)

        def analytic():
            config = cli.load_config(TWO_CLASS)
            return config, coverage.rate_ccdf(config, grid)

        loaded = r.call("rate", TWO_CLASS, points, analytic, repeat=k)
        if loaded is not None:
            curves.append((loaded, grid, picks))
            r.check(f"analytic rate #{k}", lambda: _check_rate_curve(r, TWO_CLASS, loaded[1], picks))

    def simulate() -> None:
        seed = int(r.rng.integers(2**31))
        args = ["simulate", "--trials", str(MC_SINR_TRIALS), "--seed", str(seed)]
        out = r.cli("mc_sinr", DUAL_RAT_USERS_OFF, MC_SINR_TRIALS, args)
        if out is not None:
            r.check("simulate users off",
                    lambda: _check_simulate(r, out, DUAL_RAT_USERS_OFF, MC_SINR_TRIALS))

    ops = [lambda k=k: analytic_rate(k) for k in range(RATE_REPEATS)]
    _interleave(r, (DUAL_RAT_USERS_OFF,), ops[:2] + [simulate] + ops[2:], -20.0, 60.0)

    if len(curves) < RATE_REPEATS:
        return
    (config, curve), grid, picks = curves[-1]
    settings = montecarlo.SimSettings(trials=MC_LOAD_TRIALS, seed=int(r.rng.integers(2**31)))
    summary = r.call("mc_load", TWO_CLASS, MC_LOAD_TRIALS,
                     lambda: montecarlo.run_batch(config, settings, rate_grid=grid))
    if summary is not None:
        r.check("compare", lambda: _check_compare(r, TWO_CLASS, curve, summary, MC_LOAD_TRIALS, picks))


WORKLOADS = {
    "analytic-mixed": analytic_mixed,
    "analytic-dense": analytic_dense,
    "mc-validate": mc_validate,
}


def round_metrics(ops: list[Op], speed: float) -> dict:
    """The end-to-end figures of one round; None where it ran no such operation.

    CPU seconds are scaled by `speed` (calibration.speed_factor) to the
    reference machine speed; run_cpu_s and run_wall_s are as measured.
    """

    def done(kind: str):
        return [o for o in ops if o.kind == kind and o.ok]

    def throughput(kind: str):
        seconds = speed * sum(o.seconds for o in done(kind))
        return sum(o.units for o in done(kind)) / seconds if seconds > 0 else None

    def total(kind: str):
        return speed * sum(o.seconds for o in done(kind)) if done(kind) else None

    def per_repeat(kind: str) -> list[float]:
        units, seconds = {}, {}
        for o in done(kind):
            units[o.repeat] = units.get(o.repeat, 0) + o.units
            seconds[o.repeat] = seconds.get(o.repeat, 0.0) + speed * o.seconds
        return [units[k] / seconds[k] for k in units]

    return {
        "run_s": speed * sum(o.seconds for o in ops),
        "sinr_points_per_s": per_repeat("sinr"),
        "rate_points_per_s": per_repeat("rate"),
        "p95_solve_s": total("p95"),
        "bias_opt_s": total("bias_opt"),
        "sweep_points_per_s": throughput("sweep"),
        "mc_sinr_trials_per_s": throughput("mc_sinr"),
        "mc_load_trials_per_s": throughput("mc_load"),
        "run_cpu_s": sum(o.seconds for o in ops),
        "run_wall_s": sum(o.wall for o in ops),
    }
