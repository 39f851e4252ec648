"""Command-line interface: config files in, CSV/JSON tables out.

Subcommands
-----------
analyze sinr    SINR CCDF over a dB threshold grid (analytic)
analyze rate    rate CCDF over a log-spaced bps grid (analytic)
simulate        Monte Carlo CCDFs + summary statistics
sweep bias      metric vs association bias of one class
optimize bias   SIR (closed form) or rate (line search) optimal bias
compare         analytic vs simulated rate CCDF with max-gap statistic

Every run writes a manifest.json with the resolved parameters, seed, tool
version, and wall-clock duration next to its outputs.  Exit codes: 0 ok,
1 bad config/arguments, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .coverage import (
    ClosedFormInapplicableError,
    rate_ccdf,
    sinr_ccdf,
)
from .model import (
    CLOSED,
    OPEN,
    ApClass,
    ClassId,
    ConfigValidationError,
    NetworkConfig,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    require_valid,
)
from .montecarlo import SimSettings, run_batch
from .numerics import NumericalError
from .offload import (
    OptimizationResult,
    SolverError,
    TwoRatScenario,
    _rate_objective,
    bias_sweep,
    optimal_bias_rate,
    optimal_bias_sir,
)

_CLASS_KEYS = {
    "rat",
    "tier",
    "access",
    "density_per_km2",
    "power_dbm",
    "bias_db",
    "alpha",
    "bandwidth_hz",
    "sinr_threshold_db",
    "rate_threshold_bps",
}
_TOP_KEYS = {"users_per_km2", "noise_dbm_per_rat", "classes"}


class ConfigSchemaError(ValueError):
    """Config file is syntactically valid but violates the schema."""


def load_config(path: str | Path) -> NetworkConfig:
    """Parse and validate a JSON network config.

    Schema: {users_per_km2, noise_dbm_per_rat: {rat: dBm or null},
    classes: [{rat, tier, access, density_per_km2, power_dbm, bias_db,
    alpha, bandwidth_hz, sinr_threshold_db, rate_threshold_bps}]}.
    dB/dBm fields are converted to linear/watts here; a missing or null
    noise entry means zero noise (interference-limited).
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigSchemaError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ConfigSchemaError("top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigSchemaError(f"unknown top-level keys: {sorted(unknown)}")
    if "classes" not in raw or not isinstance(raw["classes"], list) or not raw["classes"]:
        raise ConfigSchemaError("'classes' must be a non-empty array")

    classes: list[ApClass] = []
    sinr_thr: dict[ClassId, float] = {}
    rate_thr: dict[ClassId, float] = {}
    for k, obj in enumerate(raw["classes"]):
        if not isinstance(obj, dict):
            raise ConfigSchemaError(f"classes[{k}] must be an object")
        unknown = set(obj) - _CLASS_KEYS
        if unknown:
            raise ConfigSchemaError(f"classes[{k}]: unknown keys {sorted(unknown)}")
        try:
            access = obj.get("access", OPEN)
            if access not in (OPEN, CLOSED):
                raise ConfigSchemaError(f"classes[{k}]: access must be open|closed")
            cid = ClassId(int(obj["rat"]), int(obj["tier"]), access)
            cls = ApClass(
                id=cid,
                density=float(obj["density_per_km2"]),
                power=dbm_to_watts(float(obj["power_dbm"])),
                exponent=float(obj["alpha"]),
                bias=db_to_linear(float(obj.get("bias_db", 0.0))),
                bandwidth=float(obj.get("bandwidth_hz", 10e6)),
            )
        except KeyError as e:
            raise ConfigSchemaError(f"classes[{k}]: missing field {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise ConfigSchemaError(f"classes[{k}]: {e}") from None
        classes.append(cls)
        if "sinr_threshold_db" in obj and obj["sinr_threshold_db"] is not None:
            sinr_thr[cid] = db_to_linear(float(obj["sinr_threshold_db"]))
        if "rate_threshold_bps" in obj and obj["rate_threshold_bps"] is not None:
            rate_thr[cid] = float(obj["rate_threshold_bps"])

    noise: dict[int, float] = {}
    for rat, val in (raw.get("noise_dbm_per_rat") or {}).items():
        try:
            rat_idx = int(rat)
        except ValueError:
            raise ConfigSchemaError(f"noise_dbm_per_rat: bad RAT key {rat!r}") from None
        noise[rat_idx] = 0.0 if val is None else dbm_to_watts(float(val))

    try:
        config = NetworkConfig(
            classes=tuple(classes),
            user_density=float(raw.get("users_per_km2", 0.0)),
            noise_power=noise,
            sinr_threshold=sinr_thr,
            rate_threshold=rate_thr,
        )
    except (TypeError, ValueError) as e:
        raise ConfigSchemaError(str(e)) from None
    return require_valid(config)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf"
    return f"{x:.9g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _col(cid: ClassId) -> str:
    suffix = "c" if cid.access == CLOSED else ""
    return f"{cid.rat}_{cid.tier}{suffix}"


def _write_manifest(outdir: Path, config_path, command: str, params: dict, seed, t0: float) -> None:
    manifest = {
        "config_path": str(config_path),
        "command": command,
        "parameters": params,
        "seed": seed,
        "tool_version": __version__,
        "duration_seconds": round(time.monotonic() - t0, 3),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_span(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigSchemaError(f"{what} must look like LO:HI:{'STEP' if 'db' in what else 'POINTS'}")
    try:
        return float(parts[0]), float(parts[1]), float(parts[2])
    except ValueError:
        raise ConfigSchemaError(f"{what}: values must be numeric") from None


def _db_grid(text: str, what: str) -> np.ndarray:
    lo, hi, step = _parse_span(text, what)
    if step <= 0 or hi < lo:
        raise ConfigSchemaError(f"{what}: need LO <= HI and STEP > 0")
    return np.arange(lo, hi + step / 2.0, step)


def _log_grid(text: str, what: str) -> np.ndarray:
    lo, hi, points = _parse_span(text, what)
    n = int(points)
    if lo <= 0 or hi <= lo or n < 2:
        raise ConfigSchemaError(f"{what}: need 0 < LO < HI and POINTS >= 2")
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _parse_class_flag(text: str) -> ClassId:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigSchemaError("--class must look like RAT,TIER (e.g. 2,3)")
    try:
        return ClassId(int(parts[0]), int(parts[1]))
    except ValueError:
        raise ConfigSchemaError("--class indices must be integers") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze_sinr(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    taus_db = _db_grid(args.tau_grid_db, "--tau-grid-db")
    curve = sinr_ccdf(config, [db_to_linear(t) for t in taus_db])
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    open_ids = [c.id for c in config.open_classes()]
    header = ["tau_db", "coverage"] + [f"cond_{_col(c)}" for c in open_ids]
    rows = [
        [taus_db[k], curve.values[k]] + [curve.per_class[c][k] for c in open_ids]
        for k in range(len(taus_db))
    ]
    _write_csv(outdir / "sinr_ccdf.csv", header, rows)
    _write_manifest(outdir, args.config, "analyze sinr", {"tau_grid_db": args.tau_grid_db}, None, t0)
    print(f"wrote {outdir / 'sinr_ccdf.csv'} ({len(rows)} rows)")
    return 0


def _cmd_analyze_rate(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    grid = _log_grid(args.rho_grid, "--rho-grid")
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.method == "theorem1":
        curve = rate_ccdf(config, grid)
        open_ids = [c.id for c in config.open_classes()]
        header = ["rho_bps", "coverage"] + [f"cond_{_col(c)}" for c in open_ids]
        rows = [
            [grid[k], curve.values[k]] + [curve.per_class[c][k] for c in open_ids]
            for k in range(len(grid))
        ]
    else:
        objective = _rate_objective(args.method)
        values = [objective(config, float(rho)) for rho in grid]
        header = ["rho_bps", "coverage"]
        rows = [[grid[k], values[k]] for k in range(len(grid))]
    _write_csv(outdir / "rate_ccdf.csv", header, rows)
    _write_manifest(
        outdir,
        args.config,
        "analyze rate",
        {"rho_grid": args.rho_grid, "method": args.method},
        None,
        t0,
    )
    print(f"wrote {outdir / 'rate_ccdf.csv'} ({len(rows)} rows)")
    return 0


def _settings_from_args(args) -> SimSettings:
    return SimSettings(
        window_km=args.window_km,
        trials=args.trials,
        seed=args.seed,
        deployment=args.deployment,
        parallel_workers=args.workers,
    )


def _cmd_simulate(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    settings = _settings_from_args(args)
    rate_grid = _log_grid(args.rho_grid, "--rho-grid") if args.rho_grid else None
    summary = run_batch(config, settings, rate_grid=rate_grid)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    open_ids = [c.id for c in config.open_classes()]
    sg = summary.sinr_ccdf
    header = ["tau_db", "ccdf"] + [f"cond_{_col(c)}" for c in open_ids]
    rows = [
        [linear_to_db(sg.grid[k]), sg.values[k]] + [sg.per_class[c][k] for c in open_ids]
        for k in range(len(sg.grid))
    ]
    _write_csv(outdir / "sim_sinr_ccdf.csv", header, rows)

    rg = summary.rate_ccdf
    header = ["rho_bps", "ccdf"] + [f"cond_{_col(c)}" for c in open_ids]
    rows = [
        [rg.grid[k], rg.values[k]] + [rg.per_class[c][k] for c in open_ids]
        for k in range(len(rg.grid))
    ]
    _write_csv(outdir / "sim_rate_ccdf.csv", header, rows)

    blob = {
        "trial_count": summary.trial_count,
        "far_serving_trials": summary.far_serving_trials,
        "association_freq": {_col(c): summary.association_freq[c] for c in open_ids},
        "mean_cell_area_km2": {_col(c): summary.mean_cell_area[c] for c in open_ids},
        "mean_ap_count": {_col(c.id): summary.mean_ap_count[c.id] for c in config.present_classes()},
        "load_histogram": {_col(c): summary.load_histogram[c].tolist() for c in open_ids},
    }
    (outdir / "sim_summary.json").write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        outdir,
        args.config,
        "simulate",
        {
            "trials": args.trials,
            "workers": args.workers,
            "deployment": args.deployment,
            "window_km": args.window_km,
            "rho_grid": args.rho_grid,
        },
        args.seed,
        t0,
    )
    print(f"wrote {outdir}/sim_sinr_ccdf.csv, sim_rate_ccdf.csv, sim_summary.json")
    return 0


def _cmd_sweep_bias(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    target = _parse_class_flag(args.target)
    grid = _db_grid(args.range_db, "--range-db")
    metric = {"sir": "sir_coverage", "rate": "rate_coverage", "p95": "percentile_rate"}[args.metric]
    pairs = bias_sweep(
        config,
        target,
        grid,
        metric=metric,
        coverage_target=args.coverage_target,
        method=args.method,
    )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "bias_sweep.csv", ["bias_db", metric], pairs)
    _write_manifest(
        outdir,
        args.config,
        "sweep bias",
        {
            "class": args.target,
            "range_db": args.range_db,
            "metric": args.metric,
            "method": args.method,
            "coverage_target": args.coverage_target,
        },
        None,
        t0,
    )
    print(f"wrote {outdir / 'bias_sweep.csv'} ({len(pairs)} rows)")
    return 0


def _result_blob(res: OptimizationResult) -> dict:
    return {
        "b_opt_db": linear_to_db(res.b_opt),
        "b_opt_linear": res.b_opt,
        "objective": res.objective_at_opt,
        "offload_fraction": res.offload_fraction,
        "boundary_warning": res.boundary_warning,
        "trace": [[linear_to_db(b), v] for b, v in res.trace],
    }


def _cmd_optimize_bias(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    if args.mode == "sir":
        scenario = TwoRatScenario.from_config(config)
        c1 = config.class_for(scenario.class1)
        tau1 = config.sinr_threshold_for(scenario.class1)
        tau2 = config.sinr_threshold_for(scenario.class2)
        res = optimal_bias_sir(scenario, tau1, tau2, c1.exponent)
    else:
        target = _parse_class_flag(args.target) if args.target else None
        res = optimal_bias_rate(
            config,
            target=target,
            bracket_db=(args.bracket_lo_db, args.bracket_hi_db),
            method=args.method,
        )
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    blob = _result_blob(res)
    (outdir / "optimize_bias.json").write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        outdir,
        args.config,
        "optimize bias",
        {
            "mode": args.mode,
            "class": args.target,
            "bracket_db": [args.bracket_lo_db, args.bracket_hi_db],
            "method": args.method,
        },
        None,
        t0,
    )
    print(
        f"b_opt = {blob['b_opt_db']:.4f} dB, objective = {blob['objective']:.6f}, "
        f"offload fraction = {blob['offload_fraction']:.4f}"
        + (" [boundary]" if res.boundary_warning else "")
    )
    return 0


def _cmd_compare(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    grid = _log_grid(args.rho_grid, "--rho-grid")
    analytic = rate_ccdf(config, grid)
    settings = _settings_from_args(args)
    summary = run_batch(config, settings, rate_grid=grid)
    empirical = summary.rate_ccdf.values
    gap = np.abs(analytic.values - empirical)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = [
        [grid[k], analytic.values[k], empirical[k], gap[k]] for k in range(len(grid))
    ]
    _write_csv(outdir / "compare_rate.csv", ["rho_bps", "analytic", "empirical", "abs_gap"], rows)
    blob = {
        "max_gap": float(gap.max()),
        "argmax_rho_bps": float(grid[int(gap.argmax())]),
        "trials": args.trials,
    }
    (outdir / "compare_summary.json").write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        outdir,
        args.config,
        "compare",
        {
            "trials": args.trials,
            "workers": args.workers,
            "deployment": args.deployment,
            "window_km": args.window_km,
            "rho_grid": args.rho_grid,
        },
        args.seed,
        t0,
    )
    print(f"max |analytic - empirical| = {blob['max_gap']:.5f} at rho = {blob['argmax_rho_bps']:.4g} bps")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--deployment", choices=("ppp", "grid"), default="ppp")
    p.add_argument("--window-km", type=float, default=20.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnet-offload",
        description="Multi-RAT heterogeneous network coverage analysis and offload design",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analytic coverage curves")
    asub = analyze.add_subparsers(dest="what", required=True)
    a_sinr = asub.add_parser("sinr", help="SINR CCDF over a dB grid")
    a_sinr.add_argument("--config", required=True)
    a_sinr.add_argument("--tau-grid-db", default="-10:30:1")
    a_sinr.add_argument("--output", "-o", default=".")
    a_sinr.set_defaults(func=_cmd_analyze_sinr)
    a_rate = asub.add_parser("rate", help="rate CCDF over a log bps grid")
    a_rate.add_argument("--config", required=True)
    a_rate.add_argument("--rho-grid", default="1e4:1e8:25")
    a_rate.add_argument("--method", choices=("theorem1", "meanload", "closedform"), default="theorem1")
    a_rate.add_argument("--output", "-o", default=".")
    a_rate.set_defaults(func=_cmd_analyze_rate)

    sim = sub.add_parser("simulate", help="Monte Carlo empirical distributions")
    sim.add_argument("--config", required=True)
    _add_sim_flags(sim)
    sim.add_argument("--rho-grid", default=None, help="LO:HI:POINTS log grid for the rate CCDF")
    sim.add_argument("--output", "-o", default=".")
    sim.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="parameter sweeps")
    ssub = sweep.add_subparsers(dest="what", required=True)
    s_bias = ssub.add_parser("bias", help="metric vs association bias of one class")
    s_bias.add_argument("--config", required=True)
    s_bias.add_argument("--class", dest="target", required=True, help="RAT,TIER (e.g. 2,3)")
    s_bias.add_argument("--range-db", required=True, help="LO:HI:STEP in dB")
    s_bias.add_argument("--metric", choices=("sir", "rate", "p95"), required=True)
    s_bias.add_argument("--method", choices=("theorem1", "meanload", "closedform"), default="theorem1")
    s_bias.add_argument("--coverage-target", type=float, default=0.95)
    s_bias.add_argument("--output", "-o", default=".")
    s_bias.set_defaults(func=_cmd_sweep_bias)

    opt = sub.add_parser("optimize", help="bias optimization")
    osub = opt.add_subparsers(dest="what", required=True)
    o_bias = osub.add_parser("bias", help="SIR closed form or rate line search")
    o_bias.add_argument("--config", required=True)
    o_bias.add_argument("--mode", choices=("sir", "rate"), required=True)
    o_bias.add_argument("--class", dest="target", default=None, help="free class for rate mode")
    o_bias.add_argument("--bracket-lo-db", type=float, default=-20.0)
    o_bias.add_argument("--bracket-hi-db", type=float, default=20.0)
    o_bias.add_argument("--method", choices=("theorem1", "meanload", "closedform"), default="closedform")
    o_bias.add_argument("--output", "-o", default=".")
    o_bias.set_defaults(func=_cmd_optimize_bias)

    comp = sub.add_parser("compare", help="analytic vs Monte Carlo rate CCDF")
    comp.add_argument("--config", required=True)
    _add_sim_flags(comp)
    comp.add_argument("--rho-grid", default="1e4:1e8:20")
    comp.add_argument("--output", "-o", default=".")
    comp.set_defaults(func=_cmd_compare)
    return parser


_GRID_FLAGS = ("--tau-grid-db", "--range-db")


def _merge_grid_flags(argv: list[str]) -> list[str]:
    """Join grid flags with their values so `-10:30:1` is not read as a flag."""
    out: list[str] = []
    it = iter(argv)
    for tok in it:
        if tok in _GRID_FLAGS:
            nxt = next(it, None)
            out.append(tok if nxt is None else f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_grid_flags(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except (ConfigSchemaError, ConfigValidationError, ClosedFormInapplicableError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NumericalError, SolverError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
