"""Command-line interface: config files in, CSV/JSON tables out.

Each subcommand (analyze sinr, analyze rate, simulate, sweep bias, optimize
bias, compare) is one row of `_COMMANDS`: its words, handler, help text and
flags.  A call builds the parsers of the row it names alone, and of every
row when it names none; a filtered level spells its choices from the whole
table, so help and error text are the same (`build_parser`).  A handler
takes (config, args) and returns the text of each output file and a
message; `_run` writes them into --output next to a manifest.json of the
flags, seed, tool version and wall-clock duration, and only once the
handler has succeeded.  Exit codes: 0 ok, 1 bad config/arguments, 2
numerical failure, 3 I/O failure.

The module loads argparse when it builds a parser, and the modules a
handler computes with (coverage, offload, montecarlo) when the handler
first calls them: `load_config` needs only model and numerics.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import __version__
from .model import CLOSED, OPEN, ApClass, ClassId, NetworkConfig, db_to_linear, dbm_to_watts, linear_to_db
# require_valid is not called here, but benchmarks/tracing.py wraps it by
# this module's name
from .model import require_valid  # noqa: F401
from .numerics import NumericalError, SolverError

if TYPE_CHECKING:
    import argparse

    from .montecarlo import SimSettings

# What the handlers call from the command modules.  Each name is imported
# on its first use and bound in this module (PEP 562 `__getattr__`), so a
# call loads only its own command's modules.
_LATE = {
    "coverage": ("_Stack", "rate_ccdf", "sinr_ccdf"),
    "offload": ("bias_sweep", "optimal_bias_rate", "optimal_bias_sir"),
    "montecarlo": ("SimSettings", "run_batch"),
}
_LATE_MODULE = {name: module for module, names in _LATE.items() for name in names}


def __getattr__(name: str):
    if name not in _LATE_MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LATE_MODULE[name]}", __package__), name)
    globals()[name] = value
    return value


def _late(name: str):
    """This module's `name`: the one bound here if any (a tracer's wrapper,
    a test's stub), else its command module's, bound now."""
    return globals()[name] if name in globals() else __getattr__(name)


_CLASS_KEYS = {
    "rat", "tier", "access", "density_per_km2", "power_dbm", "bias_db", "alpha", "bandwidth_hz",
    "sinr_threshold_db", "rate_threshold_bps",
}
_TOP_KEYS = {"users_per_km2", "noise_dbm_per_rat", "classes"}


class ConfigSchemaError(ValueError):
    """Config file is syntactically valid but violates the schema."""


def _from_db(convert, value: float, what: str) -> float:
    """convert(value) for a dB or dBm input.  A finite value whose linear
    form overflows a float, or underflows to 0, is a bad input named by
    `what`."""
    try:
        linear = convert(value)
    except OverflowError:
        raise ConfigSchemaError(f"{what}: {value:g} is too large (its linear value overflows)") from None
    if linear == 0.0:
        raise ConfigSchemaError(f"{what}: {value:g} is too small (its linear value underflows to 0)")
    return linear


def _number(value, what: str) -> float:
    """A JSON number as a float; a boolean, string, array, object or null
    is a bad input named by `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigSchemaError(f"{what}: must be a number (got {json.dumps(value)})")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ConfigSchemaError(f"{what}: too large for a float") from None


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigSchemaError(f"{what}: must be an integer (got {json.dumps(value)})")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key it spells twice is a schema error
    (json.loads would keep the last value)."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigSchemaError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_config(path: str | Path) -> NetworkConfig:
    """Parse and validate a JSON network config.

    Schema: {users_per_km2, noise_dbm_per_rat: {rat: dBm or null},
    classes: [{rat, tier, access, density_per_km2, power_dbm, bias_db,
    alpha, bandwidth_hz, sinr_threshold_db, rate_threshold_bps}]}.
    dB/dBm fields are converted to linear/watts here; a missing or null
    noise entry means zero noise (interference-limited).  Every numeric
    field must be a JSON number (rat and tier integers); any other value
    is a ConfigSchemaError that names its field.  So is a key that appears
    twice in one object, and a noise key that is not a RAT number in
    plain decimal ("2", not "02" or " 2").
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigSchemaError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(raw, dict):
        raise ConfigSchemaError("top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigSchemaError(f"unknown top-level keys: {sorted(unknown)}")
    if "classes" not in raw or not isinstance(raw["classes"], list) or not raw["classes"]:
        raise ConfigSchemaError("'classes' must be a non-empty array")

    classes = []
    sinr_thr: dict[ClassId, float] = {}
    rate_thr: dict[ClassId, float] = {}
    for k, obj in enumerate(raw["classes"]):
        if not isinstance(obj, dict):
            raise ConfigSchemaError(f"classes[{k}] must be an object")
        unknown = set(obj) - _CLASS_KEYS
        if unknown:
            raise ConfigSchemaError(f"classes[{k}]: unknown keys {sorted(unknown)}")
        try:
            cls = ApClass(
                id=ClassId(_integer(obj["rat"], "rat"), _integer(obj["tier"], "tier"), obj.get("access", OPEN)),
                density=_number(obj["density_per_km2"], "density_per_km2"),
                power=_from_db(dbm_to_watts, _number(obj["power_dbm"], "power_dbm"), "power_dbm"),
                exponent=_number(obj["alpha"], "alpha"),
                bias=_from_db(db_to_linear, _number(obj.get("bias_db", 0.0), "bias_db"), "bias_db"),
                bandwidth=_number(obj.get("bandwidth_hz", 10e6), "bandwidth_hz"),
            )
        except KeyError as e:
            raise ConfigSchemaError(f"classes[{k}]: missing field {e.args[0]!r}") from None
        except (TypeError, ValueError) as e:
            raise ConfigSchemaError(f"classes[{k}]: {e}") from None
        classes.append(cls)
        if obj.get("sinr_threshold_db") is not None:
            what = f"classes[{k}]: sinr_threshold_db"
            sinr_thr[cls.id] = _from_db(db_to_linear, _number(obj["sinr_threshold_db"], what), what)
        if obj.get("rate_threshold_bps") is not None:
            rate_thr[cls.id] = _number(obj["rate_threshold_bps"], f"classes[{k}]: rate_threshold_bps")

    noise_dbm = raw.get("noise_dbm_per_rat")
    if noise_dbm is not None and not isinstance(noise_dbm, dict):
        raise ConfigSchemaError(f"noise_dbm_per_rat: must be an object (got {json.dumps(noise_dbm)})")
    noise: dict[int, float] = {}
    for rat, val in (noise_dbm or {}).items():
        # one spelling per RAT: int() would read "01" and " 1" as "1" too
        if not (rat.isascii() and rat.isdigit() and rat[0] != "0"):
            raise ConfigSchemaError(f"noise_dbm_per_rat: bad RAT key {rat!r} (a RAT number such as \"2\")")
        where = f"noise_dbm_per_rat[{rat!r}]"
        noise[int(rat)] = 0.0 if val is None else _from_db(dbm_to_watts, _number(val, where), where)

    return NetworkConfig(
        classes=tuple(classes),
        user_density=_number(raw.get("users_per_km2", 0.0), "users_per_km2"),
        noise_power=noise,
        sinr_threshold=sinr_thr,
        rate_threshold=rate_thr,
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(blob: dict) -> str:
    return json.dumps(blob, indent=2, sort_keys=True) + "\n"


def _col(cid: ClassId) -> str:
    return f"{cid.rat}_{cid.tier}{'c' if cid.access == CLOSED else ''}"


def _curve_csv(config: NetworkConfig, x_name: str, xs, y_name: str, curve) -> str:
    """One row per grid point: x, the overall curve, each open class's curve."""
    open_ids = [c.id for c in config.open_classes()]
    header = [x_name, y_name] + [f"cond_{_col(c)}" for c in open_ids]
    rows = [[x, curve.values[k]] + [curve.per_class[c][k] for c in open_ids] for k, x in enumerate(xs)]
    return _csv(header, rows)


def _one_file(args, name: str, text: str) -> tuple[dict[str, str], str]:
    rows = text.count("\n") - 1
    return {name: text}, f"wrote {Path(args.output) / name} ({rows} rows)"


def _parse_span(text: str, what: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigSchemaError(f"{what} must look like LO:HI:{'STEP' if 'db' in what else 'POINTS'}")
    try:
        span = tuple(float(v) for v in parts)
    except ValueError:
        raise ConfigSchemaError(f"{what}: values must be numeric") from None
    if not all(math.isfinite(v) for v in span):
        raise ConfigSchemaError(f"{what}: values must be finite (got {text})")
    return span


_MAX_GRID_POINTS = 1_000_000


def _check_size(points: float, what: str) -> None:
    """Refuse a grid before it is built: a huge one would not fit in memory."""
    if points > _MAX_GRID_POINTS:
        raise ConfigSchemaError(f"{what}: the grid would have more than {_MAX_GRID_POINTS:,} points")


def _db_grid(text: str, what: str) -> np.ndarray:
    lo, hi, step = _parse_span(text, what)
    if step <= 0 or hi < lo:
        raise ConfigSchemaError(f"{what}: need LO <= HI and STEP > 0")
    stop = hi + step / 2.0
    _check_size((stop - lo) / step, what)  # np.arange makes the ceiling of this many
    grid = np.arange(lo, stop, step)
    for end in (grid[0], grid[-1]):  # every dB grid is read as linear ratios
        _from_db(db_to_linear, float(end), what)
    return grid


def _log_grid(text: str, what: str) -> np.ndarray:
    lo, hi, points = _parse_span(text, what)
    if lo <= 0 or hi <= lo or points < 2 or not points.is_integer():
        raise ConfigSchemaError(f"{what}: need 0 < LO < HI and a whole number of POINTS >= 2")
    _check_size(points, what)
    return np.logspace(math.log10(lo), math.log10(hi), int(points))


def _parse_class_flag(text: str) -> ClassId:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigSchemaError("--class must look like RAT,TIER (e.g. 2,3)")
    try:
        return ClassId(int(parts[0]), int(parts[1]))
    except ValueError:
        raise ConfigSchemaError("--class indices must be integers") from None


# -- subcommands: (config, args) -> ({file name: text}, message) -------------


def _analyze_sinr(config: NetworkConfig, args):
    taus_db = _db_grid(args.tau_grid_db, "--tau-grid-db")
    curve = _late("sinr_ccdf")(config, [db_to_linear(t) for t in taus_db])
    return _one_file(args, "sinr_ccdf.csv", _curve_csv(config, "tau_db", taus_db, "coverage", curve))


def _analyze_rate(config: NetworkConfig, args):
    grid = _log_grid(args.rho_grid, "--rho-grid")
    if args.method == "theorem1":
        text = _curve_csv(config, "rho_bps", grid, "coverage", _late("rate_ccdf")(config, grid))
    else:  # the overall curve alone
        values = _late("_Stack")([config], args.method).evaluate(grid)[0][0]
        text = _csv(["rho_bps", "coverage"], zip(grid, values))
    return _one_file(args, "rate_ccdf.csv", text)


def _settings(args) -> SimSettings:
    return _late("SimSettings")(window_km=args.window_km, trials=args.trials, seed=args.seed,
                                deployment=args.deployment, parallel_workers=args.workers)


def _simulate(config: NetworkConfig, args):
    settings = _settings(args)
    rate_grid = _log_grid(args.rho_grid, "--rho-grid") if args.rho_grid else None
    summary = _late("run_batch")(config, settings, rate_grid=rate_grid)
    open_ids = [c.id for c in config.open_classes()]
    sg, rg = summary.sinr_ccdf, summary.rate_ccdf
    blob = {
        "trial_count": summary.trial_count,
        "far_serving_trials": summary.far_serving_trials,
        "association_freq": {_col(c): summary.association_freq[c] for c in open_ids},
        "mean_cell_area_km2": {_col(c): summary.mean_cell_area[c] for c in open_ids},
        "mean_ap_count": {_col(c.id): summary.mean_ap_count[c.id] for c in config.present_classes()},
        "load_histogram": {_col(c): summary.load_histogram[c].tolist() for c in open_ids},
    }
    files = {
        "sim_sinr_ccdf.csv": _curve_csv(config, "tau_db", [linear_to_db(t) for t in sg.grid], "ccdf", sg),
        "sim_rate_ccdf.csv": _curve_csv(config, "rho_bps", rg.grid, "ccdf", rg),
        "sim_summary.json": _json(blob),
    }
    return files, f"wrote {Path(args.output)}/sim_sinr_ccdf.csv, sim_rate_ccdf.csv, sim_summary.json"


_METRICS = {"sir": "sir_coverage", "rate": "rate_coverage", "p95": "percentile_rate"}


def _sweep_bias(config: NetworkConfig, args):
    target = _parse_class_flag(args.target)
    grid = _db_grid(args.range_db, "--range-db")
    metric = _METRICS[args.metric]
    pairs = _late("bias_sweep")(
        config, target, grid, metric=metric, coverage_target=args.coverage_target, method=args.method
    )
    return _one_file(args, "bias_sweep.csv", _csv(["bias_db", metric], pairs))


def _optimize_bias(config: NetworkConfig, args):
    if args.mode == "sir":
        res = _late("optimal_bias_sir")(config)
    else:
        _from_db(db_to_linear, args.bracket_lo_db, "--bracket-lo-db")
        _from_db(db_to_linear, args.bracket_hi_db, "--bracket-hi-db")
        res = _late("optimal_bias_rate")(
            config,
            target=_parse_class_flag(args.target) if args.target else None,
            bracket_db=(args.bracket_lo_db, args.bracket_hi_db),
            method=args.method,
        )
    blob = {
        "b_opt_db": linear_to_db(res.b_opt),
        "b_opt_linear": res.b_opt,
        "objective": res.objective_at_opt,
        "offload_fraction": res.offload_fraction,
        "boundary_warning": res.boundary_warning,
        "trace": [[linear_to_db(b), v] for b, v in res.trace],
    }
    message = (f"b_opt = {blob['b_opt_db']:.4f} dB, objective = {blob['objective']:.6f}, "
               f"offload fraction = {blob['offload_fraction']:.4f}")
    message += " [boundary]" if res.boundary_warning else ""
    return {"optimize_bias.json": _json(blob)}, message


def _compare(config: NetworkConfig, args):
    grid = _log_grid(args.rho_grid, "--rho-grid")
    analytic = _late("rate_ccdf")(config, grid).values
    empirical = _late("run_batch")(config, _settings(args), rate_grid=grid).rate_ccdf.values
    gap = np.abs(analytic - empirical)
    rows = [[grid[k], analytic[k], empirical[k], gap[k]] for k in range(len(grid))]
    k = int(gap.argmax())
    blob = {"max_gap": float(gap[k]), "argmax_rho_bps": float(grid[k]), "trials": args.trials}
    files = {
        "compare_rate.csv": _csv(["rho_bps", "analytic", "empirical", "abs_gap"], rows),
        "compare_summary.json": _json(blob),
    }
    return files, f"max |analytic - empirical| = {gap[k]:.5f} at rho = {grid[k]:.4g} bps"


class _Command(NamedTuple):
    words: tuple[str, ...]
    handler: Callable  # (config, args) -> ({file name: text}, message)
    help: str
    flags: dict  # flag -> add_argument keywords, besides --config and --output


_METHOD_FLAG = {"--method": dict(choices=("theorem1", "meanload"), default="theorem1")}
_SIM_FLAGS = {
    "--trials": dict(type=int, default=10_000),
    "--seed": dict(type=int, default=0),
    "--workers": dict(type=int, default=1),
    "--deployment": dict(choices=("ppp", "grid"), default="ppp"),
    "--window-km": dict(type=float, default=20.0),
}
_COMMANDS = (
    _Command(("analyze", "sinr"), _analyze_sinr, "SINR CCDF over a dB grid", {
        "--tau-grid-db": dict(default="-10:30:1"),
    }),
    _Command(("analyze", "rate"), _analyze_rate, "rate CCDF over a log bps grid", {
        "--rho-grid": dict(default="1e4:1e8:25"),
        **_METHOD_FLAG,
    }),
    _Command(("simulate",), _simulate, "Monte Carlo empirical distributions", {
        **_SIM_FLAGS,
        "--rho-grid": dict(default=None, help="LO:HI:POINTS log grid for the rate CCDF"),
    }),
    _Command(("sweep", "bias"), _sweep_bias, "metric vs association bias of one class", {
        "--class": dict(dest="target", required=True, help="RAT,TIER (e.g. 2,3)"),
        "--range-db": dict(required=True, help="LO:HI:STEP in dB"),
        "--metric": dict(choices=tuple(_METRICS), required=True),
        **_METHOD_FLAG,
        "--coverage-target": dict(type=float, default=0.95),
    }),
    _Command(("optimize", "bias"), _optimize_bias, "SIR closed form or rate line search", {
        "--mode": dict(choices=("sir", "rate"), required=True),
        "--class": dict(dest="target", default=None, help="free class for rate mode"),
        "--bracket-lo-db": dict(type=float, default=-20.0),
        "--bracket-hi-db": dict(type=float, default=20.0),
        **_METHOD_FLAG,
    }),
    _Command(("compare",), _compare, "analytic vs Monte Carlo rate CCDF", {
        **_SIM_FLAGS,
        "--rho-grid": dict(default="1e4:1e8:20"),
    }),
)
_GROUPS = {
    "analyze": "analytic coverage curves", "sweep": "parameter sweeps", "optimize": "bias optimization"
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of the command that `argv` names, or of every command.

    When the leading tokens of `argv` are a row's words, only that row is
    built (the top parser, its group and its leaf); otherwise (--help,
    --version, a missing or unknown command) every row is, so argparse
    reports against every choice.  A filtered level lists only part of its
    choices, so its metavar spells them from the whole table, as argparse
    would; the whole tree keeps no metavar, as its errors name a level by
    its dest.
    """
    import argparse

    rows = [cmd for cmd in _COMMANDS if cmd.words == tuple(argv[:len(cmd.words)])]

    def choices(prefix: tuple[str, ...]) -> dict:
        names = dict.fromkeys(cmd.words[len(prefix)] for cmd in _COMMANDS if cmd.words[:len(prefix)] == prefix)
        return {"metavar": "{" + ",".join(names) + "}"} if rows else {}

    parser = argparse.ArgumentParser(
        prog="hetnet-offload",
        description="Multi-RAT heterogeneous network coverage analysis and offload design",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    top = parser.add_subparsers(dest="command", required=True, **choices(()))
    groups = {}
    for cmd in rows or _COMMANDS:
        head, *rest = cmd.words
        if rest and head not in groups:
            group = top.add_parser(head, help=_GROUPS[head])
            groups[head] = group.add_subparsers(dest="what", required=True, **choices((head,)))
        p = groups[head].add_parser(rest[0], help=cmd.help) if rest else top.add_parser(head, help=cmd.help)
        p.add_argument("--config", required=True)
        dests = [p.add_argument(flag, **kwargs).dest for flag, kwargs in cmd.flags.items()]
        p.add_argument("--output", "-o", default=".")
        p.set_defaults(run=cmd, flag_dests=dests)
    return parser


def _parameters(args) -> dict:
    """The manifest's record of the flags; --seed has a field of its own."""
    params: dict = {}
    for dest in args.flag_dests:
        value = getattr(args, dest)
        if dest.startswith("bracket_"):
            params.setdefault("bracket_db", []).append(value)  # lo, then hi
        elif dest != "seed":
            params["class" if dest == "target" else dest] = value
    return params


def _run(args) -> int:
    t0 = time.monotonic()
    config = load_config(args.config)
    files, message = args.run.handler(config, args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (outdir / name).write_text(text)
    manifest = {
        "config_path": str(args.config),
        "command": " ".join(args.run.words),
        "parameters": _parameters(args),
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "duration_seconds": round(time.monotonic() - t0, 3),
    }
    (outdir / "manifest.json").write_text(_json(manifest))
    print(message)
    return 0


_GRID_FLAGS = ("--tau-grid-db", "--range-db")


def _merge_grid_flags(argv: list[str]) -> list[str]:
    """Join grid flags with their values so `-10:30:1` is not read as a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _GRID_FLAGS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _merge_grid_flags(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which here means a numerical failure
        return 1 if e.code == 2 else e.code
    try:
        return _run(args)
    except (ValueError, KeyError) as e:
        # str(KeyError) quotes its message; print the message bare
        print(f"error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 1
    except (NumericalError, SolverError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
