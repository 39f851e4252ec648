"""Command-line layer: config ingestion, outputs, manifests, exit codes."""

import argparse
import ast
import importlib
import importlib.util
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hetnet_offload
from hetnet_offload import (
    CLOSED,
    OPEN,
    ApClass,
    ClassId,
    ConfigValidationError,
    NetworkConfig,
    db_to_linear,
    linear_to_db,
    require_valid,
    sinr_ccdf,
)
from hetnet_offload import cli
from hetnet_offload.cli import ConfigSchemaError, load_config, main
from hetnet_offload.coverage import rate_coverage_mean_load
from hetnet_offload.model import dbm_to_watts

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)
ROOT = Path(__file__).resolve().parents[1]


def base_config_dict(alpha2: float = 3.5) -> dict:
    return {
        "users_per_km2": 50,
        "noise_dbm_per_rat": {"1": None, "2": None},
        "classes": [
            {
                "rat": 1,
                "tier": 1,
                "access": "open",
                "density_per_km2": 1,
                "power_dbm": 53,
                "alpha": 3.5,
                "bandwidth_hz": 10e6,
                "sinr_threshold_db": 0,
                "rate_threshold_bps": 256e3,
            },
            {
                "rat": 2,
                "tier": 3,
                "access": "open",
                "density_per_km2": 10,
                "power_dbm": 23,
                "bias_db": 5,
                "alpha": alpha2,
                "bandwidth_hz": 10e6,
                "sinr_threshold_db": 0,
                "rate_threshold_bps": 256e3,
            },
            {
                "rat": 2,
                "tier": 3,
                "access": "closed",
                "density_per_km2": 10,
                "power_dbm": 23,
                "alpha": alpha2,
            },
        ],
    }


def write_config(tmp_path, data=None, name="net.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data if data is not None else base_config_dict()))
    return str(path)


def test_load_config_converts_decibel_fields(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.user_density == 50.0
    macro = config.class_for(MACRO)
    assert macro.power == pytest.approx(dbm_to_watts(53.0))
    assert macro.bias == 1.0  # bias_db omitted -> 0 dB
    small = config.class_for(SMALL)
    assert small.bias == pytest.approx(db_to_linear(5.0))
    assert config.sinr_threshold[MACRO] == pytest.approx(1.0)
    assert config.rate_threshold[SMALL] == 256e3
    assert config.noise_for(1) == 0.0  # null -> interference-limited
    closed = config.class_for(ClassId(2, 3, "closed"))
    assert closed.id.access == "closed"
    assert ClassId(2, 3, "closed") not in config.sinr_threshold


@st.composite
def linear_configs(draw):
    """Random valid configs in linear units: 1-3 RATs of 1-2 open tiers, some
    with a closed twin, per-RAT noise or none, thresholds on every open class."""
    log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda x: 10.0**x)  # noqa: E731
    classes, noise = [], {}
    for rat in range(1, draw(st.integers(1, 3)) + 1):
        noise[rat] = draw(st.one_of(st.just(0.0), log_uniform(-16.0, -8.0)))
        for tier in range(1, draw(st.integers(1, 2)) + 1):
            for access in (OPEN, CLOSED) if draw(st.booleans()) else (OPEN,):
                classes.append(ApClass(
                    id=ClassId(rat, tier, access),
                    density=draw(log_uniform(-3.0, 3.0)),
                    power=draw(log_uniform(-3.0, 3.0)),
                    exponent=draw(st.floats(2.01, 8.0)),
                    bias=draw(log_uniform(-4.0, 4.0)),
                    bandwidth=draw(log_uniform(4.0, 9.0)),
                ))
    open_ids = [c.id for c in classes if c.id.is_open]
    return NetworkConfig(
        classes=tuple(classes),
        user_density=draw(st.floats(0.0, 1e4)),
        noise_power=noise,
        sinr_threshold={cid: draw(log_uniform(-3.0, 4.0)) for cid in open_ids},
        rate_threshold={cid: draw(log_uniform(2.0, 9.0)) for cid in open_ids},
    )


def _as_json(config: NetworkConfig) -> dict:
    """The config file of `config`, its powers and ratios in dB units."""
    classes = []
    for c in config.classes:
        entry = {
            "rat": c.id.rat, "tier": c.id.tier, "access": c.id.access,
            "density_per_km2": c.density, "power_dbm": linear_to_db(c.power) + 30.0,
            "bias_db": linear_to_db(c.bias), "alpha": c.exponent, "bandwidth_hz": c.bandwidth,
        }
        if c.id in config.sinr_threshold:
            entry["sinr_threshold_db"] = linear_to_db(config.sinr_threshold[c.id])
            entry["rate_threshold_bps"] = config.rate_threshold[c.id]
        classes.append(entry)
    noise = {str(rat): None if w == 0.0 else linear_to_db(w) + 30.0 for rat, w in config.noise_power.items()}
    return {"users_per_km2": config.user_density, "noise_dbm_per_rat": noise, "classes": classes}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=linear_configs())
def test_load_config_round_trips(config):
    """A valid config written as JSON in dB units loads back with every
    field within 1e-12 relative."""
    require_valid(config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.json"
        path.write_text(json.dumps(_as_json(config)))
        loaded = load_config(path)

    def close(got, want):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)

    assert [c.id for c in loaded.classes] == [c.id for c in config.classes]
    for got, want in zip(loaded.classes, config.classes):
        for name in ("density", "power", "exponent", "bias", "bandwidth"):
            assert close(getattr(got, name), getattr(want, name)), (want.id, name)
    assert close(loaded.user_density, config.user_density)
    for got, want in ((loaded.noise_power, config.noise_power), (loaded.sinr_threshold, config.sinr_threshold),
                      (loaded.rate_threshold, config.rate_threshold)):
        assert got.keys() == want.keys()
        assert all(close(got[k], want[k]) for k in want), (got, want)


def test_load_config_schema_errors(tmp_path):
    bad = base_config_dict()
    bad["classes"][0]["bogus"] = 1
    with pytest.raises(ConfigSchemaError, match="unknown keys"):
        load_config(write_config(tmp_path, bad))

    bad = base_config_dict()
    del bad["classes"][0]["power_dbm"]
    with pytest.raises(ConfigSchemaError, match="missing field 'power_dbm'"):
        load_config(write_config(tmp_path, bad))

    bad = base_config_dict()
    bad["classes"][0]["access"] = "hybrid"
    message = r"^classes\[0\]: access must be one of \('open', 'closed'\), got 'hybrid'$"
    with pytest.raises(ConfigSchemaError, match=message):
        load_config(write_config(tmp_path, bad))

    bad = base_config_dict()
    bad["noise_dbm_per_rat"] = {"wifi": -100}
    with pytest.raises(ConfigSchemaError, match="bad RAT key"):
        load_config(write_config(tmp_path, bad))

    with pytest.raises(ConfigSchemaError, match="non-empty"):
        load_config(write_config(tmp_path, {"classes": []}))

    with pytest.raises(ConfigSchemaError, match="unknown top-level"):
        load_config(write_config(tmp_path, {"classes": [], "extra": 1}))

    path = tmp_path / "broken.json"
    path.write_text('{"classes": [,]}')
    with pytest.raises(ConfigSchemaError, match="line 1"):
        load_config(path)


_CLASS_NUMBERS = ("rat", "tier", "density_per_km2", "power_dbm", "bias_db", "alpha", "bandwidth_hz",
                  "sinr_threshold_db", "rate_threshold_bps")


@pytest.mark.parametrize("value", [[1], "x", {"1": 1}, True], ids=["list", "string", "object", "boolean"])
@pytest.mark.parametrize("field", [*_CLASS_NUMBERS, "users_per_km2", "noise_dbm_per_rat['2']"])
def test_malformed_number_names_its_field(tmp_path, capsys, field, value):
    """A numeric field holding anything but a JSON number exits 1 with an
    error that names the field, without a traceback or any output file."""
    data = base_config_dict()
    if field in _CLASS_NUMBERS:
        data["classes"][1][field] = value
        named = f"classes[1]: {field}"
    elif field == "users_per_km2":
        data[field] = value
        named = field
    else:
        data["noise_dbm_per_rat"]["2"] = value
        named = field
    out = tmp_path / "out"
    assert main(["analyze", "sinr", "--config", write_config(tmp_path, data), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [[1], "x", True, 5])
def test_noise_table_must_be_an_object(tmp_path, capsys, value):
    data = base_config_dict()
    data["noise_dbm_per_rat"] = value
    out = tmp_path / "out"
    assert main(["analyze", "sinr", "--config", write_config(tmp_path, data), "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: noise_dbm_per_rat: must be an object")
    assert not out.exists()


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1.0", "0", "-1", "", "１"])
def test_noise_key_must_be_a_plain_rat_number(tmp_path, capsys, key):
    """Only "1" names RAT 1: "01" used to load as RAT 1 too, and the later
    of two such keys won ({"1": -90, "01": null} gave RAT 1 no noise)."""
    data = base_config_dict()
    data["noise_dbm_per_rat"] = {"1": -90, key: None, "2": None}
    out = tmp_path / "out"
    assert main(["analyze", "sinr", "--config", write_config(tmp_path, data), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: noise_dbm_per_rat: bad RAT key {key!r} (a RAT number such as \"2\")\n"
    assert not out.exists()


def _replace_once(text: str, old: str, new: str) -> str:
    assert text.count(old) == 1, old
    return text.replace(old, new)


@pytest.mark.parametrize(
    "key, old, new",
    [
        ("users_per_km2", '"users_per_km2": 50,', '"users_per_km2": 50, "users_per_km2": 500,'),
        ("rat", '"rat": 1,', '"rat": 1, "rat": 2,'),
        ("2", '"2": null}', '"2": null, "2": -90}'),
        ("classes", '"classes": [', '"classes": [], "classes": ['),
    ],
    ids=["top level", "class", "noise table", "classes"],
)
def test_a_key_twice_in_one_object_is_refused(tmp_path, capsys, key, old, new):
    """json.loads keeps the last of two equal keys; the config loader names
    the key instead, wherever the object is."""
    path = tmp_path / "net.json"
    path.write_text(_replace_once(json.dumps(base_config_dict()), old, new))
    with pytest.raises(ConfigSchemaError, match=f"^key '{key}' appears twice in one object$"):
        load_config(path)
    out = tmp_path / "out"
    assert main(["analyze", "sinr", "--config", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"error: key '{key}' appears twice in one object\n"
    assert not out.exists()


def test_exit_codes(tmp_path, capsys, monkeypatch):
    ok = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["analyze", "sinr", "--config", ok, "--tau-grid-db", "0:10:5", "-o", out]) == 0
    assert main(["analyze", "sinr", "--config", str(tmp_path / "gone.json"), "-o", out]) == 3

    broken = tmp_path / "broken.json"
    broken.write_text("{ nope")
    assert main(["analyze", "sinr", "--config", str(broken), "-o", out]) == 1

    invalid = base_config_dict()
    invalid["classes"][0]["alpha"] = 1.5
    bad = write_config(tmp_path, invalid, "invalid.json")
    assert main(["analyze", "sinr", "--config", bad, "-o", out]) == 1

    # an unreachable percentile target surfaces as a numerical failure
    code = main(
        [
            "sweep", "bias", "--config", ok, "--class", "2,3",
            "--range-db", "0:5:5", "--metric", "p95",
            "--method", "meanload", "--coverage-target", "0.9999999",
            "-o", out,
        ]
    )
    assert code == 2

    # a bad grid or bracket is a bad argument: exit 1, naming the flag, before
    # any output and before numpy is asked for a grid (one of more than a
    # million points would not fit in memory)
    bad_args = [
        (["analyze", "sinr", "--tau-grid-db", "0:1e15:1"], "--tau-grid-db"),
        (["analyze", "sinr", "--tau-grid-db", "0:1:1e-320"], "--tau-grid-db"),
        (["analyze", "rate", "--rho-grid", "1e4:1e6:1e300"], "--rho-grid"),
        (["analyze", "rate", "--rho-grid", "1e4:1e6:1000001"], "--rho-grid"),
        (["analyze", "rate", "--rho-grid", "1e4:1e6:2.9"], "--rho-grid"),
        (["simulate", "--trials", "5", "--rho-grid", "1e4:inf:3"], "--rho-grid"),
        (["analyze", "sinr", "--tau-grid-db", "-10:inf:1"], "--tau-grid-db"),
        (["sweep", "bias", "--class", "2,3", "--range-db", "0:nan:1", "--metric", "sir"], "--range-db"),
        (["optimize", "bias", "--mode", "rate", "--bracket-hi-db", "inf"], "bias bracket must be finite"),
        (["optimize", "bias", "--mode", "rate", "--bracket-lo-db", "nan"], "bias bracket must be finite"),
    ]
    built = []
    for name in ("arange", "logspace"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, real=real, **k: built.append(a) or real(*a, **k))
    fresh = tmp_path / "fresh"
    for args, named in bad_args:
        capsys.readouterr()
        assert main([*args, "--config", ok, "-o", str(fresh)]) == 1, args
        assert named in capsys.readouterr().err, args
        assert not fresh.exists() and built == [], args

    # a dB input whose linear value overflows, or underflows to 0, is a bad
    # input too: exit 1, naming the field or flag, with no numpy warning
    db_cases = [
        (["optimize", "bias", "--mode", "rate", "--bracket-hi-db", "5000"], ok, "--bracket-hi-db"),
        (["optimize", "bias", "--mode", "rate", "--bracket-lo-db", "-5000"], ok, "--bracket-lo-db"),
        (["analyze", "sinr", "--tau-grid-db", "0:5000:1000"], ok, "--tau-grid-db"),
        (["analyze", "sinr", "--tau-grid-db", "-5000:0:1000"], ok, "--tau-grid-db"),
        (["sweep", "bias", "--class", "2,3", "--range-db", "0:5000:1000", "--metric", "sir"], ok, "--range-db"),
        (["sweep", "bias", "--class", "2,3", "--range-db", "-5000:0:1000", "--metric", "sir"], ok, "--range-db"),
    ]
    for key, value in (("bias_db", 5000), ("power_dbm", 1e6), ("sinr_threshold_db", 5000), ("bias_db", -5000)):
        data = base_config_dict()
        data["classes"][1][key] = value
        path = write_config(tmp_path, data, f"{key}_{value}.json")
        db_cases.append((["analyze", "sinr"], path, f"classes[1]: {key}"))
    for value in (5000, -5000):
        data = base_config_dict()
        data["noise_dbm_per_rat"]["2"] = value
        path = write_config(tmp_path, data, f"noise_{value}.json")
        db_cases.append((["analyze", "sinr"], path, "noise_dbm_per_rat['2']"))
    for args, config, named in db_cases:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--config", config, "-o", str(fresh)]) == 1, args
        assert named in capsys.readouterr().err, args
        assert not fresh.exists(), args


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "bias", "--mode", "foo"],
        ["analyze", "sinr", "--trials", "3"],
        ["sweep", "bias", "--range-db", "0:5:5", "--metric", "sir"],  # no --class
        ["analyze"],
        ["bogus"],
    ],
)
def test_usage_errors_exit_1(tmp_path, capsys, args):
    """argparse's own exit code, 2, is the documented numerical-failure code."""
    out = tmp_path / "out"
    assert main([*args, "--config", write_config(tmp_path), "-o", str(out)]) == 1
    assert "usage: hetnet-offload" in capsys.readouterr().err
    assert not out.exists()


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out
    assert main(["sweep", "bias", "--help"]) == 0
    assert "--coverage-target" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"hetnet-offload {hetnet_offload.__version__}\n"


_X = ["--config", "x.json"]
# every help level, --version, no argument, and each class of usage error:
# argvs that argparse ends, with or without naming a command
PARSER_ARGVS = [
    ["--help"],
    ["analyze", "--help"],
    ["sweep", "--help"],
    ["optimize", "--help"],
    *([*cmd.words, "--help"] for cmd in cli._COMMANDS),
    ["--version"],
    [],
    ["bogus"],  # invalid choice, top level
    ["analyze", "bogus"],  # invalid choice, group level
    ["optimize", "sir", *_X],
    ["analyze"],  # missing subcommand
    ["sweep", *_X],
    ["analyze", "sinr", "--trials", "3", *_X],  # unrecognized after a named command
    ["simulate", *_X, "--extra"],
    ["compare", *_X, "stray"],
    ["analyze", "sinr", "--version"],
    ["optimize", "bias", "--mode", "foo", *_X],  # bad leaf choice
    ["analyze", "rate", "--method", "closedform", *_X],
    ["simulate", "--trials", "many", *_X],  # bad type
    ["optimize", "bias", "--mode", "rate", "--bracket-lo-db", "low", *_X],
    ["sweep", "bias", "--range-db", "0:5:5", "--metric", "sir", *_X],  # no --class
    ["sweep", "bias", "--class", "2,3", "--range-db", "0:5:5", "--metric", "sir", "--method", "exact", *_X],
    ["analyze", "sinr", *_X, "-o"],  # a flag without its value
    ["sweep", "bias", "--conf", "x.json", "--class", "2,3", "--metric", "sir"],  # abbreviated, no --range-db
    ["analyze", "rate", *_X, "--version"],  # --version after a valid command
    ["analyze", "sinr", "--", *_X],  # flags after "--" are positionals
    ["compare", "--bogus", "--help"],  # an extra before help
]


def _main_text(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["100", "40"])
@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_text_is_the_whole_trees(argv, columns, capsys, monkeypatch):
    """A call that names a command parses with its leaf alone, yet prints
    the help, usage and error text, and exits with the code, of the whole
    tree, built with argparse's own formatter (which reads the terminal's
    width at each use)."""
    monkeypatch.setenv("COLUMNS", columns)
    got = _main_text(argv, capsys)
    monkeypatch.setattr(cli, "_parser", lambda *words, **kwargs: argparse.ArgumentParser(
        prog=" ".join(("hetnet-offload", *words)), **kwargs))
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert _main_text(argv, capsys) == got
    assert got[0] in (0, 1)


def test_whole_tree_names_its_subcommands_by_dest(capsys):
    """The whole tree keeps argparse's own spelling: its errors name a
    subcommand level by its dest, not by a spelled choice list."""
    assert main(["analyze", "bogus"]) == 1
    assert "error: argument what: invalid choice: 'bogus'" in capsys.readouterr().err
    assert main([]) == 1
    assert "error: the following arguments are required: command" in capsys.readouterr().err


_WHOLE_TREE = 10  # the top parser, three groups and six leaves
_BUILDS = [
    *(([*cmd.words, "--help"], 1) for cmd in cli._COMMANDS),
    (["analyze", "rate", "--method", "meanload", *_X], 1),  # parses; x.json is then missing
    (["--help"], _WHOLE_TREE),
    (["analyze", "--help"], _WHOLE_TREE),
    (["analyze", "sinr", *_X, "--extra"], 1 + _WHOLE_TREE),  # the leaf leaves an extra
    (["simulate", *_X, "stray"], 1 + _WHOLE_TREE),
]


@pytest.mark.parametrize("argv, parsers", _BUILDS, ids=[" ".join(argv) for argv, _ in _BUILDS])
def test_a_call_builds_only_its_commands_parsers(argv, parsers, capsys, monkeypatch):
    """A named command builds its leaf parser alone; a call that names none,
    or whose leaf leaves extras, builds the whole tree; every call builds
    its parsers again (no cache)."""
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(1) or real(self, *a, **k))
    for _ in range(2):
        built.clear()
        assert main(argv) in (0, 1, 3)
        assert len(built) == parsers


@pytest.mark.parametrize(
    "key, value",
    [
        ("density_per_km2", math.nan),
        ("power_dbm", math.inf),
        ("bias_db", math.nan),
        ("alpha", math.inf),
        ("bandwidth_hz", math.inf),
        ("sinr_threshold_db", math.nan),
        ("users_per_km2", math.nan),
        ("noise_dbm", math.inf),
    ],
)
def test_non_finite_numbers_exit_1(tmp_path, key, value):
    """NaN / Infinity in the JSON (Python's json reads both) fail validation."""
    data = base_config_dict()
    if key == "users_per_km2":
        data[key] = value
    elif key == "noise_dbm":
        data["noise_dbm_per_rat"]["1"] = value
    else:
        data["classes"][0][key] = value
    path = write_config(tmp_path, data)
    assert any(token in open(path).read() for token in ("NaN", "Infinity"))
    with pytest.raises(ConfigValidationError):
        load_config(path)
    assert main(["analyze", "sinr", "--config", path, "-o", str(tmp_path / "out")]) == 1


def test_csv_writes_each_value_as_its_own_nine_digit_format():
    """One row format for the table equals formatting value by value, on
    signed zeros, the smallest subnormal and normal, long and huge values,
    infinities and nan; an integer column is written as floats."""
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 / 3, 123456789.5, 1e16, math.inf, -math.inf, math.nan]
    columns = [values, values[::-1], np.arange(len(values))]
    want = ["a,b,c"] + [",".join(f"{float(x):.9g}" for x in row) for row in zip(*columns)]
    assert cli._csv(["a", "b", "c"], columns) == "\n".join(want) + "\n"


def test_analyze_sinr_csv_matches_library(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sinr"
    assert main(["analyze", "sinr", "--config", path, "--tau-grid-db", "-10:20:5", "-o", str(out)]) == 0
    lines = (out / "sinr_ccdf.csv").read_text().strip().splitlines()
    assert lines[0] == "tau_db,coverage,cond_1_1,cond_2_3"
    assert len(lines) == 1 + 7  # -10..20 in 5 dB steps
    config = load_config(path)
    curve = sinr_ccdf(config, [db_to_linear(-10.0 + 5.0 * k) for k in range(7)])
    for k, line in enumerate(lines[1:]):
        fields = [float(v) for v in line.split(",")]
        assert fields[0] == pytest.approx(-10.0 + 5.0 * k)
        assert fields[1] == pytest.approx(curve.values[k], rel=1e-8)
    # nine significant digits in every numeric cell
    cell = lines[1].split(",")[1]
    assert cell == f"{float(cell):.9g}"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analyze sinr"
    assert manifest["tool_version"]
    assert manifest["duration_seconds"] >= 0.0
    assert manifest["parameters"]["tau_grid_db"] == "-10:20:5"


def test_analyze_rate_methods(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "rate"
    assert main(["analyze", "rate", "--config", path, "--rho-grid", "1e4:1e7:6", "-o", str(out)]) == 0
    lines = (out / "rate_ccdf.csv").read_text().strip().splitlines()
    assert lines[0].startswith("rho_bps,coverage,cond_")
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(values, values[1:]))  # CCDF falls

    # meanload writes the overall curve alone, on any config
    for name, alpha2 in (("eq.json", 3.5), ("mx.json", 4.0)):
        out2 = tmp_path / f"rate-ml-{alpha2}"
        code = main(
            ["analyze", "rate", "--config", write_config(tmp_path, base_config_dict(alpha2=alpha2), name),
             "--rho-grid", "1e4:1e7:6", "--method", "meanload", "-o", str(out2)]
        )
        assert code == 0
        lines = (out2 / "rate_ccdf.csv").read_text().strip().splitlines()
        assert lines[0] == "rho_bps,coverage" and len(lines) == 7
    # the retired closedform method is a usage error: it writes nothing
    out3 = tmp_path / "rate-cf"
    code = main(
        ["analyze", "rate", "--config", path, "--rho-grid", "1e4:1e7:6", "--method", "closedform", "-o", str(out3)]
    )
    assert code == 1
    assert not out3.exists()


@pytest.mark.parametrize("config_name", ["two_class_sir", "two_rat_three_tier"])
def test_analyze_rate_meanload_matches_pointwise(tmp_path, monkeypatch, config_name):
    """The meanload CSV, one stacked evaluation of the grid, equals the
    pointwise mean-load rate coverage within 1e-12 at every point (written
    at full precision for the comparison)."""
    monkeypatch.setattr(cli, "_CELL", "{!r}")
    path = ROOT / "configs" / f"{config_name}.json"
    out = tmp_path / "ml"
    assert main(["analyze", "rate", "--config", str(path), "--method", "meanload", "-o", str(out)]) == 0
    rows = np.loadtxt(out / "rate_ccdf.csv", delimiter=",", skiprows=1)
    config = load_config(path)
    want = [rate_coverage_mean_load(config, rho_common=rho) for rho in np.logspace(4.0, 8.0, 25)]
    assert rows.shape == (25, 2)
    np.testing.assert_allclose(rows[:, 1], want, rtol=1e-12, atol=0.0)


def test_simulate_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--config", path, "--trials", "100", "--seed", "1",
         "--window-km", "8", "-o", str(out)]
    )
    assert code == 0
    for name in ("sim_sinr_ccdf.csv", "sim_rate_ccdf.csv", "sim_summary.json", "manifest.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "sim_summary.json").read_text())
    assert summary["trial_count"] == 100
    assert set(summary["association_freq"]) == {"1_1", "2_3"}
    assert sum(summary["association_freq"].values()) == pytest.approx(1.0)
    assert "2_3c" in summary["mean_ap_count"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["parameters"]["trials"] == 100


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--window-km", "0"),
        ("--window-km", "nan"),
        ("--window-km", "inf"),
        ("--workers", "0"),
        ("--seed", "-1"),
        ("--trials", "0"),
    ],
)
def test_invalid_simulation_settings_exit_1(tmp_path, command, flag, value):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    args = [command, "--config", path, "--trials", "20", "--rho-grid", "1e4:1e7:3", flag, value]
    assert main(args + ["-o", str(out)]) == 1
    assert not out.exists()


def test_sweep_bias_csv(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "bias", "--config", path, "--class", "2,3", "--range-db", "0:10:5",
         "--metric", "sir", "-o", str(out)]
    )
    assert code == 0
    lines = (out / "bias_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "bias_db,sir_coverage"
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 5.0, 10.0]


def test_optimize_bias_sir_json(tmp_path):
    data = base_config_dict()
    data["classes"] = data["classes"][:2]  # drop the closed layer
    data["classes"][1]["bias_db"] = 0
    path = write_config(tmp_path, data, "sir.json")
    out = tmp_path / "opt"
    assert main(["optimize", "bias", "--config", path, "--mode", "sir", "-o", str(out)]) == 0
    blob = json.loads((out / "optimize_bias.json").read_text())
    assert blob["b_opt_db"] == pytest.approx(12.5, abs=1e-9)
    assert blob["offload_fraction"] == pytest.approx(0.5, abs=1e-12)
    assert blob["trace"] == []
    assert blob["boundary_warning"] is False


def test_key_errors_print_their_message_bare(tmp_path, capsys):
    """A missing class or threshold exits 1 with its message, not with the
    quoted form that str() gives a KeyError."""
    path = write_config(tmp_path)
    capsys.readouterr()
    args = ["sweep", "bias", "--config", path, "--class", "9,9", "--range-db", "0:5:5", "--metric", "sir"]
    assert main([*args, "-o", str(tmp_path / "sweep")]) == 1
    assert capsys.readouterr().err == "error: no class (9,9) in config\n"

    data = base_config_dict()
    data["classes"] = data["classes"][:2]
    del data["classes"][1]["sinr_threshold_db"]
    no_tau = write_config(tmp_path, data, "no_tau.json")
    assert main(["optimize", "bias", "--config", no_tau, "--mode", "sir", "-o", str(tmp_path / "opt")]) == 1
    assert capsys.readouterr().err == "error: no SINR threshold for class (2,3)\n"


def test_optimize_bias_rate_json(tmp_path):
    data = base_config_dict()
    data["classes"] = data["classes"][:2]
    data["users_per_km2"] = 200
    path = write_config(tmp_path, data, "rate.json")
    out = tmp_path / "optr"
    code = main(
        ["optimize", "bias", "--config", path, "--mode", "rate", "--method", "meanload",
         "--bracket-lo-db", "-10", "--bracket-hi-db", "45", "-o", str(out)]
    )
    assert code == 0
    blob = json.loads((out / "optimize_bias.json").read_text())
    assert not blob["boundary_warning"]
    assert len(blob["trace"]) > 50
    assert 0.0 < blob["offload_fraction"] < 1.0


def test_optimize_bias_rate_default_class(tmp_path, capsys):
    """Without --class, rate mode tunes the second RAT's open class when
    exactly two open classes sit on two RATs (closed layers aside), and
    otherwise names --class in its error."""
    config = str(ROOT / "configs" / "two_rat_three_tier.json")
    blobs = []
    for k, cls in enumerate(([], ["--class", "2,3"])):
        out = tmp_path / f"opt{k}"
        args = ["optimize", "bias", "--config", config, "--mode", "rate", "--method", "meanload", *cls]
        assert main([*args, "-o", str(out)]) == 0
        blobs.append(json.loads((out / "optimize_bias.json").read_text()))
    assert blobs[0] == blobs[1]

    # the default method is theorem1, as for analyze rate and sweep bias
    for k, method in enumerate(([], ["--method", "theorem1"])):
        out = tmp_path / f"t1{k}"
        assert main(["optimize", "bias", "--config", config, "--mode", "rate", *method, "-o", str(out)]) == 0
        blobs.append(json.loads((out / "optimize_bias.json").read_text()))
    assert blobs[2] == blobs[3]
    assert blobs[2]["b_opt_db"] == pytest.approx(12.4350, abs=1e-4)

    data = base_config_dict()
    data["classes"].append({**data["classes"][1], "tier": 4})  # a third open class
    three = write_config(tmp_path, data, "three.json")
    capsys.readouterr()
    assert main(["optimize", "bias", "--config", three, "--mode", "rate", "-o", str(tmp_path / "x")]) == 1
    assert "--class" in capsys.readouterr().err

    data = base_config_dict()
    data["classes"][0]["rat"] = 2  # two open classes on one RAT
    same_rat = write_config(tmp_path, data, "same_rat.json")
    assert main(["optimize", "bias", "--config", same_rat, "--mode", "rate", "-o", str(tmp_path / "y")]) == 1
    assert "--class" in capsys.readouterr().err


def test_compare_reports_max_gap(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", path, "--trials", "150", "--seed", "2",
         "--window-km", "8", "--rho-grid", "1e4:1e7:5", "-o", str(out)]
    )
    assert code == 0
    blob = json.loads((out / "compare_summary.json").read_text())
    assert 0.0 <= blob["max_gap"] <= 1.0
    lines = (out / "compare_rate.csv").read_text().strip().splitlines()
    assert lines[0] == "rho_bps,analytic,empirical,abs_gap"
    gaps = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(gaps) == pytest.approx(blob["max_gap"], rel=5e-9)  # CSV carries 9 digits


SIM_ARGS = ["--trials", "40", "--seed", "5", "--window-km", "6", "--rho-grid", "1e4:1e7:3"]
SIM_PARAMS = {"trials": 40, "workers": 1, "deployment": "ppp", "window_km": 6.0, "rho_grid": "1e4:1e7:3"}


@pytest.mark.parametrize(
    "args, params, seed",
    [
        (["analyze", "sinr", "--tau-grid-db", "0:10:5"], {"tau_grid_db": "0:10:5"}, None),
        (
            ["analyze", "rate", "--rho-grid", "1e4:1e7:3", "--method", "meanload"],
            {"rho_grid": "1e4:1e7:3", "method": "meanload"},
            None,
        ),
        (["simulate", *SIM_ARGS], SIM_PARAMS, 5),
        (
            ["sweep", "bias", "--class", "2,3", "--range-db", "0:5:5", "--metric", "sir"],
            {"class": "2,3", "range_db": "0:5:5", "metric": "sir", "method": "theorem1", "coverage_target": 0.95},
            None,
        ),
        (
            ["optimize", "bias", "--mode", "rate", "--method", "meanload",
             "--bracket-lo-db", "-10", "--bracket-hi-db", "30"],
            {"mode": "rate", "class": None, "bracket_db": [-10.0, 30.0], "method": "meanload"},
            None,
        ),
        (["compare", *SIM_ARGS, "--deployment", "grid"], {**SIM_PARAMS, "deployment": "grid"}, 5),
    ],
)
def test_manifest_records_every_flag(tmp_path, args, params, seed):
    """Each flag but --config, --output and --seed, under its own name; --seed in its own field."""
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main([*args, "--config", path, "-o", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    command = " ".join(a for a in args[:2] if not a.startswith("-"))
    assert set(manifest) == {"config_path", "command", "parameters", "seed", "tool_version", "duration_seconds"}
    assert manifest["command"] == command
    assert manifest["config_path"] == path
    assert manifest["parameters"] == params
    assert manifest["seed"] == seed
    assert manifest["tool_version"] == hetnet_offload.__version__


def test_package_surface_resolves():
    names = hetnet_offload.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hetnet_offload, name) is not None, name


def test_exports_table_is_the_one_list_of_public_names():
    """`__all__` is the names of `_EXPORTS` sorted, and no submodule assigns
    an `__all__` of its own."""
    assert hetnet_offload.__all__ == sorted(n for names in hetnet_offload._EXPORTS.values() for n in names)
    for path in sorted(Path(hetnet_offload.__file__).parent.glob("*.py")):
        assigned = {t.id for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        assert ("__all__" in assigned) == (path.name == "__init__.py"), path.name


def test_readme_library_imports_are_public():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    imported = re.search(r"from hetnet_offload import \(([^)]*)\)", block).group(1)
    names = [n.strip() for n in imported.replace("\n", ",").split(",") if n.strip()]
    assert names
    assert set(names) <= set(hetnet_offload.__all__)


def test_benchmark_tracing_targets_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps still exists where it
    looks it up, some of them imported only for it (such as
    `cli.require_valid`); a missing one makes a traced run fail.  The
    tracer installs on the real package and puts every function back."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS

    def attr(target):
        return getattr(importlib.import_module(target.module), target.attr)

    originals = {(t.module, t.attr): attr(t) for t in tracing.TARGETS}
    assert len(originals) == len(tracing.TARGETS) and all(map(callable, originals.values()))
    tracer = tracing.Tracer().install()
    try:
        for t in tracing.TARGETS:
            assert attr(t).__wrapped__ is originals[t.module, t.attr], t
    finally:
        tracer.uninstall()
    for t in tracing.TARGETS:
        assert attr(t) is originals[t.module, t.attr], t
