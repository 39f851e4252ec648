"""Command-line layer: config ingestion, outputs, manifests, exit codes."""

import json
import math

import numpy as np
import pytest

from hetnet_offload import ClassId, ConfigValidationError, db_to_linear, dbm_to_watts, sinr_ccdf
from hetnet_offload.cli import ConfigSchemaError, load_config, main

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)


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
    with pytest.raises(ConfigSchemaError, match="open|closed"):
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


def test_exit_codes(tmp_path):
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

    # closed form needs equal exponents and no noise: supply them
    eq = write_config(tmp_path, base_config_dict(alpha2=3.5), "eq.json")
    out2 = tmp_path / "rate-cf"
    code = main(
        ["analyze", "rate", "--config", eq, "--rho-grid", "1e4:1e7:6",
         "--method", "closedform", "-o", str(out2)]
    )
    assert code == 0
    # mixed exponents through the closed form must fail cleanly, not crash
    code = main(
        ["analyze", "rate", "--config", write_config(tmp_path, base_config_dict(alpha2=4.0), "mx.json"),
         "--rho-grid", "1e4:1e7:6", "--method", "closedform", "-o", str(out2)]
    )
    assert code == 1


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
    ],
)
def test_invalid_simulation_settings_exit_1(tmp_path, command, flag, value):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    args = [command, "--config", path, "--trials", "20", "--rho-grid", "1e4:1e7:3", flag, value]
    assert main(args + ["-o", str(out)]) == 1
    assert not (out / "manifest.json").exists()


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


def test_optimize_bias_rate_json(tmp_path):
    data = base_config_dict()
    data["classes"] = data["classes"][:2]
    data["users_per_km2"] = 200
    path = write_config(tmp_path, data, "rate.json")
    out = tmp_path / "optr"
    code = main(
        ["optimize", "bias", "--config", path, "--mode", "rate", "--method", "closedform",
         "--bracket-lo-db", "-10", "--bracket-hi-db", "45", "-o", str(out)]
    )
    assert code == 0
    blob = json.loads((out / "optimize_bias.json").read_text())
    assert not blob["boundary_warning"]
    assert len(blob["trace"]) > 50
    assert 0.0 < blob["offload_fraction"] < 1.0


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
