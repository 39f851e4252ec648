"""The workload checks accept the program's real outputs and reject perturbed ones."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import DENSE_VENUE, DUAL_RAT, FOUR_CLASS, TWO_CLASS_2000  # noqa: E402

from hetnet_offload import cli  # noqa: E402


@pytest.fixture
def rnd(tmp_path):
    return workloads.Round(tmp_path, np.random.default_rng(0))


def _rewrite_csv(path: Path, row: int, col: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("col,factor", [(1, 1.0 + 1e-6), (2, 1.0 + 1e-5), (3, 0.9)])
def test_sinr_check_rejects_a_perturbed_column(rnd, tmp_path, col, factor):
    out = rnd.cli("sinr", FOUR_CLASS, 41, ["analyze", "sinr", "--tau-grid-db", "-10:30:1"])
    csv = out / "sinr_ccdf.csv"
    workloads._check_sinr_csv(rnd, csv, FOUR_CLASS, 41)
    _rewrite_csv(csv, 7, col, factor)
    with pytest.raises(checks.CheckFailed):
        workloads._check_sinr_csv(rnd, csv, FOUR_CLASS, 41)


def test_rate_check_rejects_a_perturbed_overall_value(rnd):
    out = rnd.cli("rate", DUAL_RAT, 5, ["analyze", "rate", "--method", "theorem1", "--rho-grid", "1e5:1e7:5"])
    csv = out / "rate_ccdf.csv"
    workloads._check_rate_csv(rnd, csv, DUAL_RAT, 5, [1, 3])
    _rewrite_csv(csv, 1, 1, 1.0 + 1e-5)
    with pytest.raises(checks.CheckFailed):
        workloads._check_rate_csv(rnd, csv, DUAL_RAT, 5, [1, 3])


def test_percentile_check_rejects_a_shifted_rate(rnd):
    from hetnet_offload import offload

    rho = offload.percentile_rate(cli.load_config(TWO_CLASS_2000), 0.95, method="theorem1")
    workloads._check_percentile(rnd, TWO_CLASS_2000, rho, 0.95)
    with pytest.raises(checks.CheckFailed):
        workloads._check_percentile(rnd, TWO_CLASS_2000, rho * 1.05, 0.95)


def test_bias_opt_check_rejects_a_lowered_objective(rnd):
    lo, hi = -20.0, 20.0
    args = ["optimize", "bias", "--mode", "rate", "--method", "theorem1", "--class", "2,3"]
    out = rnd.cli("bias_opt", workloads.TWO_CLASS, 1, args)
    workloads._check_bias_opt(rnd, out, workloads.TWO_CLASS, lo, hi)
    blob_path = out / "optimize_bias.json"
    blob = json.loads(blob_path.read_text())
    blob["objective"] -= 1e-5
    blob_path.write_text(json.dumps(blob))
    with pytest.raises(checks.CheckFailed):
        workloads._check_bias_opt(rnd, out, workloads.TWO_CLASS, lo, hi)


def test_pmf_check_rejects_a_perturbed_term(rnd):
    from hetnet_offload import association

    config = cli.load_config(DENSE_VENUE)
    small_cell = config.open_classes()[1].id  # the macro pmf is the failing operation
    dist = association.tagged_load_distribution(config, small_cell)
    workloads._check_pmf(rnd, DENSE_VENUE, small_cell, dist)
    dist.pmf[dist.pmf.argmax()] *= 1.001
    with pytest.raises(checks.CheckFailed):
        workloads._check_pmf(rnd, DENSE_VENUE, small_cell, dist)


def test_failed_operation_is_counted_not_raised(rnd):
    out = rnd.cli("sinr", FOUR_CLASS, 41, ["analyze", "sinr", "--tau-grid-db", "30:-10:1"])
    assert out is None
    assert [o.ok for o in rnd.ops] == [False]
    assert "exit code 1" in rnd.ops[0].error


def test_rate_repeats_keep_each_scenarios_grid(monkeypatch):
    calls = []
    monkeypatch.setattr(workloads, "_rate_curve", lambda r, path, n, k: calls.append((path, n, k)))
    for op in workloads._rate_repeats(None, {"a": 2, "b": 5}):
        op()
    assert calls == [(p, n, k) for k in range(workloads.RATE_REPEATS) for p, n in (("a", 2), ("b", 5))]
