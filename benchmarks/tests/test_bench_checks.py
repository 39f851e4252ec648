"""Each check passes a correct value and rejects a perturbed one."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import oracles  # noqa: E402

GOOD_CCDF = np.array([1.0, 0.9, 0.5, 0.2, 0.0])


def test_ccdf():
    checks.ccdf(GOOD_CCDF, "ok")
    for bad in (np.array([1.0, 0.9, 0.5, 0.5 + 1e-6, 0.0]),  # rises
                GOOD_CCDF * 1.01,  # above 1
                GOOD_CCDF - 1e-6,  # below 0
                np.append(GOOD_CCDF, np.nan)):
        with pytest.raises(checks.CheckFailed):
            checks.ccdf(bad, "bad")


def test_probabilities():
    checks.probabilities([0.0, 0.3, 1.0], "ok")
    for bad in ([1.0 + 1e-6], [-1e-6], [math.inf], []):
        with pytest.raises(checks.CheckFailed):
            checks.probabilities(bad, "bad")


def test_mix():
    per_class = {(1, 1): np.array([0.9, 0.5]), (2, 3): np.array([0.7, 0.1])}
    weights = {(1, 1): 0.25, (2, 3): 0.75}
    overall = 0.25 * per_class[(1, 1)] + 0.75 * per_class[(2, 3)]
    checks.mix(overall, per_class, weights, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.mix(overall + [0.0, 1e-7], per_class, weights, "bad")


def test_association_sum():
    checks.association_sum({1: 0.3, 2: 0.7}, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.association_sum({1: 0.3, 2: 0.7 + 1e-7}, "bad")


def test_close():
    checks.close([0.5, 0.25], [0.5, 0.25 + 1e-8], "ok")
    with pytest.raises(checks.CheckFailed):
        checks.close([0.5, 0.25], [0.5, 0.25 + 1e-5], "bad")


def test_percentile():
    checks.percentile(0.9505, 0.95, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.percentile(0.952, 0.95, "bad")


def test_bias_optimum():
    trace = [0.5, 0.61, 0.6]
    checks.bias_optimum(0.61, trace, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.bias_optimum(0.61 - 1e-12, trace, "bad")
    with pytest.raises(checks.CheckFailed):
        checks.bias_optimum(0.61, [], "bad")


def test_binomial_band():
    n, p = 10_000, 0.3
    sigma = math.sqrt(p * (1 - p) / n)
    checks.binomial_band(p + 3 * sigma, p, n, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.binomial_band(p + 8 * sigma, p, n, "bad")


def test_dkw_band_catches_a_shifted_curve_and_passes_a_sampled_one():
    rng = np.random.default_rng(0)
    n = 8000
    grid = np.linspace(-3, 3, 61)
    samples = rng.exponential(1.0, n)
    analytic = np.exp(-np.clip(grid, 0, None))
    empirical = (samples[:, None] > grid[None, :]).mean(axis=0)
    checks.dkw_band(empirical, analytic, n, "ok")
    eps = math.sqrt(math.log(2 / checks.BAND_ALPHA) / (2 * n)) + checks.WINDOW_ALLOWANCE
    with pytest.raises(checks.CheckFailed):
        checks.dkw_band(empirical, analytic + 1.5 * eps, n, "bad")


def test_oracle_check_rejects_a_perturbed_coverage():
    sc = oracles.load_scenario(Path(__file__).resolve().parents[2] / "configs" / "two_rat_three_tier.json")
    taus = np.array([0.1, 1.0, 10.0])
    a = oracles.association_oracle(sc, 1, 1)
    good = oracles.coverage_oracle(sc, 1, 1, taus, a)
    checks.close(good, oracles.coverage_oracle(sc, 1, 1, taus, a, quadrature=True), "ok")
    with pytest.raises(checks.CheckFailed):
        checks.close(good * (1 + 1e-5), oracles.coverage_oracle(sc, 1, 1, taus, a), "bad")
