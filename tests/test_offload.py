"""Bias optimization: SIR closed forms, rate line search, percentile solver."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import dual_rat_config, four_class_config, two_class_config, two_class_sir_coverage
from hetnet_offload import (
    ClassId,
    SolverError,
    bias_sweep,
    db_to_linear,
    linear_to_db,
    optimal_bias_rate,
    optimal_bias_sir,
    percentile_rate,
    rate_coverage,
    sinr_coverage,
)
from hetnet_offload.coverage import rate_coverage_mean_load
from hetnet_offload.numerics import z_integral
from hetnet_offload import coverage, offload
from hetnet_offload.cli import load_config
from hetnet_offload.offload import golden_section_max

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)
ROOT = Path(__file__).resolve().parents[1]


def _two_class(a: float = 10.0, tau1: float = 1.0, tau2: float = 1.0, alpha: float = 3.5):
    """two_class_config (power ratio P_1/P_2 = 1000) at density ratio a,
    linear thresholds tau1, tau2 and common exponent alpha."""
    config = two_class_config(density2=a)
    return replace(
        config,
        classes=tuple(replace(c, exponent=alpha) for c in config.classes),
        sinr_threshold={MACRO: tau1, SMALL: tau2},
    )


def test_scenario_validation():
    """The closed form needs two open classes on two RATs, no noise and
    both thresholds."""
    config = _two_class()
    macro, small = config.classes
    same_rat = replace(config, classes=(macro, replace(small, id=ClassId(1, 2))))
    with pytest.raises(ValueError, match="different RATs"):
        optimal_bias_sir(same_rat)
    with pytest.raises(ValueError, match="two open classes"):
        optimal_bias_sir(replace(config, classes=(macro,)))
    with pytest.raises(ValueError, match="zero noise"):
        optimal_bias_sir(replace(config, noise_power={2: 1e-13}))
    with pytest.raises(KeyError, match="no SINR threshold for class"):
        optimal_bias_sir(replace(config, sinr_threshold={MACRO: 1.0}))


def test_scenario_from_config_requirements():
    """The config's ratios enter b_opt: a = 10 and P_1/P_2 = 1000 (53 - 23
    dBm), so equal thresholds give b_opt = 1000 * 10^(-alpha/2)."""
    res = optimal_bias_sir(two_class_config())
    assert res.b_opt == pytest.approx(1000.0 * 10.0**-1.75, rel=1e-12)
    with pytest.raises(ValueError, match="two open classes"):
        optimal_bias_sir(dual_rat_config(with_closed=False).with_density(SMALL, 0.0))
    with pytest.raises(ValueError, match="closed classes are outside the two-RAT scenario"):
        optimal_bias_sir(dual_rat_config(user_density=0.0))
    with pytest.raises(ValueError, match="exponent"):
        optimal_bias_sir(dual_rat_config(with_closed=False))


def test_two_class_coverage_equals_general_pipeline():
    """The reduced two-class SIR formula is the full machinery in disguise."""
    config = two_class_config()
    for b_db in (-5.0, 0.0, 5.0, 12.5, 20.0):
        b = db_to_linear(b_db)
        reduced = two_class_sir_coverage(config, b)
        general = sinr_coverage(config.with_bias(SMALL, b))
        assert reduced == pytest.approx(general, abs=1e-12), b_db


def test_optimal_bias_sir_symmetric_thresholds():
    """Equal tau: offload is exactly 1/2 and b_opt has the stated closed form."""
    res = optimal_bias_sir(_two_class(a=10.0))
    assert res.offload_fraction == pytest.approx(0.5, abs=1e-12)
    assert linear_to_db(res.b_opt) == pytest.approx(12.5, abs=1e-10)  # 30 dB - 17.5 dB
    assert res.trace == ()
    z = z_integral(1.0, 3.5, 1.0)
    assert res.objective_at_opt == pytest.approx(2.0 * z / (2.0 * z + z * z), rel=1e-12)


def test_optimal_bias_sir_maximizes():
    """Closed form beats every probe on a fine bias grid."""
    config = _two_class(a=5.0, tau1=2.0, tau2=0.5, alpha=4.0)
    res = optimal_bias_sir(config)
    best = two_class_sir_coverage(config, res.b_opt)
    assert res.objective_at_opt == pytest.approx(best, rel=1e-12)
    for b_db in np.arange(-30.0, 40.0, 0.25):
        assert best >= two_class_sir_coverage(config, db_to_linear(b_db)) - 1e-12


def test_optimal_coverage_is_density_invariant():
    """The optimized objective depends on thresholds only, not on a."""
    values = [
        optimal_bias_sir(_two_class(a=a, tau1=1.3, tau2=0.7)).objective_at_opt
        for a in (1.0, 5.0, 10.0, 20.0)
    ]
    assert max(values) - min(values) < 1e-12


def test_sir_closed_form_input_guards():
    with pytest.raises(ValueError, match="positive"):
        optimal_bias_sir(_two_class(tau1=0.0))
    with pytest.raises(ValueError, match="exceed 2"):
        optimal_bias_sir(_two_class(alpha=2.0))


def test_golden_section_max_parabola():
    trace = []

    def f(x):
        y = -((x - 2.0) ** 2) + 3.0
        trace.append((x, y))
        return y

    x, y = golden_section_max(f, 0.0, 5.0, 1e-8)
    assert x == pytest.approx(2.0, abs=1e-6)
    assert y == pytest.approx(3.0, abs=1e-10)
    assert len(trace) > 20 and trace[0][1] == pytest.approx(-((trace[0][0] - 2.0) ** 2) + 3.0)
    with pytest.raises(ValueError):
        golden_section_max(lambda x: x, 1.0, 1.0, 1e-3)


BAD_TOLERANCES = [0.0, -1.0, math.nan, math.inf]


# the pointwise route of each rate method, the oracle of the stacked solvers
POINTWISE = {"theorem1": rate_coverage, "meanload": rate_coverage_mean_load}


@pytest.fixture
def objective_calls(monkeypatch):
    """Every evaluation the solvers can reach, counted: a prepared stack's
    `evaluate`, and the association kernel that preparing one calls."""
    calls = []
    for owner, name in ((coverage._Stack, "evaluate"), (coverage, "_associations")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_golden_section_max_rejects_bad_tol(tol):
    """A zero tolerance used to loop forever; the guard comes before any probe."""
    probes = []
    with pytest.raises(ValueError, match="tol"):
        golden_section_max(lambda x: probes.append(x) or -x * x, -1.0, 1.0, tol)
    assert probes == []


def test_optimal_bias_rate_interior_maximum():
    """Coarse grid + golden refinement lands on the interior optimum."""
    config = two_class_config(user_density=200.0)
    res = optimal_bias_rate(config, bracket_db=(-10.0, 45.0), method="meanload")
    assert not res.boundary_warning
    assert linear_to_db(res.b_opt) == pytest.approx(22.106, abs=0.02)
    assert res.objective_at_opt == pytest.approx(0.70906, abs=1e-4)
    assert 0.0 < res.offload_fraction < 1.0
    assert len(res.trace) > 50  # coarse grid + refinement evaluations
    # the reported optimum beats every coarse probe
    assert res.objective_at_opt >= max(v for _, v in res.trace) - 1e-12


def test_optimal_bias_rate_flags_bracket_edge():
    config = two_class_config(user_density=200.0)
    res = optimal_bias_rate(config, bracket_db=(-20.0, 20.0), method="meanload")
    assert res.boundary_warning
    assert linear_to_db(res.b_opt) == pytest.approx(20.0, abs=1e-9)


@pytest.mark.parametrize("target, final", [(SMALL, (-20.0, 30.0)), (MACRO, (-30.0, 20.0))], ids=["high", "low"])
def test_default_bracket_widens_off_an_edge_maximum(target, final):
    """On two_class_sir the rate optimum lies past 20 dB (past -20 dB for
    the macro's bias): without a bracket the search widens that side by
    whole grid steps and finds it, as a search over the final bracket does."""
    config = load_config(ROOT / "configs" / "two_class_sir.json")
    res = optimal_bias_rate(config, target)
    dbs = [linear_to_db(b) for b, _ in res.trace]
    assert (round(min(dbs), 9), round(max(dbs), 9)) == final
    assert not res.boundary_warning
    assert abs(linear_to_db(res.b_opt)) == pytest.approx(22.2012, abs=1e-4)
    want = optimal_bias_rate(config, target, final)
    assert res.b_opt == pytest.approx(want.b_opt, rel=1e-12)
    assert res.objective_at_opt == pytest.approx(want.objective_at_opt, rel=1e-12)
    assert res.offload_fraction == pytest.approx(want.offload_fraction, rel=1e-12)
    np.testing.assert_allclose(sorted(res.trace), sorted(want.trace), rtol=1e-12, atol=0.0)
    # a bracket the caller gives is searched as it is
    edge = optimal_bias_rate(config, target, (-20.0, 20.0))
    assert edge.boundary_warning
    assert abs(linear_to_db(edge.b_opt)) == pytest.approx(20.0, abs=1e-9)


def test_default_bracket_widens_no_further_than_its_limit(monkeypatch):
    monkeypatch.setattr(offload, "_WIDEST_DB", 21.0)
    res = optimal_bias_rate(load_config(ROOT / "configs" / "two_class_sir.json"))
    assert res.boundary_warning
    assert linear_to_db(res.b_opt) == pytest.approx(21.0, abs=1e-9)
    assert max(linear_to_db(b) for b, _ in res.trace) == pytest.approx(21.0, abs=1e-9)


def test_optimal_bias_rate_guards():
    config = two_class_config()
    with pytest.raises(ValueError, match="40 dB"):
        optimal_bias_rate(config, bracket_db=(0.0, 10.0))
    for bracket in ((-20.0, math.nan), (math.nan, 20.0), (-20.0, math.inf), (-math.inf, 20.0)):
        with pytest.raises(ValueError, match="finite"):
            optimal_bias_rate(config, bracket_db=bracket)
    with pytest.raises(ValueError, match="open"):
        optimal_bias_rate(dual_rat_config(), target=ClassId(2, 3, "closed"))


def test_bias_sweep_matches_pointwise_evaluation():
    config = two_class_config()
    grid = [0.0, 6.0, 12.0]
    pairs = bias_sweep(config, SMALL, grid, metric="sir_coverage")
    assert [b for b, _ in pairs] == grid
    for b_db, value in pairs:
        assert value == pytest.approx(
            sinr_coverage(config.with_bias(SMALL, db_to_linear(b_db))), rel=1e-12
        )
    with pytest.raises(ValueError, match="unknown metric"):
        bias_sweep(config, SMALL, grid, metric="nope")


def test_percentile_rate_hits_target():
    config = two_class_config(user_density=200.0)
    rho = percentile_rate(config, 0.95, method="meanload")
    assert rate_coverage_mean_load(config, rho_common=rho) == pytest.approx(0.95, abs=1e-3)
    higher = percentile_rate(config, 0.9, method="meanload")
    assert higher > rho  # easier target -> larger guaranteed rate


def test_percentile_rate_guards():
    config = two_class_config(user_density=200.0)
    with pytest.raises(ValueError, match="coverage target"):
        percentile_rate(config, 1.0)
    with pytest.raises(SolverError, match="below the target"):
        percentile_rate(config, 0.9999999, method="meanload")


def _search_one_config_at_a_time(config, target, bracket_db):
    """optimal_bias_rate's theorem1 search, every evaluation its own
    rate_coverage call: the reference for the stacked coarse grid."""
    trace = []

    def f_db(b_db):
        b = db_to_linear(b_db)
        value = rate_coverage(config.with_bias(target, b))
        trace.append((b, value))
        return value

    lo_db, hi_db = bracket_db
    grid = [lo_db + k for k in range(int(round(hi_db - lo_db)) + 1)]
    values = [f_db(x) for x in grid]
    k = max(range(len(grid)), key=values.__getitem__)
    golden_section_max(f_db, grid[k - 1], grid[k + 1], 0.01)
    return trace


@pytest.mark.parametrize("config", [dual_rat_config(), four_class_config()], ids=["dual_rat", "four_class"])
def test_optimal_bias_rate_trace_equals_one_config_loop(config):
    """The stacked coarse grid and the sequential polish visit the biases of
    a one-config-at-a-time search, with its values to 1e-12."""
    res = optimal_bias_rate(config, SMALL, (-20.0, 20.0), method="theorem1")
    want = _search_one_config_at_a_time(config, SMALL, (-20.0, 20.0))
    assert not res.boundary_warning
    assert [b for b, _ in res.trace] == [b for b, _ in want]
    np.testing.assert_allclose([v for _, v in res.trace], [v for _, v in want], rtol=1e-12, atol=0.0)
    assert res.objective_at_opt == pytest.approx(max(v for _, v in want), rel=1e-12)


@pytest.mark.parametrize(
    "method, config",
    [("theorem1", four_class_config()), ("meanload", four_class_config()), ("meanload", two_class_config())],
    ids=["theorem1", "meanload", "meanload-closed-form"],
)
def test_bias_sweep_rate_matches_pointwise_evaluation(method, config):
    """On two_class_config (one exponent, no noise) the mean-load route is
    the paper's closed form."""
    grid = [-9.0, -3.0, 0.0, 4.5, 12.0]
    pairs = bias_sweep(config, SMALL, grid, metric="rate_coverage", method=method)
    assert [b for b, _ in pairs] == grid
    for b_db, value in pairs:
        assert value == pytest.approx(POINTWISE[method](config.with_bias(SMALL, db_to_linear(b_db))), rel=1e-12)
    assert bias_sweep(config, SMALL, [], metric="rate_coverage", method=method) == []


def test_unknown_method_is_rejected_before_any_evaluation(objective_calls):
    """An unknown load-law method raises, and no association or coverage is
    evaluated first; the retired closedform name is unknown too, and so are
    None and the sinr route, which used to give SINR coverage under a rate
    solver's name (sinr is a route of `_Stack` itself)."""
    config = four_class_config()
    for method in ("magic", "closedform", None, "sinr"):
        with pytest.raises(ValueError, match="unknown method"):
            optimal_bias_rate(config, SMALL, method=method)
        for metric in ("rate_coverage", "percentile_rate"):
            with pytest.raises(ValueError, match="unknown method"):
                bias_sweep(config, SMALL, [0.0, 3.0], metric=metric, method=method)
        with pytest.raises(ValueError, match="unknown method"):
            percentile_rate(config, 0.95, method=method)
        if method != "sinr":
            with pytest.raises(ValueError, match="unknown method"):
                coverage._Stack([config], method).evaluate([1e5])
    assert objective_calls == []


@pytest.mark.parametrize("method", ["theorem1", "meanload"])
def test_percentile_rate_prepared_once_hits_target(method):
    """The solve prepares its config once; its answer holds on a fresh
    rate-coverage call."""
    config = dual_rat_config()
    rho = percentile_rate(config, 0.9, method=method)
    assert POINTWISE[method](config, rho_common=rho) == pytest.approx(0.9, abs=2e-3)
