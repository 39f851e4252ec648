"""The fixed-node coverage kernel against its two references.

The adaptive-quadrature oracle builds the defining integral of
P(SINR > tau | serving) term by term in-test and integrates it with
`quad_oracle.decaying_integral` at tight tolerances, in t = ln(u/s), where
no u^e term has a cusp.  The package evaluates the same integral for a
whole threshold grid with `numerics.decay_integral`.  Both must agree to
1e-10 absolute on every open class of the reference scenarios and of
random valid configs; with one common exponent and no noise the kernel
returns its closed form 1 / sum_k c_k, held to the same bound.

The kernel skips the nodes whose integrand value is exactly 0.0, and
clamps the exp arguments past 700, whose values are too small to move a
bit of a row.  `quad_oracle.decay_integral_all_nodes` evaluates all 121
nodes with a plain exp, and the kernel must match it to 1e-15 relative,
on the rows of a dense rate CCDF and on random coefficient rows, with
every dropped node's exponent at least 746.

A property test holds SINR and rate coverage to the density-scaling law
of noise-free configs with one common exponent.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

import hetnet_offload
from conftest import dual_rat_config, four_class_config, single_class_config
from hetnet_offload import (
    CLOSED,
    NetworkConfig,
    association_probabilities,
    make_class,
    rate_ccdf,
    sinr_ccdf,
)
from hetnet_offload.association import _TAIL_MASS
from hetnet_offload.numerics import _DE_CHUNK_ROWS, _DE_DEAD, _live_nodes, decay_integral
from quad_oracle import conditional_coverage, decay_integral_all_nodes, kernel_exponents

TAUS = np.array([0.0, *np.logspace(-4.0, 6.0, 11), math.inf])
KERNEL_TOL = 1e-10


def _worst_gap(config: NetworkConfig, taus=TAUS) -> float:
    curve = sinr_ccdf(config, taus)
    return max(
        abs(curve.per_class[cls.id][k] - conditional_coverage(config, cls.id, tau))
        for cls in config.open_classes()
        for k, tau in enumerate(taus)
    )


def test_kernel_matches_oracle_dual_rat():
    for bias_db in (0.0, 10.0):
        assert _worst_gap(dual_rat_config(bias_db=bias_db)) <= KERNEL_TOL


@pytest.mark.parametrize("b23_db", [-20.0, -10.0, 0.0, 10.0, 20.0])
def test_kernel_matches_oracle_four_class(b23_db):
    assert _worst_gap(four_class_config(b23_db)) <= KERNEL_TOL


@pytest.mark.parametrize("noise_w", [1e-13, 1e-9, 1e-5, 1e-1, 10.0])
def test_kernel_matches_oracle_noisy_single_class(noise_w):
    worst = max(
        _worst_gap(single_class_config(alpha=alpha, density=density, noise_w=noise_w))
        for alpha in (2.5, 3.5, 4.0, 6.0)
        for density in (1e-3, 1.0, 100.0)
    )
    assert worst <= KERNEL_TOL


@st.composite
def network_configs(draw):
    """Random valid configs: 1-2 RATs, 1-2 open tiers each, optional closed tier and noise."""
    log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda x: 10.0**x)  # noqa: E731
    classes = []
    for rat in range(1, draw(st.integers(1, 2)) + 1):
        for tier in range(1, draw(st.integers(1, 2)) + 1):
            classes.append(
                make_class(
                    rat,
                    tier,
                    density=draw(log_uniform(-1.0, 2.0)),
                    power_dbm=draw(st.floats(10.0, 50.0)),
                    exponent=draw(st.floats(2.2, 6.0)),
                    bias_db=draw(st.floats(-20.0, 20.0)),
                )
            )
    if draw(st.booleans()):
        classes.append(
            make_class(1, 9, density=draw(log_uniform(-1.0, 2.0)), power_dbm=draw(st.floats(10.0, 50.0)),
                       exponent=draw(st.floats(2.2, 6.0)), access=CLOSED)
        )
    open_ids = [c.id for c in classes if c.id.is_open]
    return NetworkConfig(
        classes=tuple(classes),
        user_density=draw(st.floats(0.0, 50.0)),
        noise_power={1: draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5]))},
        sinr_threshold={cid: 1.0 for cid in open_ids},
        rate_threshold={cid: 256e3 for cid in open_ids},
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=network_configs(), log_tau=st.floats(-4.0, 6.0))
def test_kernel_properties_on_random_configs(config, log_tau):
    """Kernel == oracle, also in closed form on the equal-exponent,
    noise-free copy of the config; association sums to 1; CCDFs fall with
    the threshold."""
    taus = np.array([0.0, 10.0**log_tau])
    alpha = config.classes[0].exponent
    flat = replace(config, classes=tuple(replace(c, exponent=alpha) for c in config.classes), noise_power={})
    assert _worst_gap(config, taus) <= KERNEL_TOL
    assert _worst_gap(flat, taus) <= KERNEL_TOL
    assert sum(association_probabilities(config).values()) == pytest.approx(1.0, abs=1e-10)
    sinr = sinr_ccdf(config, np.logspace(-3.0, 3.0, 13)).values
    assert np.all(np.diff(sinr) <= 0.0)
    rate = rate_ccdf(config, np.logspace(4.0, 8.0, 6)).values
    assert np.all(np.diff(rate) <= 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(config=network_configs(), log_c=st.floats(-3.0, 3.0))
@example(config=single_class_config(alpha=3.0, user_density=1e-9), log_c=2.0)
def test_density_scaling_on_random_configs(config, log_c):
    """Scaling every AP density, closed classes included, by c leaves SINR
    coverage as it is and, for c >= 1, never lowers rate coverage (each
    cell holds fewer users).  This needs one common exponent and no
    noise: with exponents 3.5 and 4.0, c = 1e-3 moved SINR coverage by 12%.

    The load pmf drops a tail of mass at most `_TAIL_MASS` = 1e-10, so a
    computed rate coverage may sit that far below the exact one, and a
    rise can show as a fall of up to that much: in the example, r falls
    from 1e-9 to 1e-11, the pmf loses its n = 1 term, and the coverage at
    10 kbps falls by 1.1e-11."""
    c = 10.0**log_c
    alpha = config.classes[0].exponent
    flat = replace(config, classes=tuple(replace(k, exponent=alpha) for k in config.classes), noise_power={})
    scaled = replace(flat, classes=tuple(replace(k, density=c * k.density) for k in flat.classes))
    taus = np.logspace(-3.0, 3.0, 13)
    np.testing.assert_allclose(sinr_ccdf(scaled, taus).values, sinr_ccdf(flat, taus).values, rtol=1e-12, atol=0.0)
    if c >= 1.0:
        rhos = np.logspace(4.0, 8.0, 6)
        slack = _TAIL_MASS + 1e-12
        assert np.all(rate_ccdf(scaled, rhos).values >= rate_ccdf(flat, rhos).values - slack)


def _check_against_all_nodes(coefs, expos) -> None:
    """decay_integral within 1e-15 relative of its all-node, plain-exp
    reference, and every dropped node's exponent at least _DE_DEAD, so
    that its integrand value is 0.0.  The kept nodes' exponents past
    _DE_CLAMP are clamped there, so that each such node adds at most
    e^-700 times its weight where the reference adds a subnormal or 0.0:
    the bound holds them too."""
    got = decay_integral(coefs, expos)
    np.testing.assert_allclose(got, decay_integral_all_nodes(coefs, expos), rtol=1e-15, atol=0.0)
    if not np.all(np.asarray(expos) == 1.0):
        _, _, exponent = kernel_exponents(coefs, expos)
        assert np.all(exponent[:, _live_nodes(np.asarray(expos)) :] >= _DE_DEAD)


def test_kernel_matches_all_nodes_on_dense_rate_rows(monkeypatch):
    """Every kernel call of a 5-point theorem1 rate CCDF on dual-RAT at 500
    users/km^2, whose calls hold one row per finite (rate, pmf term), the
    largest of them several of the kernel's blocks of rows."""
    calls = []

    def spy(coefs, expos):
        calls.append((np.array(coefs, dtype=float), np.array(expos, dtype=float)))
        return decay_integral(coefs, expos)

    for module in ("association", "coverage"):
        monkeypatch.setattr(f"hetnet_offload.{module}.decay_integral", spy)
    monkeypatch.setattr("hetnet_offload.coverage._TAIL_CUT", 0.0)  # every finite row: the tail cut keeps about 9,000
    rate_ccdf(dual_rat_config(user_density=500.0), np.logspace(4.0, 8.0, 5))
    rows = [coefs.shape[0] for coefs, _ in calls]
    assert sum(rows) > 10_000 and max(rows) > 2 * _DE_CHUNK_ROWS
    for coefs, expos in calls:
        _check_against_all_nodes(coefs, expos)


@st.composite
def coefficient_rows(draw):
    """1-6 terms with exponents 0.4-16; rows of coefficients 1e-8-1e8 or 0,
    at least one positive, some with an infinite entry."""
    k = draw(st.integers(1, 6))
    expos = np.array(draw(st.lists(st.floats(0.4, 16.0), min_size=k, max_size=k)))
    positive = st.floats(-8.0, 8.0).map(lambda x: 10.0**x)
    entry = st.one_of(st.just(0.0), positive)
    coefs = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=8)))
    for r in range(coefs.shape[0]):
        if not coefs[r].any():
            coefs[r, draw(st.integers(0, k - 1))] = draw(positive)
    for r in draw(st.lists(st.integers(0, coefs.shape[0] - 1), max_size=2)):
        coefs[r, draw(st.integers(0, k - 1))] = math.inf
    return coefs, expos


@settings(max_examples=500, deadline=None, derandomize=True)
@given(case=coefficient_rows())
def test_kernel_matches_all_nodes_on_random_rows(case):
    _check_against_all_nodes(*case)


def test_zero_coefficient_with_overflowing_scale_power():
    """A zero coefficient adds nothing even where s^e overflows: one term
    1e-8 u^0.4 puts s at 1e20, so s^16 is inf (and 0 * inf was nan)."""
    got = decay_integral([[1e-8, 0.0]], [0.4, 16.0])
    assert got[0] == pytest.approx(math.gamma(1.0 + 1.0 / 0.4) * 1e20, rel=1e-14)


def test_coverage_makes_no_adaptive_quadrature(monkeypatch):
    """Regression guard: the analytic routes never reach scipy.integrate.quad."""
    calls = []
    real_quad = scipy.integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return real_quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
    config = dual_rat_config()
    sinr_ccdf(config, TAUS)
    rate_ccdf(config, np.logspace(4.0, 8.0, 5))
    association_probabilities(config)
    assert calls == []


def test_cli_import_leaves_out_integrate_and_stats(tmp_path):
    """No scipy module is loaded by the CLI, neither by its import nor by
    its commands: analyze sinr, analyze rate (theorem1), optimize bias and
    a small simulate, all in one fresh process (scipy is a test oracle only)."""
    config = str(Path(__file__).resolve().parents[1] / "configs" / "two_class_sir.json")
    commands = [
        ["analyze", "sinr", "--tau-grid-db", "-10:30:1"],
        ["analyze", "rate", "--method", "theorem1", "--rho-grid", "1e4:1e8:5"],
        ["optimize", "bias", "--mode", "rate", "--bracket-lo-db=-10", "--bracket-hi-db=45"],
        ["simulate", "--trials", "50", "--seed", "3"],
    ]
    code = (
        "import json, sys\n"
        "from hetnet_offload import cli\n"
        "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
        f"for k, args in enumerate({commands!r}):\n"
        f"    assert cli.main([*args, '--config', {config!r}, '-o', {str(tmp_path)!r} + f'/out{{k}}']) == 0\n"
        "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(json.dumps(loaded))\n"
    )
    src = str(Path(hetnet_offload.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[]] * (len(commands) + 1)
