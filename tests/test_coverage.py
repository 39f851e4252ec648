"""SINR and rate coverage: closed forms against the adaptive oracle, CCDF assembly."""

import math

import numpy as np
import pytest

from conftest import dual_rat_config, single_class_config, two_class_config
from hetnet_offload import (
    ClassId,
    ClosedFormInapplicableError,
    NetworkConfig,
    association_probabilities,
    make_class,
    rate_ccdf,
    rate_coverage,
    sinr_ccdf,
    sinr_coverage,
)
from hetnet_offload.coverage import (
    rate_coverage_closed_form,
    rate_coverage_mean_load,
    shannon_threshold,
)
from quad_oracle import conditional_coverage, mean_load_rate_coverage

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)


def test_shannon_threshold_values():
    """tau = 2^x - 1 with saturation instead of overflow."""
    assert shannon_threshold(0.0) == 0.0
    assert shannon_threshold(1.0) == pytest.approx(1.0)
    assert shannon_threshold(3.0) == pytest.approx(7.0)
    assert shannon_threshold(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
    assert math.isinf(shannon_threshold(4000.0))
    with pytest.raises(ValueError):
        shannon_threshold(-0.1)


def test_mixed_access_quartic_offsets():
    """Quartic-exponent tier: arctan closed form of the interference terms,
    offset 1 for the open class (beyond the serving distance) and offset 0
    for the closed one; S = 1 / (1 + open part + closed part)."""
    open_cls = make_class(1, 1, density=1.0, power_dbm=30.0, exponent=4.0)
    closed_cls = make_class(1, 1, density=10.0, power_dbm=30.0, exponent=4.0, access="closed")
    config = NetworkConfig(
        classes=(open_cls, closed_cls),
        user_density=0.0,
        sinr_threshold={open_cls.id: 1.0},
        rate_threshold={open_cls.id: 1.0},
    )
    tau = 2.25
    closed_part = 10.0 * math.sqrt(tau) * math.pi / 2.0
    open_part = math.sqrt(tau) * (math.pi / 2.0 - math.atan(math.sqrt(1.0 / tau)))
    assert sinr_ccdf(config, [tau]).values[0] == pytest.approx(
        1.0 / (1.0 + open_part + closed_part), rel=1e-13
    )


def test_single_class_sir_closed_form():
    """sigma^2=0, alpha=4, tau=0 dB: S = 1/(1 + pi/4)."""
    assert sinr_coverage(single_class_config()) == pytest.approx(
        1.0 / (1.0 + math.pi / 4.0), rel=1e-12
    )


def _conditioned(config, serving, tau: float) -> float:
    """P(SINR > tau | served by `serving`), read off the SINR CCDF."""
    return sinr_ccdf(config, [tau]).per_class[serving][0]


def test_conditional_coverage_closed_vs_quadrature():
    """Equal exponents, zero noise: the closed form equals the adaptive oracle."""
    config = two_class_config(bias_db=7.0)
    for cls in config.open_classes():
        fast = _conditioned(config, cls.id, 1.0)
        slow = conditional_coverage(config, cls.id, 1.0)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_sinr_coverage_is_association_weighted():
    config = dual_rat_config()
    probs = association_probabilities(config)
    total = sum(
        probs[cls.id] * _conditioned(config, cls.id, 1.0)
        for cls in config.open_classes()
    )
    assert sinr_coverage(config) == pytest.approx(total, rel=1e-12)
    assert sinr_coverage(config) == pytest.approx(0.5738105574233896, rel=1e-9)


def test_threshold_extremes():
    """tau = 0 is always covered (no noise); tau = inf never."""
    config = two_class_config()
    assert _conditioned(config, MACRO, 0.0) == pytest.approx(1.0, rel=1e-10)
    assert _conditioned(config, MACRO, math.inf) == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        _conditioned(config, MACRO, -1.0)


def test_noise_strictly_lowers_coverage():
    clean = sinr_coverage(single_class_config())
    noisy = sinr_coverage(single_class_config(noise_w=1e-9))
    assert noisy < clean


def test_sinr_ccdf_structure():
    config = dual_rat_config()
    taus = 10.0 ** (np.arange(-10.0, 21.0, 2.0) / 10.0)
    curve = sinr_ccdf(config, taus)
    assert curve.axis == "sinr_linear"
    assert np.all(np.diff(curve.values) < 0.0)  # strictly falling on this grid
    rebuilt = sum(curve.weights[cid] * curve.per_class[cid] for cid in curve.per_class)
    assert np.allclose(curve.values, rebuilt, rtol=1e-12)
    with pytest.raises(ValueError, match="strictly increasing"):
        sinr_ccdf(config, [1.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        sinr_ccdf(config, [-0.5, 1.0])


def test_rate_coverage_reference_point():
    """Load-averaged coverage on the dual-RAT scenario, frozen value."""
    assert rate_coverage(dual_rat_config()) == pytest.approx(0.6231289080356266, rel=1e-9)


def test_rate_coverage_zero_threshold_is_one():
    assert rate_coverage(dual_rat_config(), rho_common=0.0) == pytest.approx(1.0, rel=1e-9)


def test_rate_coverage_unreachable_threshold_is_zero():
    """Rates needing > 1000 bits/s/Hz at every load are impossible."""
    assert rate_coverage(dual_rat_config(), rho_common=1e13) == 0.0


def test_rate_ccdf_monotone_and_weighted():
    config = dual_rat_config()
    rhos = np.logspace(4.0, 8.0, 15)
    curve = rate_ccdf(config, rhos)
    assert np.all(np.diff(curve.values) <= 0.0)
    probs = association_probabilities(config)
    for cid, w in curve.weights.items():
        assert w == pytest.approx(probs[cid], rel=1e-12)
    rebuilt = sum(curve.weights[cid] * curve.per_class[cid] for cid in curve.per_class)
    assert np.allclose(curve.values, rebuilt, rtol=1e-12)


def test_mean_load_tracks_full_average():
    """Collapsing the load pmf to its mean stays near the full average."""
    full = rate_coverage(dual_rat_config())
    mean = rate_coverage_mean_load(dual_rat_config())
    assert mean == pytest.approx(0.6024323944753801, rel=1e-9)
    assert abs(full - mean) < 0.03


def test_closed_form_matches_mean_load_quadrature():
    """Equal exponents, zero noise: the algebraic route equals the adaptive
    quadrature of the mean-load coverage's defining integrals."""
    for config in (two_class_config(), two_class_config(bias_db=10.0, user_density=80.0)):
        closed = rate_coverage_closed_form(config)
        quad = mean_load_rate_coverage(config)
        assert closed == pytest.approx(quad, abs=1e-9)


def test_closed_form_rejects_mixed_exponents_and_noise():
    """Each refusal names the two routes that do apply."""
    with pytest.raises(ClosedFormInapplicableError, match="exponents.*meanload or theorem1"):
        rate_coverage_closed_form(dual_rat_config())  # alpha 3.5 vs 4.0
    with pytest.raises(ClosedFormInapplicableError, match="noise.*meanload or theorem1"):
        rate_coverage_closed_form(single_class_config(noise_w=1e-12))
