"""Network description layer: units, identities, config surgery, validation."""

import math
from dataclasses import replace

import pytest

from conftest import dual_rat_config, single_class_config, two_class_config
from hetnet_offload import (
    CLOSED,
    OPEN,
    ApClass,
    ClassId,
    ConfigValidationError,
    NetworkConfig,
    bias_sweep,
    db_to_linear,
    linear_to_db,
    make_class,
    optimal_bias_rate,
    require_valid,
    sinr_coverage,
)
from hetnet_offload.model import dbm_to_watts, validate


def test_decibel_round_trips():
    """dB <-> linear and dBm <-> watts invert each other."""
    for x in (-30.0, -3.0, 0.0, 5.0, 20.0, 53.0):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)
        assert 30.0 + linear_to_db(dbm_to_watts(x)) == pytest.approx(x, abs=1e-12)
    assert db_to_linear(0.0) == 1.0
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(53.0) == pytest.approx(199.5262315, rel=1e-9)


def test_class_id_ordering_and_label():
    """Lexicographic on (rat, tier, access); closed sorts after open."""
    ids = [ClassId(2, 3), ClassId(1, 1), ClassId(2, 3, CLOSED), ClassId(1, 2)]
    assert sorted(ids) == [
        ClassId(1, 1),
        ClassId(1, 2),
        ClassId(2, 3, CLOSED),
        ClassId(2, 3),
    ]
    assert ClassId(2, 3, CLOSED) < ClassId(2, 3)  # "closed" < "open"
    assert ClassId(1, 1).label() == "(1,1)"
    assert ClassId(2, 3, CLOSED).label() == "(2,3')"
    assert ClassId(1, 1).is_open and not ClassId(2, 3, CLOSED).is_open


def test_class_id_rejects_unknown_access():
    with pytest.raises(ValueError, match="access"):
        ClassId(1, 1, "hybrid")


def test_association_weight_is_power_times_bias():
    cls = make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0, bias_db=10.0)
    assert cls.weight == pytest.approx(cls.power * 10.0)
    unbiased = make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0)
    assert unbiased.weight == pytest.approx(unbiased.power)


def test_config_sorts_and_indexes_classes():
    config = dual_rat_config()
    labels = [c.id for c in config.present_classes()]
    assert labels == sorted(labels)
    assert config.class_for(ClassId(1, 1)).density == 1.0
    assert [c.id for c in config.open_classes()] == [ClassId(1, 1), ClassId(2, 3)]
    assert config.rats() == (1, 2)
    assert [c.id for c in config.classes_of_rat(2)] == [
        ClassId(2, 3, CLOSED),
        ClassId(2, 3),
    ]
    with pytest.raises(KeyError):
        config.class_for(ClassId(9, 9))


def test_config_rejects_duplicate_class_ids():
    cls = make_class(1, 1, density=1.0, power_dbm=40.0, exponent=3.5)
    with pytest.raises(ConfigValidationError, match="duplicate") as err:
        NetworkConfig(classes=(cls, cls), user_density=0.0)
    assert err.value.failures == ("duplicate class (1,1)",)


def test_noise_defaults_to_zero():
    config = dual_rat_config()
    assert config.noise_for(1) == 0.0
    assert config.noise_for(2) == 0.0
    noisy = single_class_config(noise_w=1e-13)
    assert noisy.noise_for(1) == 1e-13


def test_with_bias_returns_modified_copy():
    config = dual_rat_config()
    tuned = config.with_bias(ClassId(2, 3), 10.0)
    assert tuned.class_for(ClassId(2, 3)).bias == 10.0
    assert config.class_for(ClassId(2, 3)).bias == 1.0  # original untouched
    assert tuned.class_for(ClassId(1, 1)).bias == 1.0


@pytest.mark.parametrize("bias", [0.0, -1.0, math.inf, math.nan])
def test_with_bias_rejects_a_bias_validate_rejects(bias):
    with pytest.raises(ValueError, match=r"2,3.*bias must be finite and > 0 \(got"):
        dual_rat_config().with_bias(ClassId(2, 3), bias)


def test_zero_linear_bias_is_a_value_error_not_a_division_by_zero():
    """A dB bias far enough below zero is a linear 0; each route names it."""
    config = two_class_config()
    with pytest.raises(ValueError, match=r"2,3.*bias must be finite and > 0 \(got 0.0\)"):
        sinr_coverage(config.with_bias(ClassId(2, 3), 0.0))
    with pytest.raises(ValueError, match=r"2,3.*bias must be finite and > 0 \(got 0.0\)"):
        optimal_bias_rate(config, bracket_db=(-5000.0, 20.0))
    with pytest.raises(ValueError, match=r"2,3.*bias must be finite and > 0 \(got 0.0\)"):
        bias_sweep(config, ClassId(2, 3), [-5000.0], metric="sir_coverage")


def test_with_density_returns_modified_copy():
    config = dual_rat_config()
    denser = config.with_density(ClassId(2, 3), 25.0)
    assert denser.class_for(ClassId(2, 3)).density == 25.0
    assert config.class_for(ClassId(2, 3)).density == 10.0


@pytest.mark.parametrize("density", [-1.0, math.nan, math.inf])
def test_with_density_rejects_a_density_validate_rejects(density):
    """A negative or NaN density would silently drop the class, and inf
    would give a NaN coverage; with_density and replace both build through
    validate's one rule."""
    config = dual_rat_config()
    with pytest.raises(ConfigValidationError, match=r"2,3.*density must be finite and >= 0 \(got") as err:
        config.with_density(ClassId(2, 3), density)
    assert err.value.failures == (f"(2,3): density must be finite and >= 0 (got {density})",)
    with pytest.raises(ConfigValidationError) as err:
        replace(config, classes=tuple(replace(c, density=density) if c.id == ClassId(2, 3) else c
                                      for c in config.classes))
    assert "(2,3): density must be finite and >= 0" in "; ".join(err.value.failures)


def test_with_density_accepts_zero():
    """A zero density removes the class from the deployment, as validate allows."""
    empty = dual_rat_config().with_density(ClassId(2, 3), 0.0)
    assert empty.class_for(ClassId(2, 3)).density == 0.0
    assert not validate(empty)


def test_validate_flags_bad_exponent():
    with pytest.raises(ConfigValidationError) as err:
        single_class_config(alpha=1.5)
    assert any("exponent must exceed 2" in msg for msg in err.value.failures)


def test_validate_flags_all_closed():
    cls = make_class(1, 1, density=1.0, power_dbm=40.0, exponent=3.5, access=CLOSED)
    with pytest.raises(ConfigValidationError) as err:
        NetworkConfig(classes=(cls,), user_density=0.0)
    assert any("V_open" in msg for msg in err.value.failures)


def test_validate_flags_negative_density():
    cls = ApClass(id=ClassId(1, 1), density=-1.0, power=1.0, exponent=3.5)
    with pytest.raises(ConfigValidationError) as err:
        NetworkConfig(classes=(cls,), user_density=0.0)
    assert "(1,1): density must be finite and >= 0 (got -1.0)" in err.value.failures


# a negative power once gave a SINR CCDF of 1.12 and association
# probabilities summing to 2, and a negative density dropped its class
@pytest.mark.parametrize(
    "field, bad",
    [(field, bad) for field in ("density", "power", "bias", "exponent", "bandwidth")
     for bad in (math.nan, math.inf, -math.inf)] + [("power", -1.0), ("density", -5.0)],
)
def test_validate_rejects_non_finite_class_fields(field, bad):
    config = single_class_config()
    cls = replace(config.classes[0], **{field: bad})
    with pytest.raises(ConfigValidationError) as err:
        replace(config, classes=(cls,))
    assert any(msg.startswith(f"(1,1): {field} must") and msg.endswith(f"(got {bad})")
               for msg in err.value.failures)


# a NaN or negative noise on the serving RAT was once read as zero
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_validate_rejects_non_finite_network_fields(bad):
    config = single_class_config()
    with pytest.raises(ConfigValidationError) as err:
        replace(config, user_density=bad)
    assert err.value.failures == (f"user density must be finite and >= 0 (got {bad})",)
    with pytest.raises(ConfigValidationError) as err:
        replace(config, noise_power={1: bad})
    assert err.value.failures == (f"RAT 1: noise power must be finite and >= 0 W (got {bad})",)


def test_validate_rejects_nan_thresholds():
    config = single_class_config()
    cid = config.classes[0].id
    with pytest.raises(ConfigValidationError) as err:
        replace(config, sinr_threshold={cid: math.nan})
    assert err.value.failures == ("(1,1): SINR threshold must be >= 0 (got nan)",)
    with pytest.raises(ConfigValidationError) as err:
        replace(config, rate_threshold={cid: math.nan})
    assert err.value.failures == ("(1,1): rate threshold must be >= 0 (got nan)",)
    # an infinite threshold is a valid (never met) requirement
    assert validate(replace(config, sinr_threshold={cid: math.inf})) == ()


def test_require_valid_raises_with_failures():
    with pytest.raises(ConfigValidationError) as err:
        single_class_config(alpha=2.0)
    assert len(err.value.failures) == 1 and "exponent must exceed 2" in str(err.value)
    with pytest.raises(ConfigValidationError) as err:
        require_valid("not a config")
    assert err.value.failures == validate("not a config") == ("not a NetworkConfig",)
    good = single_class_config()
    assert require_valid(good) is good


def test_make_class_matches_manual_construction():
    cls = make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0, bias_db=5.0)
    assert cls.id == ClassId(2, 3, OPEN)
    assert cls.power == pytest.approx(dbm_to_watts(23.0))
    assert cls.bias == pytest.approx(db_to_linear(5.0))
    assert cls.bandwidth == 10e6
    assert math.isclose(cls.weight, cls.power * cls.bias)
