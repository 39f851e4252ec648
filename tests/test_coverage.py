"""SINR and rate coverage: closed forms against the adaptive oracle, CCDF assembly."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dual_rat_config, four_class_config, single_class_config, two_class_config
from hetnet_offload import (
    CLOSED,
    OPEN,
    ClassId,
    NetworkConfig,
    NumericalError,
    db_to_linear,
    association_probabilities,
    make_class,
    rate_ccdf,
    rate_coverage,
    sinr_ccdf,
    sinr_coverage,
)
from hetnet_offload.model import validate
from hetnet_offload.coverage import (
    ClosedFormInapplicableError,
    rate_coverage_closed_form,
    rate_coverage_mean_load,
    shannon_threshold,
)
from hetnet_offload import association, coverage, offload, tagged_load_distribution
from quad_oracle import conditional_coverage, mean_load_rate_coverage
from test_kernel import network_configs

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


# ---------------------------------------------------------------------------
# Stacked evaluation: a stack of configs that differ only in open-class
# biases, held to one-config-at-a-time evaluations of the same route
# ---------------------------------------------------------------------------


def _assert_stack_equals_singles(configs, thresholds, route):
    values, per_class, weights = coverage._Stack(configs, route).evaluate(thresholds)
    assert values.shape[0] == len(configs)
    for b, config in enumerate(configs):
        one_values, one_per_class, one_weights = coverage._Stack([config], route).evaluate(thresholds)
        np.testing.assert_allclose(values[b], one_values[0], rtol=1e-12, atol=1e-300)
        assert list(per_class) == list(one_per_class) == [c.id for c in config.open_classes()]
        for cid in per_class:
            np.testing.assert_allclose(per_class[cid][b], one_per_class[cid][0], rtol=1e-12, atol=1e-300)
            assert weights[cid][b] == pytest.approx(one_weights[cid][0], rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    config=network_configs(),
    stack_biases=st.lists(st.lists(st.floats(-25.0, 25.0), min_size=4, max_size=4), min_size=1, max_size=5),
    route=st.sampled_from(["sinr", "theorem1", "meanload"]),
    own=st.booleans(),
    cap=st.sampled_from([7, 100, coverage._STACK_ROWS]),
)
def test_stacked_mix_equals_one_config_at_a_time(config, stack_biases, route, own, cap):
    """Random configs with mixed exponents, closed classes and noise: every
    config of a bias stack gets the coverage, conditional curves and
    association of its own one-config call, to 1e-12 relative, also when
    the row cap splits configs across kernel calls and stacks into runs."""
    open_ids = [c.id for c in config.open_classes()]
    configs = []
    for biases in stack_biases:
        tuned = config
        for cid, bias_db in zip(open_ids, biases):
            tuned = tuned.with_bias(cid, 10.0 ** (bias_db / 10.0))
        configs.append(tuned)
    if own:
        thresholds = None
    elif route == "sinr":
        thresholds = np.logspace(-3.0, 3.0, 9)
    else:
        thresholds = np.logspace(3.0, 8.0, 6)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(coverage, "_STACK_ROWS", cap)
        _assert_stack_equals_singles(configs, thresholds, route)


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows of every coverage kernel call (`decay_integral`, `z_integral`) and
    of every association kernel call, as `coverage` makes them."""
    rows = {"decay": [], "z": [], "association": []}
    real_decay, real_z, real_assoc = coverage.decay_integral, coverage.z_integral, coverage._associations

    def decay_spy(coefs, expos):
        rows["decay"].append(np.shape(coefs)[0])
        return real_decay(coefs, expos)

    def z_spy(a, b, c):
        rows["z"].append(np.size(a))
        return real_z(a, b, c)

    def assoc_spy(cls, g, expos):
        rows["association"].append(np.shape(g)[0])
        return real_assoc(cls, g, expos)

    monkeypatch.setattr(coverage, "decay_integral", decay_spy)
    monkeypatch.setattr(coverage, "z_integral", z_spy)
    monkeypatch.setattr(coverage, "_associations", assoc_spy)
    return rows


def test_stacked_mix_on_a_bias_search_grid(kernel_rows):
    """The four-class rate search's 1 dB grid as one stack: one association
    and one coverage kernel call per serving class for all 41 configs, with
    the values of one-config calls."""
    configs = [four_class_config(b23_db=float(b)) for b in range(-20, 21)]
    for route in ("theorem1", "meanload", "sinr"):
        for calls in kernel_rows.values():
            calls.clear()
        coverage._Stack(configs, route).evaluate(None)
        assert len(kernel_rows["decay"]) == 4 and kernel_rows["association"] == [41] * 4
        _assert_stack_equals_singles(configs, None, route)


def test_stack_kernel_calls_stay_under_the_row_cap(kernel_rows):
    """At 2000 users/km^2 a two-class config has up to ~19k pmf terms: no
    coverage kernel call of its bias search, sweep or rate CCDF gets more
    rows than the cap."""
    config = two_class_config(user_density=2000.0)
    offload.optimal_bias_rate(config, SMALL, (-20.0, 20.0), method="theorem1")
    offload.bias_sweep(config, SMALL, [-6.0, -3.0, 0.0, 3.0, 6.0], method="theorem1")
    rate_ccdf(config, np.logspace(4.0, 8.0, 5))
    cap = coverage._STACK_ROWS
    assert max(kernel_rows["decay"]) <= cap and max(kernel_rows["z"]) <= cap
    assert max(kernel_rows["decay"]) > cap // 2  # the cap is what bounds the calls


def test_a_prepared_stack_stops_at_the_row_cap_of_load_terms(monkeypatch):
    """A stack keeps the load laws of its configs only up to the config whose
    terms reach the cap, so that a long stack of large pmfs is evaluated in
    runs rather than held whole; its association is still one kernel call
    per class for every config."""
    configs = [two_class_config(bias_db=float(b), user_density=2000.0) for b in range(-20, 21)]
    stack = coverage._Stack(configs, "theorem1")
    terms = [sum(loads.size for loads, _ in law) for law in stack.leading]
    assert 1 <= len(stack.leading) < len(configs)
    assert sum(terms[:-1]) < coverage._STACK_ROWS <= sum(terms)
    assert [sv.probs.size for sv in stack.classes] == [len(configs)] * 2
    sinr = coverage._Stack(configs, "sinr")  # one load of weight 1, every config in one run
    assert len(sinr.leading) == len(configs)
    assert all(loads.tolist() == weights.tolist() == [1.0] for law in sinr.leading for loads, weights in law)

    runs = []
    real = coverage._Stack._laws
    monkeypatch.setattr(coverage._Stack, "_laws", lambda self, first: runs.append(first) or real(self, first))
    values = stack.evaluate(None)[0]
    assert runs[0] == len(stack.leading) and runs == sorted(runs) and len(runs) > 1
    np.testing.assert_array_equal(values, coverage._Stack(configs, "theorem1").evaluate(None)[0])


# ---------------------------------------------------------------------------
# Load laws from the stack's own association: held bit for bit to the
# pointwise load routes, with one association integral per open class
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", [dual_rat_config(), four_class_config()], ids=["dual_rat", "four_class"])
def test_stack_load_laws_equal_the_pointwise_load_routes(config):
    """On a 41-config bias stack, the theorem1 law of each config and class
    is the tagged-AP pmf's non-zero terms, and the meanload law is
    1 + (9/7) r, both bit for bit."""
    configs = [config.with_bias(SMALL, db_to_linear(float(b))) for b in range(-20, 21)]
    tagged = coverage._Stack(configs, "theorem1")
    mean = coverage._Stack(configs, "meanload")
    assert len(tagged.leading) == len(mean.leading) == len(configs)
    for b, cfg in enumerate(configs):
        for i, cls in enumerate(cfg.open_classes()):
            dist = tagged_load_distribution(cfg, cls.id)
            pmf = dist.pmf
            n = np.flatnonzero(pmf)
            loads, weights = tagged.leading[b][i]
            np.testing.assert_array_equal(loads, n + 1.0)
            np.testing.assert_array_equal(weights, pmf[n])
            loads, weights = mean.leading[b][i]
            np.testing.assert_array_equal(loads, [1.0 + 9.0 / 7.0 * dist.ratio])
            np.testing.assert_array_equal(weights, [1.0])


def test_rate_coverage_integrates_each_association_once(monkeypatch):
    """One rate coverage on four-class computes A_ij once per open class,
    4 association integrals, not once more per load law."""
    calls = []
    for module in (coverage, association):
        real = module._associations
        monkeypatch.setattr(module, "_associations", lambda *a, real=real: calls.append(1) or real(*a))
    for route in (rate_coverage, rate_coverage_mean_load):
        calls.clear()
        route(four_class_config())
        assert len(calls) == 4, route.__name__


def test_unknown_load_law_method_is_rejected(kernel_rows):
    """Only sinr, theorem1 and meanload name a route; another name used to be
    taken for meanload, and None for SINRs.  Each raises before any kernel
    call."""
    for method in ("magic", "closedform", "Theorem1", None):
        with pytest.raises(ValueError, match="unknown method"):
            coverage._Stack([two_class_config()], method)
    assert kernel_rows == {"decay": [], "z": [], "association": []}


# ---------------------------------------------------------------------------
# Extreme valid input: an answer inside [0, 1] or a clear error, never a
# numpy warning, a NaN or a silent fall outside the probability range
# ---------------------------------------------------------------------------

EXTREME_TAUS = np.array([0.0, *np.logspace(-3.0, 6.0, 7)])
EXTREME_RHOS = np.logspace(4.0, 8.0, 5)


def _assert_coverage(values, per_class, weights) -> None:
    """Finite, non-increasing within 1e-10, association summing to 1 within
    1e-9, and inside [0, 1] within that 1e-9 (values = sum_ij A_ij S_ij)."""
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
    for curve in (values, *per_class.values()):
        assert np.isfinite(curve).all()
        assert ((curve >= -1e-9) & (curve <= 1.0 + 1e-9)).all()
        assert (np.diff(curve) <= 1e-10).all()


def _strict(run):
    """run(), with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run()


def _valid_config(classes, user_density, noise_power=None) -> NetworkConfig:
    ids = [c.id for c in classes if c.id.is_open]
    config = NetworkConfig(classes=tuple(classes), user_density=user_density, noise_power=noise_power or {},
                           sinr_threshold={cid: 1.0 for cid in ids}, rate_threshold={cid: 256e3 for cid in ids})
    assert not validate(config)
    return config


# Two valid configs whose rate CCDFs pass the float range at the large finite
# SINR thresholds of a long load pmf's tail.  (a) A closed class 36 dB above
# the open one at exponent 2.0001: its D coefficient scale * Z(tau) is inf.
OVERFLOW_TERM = _valid_config([
    make_class(1, 2, 1.83e-4, 12.5, 2.0001, 65.1),
    make_class(1, 3, 2021, 48.9, 2.0001, -47.3, access=CLOSED),
    make_class(2, 1, 8.23e4, 39.8, 4.22, -5.7, access=CLOSED),
], user_density=2.34)
# (b) Every exponent of the serving RAT 2.0001, so the kernel takes its closed
# form 1 / sum_k c_k, and the sum is inf before any one coefficient is.
OVERFLOW_SUM = _valid_config([
    make_class(1, 3, 1.04e-3, 18.9, 2.0001, 3.7, access=CLOSED),
    make_class(2, 1, 7.25e4, 16.1, 2.0001, 34.0, access=CLOSED),
    make_class(2, 2, 4.83e-4, 40.3, 2.0001, 49.4, bandwidth=43.9e6),
    make_class(2, 4, 3.72, 42.2, 2.0001, 66.2, access=CLOSED),
], user_density=20.8, noise_power={1: 1e-13})


@pytest.mark.parametrize("config", [OVERFLOW_TERM, OVERFLOW_SUM], ids=["a-interference-term", "b-closed-form-sum"])
def test_an_overflowed_coefficient_covers_nothing(config):
    """An inf coefficient integrates to 0: its rows cover nothing, and numpy
    raises no overflow warning on the way."""
    curve = _strict(lambda: rate_ccdf(config, np.logspace(4, 8, 9)))
    _assert_coverage(curve.values, curve.per_class, curve.weights)


@st.composite
def extreme_configs(draw):
    """Valid configs at the model's edges: 1-4 classes on two RATs, the first
    open and the others open or closed, exponents from 2.0001 to 8 (at
    times one for all classes, where the kernel takes its closed form),
    biases within +-80 dB, and each RAT's noise on or off.  AP densities of
    at least 1e-2 per km^2 against at most 5 users per km^2 keep every load
    ratio below 500, so no load pmf nears `association._MAX_PMF_TERMS`."""
    exponent = st.floats(2.0001, 8.0)
    if draw(st.booleans()):
        exponent = st.just(draw(exponent))
    classes = [
        make_class(
            draw(st.integers(1, 2)),
            tier,
            density=10.0 ** draw(st.floats(-2.0, 5.0)),
            power_dbm=draw(st.floats(-10.0, 70.0)),
            exponent=draw(exponent),
            bias_db=draw(st.floats(-80.0, 80.0)),
            bandwidth=10.0 ** draw(st.floats(5.0, 8.0)),
            access=OPEN if tier == 1 else draw(st.sampled_from([OPEN, CLOSED])),
        )
        for tier in range(1, draw(st.integers(1, 4)) + 1)
    ]
    ids = [c.id for c in classes if c.id.is_open]
    return NetworkConfig(
        classes=tuple(classes),
        user_density=draw(st.floats(0.0, 5.0)),
        noise_power={rat: draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-5])) for rat in (1, 2)},
        sinr_threshold={cid: 1.0 for cid in ids},
        rate_threshold={cid: 256e3 for cid in ids},
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=extreme_configs())
@example(config=OVERFLOW_TERM)
@example(config=OVERFLOW_SUM)
def test_extreme_valid_configs_answer_or_refuse(config):
    """SINR CCDF, rate CCDF and the meanload route on an extreme valid config:
    each gives a coverage curve that `_assert_coverage` accepts, or raises
    ValueError or NumericalError with a message; numpy warnings are errors.
    The draws find the overflowed D coefficient on their own, not the
    overflowed closed-form sum: both run as explicit examples."""
    assert not validate(config)
    routes = {
        "sinr": lambda: sinr_ccdf(config, EXTREME_TAUS),
        "theorem1": lambda: rate_ccdf(config, EXTREME_RHOS),
        "meanload": lambda: coverage._curve(EXTREME_RHOS, *coverage._Stack([config], "meanload").evaluate(EXTREME_RHOS)),
    }
    for route, run in routes.items():
        try:
            curve = _strict(run)
        except (ValueError, NumericalError) as err:
            assert str(err), route
            continue
        _assert_coverage(curve.values, curve.per_class, curve.weights)
