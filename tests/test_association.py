"""Association probabilities and the tagged-AP load pmf."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import dual_rat_config, four_class_config, single_class_config, two_class_config
from hetnet_offload import (
    ClassId,
    ConfigValidationError,
    NumericalError,
    association_probabilities,
    rat_offload_fraction,
    tagged_load_distribution,
)
from hetnet_offload import association
from hetnet_offload.association import _nb_pmf, _running_sum
from hetnet_offload.numerics import AREA_BIAS_FACTOR
from load_oracle import (
    nb_pmf_reference,
    pv_area_moment,
    running_sum_reference,
    stirling2,
    tagged_load_moment,
)
import quad_oracle as oracle

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)


def _mean(dist) -> float:
    return float(np.arange(dist.pmf.size) @ dist.pmf)


def test_association_probabilities_sum_to_one():
    """Total law over the open classes, mixed exponents included."""
    for config in (dual_rat_config(), dual_rat_config(bias_db=10.0), four_class_config(7.0)):
        probs = association_probabilities(config)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
        assert all(0.0 < p < 1.0 for p in probs.values())


def test_equal_exponent_fast_path_matches_integral():
    """lam/sum(G) equals the quadrature of the defining integral."""
    for config in (two_class_config(), two_class_config(bias_db=10.0, density2=25.0)):
        for cid, fast in association_probabilities(config).items():
            assert fast == pytest.approx(oracle.association_probability(config, cid), abs=1e-10)


def test_bias_shifts_association():
    """Raising one class's bias grows its share and shrinks the others'."""
    base = association_probabilities(dual_rat_config())
    tuned = association_probabilities(dual_rat_config(bias_db=10.0))
    assert tuned[SMALL] > base[SMALL]
    assert tuned[MACRO] < base[MACRO]


def test_rat_offload_fraction_accumulates_rat_classes():
    config = four_class_config()
    probs = association_probabilities(config)
    want_rat1 = probs[ClassId(1, 1)] + probs[ClassId(1, 2)]
    assert rat_offload_fraction(config, 1) == pytest.approx(want_rat1, rel=1e-12)
    assert rat_offload_fraction(config, 1) + rat_offload_fraction(config, 2) == pytest.approx(
        1.0, abs=1e-9
    )
    with pytest.raises(ValueError, match="RAT 9"):
        rat_offload_fraction(config, 9)


def test_serving_class_must_be_open_and_present():
    config = dual_rat_config()
    with pytest.raises(ValueError, match="open"):
        tagged_load_distribution(config, ClassId(2, 3, "closed"))
    from hetnet_offload import make_class, NetworkConfig

    ghost = NetworkConfig(
        classes=(
            config.class_for(MACRO),
            make_class(2, 3, density=0.0, power_dbm=23.0, exponent=4.0),
        ),
        user_density=0.0,
    )
    with pytest.raises(ValueError, match="positive density"):
        tagged_load_distribution(ghost, SMALL)


def test_load_ratio_definition():
    """r = lam_u A / lam; the single-class case collapses to lam_u/lam."""
    config = single_class_config(density=2.0, user_density=30.0)
    assert tagged_load_distribution(config, MACRO).ratio == pytest.approx(15.0, rel=1e-12)
    dual = dual_rat_config()
    probs = association_probabilities(dual)
    want = 50.0 * probs[SMALL] / 10.0
    assert tagged_load_distribution(dual, SMALL).ratio == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("user_density", [math.nan, math.inf, -1.0])
def test_replace_rejects_bad_user_density(user_density):
    """A config is checked when it is built, `dataclasses.replace` included,
    so no load route ever sees a user density that is not finite and >= 0."""
    with pytest.raises(ConfigValidationError, match="user density must be finite and >= 0") as err:
        replace(dual_rat_config(), user_density=user_density)
    assert err.value.failures == (f"user density must be finite and >= 0 (got {user_density})",)


def test_tagged_load_mean_and_mass():
    """Area-biased cell: mean other-user count is (9/7) r; mass ~ 1."""
    config = dual_rat_config()
    for cid in (MACRO, SMALL):
        dist = tagged_load_distribution(config, cid)
        r = dist.ratio
        assert dist.pmf.sum() >= 1.0 - 1e-6
        assert _mean(dist) == pytest.approx(9.0 / 7.0 * r, rel=1e-6)


def test_tagged_load_truncation_scales_with_ratio():
    """The adaptive cutoff keeps its invariants even at very large loads."""
    config = two_class_config(user_density=700.0)  # r ~ 5e2 on the macro class
    dist = tagged_load_distribution(config, MACRO)
    assert dist.ratio > 400.0
    assert dist.pmf.sum() >= 1.0 - 1e-6
    assert _mean(dist) == pytest.approx(9.0 / 7.0 * dist.ratio, rel=1e-6)
    assert dist.pmf.size - 1 >= 4 * dist.ratio


def test_tagged_load_pmf_at_dense_venue_load():
    """Macro class at 1e5 users/km^2 (r ~ 7.35e4): mass 1 and the nbinom law."""
    dist = tagged_load_distribution(dual_rat_config(user_density=1e5), MACRO)
    assert dist.ratio == pytest.approx(7.35e4, rel=0.01)
    assert abs(dist.pmf.sum() - 1.0) <= 1e-9
    want = scipy.stats.nbinom(4.5, 3.5 / (3.5 + dist.ratio)).pmf(np.arange(dist.pmf.size))
    assert np.max(np.abs(dist.pmf - want)) <= 1e-9
    assert _mean(dist) == pytest.approx(9.0 / 7.0 * dist.ratio, rel=1e-6)


def _betainc_tails(r: float, shape: float, n: int) -> tuple[float, float]:
    """The discarded tails at n from scipy's incomplete beta: P(O > n) =
    I_q(n+1, shape) and E[O; O > n] = shape r/3.5 I_q(n, shape+1)."""
    q = r / (3.5 + r)
    mass = scipy.special.betainc(n + 1.0, shape, q)
    mean = shape * r / 3.5 * scipy.special.betainc(float(n), shape + 1.0, q) if n > 0 else shape * r / 3.5
    return mass, mean


@pytest.mark.parametrize("shape", [4.5, 3.5])
@pytest.mark.parametrize("r", [0.0, 1e-3, 1.0, 3.0, 170.0, 3.5e3, 7.35e4])
def test_nb_pmf_matches_nbinom_and_betainc_cutoff(r, shape):
    """Each term equals scipy.stats.nbinom, and n_max is the first n where
    the betainc tails meet the bounds (1e-10 on the mass, 1e-9 (1+r) on the
    mean; at r = 3 the mean's bound is the one that sets n_max).  The pmf reads its tails off running sums, good to ~1e-13 on the
    mass; so the tails may miss the bounds by 0.1%, which at r = 7.35e4 is
    a few of the 691k terms and for small r never moves n_max."""
    pmf = _nb_pmf(r, shape)
    if r == 0.0:
        assert pmf.tolist() == [1.0]
        return
    want = scipy.stats.nbinom(shape, 3.5 / (3.5 + r)).pmf(np.arange(pmf.size))
    assert np.allclose(pmf, want, rtol=1e-8, atol=1e-15)
    bounds = np.array([1e-10, 1e-9 * (1.0 + r)])
    n_max = pmf.size - 1
    assert np.all(np.array(_betainc_tails(r, shape, n_max)) <= bounds * (1.0 + 1e-3))
    assert np.any(np.array(_betainc_tails(r, shape, n_max - 1)) > bounds * (1.0 - 1e-3))


def test_nb_pmf_edges(monkeypatch):
    """A zero or vanishing ratio, a negative one, and the term limit."""
    assert _nb_pmf(0.0, 4.5).tolist() == [1.0]
    assert _nb_pmf(5e-324, 4.5).tolist() == [1.0]  # q underflows to 0
    with pytest.raises(ValueError):
        _nb_pmf(-1.0, 4.5)
    # r = 1e5 needs about 1e6 terms, so the walk goes past its first
    # 65,536-term block, where a lowered limit stops it.  At r = 1e200 the
    # pmf underflows to 0 and its sd to inf, so the limit alone stops it.
    limit, block = 50_000, association._PMF_BLOCK
    monkeypatch.setattr(association, "_MAX_PMF_TERMS", limit)
    real = association._running_sum
    for r in (1e5, 1e200):
        sums = []
        monkeypatch.setattr(association, "_running_sum", lambda *a: sums.append(1) or real(*a))
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="more than 50000 terms"):
                _nb_pmf(r, 4.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sums) == 3  # one block's three running sums
        # the buffer is at most the limit plus one block (its estimate for
        # r = 1e5 is 1.1e6 terms, 8.8 MB), next to four block-sized scratch
        # arrays and the two masks of the stopping test
        assert peak <= 8 * (limit + block) + 4 * 8 * (block + association._SUM_ROW) + 2 * block + 4096


NB_RATIOS = [0.0, 5e-324, 1e-6, 0.3, 1.0, 3.0, 7.0, 55.0, 170.0, 400.0, 2650.3]
NB_RATIOS += [3.5e3, 5455.0, 5500.0, 2e4, 7.35e4, 2e5]  # 5455 is one block; 5500 on, more


@pytest.mark.parametrize("shape", [3.5, 4.5])
@pytest.mark.parametrize("r", NB_RATIOS)
def test_nb_pmf_is_the_block_list_reference_bit_for_bit(r, shape):
    """Writing the blocks into one buffer moves no bit and no cutoff.  No
    term is 0, so the theorem1 load law takes every term as it is."""
    got, want = _nb_pmf(r, shape), nb_pmf_reference(r, shape)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.all()


@pytest.mark.parametrize("r", [2e4, 7.35e4, 2e5])
def test_nb_pmf_short_buffer_estimate_grows_to_the_same_bits(r, monkeypatch):
    """With the estimate cut to the mean + 64 terms (one block at the
    least), the buffer grows past it and the pmf keeps every bit."""
    monkeypatch.setattr(association, "_TAIL_SDS", 0.0)
    got = _nb_pmf(r, 4.5)
    assert got.size > max(association._PMF_BLOCK, 4.5 * r / 3.5 + 64)  # the first buffer fell short
    assert np.array_equal(got.view(np.uint64), nb_pmf_reference(r, 4.5).view(np.uint64))


def _traced(call):
    """(result, traced bytes still held after the call, traced peak)"""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, held - base, peak - base


def test_nb_pmf_peak_memory_at_dense_venue_load():
    """At r = 7.35e4 (691k terms, 5.5 MB) the build peaks at most 1.75x
    the pmf: the one buffer and four block-sized scratch arrays."""
    _nb_pmf(3.0, 4.5)  # numpy's first-call caches are not the pmf's
    pmf, _, peak = _traced(lambda: _nb_pmf(7.35e4, 4.5))
    assert pmf.size > 600_000
    assert peak <= 1.75 * pmf.nbytes


@pytest.mark.parametrize("r", [3.0, 5455.0, 7.35e4])
def test_nb_pmf_owns_exactly_its_terms(r):
    """The buffer is cut in place to the pmf's terms: no view of a larger
    array and no over-sized allocation left behind (the uncut buffer holds
    whole 65,536-term blocks, 240 kB more at r = 7.35e4)."""
    pmf, held, _ = _traced(lambda: _nb_pmf(r, 4.5))
    assert pmf.base is None and pmf.flags.owndata and pmf.flags.c_contiguous
    assert pmf.nbytes <= held <= pmf.nbytes + 16_384


def test_running_sum_is_exact_prefix_sums():
    """[0, cumsum]: the first row is numpy's running sum bit for bit, also
    when it is the only one; longer inputs, summed in rows and then across,
    stay within 1e-14 of fsum.  In scratch that is dirty or has rows to
    spare, the sums are those of a fresh array, bit for bit."""
    rng = np.random.default_rng(4)
    for size in (0, 1, 200, 255, 256, 257, 5000):
        steps = rng.random(size)
        got = _running_sum(steps, np.zeros(-(-(size + 1) // 256) * 256))
        assert got.size == size + 1 and got[0] == 0.0
        assert np.array_equal(got[1:256], np.cumsum(steps[:255]))
        exact = [math.fsum(steps[:k]) for k in range(0, size + 1, 97)]
        assert np.allclose(got[::97], exact, rtol=1e-14, atol=0.0)
        want = running_sum_reference(steps).view(np.uint64)
        assert np.array_equal(got.view(np.uint64), want)
        scratch = np.full(size + 2 * 256 - size % 256, np.nan)
        assert np.array_equal(_running_sum(steps, scratch).view(np.uint64), want)


def test_zero_user_density_degenerates():
    config = single_class_config(user_density=0.0)
    dist = tagged_load_distribution(config, MACRO)
    assert dist.ratio == 0.0
    assert dist.pmf[0] == pytest.approx(1.0)
    assert _mean(dist) == 0.0


def test_tagged_load_moments_match_pmf():
    """Stirling-number closed form vs the moments of the negative binomial
    law the pmf follows, nbinom(4.5, 3.5/(3.5+r))."""
    config = dual_rat_config()
    dist = tagged_load_distribution(config, MACRO)
    law = scipy.stats.nbinom(4.5, 3.5 / (3.5 + dist.ratio))
    for order in (1, 2, 3):
        closed = tagged_load_moment(config, MACRO, order)
        assert closed == pytest.approx(law.moment(order), rel=1e-8), order
    assert tagged_load_moment(config, MACRO, 0) == 1.0
    # second moment identity: E[O^2] = r m_2 + r^2 m_3 with m_j = E[C^j(1)]
    r = dist.ratio
    want = r * pv_area_moment(2) + r**2 * stirling2(2, 2) * pv_area_moment(3)
    assert tagged_load_moment(config, MACRO, 2) == pytest.approx(want, rel=1e-12)


def test_first_tagged_moment_is_the_area_bias_times_ratio():
    """E[O] = (9/7) r bit for bit, by the moment sum and by the mean-load route."""
    assert pv_area_moment(2) == AREA_BIAS_FACTOR == 9.0 / 7.0
    for config in (dual_rat_config(), four_class_config(7.0), two_class_config()):
        for cls in config.open_classes():
            want = AREA_BIAS_FACTOR * tagged_load_distribution(config, cls.id).ratio
            assert tagged_load_moment(config, cls.id, 1) == want
