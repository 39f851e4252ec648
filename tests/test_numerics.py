"""The coverage kernel, its adaptive-quadrature oracle, and special-function
closed forms.

The z_integral reference values were produced by an independent
composite-Simpson integrator with an alternating-series tail bound,
evaluated far past convergence; they are frozen here to pin the
incomplete-beta closed form to the defining integral.  scipy's `betainc`
is the oracle for the package's own incomplete-beta series, and a
40-digit mpmath value where `betainc`'s argument is rounded away.
"""

import math

import numpy as np
import pytest
import scipy.special

from hetnet_offload import NumericalError
from hetnet_offload.numerics import decay_integral, z_integral
from load_oracle import pv_area_moment, stirling2
from quad_oracle import TIGHT_SETTINGS, QuadratureSettings, decaying_integral, semi_infinite_integral

# (a, b, c) -> independently integrated value of a^(2/b) * I[(c/a)^(2/b), inf)
Z_REFERENCE = {
    (1.0, 4.0, 1.0): 0.78539816339745,  # = pi/4
    (1.0, 4.0, 0.0): 1.57079632679489,  # = pi/2
    (2.0, 3.5, 1.0): 1.8769604242462,
    (0.5, 3.0, 0.0): 1.5234959995231,
    (3.0, 5.0, 2.0): 0.915116801685672,
    (10.0, 3.5, 1.0): 5.89814155058652,
    (1.0, 2.5, 1.0): 3.55325429060684,
    (0.25, 4.5, 0.7): 0.218129353046321,
}


def test_z_integral_matches_reference_quadrature():
    """Closed form reproduces the defining integral at mixed parameters."""
    for (a, b, c), want in Z_REFERENCE.items():
        assert z_integral(a, b, c) == pytest.approx(want, rel=1e-12), (a, b, c)


def test_z_integral_quartic_fast_path_is_exact():
    """b = 4 reduces to sqrt(a) (pi/2 - atan sqrt(c/a))."""
    for a, c in [(1.0, 1.0), (4.0, 0.25), (0.3, 7.0), (2.0, 0.0)]:
        want = math.sqrt(a) * (math.pi / 2.0 - math.atan(math.sqrt(c / a)))
        assert z_integral(a, 4.0, c) == pytest.approx(want, rel=1e-14)


def test_z_integral_edge_cases():
    assert z_integral(0.0, 3.5, 1.0) == 0.0
    assert z_integral(1.0, 3.5, math.inf) == 0.0
    assert math.isinf(z_integral(math.inf, 3.5, 1.0))
    with pytest.raises(ValueError, match="must exceed 2"):
        z_integral(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        z_integral(-1.0, 3.5, 1.0)
    # array-valued in a, with the same edge values
    got = z_integral(np.array([0.0, 2.0, math.inf]), 3.5, 1.0)
    assert got.shape == (3,)
    assert got[0] == 0.0 and math.isinf(got[2])
    assert got[1] == pytest.approx(Z_REFERENCE[(2.0, 3.5, 1.0)], rel=1e-12)


def betainc_z(a: np.ndarray, b: float, c: float) -> np.ndarray:
    """Z from scipy: (2/b) a^(2/b) B(s, 1-s) I_x(s, 1-s), s = 1 - 2/b, x = a/(a+c).

    Above x = 1/2 it takes 1 - I_y(1-s, s) with y = c/(a+c) (DLMF 8.17.4),
    so that betainc's argument is never x = 1 - y rounded: at a/c = 1e6
    and b = 50 that rounding alone moves the plain route by 3.3e-12.
    """
    if math.isinf(c):
        return np.zeros_like(a)
    s = 1.0 - 2.0 / b
    x, y = a / (a + c), c / (a + c)
    frac = np.where(x <= 0.5, scipy.special.betainc(s, 1.0 - s, x), 1.0 - scipy.special.betainc(1.0 - s, s, y))
    return (2.0 / b) * a ** (2.0 / b) * scipy.special.beta(s, 1.0 - s) * frac


@pytest.mark.parametrize("b", [2.5, 3.5, 3.8, 4.0, 6.0])
def test_z_integral_array_offset_equals_scalar_calls(b):
    """An array c, one offset per element of a, gives the scalar call's Z at
    each element to 1e-14 (a stacked call sums its series in other blocks),
    with the scalar calls' zeros and infinities where a or c is 0 or inf."""
    rng = np.random.default_rng(11)
    a = np.concatenate([10.0 ** rng.uniform(-4.0, 6.0, 3000), [0.0, 0.0, 2.0, math.inf, math.inf, 5.0]])
    c = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 3000), [0.0, 1.0, 0.0, math.inf, 0.0, math.inf]])
    got = z_integral(a, b, c)
    want = np.array([z_integral(x, b, y) for x, y in zip(a, c)])
    assert got.shape == a.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # c broadcasts with a: one offset per row of a (rows x thresholds) array
    grid = a[:60].reshape(6, 10)
    want = [[z_integral(x, b, y) for x in row] for row, y in zip(grid, c[:6])]
    np.testing.assert_allclose(z_integral(grid, b, c[:6, None]), want, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        z_integral(a[:3], b, np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        z_integral(a[:3], b, np.array([1.0, math.nan, 1.0]))


@pytest.mark.parametrize("c", [0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6, math.inf])
def test_z_integral_matches_betainc(c):
    """The series kernel equals scipy's incomplete beta within 1e-12 relative,
    for exponents 2.05..50 and a/c from 1e-6 to 1e6, as arrays and as scalars."""
    a = (c if 0.0 < c < math.inf else 1.0) * np.logspace(-6.0, 6.0, 49)
    for b in [*np.linspace(2.05, 50.0, 34), 4.0]:
        got = z_integral(a, b, c)
        want = betainc_z(a, b, c)
        if math.isinf(c):
            assert np.all(got == 0.0)
            continue
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12, b
        for k in (0, 24, 48):
            assert z_integral(float(a[k]), b, c) == pytest.approx(want[k], rel=1e-12)


def test_z_integral_large_arrays_match_betainc():
    """Arrays too large for one power matrix (every element takes 8 terms,
    only those that need more take the rest, in blocks of 2048) agree with
    scipy as closely as small ones do."""
    rng = np.random.default_rng(11)
    a = np.concatenate([np.logspace(-6.0, 6.0, 12_001), 10.0 ** rng.uniform(-6.0, 6.0, 9_000)])
    for b in (2.05, 3.5, 5.0, 50.0):
        for c in (1e-3, 1.0):
            got = z_integral(a * c, b, c)
            assert np.max(np.abs(got / betainc_z(a * c, b, c) - 1.0)) <= 1e-12, (b, c)


def test_z_integral_beyond_betainc_range():
    """At a/c far outside 1e-6..1e6 the series keeps its digits (40-digit mpmath)."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for b in (2.05, 3.5, 10.0, 50.0):
        s = 1 - 2 / mpmath.mpf(b)
        for c in (1e-6, 1.0):
            for ratio in (1e-12, 1e-9, 1e9, 1e12):
                a = ratio * c
                x = mpmath.mpf(a) / (mpmath.mpf(a) + mpmath.mpf(c))
                want = 2 / mpmath.mpf(b) * mpmath.mpf(a) ** (2 / mpmath.mpf(b)) * mpmath.betainc(s, 1 - s, 0, x)
                assert z_integral(a, b, c) == pytest.approx(float(want), rel=1e-13), (b, c, ratio)


def test_z_integral_monotonicity():
    """Increasing in a (larger threshold), decreasing in c (later start)."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        b = float(rng.uniform(2.2, 6.0))
        a = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(0.0, 5.0))
        assert z_integral(a * 1.3, b, c) > z_integral(a, b, c)
        assert z_integral(a, b, c + 0.5) < z_integral(a, b, c)


def test_semi_infinite_integral_known_values():
    assert semi_infinite_integral(lambda x: math.exp(-x)) == pytest.approx(1.0, rel=1e-10)
    assert semi_infinite_integral(lambda x: math.exp(-x * x)) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-10
    )
    assert semi_infinite_integral(lambda x: math.exp(-x), lower=2.0) == pytest.approx(
        math.exp(-2.0), rel=1e-10
    )


def test_semi_infinite_integral_flags_nonconvergence():
    """A non-decaying oscillator cannot converge; the failure carries a partial value."""
    with pytest.raises(NumericalError) as err:
        semi_infinite_integral(lambda x: math.sin(x))
    assert err.value.partial is not None


def test_decay_integral_known_values():
    """The fixed-node kernel reproduces the oracle's known values, all rows at once.

    Rows: e^(-u), e^(-u^2), a very steep e^(-1e6 u), a very slow e^(-u/50),
    and a row with an infinite coefficient, which integrates to 0.
    """
    coefs = [[1.0, 0.0], [0.0, 1.0], [1e6, 0.0], [1.0 / 50.0, 0.0], [math.inf, 1.0]]
    got = decay_integral(coefs, [1.0, 2.0])
    assert got[0] == pytest.approx(1.0, rel=1e-10)
    assert got[1] == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)
    assert got[2] == pytest.approx(1e-6, rel=1e-9)
    assert got[3] == pytest.approx(50.0, rel=1e-9)
    assert got[4] == 0.0
    with pytest.raises(ValueError, match="positive coefficient"):
        decay_integral([[0.0, 0.0]], [1.0, 2.0])


def test_decay_integral_unit_exponents_take_the_closed_form():
    """With every exponent 1 the integral is 1 / sum_k c_k, exactly; an
    infinite coefficient gives 0, and a row without a positive coefficient
    is refused as on the quadrature path."""
    coefs = np.array([[1.0, 0.0, 3.0], [2.5, 1e-3, 7.0], [1e-6, 0.0, 0.0], [math.inf, 1.0, 0.0]])
    got = decay_integral(coefs, [1.0, 1.0, 1.0])
    assert got.tolist() == (1.0 / coefs.sum(axis=1)).tolist()
    assert got[3] == 0.0
    with pytest.raises(ValueError, match="positive coefficient"):
        decay_integral([[1.0, 1.0], [0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive coefficient"):
        decay_integral([[math.nan, 1.0]], [1.0, 1.0])


def test_decaying_integral_matches_quadrature():
    """Automatic cutoff reproduces exp/Gaussian integrals from a cold start."""
    assert decaying_integral(lambda u: math.exp(-u)) == pytest.approx(1.0, rel=1e-10)
    assert decaying_integral(lambda u: math.exp(-u * u)) == pytest.approx(
        math.sqrt(math.pi) / 2.0, rel=1e-10
    )
    # very steep decay: cutoff must shrink, not explode
    assert decaying_integral(lambda u: math.exp(-1e6 * u)) == pytest.approx(1e-6, rel=1e-9)
    # very slow decay relative to the unit scale: cutoff must grow
    assert decaying_integral(lambda u: math.exp(-u / 50.0)) == pytest.approx(50.0, rel=1e-9)


@pytest.mark.parametrize("e", [0.3, 0.4, 0.59, 0.75])
def test_decaying_integral_resolves_the_cusp(e):
    """integral exp(-c u^e) du = Gamma(1 + 1/e) c^(-1/e).  For e < 1, u^e
    has a cusp at u = 0 that Gauss-Kronrod in u resolves poorly; the
    oracle's variable t = ln(u/s) removes it."""
    for c in (1e-3, 1.0, 1e3):
        got = decaying_integral(lambda u: math.exp(-c * u**e), TIGHT_SETTINGS)
        want = math.gamma(1.0 + 1.0 / e) * c ** (-1.0 / e)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), c


def test_decaying_integral_zero_function():
    assert decaying_integral(lambda u: 0.0) == 0.0


def test_quadrature_settings_are_applied():
    loose = QuadratureSettings(rel_tol=1e-3, abs_tol=1e-6, max_subdivisions=50)
    val = semi_infinite_integral(lambda x: math.exp(-x), settings=loose)
    assert val == pytest.approx(1.0, rel=1e-3)


def test_stirling2_small_table():
    """Matches the classic table and the Bell-number row sums."""
    table = {(0, 0): 1, (1, 1): 1, (3, 2): 3, (4, 2): 7, (5, 3): 25, (6, 3): 90}
    for (n, k), want in table.items():
        assert stirling2(n, k) == want
    assert stirling2(4, 0) == 0 and stirling2(3, 5) == 0
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, want in enumerate(bell):
        assert sum(stirling2(n, k) for k in range(n + 1)) == want


def test_pv_area_moments():
    """First moment 1 (normalization), second 9/7 (area bias factor)."""
    assert pv_area_moment(0) == pytest.approx(1.0)
    assert pv_area_moment(1) == pytest.approx(1.0, rel=1e-14)
    assert pv_area_moment(2) == pytest.approx(9.0 / 7.0, rel=1e-14)
    # Gamma(3.5 + j) / (Gamma(3.5) 3.5^j) recurrence: m_{j+1}/m_j = (3.5+j)/3.5
    for j in range(8):
        ratio = pv_area_moment(j + 1) / pv_area_moment(j)
        assert ratio == pytest.approx((3.5 + j) / 3.5, rel=1e-12)
