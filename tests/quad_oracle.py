"""Adaptive-quadrature reference for the package's fixed-node kernel.

The integrators were the package's own before the coverage and
association integrals moved to `numerics.decay_integral`.  They are kept
unchanged as the slow oracle the tests hold the kernel to: one adaptive
Gauss-Kronrod quadrature (`scipy.integrate.quad`) per integral, with a
Python callable as the integrand.  Below them, the association
probability, the conditional SINR coverage and the mean-load rate
coverage are built from their defining integrals term by term, with no
closed form, so a test can hold any package route to them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import scipy.integrate

from hetnet_offload.numerics import NumericalError, z_integral


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances for the semi-infinite integrals.

    rel_tol / abs_tol bound the quadrature error estimate;
    max_subdivisions caps the adaptive interval count.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200


DEFAULT_SETTINGS = QuadratureSettings()

# Tighter tolerances used internally where results feed 1e-8-level checks
# (association probabilities summing to one, closed-form cross-validation).
TIGHT_SETTINGS = QuadratureSettings(rel_tol=1e-11, abs_tol=1e-14, max_subdivisions=500)


def _quad(f, lo, hi, settings: QuadratureSettings) -> float:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        value, abserr = scipy.integrate.quad(
            f,
            lo,
            hi,
            epsabs=settings.abs_tol,
            epsrel=settings.rel_tol,
            limit=settings.max_subdivisions,
        )
    for w in caught:
        if issubclass(w.category, scipy.integrate.IntegrationWarning):
            raise NumericalError(
                f"quadrature on [{lo}, {hi}] did not converge: {w.message}",
                partial=value,
            )
    return value


def semi_infinite_integral(
    f: Callable[[float], float],
    lower: float = 0.0,
    settings: QuadratureSettings | None = None,
) -> float:
    """Integrate f over [lower, inf) for an eventually-decaying integrand.

    The infinite tail is handled by the adaptive Gauss-Kronrod rule after
    the standard rational change of variable mapping [lower, inf) onto a
    finite interval.  Raises NumericalError (with the partial estimate
    attached) if the requested tolerances cannot be met.
    """
    settings = settings or DEFAULT_SETTINGS
    return _quad(f, lower, math.inf, settings)


def decaying_integral(
    g: Callable[[float], float],
    settings: QuadratureSettings | None = None,
    tail_ratio: float = 1e-16,
) -> float:
    """Integrate g over [0, inf) when g is decreasing with its peak at 0.

    The upper limit is chosen where the integrand has fallen below
    ``tail_ratio`` of its peak value (doubling/halving search), then the
    finite interval is integrated adaptively.  Intended for the
    exp(-sum_k c_k u^e_k) kernels of the association and coverage
    integrals, whose truncated tail is provably below the cut level times
    the remaining mass.
    """
    settings = settings or DEFAULT_SETTINGS
    peak = g(0.0)
    if peak <= 0.0:
        return 0.0
    cut = peak * tail_ratio
    upper = 1.0
    if g(upper) > cut:
        while g(upper) > cut and upper < 2.0**64:
            upper *= 2.0
    else:
        while g(upper / 2.0) <= cut and upper > 2.0**-60:
            upper /= 2.0
    return _quad(g, 0.0, upper, settings)


# ---------------------------------------------------------------------------
# Model quantities by their defining integrals, built term by term
# ---------------------------------------------------------------------------


def _g_terms(config, ref) -> list[tuple[float, float]]:
    """(pi G_mk, alpha_ij / alpha_mk) over the open classes, in u = y^2."""
    return [
        (math.pi * c.density * (c.weight / ref.weight) ** (2.0 / c.exponent), ref.exponent / c.exponent)
        for c in config.open_classes()
    ]


def _integral(terms) -> float:
    return decaying_integral(lambda u: math.exp(-sum(c * u**e for c, e in terms)), TIGHT_SETTINGS)


def association_probability(config, serving) -> float:
    """A_ij = pi lam_ij * integral_0^inf exp(-pi sum_mk G_mk u^(a_ij/a_mk)) du."""
    ref = config.class_for(serving)
    return math.pi * ref.density * _integral(_g_terms(config, ref))


def conditional_coverage(config, serving, tau: float) -> float:
    """P(SINR > tau | serving): the G, D and noise terms, integrated adaptively."""
    if math.isinf(tau):
        return 0.0
    ref = config.class_for(serving)
    g_terms = _g_terms(config, ref)
    terms = list(g_terms)
    for c in config.classes_of_rat(serving.rat):
        offset = c.bias / ref.bias if c.id.is_open else 0.0
        d = c.density * (c.power / ref.power) ** (2.0 / c.exponent) * z_integral(tau, c.exponent, offset)
        terms.append((math.pi * d, ref.exponent / c.exponent))
    terms.append((tau * config.noise_for(serving.rat) / ref.power, ref.exponent / 2.0))
    # pi lam / A * I, with A = pi lam * (the G-only integral)
    return _integral(terms) / _integral(g_terms)


def mean_load_rate_coverage(config, rho: float | None = None) -> float:
    """sum_ij A_ij P(SINR > 2^(rho_ij/W (1 + 9/7 r_ij)) - 1 | ij), r_ij = lam_u A_ij / lam_ij.

    rho_ij is `rho` for every class, or each class's own rate threshold.
    """
    total = 0.0
    for c in config.open_classes():
        a = association_probability(config, c.id)
        load = 1.0 + 9.0 / 7.0 * config.user_density * a / c.density
        rho_ij = config.rate_threshold_for(c.id) if rho is None else rho
        total += a * conditional_coverage(config, c.id, 2.0 ** (rho_ij / c.bandwidth * load) - 1.0)
    return total
