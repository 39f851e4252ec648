"""Slow references for the package's fixed-node kernel.

The adaptive integrators were the package's own before the coverage and
association integrals moved to `numerics.decay_integral`.  They are kept
as the slow oracle the tests hold the kernel to: one adaptive
Gauss-Kronrod quadrature (`scipy.integrate.quad`) per integral, with a
Python callable as the integrand; `decaying_integral` runs in the
cusp-free variable t = ln(u/s).  `decay_integral_all_nodes` is the
kernel's own rule on all of its nodes, with a plain exp, which the
kernel must match to 1e-15 relative.  Below them, the association
probability, the conditional SINR coverage and the mean-load rate
coverage are built from their defining integrals term by term, with no
closed form, so a test can hold any package route to them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate

from hetnet_offload.numerics import _DE_LOG_X, _DE_W, NumericalError, z_integral


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


def _falls_below(g: Callable[[float], float], level: float) -> float:
    """A u with g(u) <= level < g(u/2), by doubling or halving from u = 1."""
    u = 1.0
    if g(u) > level:
        while g(u) > level and u < 2.0**64:
            u *= 2.0
    else:
        while g(u / 2.0) <= level and u > 2.0**-60:
            u /= 2.0
    return u


def decaying_integral(
    g: Callable[[float], float],
    settings: QuadratureSettings | None = None,
    tail_ratio: float = 1e-16,
) -> float:
    """Integrate g over [0, inf) when g is decreasing with its peak at 0.

    The integral runs in t = ln(u/s), as integral g(s e^t) s e^t dt, with
    s the u at which g falls to about 1/e of its peak.  A term u^e of
    an exp(-sum_k c_k u^e_k) kernel is s^e e^(e t) there, smooth in t even
    for e < 1, where u^e has a cusp at u = 0 that Gauss-Kronrod resolves
    poorly.  The t range runs from ln(tail_ratio), below which lies at
    most ~2e tail_ratio of the mass, to where g has fallen below
    ``tail_ratio`` of its peak (both found by doubling/halving search).
    """
    settings = settings or DEFAULT_SETTINGS
    peak = g(0.0)
    if peak <= 0.0:
        return 0.0
    s = _falls_below(g, peak / math.e)
    upper = _falls_below(g, peak * tail_ratio)

    def h(t: float) -> float:
        u = s * math.exp(t)
        return g(u) * u

    return _quad(h, math.log(tail_ratio), math.log(upper / s), settings)


def kernel_exponents(coefs, expos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponent sum_k c_k u^e_k of `numerics.decay_integral` at all 121
    nodes: (rows with a finite scale, their scales s, (rows, 121) exponents)."""
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    expos = np.asarray(expos, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.max(coefs ** (1.0 / expos), axis=1)
        rows = np.flatnonzero(np.isfinite(reach))
        scale = 1.0 / reach[rows]
        powers = np.exp(np.minimum(np.outer(expos, _DE_LOG_X), 700.0))
        c = coefs[rows]
        scaled = np.where(c > 0.0, c * scale[:, None] ** expos, 0.0)  # not 0 * inf
        exponent = np.einsum("rk,kn->rn", scaled, powers)
    return rows, scale, exponent


def decay_integral_all_nodes(coefs, expos) -> np.ndarray:
    """`numerics.decay_integral` on all 121 nodes, with a plain exp.

    The kernel's rule without its skips of the nodes and exp arguments
    whose integrand value is 0.0; a zero coefficient stays 0 where s^e
    overflows, as in the kernel.
    """
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    if np.all(np.asarray(expos) == 1.0):
        return 1.0 / coefs.sum(axis=1)
    out = np.zeros(coefs.shape[0])
    rows, scale, exponent = kernel_exponents(coefs, expos)
    out[rows] = scale * np.einsum("rn,n->r", np.exp(-exponent), _DE_W)
    return out


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
