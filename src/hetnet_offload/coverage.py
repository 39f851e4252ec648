"""SINR and rate coverage of the typical user.

Conditioned on service by open class (i,j) at distance y, Rayleigh fading
turns the coverage probability into a Laplace-transform product, giving

    S_ij(tau) = (2 pi lam_ij / A_ij) int_0^inf y exp(
        - tau sigma_i^2 y^{a_ij} / P_ij
        - pi [ sum_k D_ij(k, tau) y^{2 a_ij / a_ik}
             + sum_mk G_ij(m,k) y^{2 a_ij / a_mk} ] ) dy,

where the D sum runs over the tiers of the serving RAT (same-RAT
interference beyond the association exclusion radius; closed tiers have no
exclusion) and the G sum over all open classes (the serving-distance law).
Every D term is built from the kernel Z(a, b, c) of `numerics`, and the
integral in u = y^2 is `numerics.decay_integral`, evaluated for a whole
threshold array per serving class.

Rates: an AP serving n+1 users splits its bandwidth evenly, so the typical
user's rate is W / (n+1) * log2(1 + SINR) and rate coverage mixes S_ij over
a load law: the tagged-AP load pmf (theorem1), or its mean alone
(meanload).  Every route is one `_mix`: per open class, S_ij at the class's
thresholds, mixed over the load law for rates, weighted by association.
For equal exponents and no noise the kernel returns the integral in closed
form, which makes the mean-load route the paper's closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import (
    _g_terms,
    association_probabilities,
    load_ratio,
    tagged_load_distribution,
)
from .model import ApClass, ClassId, NetworkConfig
from .numerics import AREA_BIAS_FACTOR, decay_integral, z_integral

__all__ = [
    "shannon_threshold",
    "sinr_coverage",
    "sinr_ccdf",
    "rate_coverage",
    "rate_ccdf",
    "rate_coverage_mean_load",
    "rate_coverage_closed_form",
    "CcdfCurve",
    "ClosedFormInapplicableError",
]


class ClosedFormInapplicableError(ValueError):
    """A closed-form path was requested outside its validity conditions."""


def shannon_threshold(x):
    """SINR needed for spectral efficiency x: t(x) = 2^x - 1.

    Accepts a scalar or an array; past 1000 bits/s/Hz the threshold is inf.
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0.0):
        raise ValueError(f"spectral efficiency must be non-negative (got {x})")
    with np.errstate(over="ignore"):  # 2^x overflows float64 past ~1024
        t = np.where(x_arr > 1000.0, math.inf, np.exp2(x_arr) - 1.0)
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class CcdfCurve:
    """A coverage curve over a common threshold grid.

    axis       "sinr_linear" or "rate_bps"
    grid       thresholds, increasing
    values     P(metric > grid[k]) for the typical user
    per_class  conditional curves given the serving class
    weights    association probabilities; values = sum_ij weights * per_class
    """

    axis: str
    grid: np.ndarray
    values: np.ndarray
    per_class: Mapping[ClassId, np.ndarray]
    weights: Mapping[ClassId, float]


def _d_terms(config: NetworkConfig, serving: ClassId):
    """(class, scale, offset) per present class of the serving RAT.

    D = scale * Z(tau, alpha, offset): interferers of an open class are
    pushed beyond the association exclusion radius (offset = bias ratio),
    closed ones are not (offset 0).
    """
    ref = config.class_for(serving)
    for cls in config.classes_of_rat(serving.rat):
        scale = cls.density * (cls.power / ref.power) ** (2.0 / cls.exponent)
        offset = (cls.bias / ref.bias) if cls.id.is_open else 0.0
        yield cls, scale, offset


def _decay_terms(config: NetworkConfig, ref: ApClass, taus: np.ndarray):
    """Coefficients (one row per tau) and exponents of the coverage integrand.

    S_ij(tau) = pi lam_ij / A_ij * integral_0^inf exp(-sum_k c_k u^e_k) du
    in u = y^2, with pi G and pi D terms and, for a noisy RAT, the noise
    term tau sigma^2 / P u^(alpha/2).
    """
    g, g_expos = _g_terms(config, ref.id)
    columns = [np.broadcast_to(math.pi * g, (taus.size, g.size))]
    expos = [g_expos]
    for cls, scale, offset in _d_terms(config, ref.id):
        columns.append(math.pi * scale * z_integral(taus, cls.exponent, offset)[:, None])
        expos.append([ref.exponent / cls.exponent])
    noise = config.noise_for(ref.id.rat) / ref.power
    if noise > 0.0:
        columns.append(noise * taus[:, None])
        expos.append([ref.exponent / 2.0])
    return np.hstack(columns), np.concatenate(expos)


def _load_law(config: NetworkConfig, cls: ApClass, method: str):
    """(loads, weights): the users on the serving AP, the typical one included.

    theorem1: n+1 with weight pmf[n] over the tagged-AP pmf's non-zero
    terms; meanload: the single mean 1 + (9/7) r with weight 1.
    """
    if method == "theorem1":
        pmf = tagged_load_distribution(config, cls.id).pmf
        n = np.flatnonzero(pmf)
        return n + 1.0, pmf[n]
    return np.array([1.0 + AREA_BIAS_FACTOR * load_ratio(config, cls.id)]), np.ones(1)


def _mix(config: NetworkConfig, thresholds, method: str | None = None):
    """Coverage per open class at its thresholds, and their association-weighted sum.

    thresholds  a 1-D grid shared by all classes, or None for each class's
                own threshold from the config
    method      None: the thresholds are SINRs.  "theorem1" or "meanload":
                they are rates (bits/s), each needing SINR t(rho / W * load)
                at every load of the class's load law, mixed over its weights.

    Returns (values, per_class, weights).
    """
    own = config.sinr_threshold_for if method is None else config.rate_threshold_for
    probs = association_probabilities(config)
    per_class = {}
    for cls in config.open_classes():
        x = np.array([own(cls.id)]) if thresholds is None else np.asarray(thresholds, dtype=float)
        _check_grid(x, "SINR" if method is None else "rate")
        taus = x
        if method is not None:
            loads, weights = _load_law(config, cls, method)
            taus = shannon_threshold(np.outer(x / cls.bandwidth, loads)).ravel()
        coverage = math.pi * cls.density / probs[cls.id] * decay_integral(*_decay_terms(config, cls, taus))
        if method is not None:
            coverage = np.einsum("rn,n->r", coverage.reshape(x.size, -1), weights)  # einsum: see decay_integral
        per_class[cls.id] = coverage
    values = sum(probs[cid] * curve for cid, curve in per_class.items())
    return values, per_class, probs


def _check_grid(grid: np.ndarray, what: str) -> None:
    if not (np.all(grid >= 0.0) and np.all(np.diff(grid) > 0.0)):
        raise ValueError(f"{what} thresholds must be non-negative and strictly increasing")


def sinr_coverage(config: NetworkConfig) -> float:
    """P(SINR > tau_ij) with each class checked against its own threshold."""
    return float(_mix(config, None)[0][0])


def sinr_ccdf(config: NetworkConfig, taus: Sequence[float]) -> CcdfCurve:
    """SINR CCDF over a common linear threshold grid applied to all classes.

    per_class[cid][k] is P(SINR > taus[k] | served by class cid).
    """
    grid = np.asarray(taus, dtype=float)
    values, per_class, probs = _mix(config, grid)
    return CcdfCurve("sinr_linear", grid, values, per_class, probs)


# ---------------------------------------------------------------------------
# Rate coverage
# ---------------------------------------------------------------------------


def rate_coverage(config: NetworkConfig, rho_common: float | None = None) -> float:
    """P(rate > rho_ij): load-averaged SINR coverage, weighted by association.

    Thresholds come from config.rate_threshold unless `rho_common`
    overrides them all (used by percentile solving and CCDF sweeps).
    """
    return float(_mix(config, None if rho_common is None else [rho_common], "theorem1")[0][0])


def rate_ccdf(config: NetworkConfig, rhos: Sequence[float]) -> CcdfCurve:
    """Rate CCDF over a common bits/s grid applied to all classes."""
    grid = np.asarray(rhos, dtype=float)
    values, per_class, probs = _mix(config, grid, "theorem1")
    return CcdfCurve("rate_bps", grid, values, per_class, probs)


def rate_coverage_mean_load(config: NetworkConfig, rho_common: float | None = None) -> float:
    """Rate coverage with the load pmf collapsed to its mean.

    Each class sees the single effective load 1 + (9/7) r_ij; accurate when
    the load is concentrated, cheap always.
    """
    return float(_mix(config, None if rho_common is None else [rho_common], "meanload")[0][0])


def rate_coverage_closed_form(config: NetworkConfig, rho_common: float | None = None) -> float:
    """Closed-form mean-load rate coverage.

    Valid only for interference-limited (zero noise) configs whose present
    classes share one path-loss exponent:

        R = sum_ij lam_ij / (sum_k D_ij(k, t_ij) + sum_mk G_ij(m,k)),
        t_ij = t(rho_ij / W_ij * (1 + 9/7 r_ij)).

    Raises ClosedFormInapplicableError otherwise.  Under these conditions
    the mean-load route takes exactly this closed form for every class.
    """
    use = "; use method meanload or theorem1 (--method on the command line)"
    exps = {c.exponent for c in config.present_classes()}
    if len(exps) > 1:
        raise ClosedFormInapplicableError(f"exponents must all match (got {sorted(exps)}){use}")
    noisy = [rat for rat in config.rats() if config.noise_for(rat) != 0.0]
    if noisy:
        raise ClosedFormInapplicableError(f"noise must be zero for all RATs (RATs {noisy} are noisy){use}")
    return rate_coverage_mean_load(config, rho_common=rho_common)
