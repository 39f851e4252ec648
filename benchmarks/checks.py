"""Correctness checks on the program's outputs.

Each check raises CheckFailed with a message naming the failed property.
None of them compares against a stored copy of an earlier output: they
hold the outputs to properties the method must have, to the oracles in
`oracles.py`, and (for simulated curves) to sampling bands that a correct
program leaves with probability below about 1e-6 per check.
"""

from __future__ import annotations

import math

import numpy as np

# slack for CCDF range and monotonicity: the analytic curves carry quadrature
# error near 1e-10 and the CLI prints 9 significant digits
CCDF_SLACK = 1e-9
MIX_TOL = 1e-8  # overall curve vs the association-weighted per-class curves
ASSOC_SUM_TOL = 1e-8
ORACLE_TOL = 1e-6  # package value vs the independent oracle
PERCENTILE_TOL = 1e-3  # |R(rho_95) - 0.95|
BAND_ALPHA = 1e-6  # false-alarm probability of each sampling band
BINOMIAL_Z = 6.0  # two-sided normal quantile, P(|Z| > 6) = 2e-9
# Interferers outside the 20 km simulation window are missing, which lifts
# the simulated SINR CCDF slightly above the infinite-plane analytic curve.
WINDOW_ALLOWANCE = 0.01


class CheckFailed(AssertionError):
    """An output of the program broke a property it must have."""


def _fail(what: str, detail: str) -> None:
    raise CheckFailed(f"{what}: {detail}")


def ccdf(values, what: str) -> None:
    """Finite, inside [0, 1] and nonincreasing along the threshold grid."""
    probabilities(values, what)
    v = np.asarray(values, dtype=float)
    rise = np.diff(v).max(initial=-math.inf)
    if rise > CCDF_SLACK:
        _fail(what, f"CCDF rises by {rise:.3e} between neighbouring thresholds")


def probabilities(values, what: str) -> None:
    """Finite and inside [0, 1]."""
    v = np.asarray(values, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        _fail(what, "empty or non-finite values")
    if v.min() < -CCDF_SLACK or v.max() > 1.0 + CCDF_SLACK:
        _fail(what, f"probability outside [0, 1]: {v.min()!r}..{v.max()!r}")


def mix(overall, per_class: dict, weights: dict, what: str) -> None:
    """The overall curve equals the association-weighted per-class curves."""
    total = sum(weights[k] * np.asarray(per_class[k], dtype=float) for k in per_class)
    gap = float(np.max(np.abs(np.asarray(overall, dtype=float) - total)))
    if not gap <= MIX_TOL:
        _fail(what, f"overall curve differs from the per-class mix by {gap:.3e}")


def association_sum(probs: dict, what: str) -> None:
    total = sum(probs.values())
    if not abs(total - 1.0) <= ASSOC_SUM_TOL:
        _fail(what, f"association probabilities sum to {total!r}")


def close(value, reference, what: str, tol: float = ORACLE_TOL) -> None:
    """Agreement with an oracle value (scalars or arrays, absolute)."""
    gap = float(np.max(np.abs(np.asarray(value, dtype=float) - np.asarray(reference, dtype=float))))
    if not gap <= tol:
        _fail(what, f"differs from the oracle by {gap:.3e} (tolerance {tol:g})")


def percentile(coverage_at_rate: float, target: float, what: str) -> None:
    gap = abs(coverage_at_rate - target)
    if not gap <= PERCENTILE_TOL:
        _fail(what, f"R(rho) = {coverage_at_rate:.6f} at the solved rate, target {target}")


def bias_optimum(objective: float, trace_values, what: str) -> None:
    """The reported optimum is at least every evaluation the search made."""
    vals = np.asarray(trace_values, dtype=float)
    if vals.size == 0:
        _fail(what, "search recorded no evaluations")
    if not (np.isfinite(objective) and objective >= vals.max()):
        _fail(what, f"objective {objective!r} is below a traced evaluation {vals.max()!r}")


def binomial_band(freq: float, p: float, trials: int, what: str) -> None:
    """A simulated frequency within BINOMIAL_Z standard errors of p."""
    half = BINOMIAL_Z * math.sqrt(p * (1.0 - p) / trials) + 1.0 / trials
    if not abs(freq - p) <= half:
        _fail(what, f"frequency {freq:.5f} vs probability {p:.5f}, band +-{half:.5f}")


def dkw_band(empirical, analytic, trials: int, what: str) -> None:
    """sup |empirical - analytic| within the DKW band at BAND_ALPHA.

    P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2), so eps = sqrt(ln(2/alpha)/(2n)).
    """
    eps = math.sqrt(math.log(2.0 / BAND_ALPHA) / (2.0 * trials)) + WINDOW_ALLOWANCE
    gap = float(np.max(np.abs(np.asarray(empirical, dtype=float) - np.asarray(analytic, dtype=float))))
    if not gap <= eps:
        _fail(what, f"simulated CCDF off the analytic one by {gap:.4f}, band {eps:.4f}")
