"""Numerical kernels shared by the analytic modules.

Everything here is deterministic: same inputs, same outputs, no global
state besides the Stirling-number memo.

Every association and coverage quantity of the package is one integral,

    I = integral_0^inf exp(-sum_k c_k u^(e_k)) du,

whose coefficients c_k depend on the threshold and whose exponents e_k
do not.  `decay_integral` evaluates it for a whole array of coefficient
rows with one fixed double-exponential rule (Takahasi & Mori, Publ. RIMS
9, 1974): the exp-sinh map u = s exp(pi/2 sinh t), t in [-4, 4] on 121
equally spaced nodes, with the scale s = min_k c_k^(-1/e_k) per row: the
u at which the fastest-growing term reaches 1.  At u = s the exponent is
between 1 and K whatever the coefficients, so every row puts its decay
in the same, well-resolved part of the t range, and the map's
double-exponential decay at both ends of t makes the truncated tails
negligible.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.special

__all__ = [
    "NumericalError",
    "decay_integral",
    "z_integral",
    "stirling2",
    "pv_area_moment",
    "TYPICAL_CELL_SHAPE",
    "TAGGED_CELL_SHAPE",
    "AREA_BIAS_FACTOR",
]

# Shape parameters of the Gamma approximation to the (area-weighted) Poisson
# Voronoi cell area at unit density: C(1) ~ Gamma(3.5, rate 3.5), and the
# cell containing an independent uniform point ~ Gamma(4.5, rate 3.5).
TYPICAL_CELL_SHAPE = 3.5
TAGGED_CELL_SHAPE = 4.5


class NumericalError(RuntimeError):
    """A numerical routine failed; carries a partial estimate if it has one."""

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


_DE_T = np.linspace(-4.0, 4.0, 121)
_DE_LOG_X = 0.5 * math.pi * np.sinh(_DE_T)  # log(u / s) at the nodes
_DE_W = (_DE_T[1] - _DE_T[0]) * 0.5 * math.pi * np.cosh(_DE_T) * np.exp(_DE_LOG_X)
# rows per (rows x nodes) block, so one block of float64 stays near 4 MB
_DE_CHUNK_ROWS = 4_000_000 // (8 * _DE_T.size)


def decay_integral(coefs, expos) -> np.ndarray:
    """integral_0^inf exp(-sum_k coefs[r, k] u^expos[k]) du for every row r.

    coefs  (rows, K) non-negative coefficients, at least one positive per
           row; a row with an infinite coefficient integrates to 0
    expos  (K,) positive exponents shared by all rows

    A fixed 121-node exp-sinh rule (module docstring); there is no
    tolerance to set.  Returns (rows,).
    """
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    expos = np.asarray(expos, dtype=float)
    with np.errstate(over="ignore"):
        # u at which the fastest-growing term reaches 1; the exponent at the
        # scale u = s is between 1 and K, whatever the coefficients
        reach = np.max(coefs ** (1.0 / expos), axis=1)
    if not np.all(reach > 0.0):
        raise ValueError("every row needs a positive coefficient")
    out = np.zeros(reach.size)
    rows = np.flatnonzero(np.isfinite(reach))
    scale = 1.0 / reach[rows]
    # (u/s)^e at the nodes; the cap only matters for exponents above ~16
    powers = np.exp(np.minimum(np.outer(expos, _DE_LOG_X), 700.0))
    # einsum, not `@`: a BLAS call wakes OpenBLAS worker threads whose spinning
    # slowed the single-threaded work after it by up to 75% on a 2-vCPU machine
    with np.errstate(over="ignore"):
        for start in range(0, rows.size, _DE_CHUNK_ROWS):
            idx = rows[start : start + _DE_CHUNK_ROWS]
            s = scale[start : start + _DE_CHUNK_ROWS]
            exponent = np.einsum("rk,kn->rn", coefs[idx] * s[:, None] ** expos, powers)
            out[idx] = s * np.einsum("rn,n->r", np.exp(-exponent), _DE_W)
    return out


def z_integral(a, b: float, c: float):
    """Z(a, b, c) = a^(2/b) * integral_{(c/a)^(2/b)}^inf du / (1 + u^(b/2)).

    The building block of every interference term: a is the (scaled) SINR
    threshold, b the path-loss exponent of the interfering class, c the
    lower-bound offset (c=0 for closed interferers, which can be arbitrarily
    close).  Z(1,4,1) = pi/4 and Z(1,4,0) = pi/2.  `a` may be an array;
    the result has its shape (a float for a scalar).
    """
    if b <= 2.0:
        raise ValueError(f"path-loss exponent must exceed 2 (got {b})")
    a_arr = np.asarray(a, dtype=float)
    if c < 0.0 or not np.all(a_arr >= 0.0):
        raise ValueError(f"Z arguments must be non-negative (a={a}, c={c})")
    with np.errstate(divide="ignore", invalid="ignore"):
        if b == 4.0:
            # For exponent 4 the integrand 1/(1+u^2) has an arctan primitive.
            z = np.sqrt(a_arr) * (math.pi / 2.0 - np.arctan(np.sqrt(c / a_arr)))
        else:
            # integral_L^inf du/(1+u^p) with L=(c/a)^(2/b) reduces to an
            # incomplete Beta function whose argument simplifies to a/(a+c).
            p = b / 2.0
            t0 = a_arr / (a_arr + c) if not math.isinf(c) else np.zeros_like(a_arr)
            complete = scipy.special.beta(1.0 - 1.0 / p, 1.0 / p)
            frac = scipy.special.betainc(1.0 - 1.0 / p, 1.0 / p, t0)
            z = a_arr ** (2.0 / b) * complete * frac / p
    z = np.where(a_arr == 0.0, 0.0, np.where(np.isinf(a_arr), math.inf, z))
    return float(z) if z.ndim == 0 else z


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 arguments must be non-negative")
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0:
        return 0
    if k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def pv_area_moment(j: int) -> float:
    """j-th moment of the unit-density typical cell area, E[C(1)^j].

    Under the Gamma(3.5, 3.5) area law this is Gamma(3.5+j) / (Gamma(3.5)
    * 3.5^j); the first three moments are 1, 9/7, 2.020408...
    """
    if j < 0:
        raise ValueError("moment order must be non-negative")
    return math.exp(
        math.lgamma(TYPICAL_CELL_SHAPE + j)
        - math.lgamma(TYPICAL_CELL_SHAPE)
        - j * math.log(TYPICAL_CELL_SHAPE)
    )


# E[C(1)^2]: the area bias linking per-user and per-cell averages.  Kept in
# exact rational form; the literature's 1.28 is this value rounded.
AREA_BIAS_FACTOR = 9.0 / 7.0
