"""Numerical kernels shared by the analytic modules.

Everything here is deterministic: same inputs, same outputs, no global
state besides the memo of incomplete-beta tables, one per exponent.

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
negligible.  When every exponent is 1 (equal path-loss exponents, no
noise) the integral is 1 / sum_k c_k, and the kernel returns that.

The rule's upper nodes mostly add exact zeros, and the kernel skips
them.  Past u = s the exponent is at least (u/s)^e_min, so from the
first node where e_min pi/2 sinh t reaches log 746 on, exp(-exponent) is
0.0 (it is from 745.14 on): those nodes are dropped, which keeps 93-95
of the 121 on the shipped configs.  Of the nodes kept, every exponent
past 700 is clamped to 700 before the exp.  From the least normal's
edge, 708.4, on, exp(-x) is subnormal or 0.0, and numpy's exp takes a
slow path for it: about 120 ns an element, against 0.9 ns in range and
4 ns for -inf (numpy 2.4.6, AVX-512).  A clamped node adds at most
e^-700 times its weight, below 1e-280, while every row's sum is at
least about 0.1 e^-K, since its exponent at u = s is at most K: no dead
node moves a bit of a row.  On every call checked the results were bit
for bit those of all 121 nodes.  Blocks of rows share one buffer of
about 1 MB.  The 17,350-row call of a 5-point rate CCDF on dual-RAT at
500 users/km^2 took 21.1 ms on all nodes and takes 5.2 ms (CPU medians,
2-vCPU Xeon).  On the calls of that CCDF with the tail cut off, marking
the dead exponents as inf from 746 on took 5.07 ms, clamping them 4.74
ms, and clamping the arguments that negated coefficients give directly
takes 4.40 ms, bit for bit the same.

The interference kernel `z_integral` is an incomplete beta function
B_x(s, 1-s), from its hypergeometric series (DLMF 8.17.7) on whichever
side of 1/2 its argument lies, with B(s, 1-s) = pi / sin(pi s) (DLMF
5.12.1 with 5.5.3).  The series is tabulated once per exponent, so that
an element takes its interval's eight coefficients and a Horner
evaluation, whatever the others.  Blocks of 4,096 elements share a few
32 KiB scratch arrays, below glibc's 128 KiB mmap threshold, so that a
call reuses heap pages rather than mapping and faulting in fresh ones.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache

import numpy as np


# Shape parameters of the Gamma approximation to the (area-weighted) Poisson
# Voronoi cell area at unit density: C(1) ~ Gamma(3.5, rate 3.5), and the
# cell containing an independent uniform point ~ Gamma(4.5, rate 3.5).
TYPICAL_CELL_SHAPE = 3.5
TAGGED_CELL_SHAPE = TYPICAL_CELL_SHAPE + 1.0  # area bias raises the Gamma shape by one
# E[C(1)^2] = 9/7: the area bias, the mean area of the cell a random user
# lands in (the literature's 1.28 is this value rounded).
AREA_BIAS_FACTOR = TAGGED_CELL_SHAPE / TYPICAL_CELL_SHAPE


class NumericalError(RuntimeError):
    """A numerical routine failed."""


class SolverError(RuntimeError):
    """An offload solver could not bracket or reach its target."""


_DBL_MAX = np.finfo(float).max
_DE_T = np.linspace(-4.0, 4.0, 121)
_DE_LOG_X = 0.5 * math.pi * np.sinh(_DE_T)  # log(u / s) at the nodes
_DE_W = (_DE_T[1] - _DE_T[0]) * 0.5 * math.pi * np.cosh(_DE_T) * np.exp(_DE_LOG_X)
# exp(-x) is exactly 0.0 from x = 745.14 on (below half the least subnormal,
# 2^-1075); 746 leaves room for rounding in the computed exponent.  Nodes
# whose exponent is at least this are dropped.
_DE_DEAD = 746.0
# Kept exponents are clamped here: past 708.4 exp(-x) is subnormal and slow
# to compute, and e^-700 times any node's weight moves no bit of a row
# (module docstring)
_DE_CLAMP = 700.0
_LOG_DEAD = math.log(_DE_DEAD)
_DE_LOG_X_LIST = _DE_LOG_X.tolist()
# rows per (rows x nodes) block, so one block of float64 stays near 1 MB and
# in a 2 MB L2 cache (4 MB blocks took 1.6x as long)
_DE_CHUNK_ROWS = 1_000_000 // (8 * _DE_T.size)


def decay_integral(coefs, expos) -> np.ndarray:
    """integral_0^inf exp(-sum_k coefs[r, k] u^expos[k]) du for every row r.

    coefs  (rows, K) non-negative coefficients, at least one positive per
           row; a row with an infinite coefficient integrates to 0
    expos  (K,) positive exponents shared by all rows

    When every exponent is 1 the integral is 1 / sum_k coefs[r, k];
    otherwise a fixed 121-node exp-sinh rule (module docstring), with no
    tolerance to set, that skips the nodes whose integrand value is
    exactly 0.0 and clamps the exp arguments that can change no bit.
    Returns (rows,).
    """
    coefs = np.atleast_2d(np.asarray(coefs, dtype=float))
    expos = np.asarray(expos, dtype=float)
    with np.errstate(over="ignore"):  # an inf coefficient, or sum of them, integrates to 0
        if (expos == 1.0).all():
            # decided before any per-element work: this is the whole cost of an
            # equal-exponent, noise-free coverage call
            total = coefs.sum(axis=1)
            if not (total > 0.0).all():
                raise ValueError("every row needs a positive coefficient")
            return 1.0 / total
        # u at which the fastest-growing term reaches 1; the exponent at the
        # scale u = s is between 1 and K, whatever the coefficients
        reach = (coefs ** (1.0 / expos)).max(axis=1)
        if not (reach > 0.0).all():
            raise ValueError("every row needs a positive coefficient")
        out = np.zeros(reach.size)
        rows = np.isfinite(reach).nonzero()[0]
        scale = 1.0 / reach[rows]
        live = _live_nodes(expos)
        # (u/s)^e at the live nodes; the cap only matters for exponent ratios above ~100
        powers = np.exp(np.minimum(np.outer(expos, _DE_LOG_X[:live]), 700.0))
        weights = _DE_W[:live]
        # one buffer for every block: a fresh temporary this large is mapped
        # and page-faulted in anew at each allocation
        values = np.empty((min(rows.size, _DE_CHUNK_ROWS), live))
        for start in range(0, rows.size, _DE_CHUNK_ROWS):
            idx = rows[start : start + _DE_CHUNK_ROWS]
            s = scale[start : start + _DE_CHUNK_ROWS]
            # s^e capped below overflow, so that a zero coefficient adds 0
            # where s^e overflows (0 * inf would be nan)
            scaled = coefs[idx] * np.minimum(s[:, None] ** expos, _DBL_MAX)
            block = values[: idx.size]
            # einsum, not `@`: a BLAS call wakes OpenBLAS worker threads whose
            # spinning slowed the single-threaded work after it by up to 75%
            # on a 2-vCPU machine.  The package loads OpenBLAS with one thread
            # (__init__.py), but a process that imported numpy first has them.
            # The negated coefficients give the exp's arguments, negated
            # exponents, exactly, without a pass over the block.
            np.einsum("rk,kn->rn", np.negative(scaled, out=scaled), powers, out=block)
            # numpy's exp is slow where its result is subnormal (module
            # docstring): the dead exponents are clamped to an in-range one
            np.maximum(block, -_DE_CLAMP, out=block)
            np.exp(block, out=block)
            out[idx] = s * np.einsum("rn,n->r", block, weights)
    return out


def _live_nodes(expos: np.ndarray) -> int:
    """How many leading nodes can have a non-zero integrand value.

    Past u = s the term that reaches 1 there alone makes the exponent at
    least (u/s)^e_min, so from the first node where that reaches _DE_DEAD
    on, every integrand value is 0.0.
    """
    return bisect.bisect_left(_DE_LOG_X_LIST, _LOG_DEAD / min(expos.tolist()))


# The incomplete-beta series sum_k c_k(e) w^k (DLMF 8.17.7, w <= 1/2) to _BETA_TERMS
# terms (they fall: the rest is below 2 w^54 <= 2^-53 of it), as degree-_BETA_DEGREE
# Taylor polynomials about the centres of _BETA_CELLS equal intervals of w (remainder ~1e-18).
_BETA_TERMS = 54
_BETA_CELLS = 64
_BETA_DEGREE = 7
_BETA_CHUNK = 4096  # elements per block: 32 KiB per scratch array


@lru_cache(maxsize=None)
def _beta_table(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table, centre, e, offset) of B_x(s, 1-s) = offset + w^e p(w - centre).

    Column 2k + h stands for cell k < _BETA_CELLS of w, centred at (k + 1/2)
    / (2 _BETA_CELLS), in half h: the table's rows are p's coefficients of
    degree 0.._BETA_DEGREE, and centre, e and offset hold each column's
    values.  The lower half (h = 0) holds x = w, with e = s and offset 0; the
    upper holds x > 1/2 by y = w, as B(s, 1-s) - B_y(1-s, s): e = 1-s,
    offset B(s, 1-s), p negated.  p is the Taylor polynomial about the
    centre m of the series in B_w(e, 1-e) = w^e sum_k c_k(e) w^k, c_k(e) =
    (e)_k / (k! (e+k)) (DLMF 8.17.7 with b = 1-e): its j-th coefficient is
    sum_k c_k(e) C(k, j) m^(k-j).
    """
    k = np.arange(_BETA_TERMS, dtype=float)
    j = np.arange(_BETA_DEGREE + 1)[:, None]
    centres = (np.arange(_BETA_CELLS) + 0.5) / (2 * _BETA_CELLS)
    binomials = np.array([[math.comb(n, i) for n in range(_BETA_TERMS)] for i in range(_BETA_DEGREE + 1)], dtype=float)
    taylor = binomials * centres[:, None, None] ** np.maximum(k - j, 0.0)  # (cells, degree + 1, terms)
    halves = []
    for e, sign in ((s, 1.0), (1.0 - s, -1.0)):
        coefs = sign * np.cumprod(np.concatenate(([1.0], (e + k[:-1]) / (k[:-1] + 1.0)))) / (e + k)
        halves.append(np.einsum("ijk,k->ji", taylor, coefs))  # einsum: see decay_integral
    table = np.stack(halves, axis=-1).reshape(_BETA_DEGREE + 1, 2 * _BETA_CELLS)
    return table, np.repeat(centres, 2), np.tile([s, 1.0 - s], _BETA_CELLS), np.tile([0.0, _complete_beta(s)], _BETA_CELLS)


def _complete_beta(s: float) -> float:
    """B(s, 1-s) = pi / sin(pi s) for 0 < s < 1."""
    return math.pi / math.sin(math.pi * s)


def _incomplete_beta(s: float, a: np.ndarray, c) -> np.ndarray:
    """B_x(s, 1-s) at x = a/(a+c) for a 1-D array a >= 0; 0 < s < 1, and c
    a float in (0, inf) or an array of a's size (0 and inf allowed, but not
    where a equals them).

    Below x = 1/2 the series runs in x; above it, in y = c/(a+c) taken
    directly, not as 1 - x, so that the series argument never exceeds 1/2
    and keeps its digits.  An element's value depends on its arguments alone.

    Blocks of _BETA_CHUNK elements go through reused scratch arrays, with
    each element's centre, exponent and offset looked up by its column (its
    cell and half) and p's coefficients gathered one degree at a time, so
    that no temporary grows with the array.
    """
    table, centres, exponents, offsets = _beta_table(s)
    part = np.empty(a.size)
    size = min(a.size, _BETA_CHUNK)
    w, t, g = np.empty(size), np.empty(size), np.empty(size)
    column, upper = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    scalar = isinstance(c, float)
    # the indices are in range: mode="wrap" spares the copy of `out` that take's default makes
    for i in range(0, a.size, _BETA_CHUNK):
        ai, out = a[i : i + _BETA_CHUNK], part[i : i + _BETA_CHUNK]
        ci = c if scalar else c[i : i + _BETA_CHUNK]
        wi, ti, gi, col, up = (w, t, g, column, upper) if ai.size == size else (v[: ai.size] for v in (w, t, g, column, upper))
        np.minimum(ai, ci, out=wi)
        wi /= np.add(ai, ci, out=ti)  # x or y: 0 at a = 0 and at a = inf
        np.minimum(np.multiply(wi, 2.0 * _BETA_CELLS, out=ti), _BETA_CELLS - 1.0, out=ti)
        np.copyto(col, ti, casting="unsafe")  # the cell, truncated as astype does
        col += col
        col += np.greater(ai, ci, out=up)  # the column of the cell's half: 1 where x > 1/2
        np.subtract(wi, centres.take(col, out=ti, mode="wrap"), out=ti)
        np.power(wi, exponents.take(col, out=gi, mode="wrap"), out=wi)  # w^e
        table[-1].take(col, out=out, mode="wrap")
        for coefs in table[-2::-1]:  # Horner
            out *= ti
            out += coefs.take(col, out=gi, mode="wrap")
        out *= wi
        out += offsets.take(col, out=gi, mode="wrap")
    return part


def z_integral(a, b: float, c):
    """Z(a, b, c) = a^(2/b) * integral_{(c/a)^(2/b)}^inf du / (1 + u^(b/2)).

    The building block of every interference term: a is the (scaled) SINR
    threshold, b the path-loss exponent of the interfering class, c the
    lower-bound offset (c=0 for closed interferers, which can be arbitrarily
    close).  Z(1,4,1) = pi/4 and Z(1,4,0) = pi/2.  `a` and `c` may be
    arrays that broadcast together, an array `c` holding one offset per
    element of `a`; the result has their broadcast shape (a float when
    both are scalars).
    """
    if b <= 2.0:
        raise ValueError(f"path-loss exponent must exceed 2 (got {b})")
    a_arr = np.asarray(a, dtype=float)
    c_arr = np.asarray(c, dtype=float)
    if not ((c >= 0.0) if c_arr.ndim == 0 else (c_arr >= 0.0).all()) or not (a_arr >= 0.0).all():
        raise ValueError(f"Z arguments must be non-negative (a={a}, c={c})")
    s = 1.0 - 2.0 / b
    if b == 4.0:
        # For exponent 4 the integrand 1/(1+u^2) has an arctan primitive.
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.sqrt(a_arr) * (math.pi / 2.0 - np.arctan(np.sqrt(c_arr / a_arr)))
        z = np.where(a_arr == 0.0, 0.0, np.where(np.isinf(a_arr), math.inf, z))
    elif c_arr.ndim == 0 and math.isinf(c):
        z = np.where(np.isinf(a_arr), math.inf, 0.0)
    elif c_arr.ndim == 0 and c == 0.0:
        z = _complete_beta(s) * a_arr ** (1.0 - s) * (1.0 - s)  # the order of the general case's products
    else:
        # integral_L^inf du/(1+u^p) with L=(c/a)^(1/p) is (1/p) B_x(1-1/p, 1/p)
        # with x = a/(a+c) and p = b/2 = 1/(1-s)
        if c_arr.ndim:
            a_arr, c_arr = np.broadcast_arrays(a_arr, c_arr)
            # the series also holds at c = 0 and c = inf, but not where a = c
            # there (x = 0/0); at a = 0 or inf, Z is 0 or inf whatever c is
            c_arr = np.where((a_arr == c_arr) & ((c_arr == 0.0) | np.isinf(c_arr)), 1.0, c_arr).ravel()
        z = _incomplete_beta(s, a_arr.ravel(), c_arr if c_arr.ndim else float(c)).reshape(a_arr.shape)
        z *= a_arr ** (1.0 - s)
        z *= 1.0 - s
    return float(z) if z.ndim == 0 else z
