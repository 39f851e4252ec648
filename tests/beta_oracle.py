"""Slow references for the package's incomplete-beta table.

`numerics._incomplete_beta` evaluates B_x(s, 1-s) from `_beta_table`:
per interval of the series argument, a Taylor polynomial of the
hypergeometric series (DLMF 8.17.7).  This module keeps that series
itself, summed term by term: up to 54 terms, as many as the largest
argument of a block of 2048 elements needs, from a power matrix built by
doubling.  The tests hold the table to it within 2e-15 relative.

It also keeps the table's plain evaluation, `gather_incomplete_beta`:
every element's whole column (coefficients, centre, exponent, offset)
gathered at once, then Horner on the gathered rows.  The package streams
the same arithmetic through small scratch arrays; the tests hold it to
this one bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from hetnet_offload.numerics import _BETA_CELLS, _beta_table, _complete_beta

# Its coefficients fall and its argument w is at most 1/2, so after n terms
# the rest is below 2 w^n of the sum; n = 54 takes that to 2^-53 at w = 1/2.
BETA_TERMS = 54
_LOG_BETA_TOL = math.log(2.0**-54)
# Up to this many (terms x elements), every element of a block takes the
# terms its largest argument needs; past it, every element takes the first
# _BETA_HEAD and only the arguments that need more take the rest.
_BETA_FULL = 2**14
_BETA_HEAD = 8
_BETA_CHUNK = 2048


@lru_cache(maxsize=None)
def beta_coefs(s: float) -> np.ndarray:
    """Series coefficients c_k(e) = (e)_k / (k! (e+k)), rows e = s and e = 1-s.

    B_w(e, 1-e) = w^e sum_k c_k(e) w^k (DLMF 8.17.7 with b = 1-e).
    """
    k = np.arange(BETA_TERMS, dtype=float)
    rows = []
    for e in (s, 1.0 - s):
        pochhammer = np.cumprod(np.concatenate(([1.0], (e + k[:-1]) / (k[:-1] + 1.0))))
        rows.append(pochhammer / (e + k))
    return np.array(rows)


def _powers(w: np.ndarray, n: int) -> np.ndarray:
    """(n, w.size) array of w^k for k < n, by doubling blocks of rows."""
    p = np.empty((n, w.size))
    p[0] = 1.0
    p[1:2] = w
    m = 2  # rows below m are done
    while m < n:
        stop = min(2 * m - 1, n)
        np.multiply(p[1 : stop - m + 1], p[m - 1], out=p[m:stop])  # w^(j+1) w^(m-1)
        m = stop
    return p


def series_sums(coefs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coefs[j, k] w^k for both rows j, at every w in [0, 1/2]."""
    w_max = float(w.max())  # its terms: the least n with w^n <= 2^-54
    top = min(BETA_TERMS, math.ceil(_LOG_BETA_TOL / math.log(w_max))) if w_max > 0.0 else 1
    head = top if top * w.size <= _BETA_FULL else min(top, _BETA_HEAD)
    sums = coefs[:, :head] @ _powers(w, head)
    if head < top:
        wide = np.flatnonzero(w > math.exp(_LOG_BETA_TOL / head))
        sums[:, wide] += coefs[:, head:top] @ _powers(w[wide], top)[head:]
    return sums


def series_incomplete_beta(s: float, a: np.ndarray, c) -> np.ndarray:
    """B_x(s, 1-s) at x = a/(a+c), from the series on whichever side of
    x = 1/2 the argument lies; the arguments of `numerics._incomplete_beta`.
    """
    low = a <= c  # x <= 1/2
    w = np.minimum(a, c) / (a + c)  # x or y = c/(a+c)
    coefs = beta_coefs(s)
    part = np.empty(w.size)
    for i in range(0, w.size, _BETA_CHUNK):
        block = slice(i, i + _BETA_CHUNK)
        sums = series_sums(coefs, w[block])
        part[block] = np.where(low[block], sums[0], sums[1])
    part *= w ** np.where(low, s, 1.0 - s)
    return np.subtract(_complete_beta(s), part, out=part, where=~low)


def gather_incomplete_beta(s: float, a: np.ndarray, c) -> np.ndarray:
    """B_x(s, 1-s) at x = a/(a+c) from `numerics._beta_table`, each element's
    column gathered whole; the arguments of `numerics._incomplete_beta`."""
    table, centre, e, offset = _beta_table(s)
    w = np.minimum(a, c)
    w /= a + c  # x or y: 0 at a = 0 and at a = inf
    cell = w * (2 * _BETA_CELLS)
    cell = np.minimum(cell, _BETA_CELLS - 1, out=cell).astype(np.intp)
    columns = np.vstack([table, centre, e, offset]).take(2 * cell + (a > c), axis=1)
    coefs, (centre, e, offset) = columns[:-3], columns[-3:]
    t = w - centre
    out = coefs[-1].copy()
    for coef in coefs[-2::-1]:  # Horner
        out *= t
        out += coef
    out *= w**e
    out += offset
    return out
