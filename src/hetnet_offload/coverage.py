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
a load law with ratio r = lam_u A_ij / lam_ij: the tagged-AP load pmf
(theorem1), or its mean alone (meanload).  SINR coverage is the same mix
with one load of weight 1, taken at the SINR thresholds themselves, so the
three are named routes of one computation ("sinr", "theorem1",
"meanload", from `_load_law`): per open class, S_ij at the class's
thresholds, mixed over the route's load law, weighted by association.
For equal exponents and no noise the kernel returns the integral in
closed form, so that there the mean-load route is the paper's closed form
by itself.

Every route evaluates a `_Stack`: configs that differ only in open-class
biases, so that a bias search or sweep is one pass; a single config is a
stack of one.  A bias changes coefficients, never an exponent, so per
serving class the stack needs one kernel call for its association
probabilities, which also give its load laws, and one for each block of
its coverage rows.  The work is split in two: a `_Stack`
holds what does not depend on the threshold (association, the G rows and
D offsets of each config, load laws), and its `evaluate` builds and
integrates the rows at a threshold grid, so that a percentile solve
prepares its config once and evaluates every step.  A row at an infinite
threshold, as a rate grid's highest loads need, is the exact 0.0 it
integrates to, and goes to neither Z nor the kernel: only the finite rows
get a threshold, built block by block in reused scratch.

A theorem1 rate integrates a threshold's loads only as far as they can
change its value.  S_ij(t) does not increase with t: the D and noise
coefficients grow with t and the G ones do not move, so the integrand
falls everywhere.  The SINR t_n = t(rho (n+1) / W) grows with the load n,
so past load N the rest of the mix, sum_{n >= N} pmf[n] S_ij(t_n), is at
most S_ij(t_{N-1}) T(N), where T(N) is the law's mass from N on (its
`tails`, summed once per law).  Both are known once row N-1 is
integrated, and the rows of a threshold stop at the first N where that
bound is at most _TAIL_CUT = 2^-60 of the sum mixed so far; a bound of 0
stops only where S_ij has underflowed to 0.0 or no mass is left.  The
dropped tail is thus below 2^-60 of the value, at most 1/128 of the
spacing of doubles there (2^-53 to 2^-52 relative): it can move a value
by at most one rounding, so that a printed digit (the CSV files' 9
significant ones, or a JSON float's shortest form) changes only where
the value lies within one rounding of the digit's edge.  A threshold's
first rows are its loads up to _FIRST_BITS of spectral efficiency, and
at least _FIRST_ROWS; if its last row does not stop it, the rows up to
where S_ij's asymptotic decay t^(-2/alpha_ij) predicts the cut join the
queue of rows the kernel calls take (`_Serving.mix`).  On a 5-point
CCDF over 1e4-1e8 bit/s that integrates 63% of the finite rows at 2000
users/km^2 on two classes and 74% on dual-RAT at 500 users/km^2; on 20
points, 72% on two_class_sir and 19% of the dense venue's 2,547,207.  Each
threshold's rows of one span are summed whole, by one einsum, as they
leave the kernel, so that a value does not depend on how the rows were
split into kernel calls or on the other configs of its stack, and no
(threshold x load) array is ever held.  The tagged-load pmf itself stops
where its own tail mass is below association._TAIL_MASS; that tail is
not mixed at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# association_probabilities and tagged_load_distribution are not called
# here, but benchmarks/tracing.py wraps them by this module's name
from .association import (  # noqa: F401
    _associations,
    _g_terms,
    _nb_pmf,
    association_probabilities,
    tagged_load_distribution,
)
from .model import ApClass, ClassId, NetworkConfig
from .numerics import AREA_BIAS_FACTOR, TAGGED_CELL_SHAPE, decay_integral, z_integral


class ClosedFormInapplicableError(ValueError):
    """A closed-form path was requested outside its validity conditions."""


def shannon_threshold(x):
    """SINR needed for spectral efficiency x: t(x) = 2^x - 1.

    Accepts a scalar or an array; past 1000 bits/s/Hz the threshold is inf,
    and 2^x is computed only up to there (an overflowing exp2 is slow).
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0.0):
        raise ValueError(f"spectral efficiency must be non-negative (got {x})")
    t = np.full(x_arr.shape, math.inf)
    finite = x_arr <= _FINITE_RATE
    np.subtract(np.exp2(x_arr, out=t, where=finite), 1.0, out=t, where=finite)
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class CcdfCurve:
    """A coverage curve over a common threshold grid.

    grid       thresholds, increasing
    values     P(metric > grid[k]) for the typical user
    per_class  conditional curves given the serving class
    weights    association probabilities; values = sum_ij weights * per_class
    """

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


def _load_law(route: str):
    """The load law of a route, as r -> (loads, weights, tails): the users on
    the serving AP at load ratio r = lam_u A_ij / lam_ij, the typical one
    included, and tails[n] = the weight of loads[n:], 0 past the last.

    sinr: the thresholds are SINRs, and the law is one load of weight 1;
    theorem1: n+1 with weight pmf[n] over the tagged-AP pmf's terms, which
    stop before any underflows to 0; meanload: the single mean 1 + (9/7) r
    with weight 1.  Any other route, None included, raises ValueError.
    """
    if route == "sinr":
        return lambda r: (np.ones(1), np.ones(1), np.array([1.0, 0.0]))
    if route == "theorem1":
        return _tagged_law
    if route == "meanload":
        return lambda r: (np.array([1.0 + AREA_BIAS_FACTOR * r]), np.ones(1), np.array([1.0, 0.0]))
    raise ValueError(f"unknown method {route!r}")


def _tagged_law(r: float):
    pmf = _nb_pmf(r, TAGGED_CELL_SHAPE)
    tails = np.zeros(pmf.size + 1)
    np.cumsum(pmf[::-1], out=tails[-2::-1])  # from the smallest terms up
    return np.arange(1.0, pmf.size + 1.0), pmf, tails


# Load-law terms one run of a stack holds: a bias search on two classes at
# 2000 users/km^2 has up to 19k pmf terms a config, and all 41 of its configs
# in one piece took the search's peak RSS from 33 to 81 MB.
_STACK_ROWS = 2**14
# Coefficients per kernel call, 96 KiB: 4,096 rows at three columns, fewer at
# more.  Each array of a call then stays below glibc's 128 KiB mmap threshold,
# so that calls reuse heap pages instead of faulting in fresh ones (550-670
# minor faults per 20-point two_class_sir rate CCDF in 16,384-row calls, under
# 10 now).  4,096 rows ran as fast as 8,192 and 16,384; 2,048 ran 6-30% slower.
_BLOCK_COEFS = 3 * 4096
# A threshold's rows stop at the first load N where S_ij(t_{N-1}) times the
# load law's mass from N is at most _TAIL_CUT of the sum mixed so far (module
# docstring).
_TAIL_CUT = 2.0**-60
# A threshold's first rows: its loads up to this spectral efficiency, where
# S_ij has reached its asymptotic decay for the prediction of the rest, and
# at least _FIRST_ROWS of them, so that a law that short takes one span.
_FIRST_BITS = 64.0
_FIRST_ROWS = 128
# t(x) = 2^x - 1 is inf past x = 1000 (`shannon_threshold`); a SINR is inf only at inf
_FINITE_RATE = 1000.0
_FINITE_SINR = np.finfo(float).max


class _Serving:
    """The threshold-free part of one open class's coverage, per config of a stack.

    probs   A_ij per config
    g       pi G_mk, one row per config
    d       (exponent, pi * scale, offset per config) per present class of
            the serving RAT, from `_d_terms`
    noise   sigma^2 / P_ij of the serving RAT
    expos   exponents of the g, d and noise columns of the integrand
    """

    def __init__(self, configs: Sequence[NetworkConfig], cls: ApClass):
        g_rows = [_g_terms(config, cls.id) for config in configs]
        g, g_expos = np.array([row for row, _ in g_rows]), g_rows[0][1]
        d_rows = [list(_d_terms(config, cls.id)) for config in configs]
        self.cls = cls
        self.probs = _associations(cls, g, g_expos)
        self.g = math.pi * g
        self.d = [
            (other.exponent, math.pi * scale, np.array([row[k][2] for row in d_rows]))
            for k, (other, scale, _) in enumerate(d_rows[0])
        ]
        self.noise = configs[0].noise_for(cls.id.rat) / cls.power
        expos = [g_expos, [cls.exponent / e for e, _, _ in self.d]]
        self.expos = np.concatenate(expos + ([[cls.exponent / 2.0]] if self.noise > 0.0 else []))

    def mix(self, first: int, x: np.ndarray, laws: list, rate: bool) -> np.ndarray:
        """Coverage of config first + b at each threshold x[k] (increasing),
        mixed over its load law laws[b] = (loads, weights, tails): out[b, k] =
        sum_n weights[n] S_ij(t), at SINR t = t(x[k] / W * loads[n]) for a rate
        and t = x[k] itself for a SINR.

        Each (config, threshold) takes its loads in increasing order, in
        spans of a queue that fills the kernel calls: first the loads up to
        _FIRST_BITS of spectral efficiency, and at least _FIRST_ROWS of
        them.  When a span's rows have left the kernel, a threshold whose
        last row certifies the cut (module docstring) is done; any other
        queues the rows up to where S's asymptotic decay, t^(-2/alpha_ij),
        predicts the cut.  A load at an infinite threshold is the 0.0 it
        integrates to, and no kernel row.  The rows go to the kernel in
        calls of at most _BLOCK_COEFS coefficients, streamed through one
        set of scratch arrays, and are mixed as they leave it
        (`_mix_call`).
        """
        q, limit = (x / self.cls.bandwidth, _FINITE_RATE) if rate else (x, _FINITE_SINR)
        sizes = [loads.size for loads, _, _ in laws]
        stop = np.empty((len(laws), x.size), dtype=np.intp)
        for b, (loads, _, _) in enumerate(laws):
            _finite_loads(q, loads, limit, out=stop[b])
        done = stop.copy()
        if max(sizes) > _FIRST_ROWS:
            # at q = 0, every load: the quotient is then 2^66, more than any law holds
            reach = np.maximum(_FIRST_BITS / np.maximum(q, 2.0**-60), _FIRST_ROWS)
            np.minimum(stop, reach, out=done, casting="unsafe")
        # as q increases, each config's first rows fall: the thresholds
        # taken whole come first, and join into one span, and those with no
        # finite load come last
        whole, partial = [], []
        for b, (row, size) in enumerate(zip(done.tolist(), sizes)):
            n = row.count(size)
            if n:
                whole.append((b, 0, n * size))
            for k in range(n, len(row)):
                if not row[k]:
                    break
                partial.append((b, k * size, k * size + row[k]))
        sums, last = np.zeros(stop.shape), np.zeros(stop.shape)
        rows = max(_BLOCK_COEFS // self.expos.size, 1)
        # coefficient columns contiguous, as the kernel wants them
        taus, coefs = np.empty(rows), np.empty((rows, self.expos.size), order="F")
        # the partial thresholds first, so that their next rows are known
        # while the whole ones fill the calls
        queue = deque(partial + whole)
        pieces, used, carry = [], 0, None
        while queue or pieces:
            if queue and used < rows:
                b, lo, hi = queue.popleft()
                m = min(hi - lo, rows - used)
                _products(taus[used : used + m], q, laws[b][0], lo)
                pieces.append((b, used, lo, m, hi))
                used += m
                if lo + m < hi:
                    queue.appendleft((b, lo + m, hi))
                continue
            carry, ended = self._mix_call(first, pieces, taus[:used], coefs[:used], laws, sums, last, rate, carry)
            pieces, used = [], 0
            for b, k in ended:
                m, tails = done[b, k], laws[b][2]
                if m == stop[b, k] or last[b, k] * tails[m] <= _TAIL_CUT * sums[b, k]:
                    continue
                # S falls by 2^-decay a load at large thresholds
                decay = 2.0 / self.cls.exponent * q[k]
                done[b, k] = _predicted_cut(m, stop[b, k], last[b, k], sums[b, k], decay, tails)
                queue.append((b, k * sizes[b] + m, k * sizes[b] + done[b, k]))
        return sums

    def _mix_call(self, first: int, pieces: list, taus, coefs, laws, sums, last, rate: bool, carry):
        """One kernel call: pieces (b, at, lo, m, hi) put rows lo..lo + m of
        a span of config b ending at hi at taus[at : at + m], and their
        values are mixed into sums[b] (`_mix`).  Returns the carry of `_mix`
        into the next call, and (b, k) for each span that ended, its last
        row's value in last[b, k]."""
        spans = []  # each config's rows of the call, which are contiguous in it
        for b, at, _, m, _ in pieces:
            if spans and spans[-1][0] == first + b:
                spans[-1] = (first + b, spans[-1][1], at + m)
            else:
                spans.append((first + b, at, at + m))
        values = self._coverage(taus, coefs, spans, rate)
        ended = []
        for b, at, lo, m, hi in pieces:
            weights = laws[b][1]
            carry = _mix(sums[b], values[at : at + m], weights, lo, hi, carry)
            if lo + m == hi:
                ended.append((b, (hi - 1) // weights.size))
                last[ended[-1]] = values[at + m - 1]
        return carry, ended

    def _coverage(self, taus: np.ndarray, coefs: np.ndarray, spans: list, rate: bool) -> np.ndarray:
        """S_ij at the rows of one kernel call, config b's at rows lo..hi of
        each span (b, lo, hi).  taus holds x / W * load for a rate, made
        SINRs here in place; coefs is the call's coefficient scratch.

        S_ij(tau) = pi lam_ij / A_ij * integral_0^inf exp(-sum_k c_k u^e_k) du
        in u = y^2, with pi G and pi D terms and, for a noisy RAT, the noise
        term tau sigma^2 / P u^(alpha/2): one row of coefficients per tau.
        """
        if rate:
            np.subtract(np.exp2(taus, out=taus), 1.0, out=taus)
        ng = self.g.shape[1]
        for b, lo, hi in spans:
            coefs[lo:hi, :ng] = self.g[b]
        # a D coefficient past the float range is inf, and its row integrates to 0
        with np.errstate(over="ignore"):
            for col, (e, scale, offsets) in enumerate(self.d, ng):
                np.multiply(z_integral(taus, e, _offsets(offsets, spans, taus.size)), scale, out=coefs[:, col])
        if self.noise > 0.0:
            np.multiply(taus, self.noise, out=coefs[:, -1])
        kernel = decay_integral(coefs, self.expos)
        for b, lo, hi in spans:
            kernel[lo:hi] *= math.pi * self.cls.density / self.probs[b]
        return kernel


def _mix(sums: np.ndarray, values: np.ndarray, weights: np.ndarray, lo: int, hi: int, carry):
    """Add values[i] * weights[n], at flat positions lo + i = k * L + n of a
    span ending at hi, to sums[k], with L = weights.size.

    A segment, one threshold's rows of a span, is summed whole by one
    einsum (see decay_integral), so that a sum does not depend on where
    kernel calls split its rows, nor on the other configs of a stack.  A
    segment that the values end inside is carried into the next call as
    (buffer, count), its values so far; a carry given here is continued
    first.  Returns the carry, or None.
    """
    size, end = weights.size, lo + values.size
    if carry is not None:
        buffer, count = carry
        k, n = divmod(lo - count, size)
        stop = min(hi, (k + 1) * size)
        take = min(end, stop) - lo
        buffer[count : count + take] = values[:take]
        if lo + take < stop:
            return buffer, count + take
        sums[k] += np.einsum("n,n->", buffer[: count + take], weights[n : n + count + take])
        values, lo = values[take:], stop
    while lo < end:
        k, n = divmod(lo, size)
        stop = min(hi, lo - n + size)
        if stop > end:
            buffer = np.empty(size)
            buffer[: end - lo] = values
            return buffer, end - lo
        if stop - lo < size:
            sums[k] += np.einsum("n,n->", values[: stop - lo], weights[n : n + stop - lo])
            values, lo = values[stop - lo :], stop
        else:  # whole rows, each its own segment
            whole = (end - lo) // size
            sums[k : k + whole] += np.einsum("rn,n->r", values[: whole * size].reshape(whole, size), weights)
            values, lo = values[whole * size :], lo + whole * size
    return None


def _predicted_cut(m: int, stop: int, last: float, head: float, decay: float, tails: np.ndarray) -> int:
    """Where a threshold's rows should stop, m of them mixed into `head`,
    the m-th of value `last`: the first n > m at which last 2^(-decay (n -
    m)) tails[n] <= _TAIL_CUT head, at most `stop`.  S falls by 2^-decay a
    load at large thresholds, where every term of the integrand grows as
    t^(2/alpha_ij); head stands in for the larger head at n.  The test
    only gets easier as n grows, so n is found by bisection."""
    bound = _TAIL_CUT * head
    if not bound > 0.0:
        return stop
    need = math.log2(last / bound)
    # past m + need / decay the first factor alone is small enough
    lo, hi = m + 1, stop if need >= decay * (stop - m) else m + math.ceil(need / decay)
    while lo < hi:
        n = (lo + hi) // 2
        if tails[n] == 0.0 or decay * (n - m) - math.log2(tails[n]) >= need:
            hi = n
        else:
            lo = n + 1
    return lo


def _finite_loads(q: np.ndarray, loads: np.ndarray, limit: float, out: np.ndarray) -> np.ndarray:
    """out[k] = how many of the loads (increasing) keep q[k] * load at most
    `limit`, for q increasing."""
    full = int((q * loads[-1]).searchsorted(limit, side="right"))
    some = full if loads.size == 1 else int((q * loads[0]).searchsorted(limit, side="right"))
    out[:full] = loads.size
    out[some:] = 0
    if some > full:
        qp = q[full:some]  # each has between 1 and loads.size - 1 finite loads
        n = np.clip(loads.searchsorted(limit / qp, side="right"), 1, loads.size - 1)
        # the quotient is rounded: step to where the product itself passes the limit
        n -= qp * loads[n - 1] > limit
        n += qp * loads[n] <= limit
        out[full:some] = n
    return out


def _products(dest: np.ndarray, q: np.ndarray, loads: np.ndarray, start: int) -> None:
    """dest[i] = q[k] * loads[n] at flat position start + i = k * loads.size + n
    of their outer product, a row's end, whole rows and a row's start."""
    size = loads.size
    k, n = divmod(start, size)
    if n:
        m = min(size - n, dest.size)
        np.multiply(loads[n : n + m], q[k], out=dest[:m])
        dest, k = dest[m:], k + 1
    whole = dest.size // size
    if whole:
        np.multiply.outer(q[k : k + whole], loads, out=dest[: whole * size].reshape(whole, size))
        dest, k = dest[whole * size :], k + whole
    if dest.size:
        np.multiply(loads[: dest.size], q[k], out=dest)


class _Stack:
    """A stack of configs, prepared for one route: what the threshold does
    not change, per open class.  `evaluate` then gives their coverage at a
    grid.

    The configs must differ only in open-class biases.  Each open class's
    association is computed once for the whole stack, and each config's
    load laws come from it, r = lam_u A_ij / lam_ij, built for runs of
    configs whose laws hold about _STACK_ROWS terms (at least one config a
    run).  The leading run's laws are kept, so that a stack of one builds
    them once for all its evaluations; later runs build theirs at each.
    """

    def __init__(self, configs: Sequence[NetworkConfig], route: str):
        self.law = _load_law(route)
        self.rate = route != "sinr"
        self.configs = configs
        self.classes = [_Serving(configs, cls) for cls in configs[0].open_classes()]
        self.leading = self._laws(0)

    def _laws(self, first: int) -> list:
        """The load laws of a run of configs from `first`, taken until they hold
        _STACK_ROWS terms: laws[k][i] is config first + k's for open class i."""
        laws, terms = [], 0
        user_density = self.configs[0].user_density
        for b in range(first, len(self.configs)):
            laws.append([self.law(user_density * sv.probs[b] / sv.cls.density) for sv in self.classes])
            terms += sum(loads.size for loads, _, _ in laws[-1])
            if terms >= _STACK_ROWS:
                break
        return laws

    def evaluate(self, thresholds):
        """Coverage per open class at its thresholds, and their
        association-weighted sum, for each config of the stack.

        thresholds  a 1-D grid shared by all classes, or None for each
                    class's own threshold from the config.  SINRs for the
                    sinr route; rates (bits/s) for the others, each needing
                    SINR t(rho / W * load) at every load of the class's law.

        Returns (values, per_class, weights): values[b, k] is config b's
        coverage at threshold k, per_class[cid][b, k] its coverage given
        class cid, and weights[cid][b] its association probability A_cid.
        """
        base = self.configs[0]
        own, what = (base.rate_threshold_for, "rate") if self.rate else (base.sinr_threshold_for, "SINR")
        grids = []
        for sv in self.classes:
            x = np.array([own(sv.cls.id)]) if thresholds is None else np.asarray(thresholds, dtype=float)
            _check_grid(x, what)
            grids.append(x)
        curves = [[] for _ in self.classes]
        first = 0
        while first < len(self.configs):
            laws = self.leading if first == 0 else self._laws(first)
            for sv, x, out, law in zip(self.classes, grids, curves, zip(*laws)):
                out.append(sv.mix(first, x, list(law), self.rate))
            first += len(laws)
        per_class = {sv.cls.id: c[0] if len(c) == 1 else np.concatenate(c) for sv, c in zip(self.classes, curves)}
        probs = {sv.cls.id: sv.probs for sv in self.classes}
        values = sum(probs[cid][:, None] * c for cid, c in per_class.items())
        return values, per_class, probs


def _offsets(offsets: np.ndarray, spans: list, rows: int):
    """The Z offset of each row of a kernel call; one float if its configs share it."""
    first = offsets[spans[0][0]]
    if all(offsets[b] == first for b, _, _ in spans):
        return float(first)
    c = np.empty(rows)
    for b, lo, hi in spans:
        c[lo:hi] = offsets[b]
    return c


def _curve(grid: np.ndarray, values, per_class, weights) -> CcdfCurve:
    """The CcdfCurve of a stack of one."""
    return CcdfCurve(
        grid,
        values[0],
        {cid: curve[0] for cid, curve in per_class.items()},
        {cid: float(w[0]) for cid, w in weights.items()},
    )


def _check_grid(grid: np.ndarray, what: str) -> None:
    if not (np.all(grid >= 0.0) and np.all(np.diff(grid) > 0.0)):
        raise ValueError(f"{what} thresholds must be non-negative and strictly increasing")


def sinr_coverage(config: NetworkConfig) -> float:
    """P(SINR > tau_ij) with each class checked against its own threshold."""
    return float(_Stack([config], "sinr").evaluate(None)[0][0, 0])


def sinr_ccdf(config: NetworkConfig, taus: Sequence[float]) -> CcdfCurve:
    """SINR CCDF over a common linear threshold grid applied to all classes.

    per_class[cid][k] is P(SINR > taus[k] | served by class cid).
    """
    grid = np.asarray(taus, dtype=float)
    return _curve(grid, *_Stack([config], "sinr").evaluate(grid))


# ---------------------------------------------------------------------------
# Rate coverage
# ---------------------------------------------------------------------------


def rate_coverage(config: NetworkConfig, rho_common: float | None = None) -> float:
    """P(rate > rho_ij): load-averaged SINR coverage, weighted by association.

    Thresholds come from config.rate_threshold unless `rho_common`
    overrides them all (used by percentile solving and CCDF sweeps).
    """
    return float(_Stack([config], "theorem1").evaluate(None if rho_common is None else [rho_common])[0][0, 0])


def rate_ccdf(config: NetworkConfig, rhos: Sequence[float]) -> CcdfCurve:
    """Rate CCDF over a common bits/s grid applied to all classes."""
    grid = np.asarray(rhos, dtype=float)
    return _curve(grid, *_Stack([config], "theorem1").evaluate(grid))


def rate_coverage_mean_load(config: NetworkConfig, rho_common: float | None = None) -> float:
    """Rate coverage with the load pmf collapsed to its mean.

    Each class sees the single effective load 1 + (9/7) r_ij; accurate when
    the load is concentrated, cheap always.
    """
    return float(_Stack([config], "meanload").evaluate(None if rho_common is None else [rho_common])[0][0, 0])


def rate_coverage_closed_form(config: NetworkConfig, rho_common: float | None = None) -> float:
    """Closed-form mean-load rate coverage.

    Valid only for interference-limited (zero noise) configs whose present
    classes share one path-loss exponent:

        R = sum_ij lam_ij / (sum_k D_ij(k, t_ij) + sum_mk G_ij(m,k)),
        t_ij = t(rho_ij / W_ij * (1 + 9/7 r_ij)).

    Raises ClosedFormInapplicableError otherwise.  Under these conditions
    the mean-load route takes exactly this closed form for every class, so
    this is `rate_coverage_mean_load` with the conditions checked.
    """
    use = "; use the meanload or theorem1 route"
    exps = {c.exponent for c in config.present_classes()}
    if len(exps) > 1:
        raise ClosedFormInapplicableError(f"exponents must all match (got {sorted(exps)}){use}")
    noisy = [rat for rat in config.rats() if config.noise_for(rat) != 0.0]
    if noisy:
        raise ClosedFormInapplicableError(f"noise must be zero for all RATs (RATs {noisy} are noisy){use}")
    return rate_coverage_mean_load(config, rho_common=rho_common)
