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
"""

from __future__ import annotations

import math
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
    """The load law of a route, as r -> (loads, weights): the users on the
    serving AP at load ratio r = lam_u A_ij / lam_ij, the typical one
    included.

    sinr: the thresholds are SINRs, and the law is one load of weight 1;
    theorem1: n+1 with weight pmf[n] over the tagged-AP pmf's terms, which
    stop before any underflows to 0; meanload: the single mean 1 + (9/7) r
    with weight 1.  Any other route, None included, raises ValueError.
    """
    if route == "sinr":
        return lambda r: (np.ones(1), np.ones(1))
    if route == "theorem1":
        return _tagged_law
    if route == "meanload":
        return lambda r: (np.array([1.0 + AREA_BIAS_FACTOR * r]), np.ones(1))
    raise ValueError(f"unknown method {route!r}")


def _tagged_law(r: float):
    pmf = _nb_pmf(r, TAGGED_CELL_SHAPE)
    return np.arange(1.0, pmf.size + 1.0), pmf


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

    def rows(self, first: int, x: np.ndarray, loads: list[np.ndarray], rate: bool) -> list[np.ndarray]:
        """S_ij of config first + b at each threshold x[k] (increasing) and load
        loads[b][n], as out[b][k * loads[b].size + n]: at SINR t(x[k] / W *
        load) for a rate, x[k] itself for a SINR.  0.0 at an infinite
        threshold, without a kernel row; the rest go to the kernel in calls
        of at most _BLOCK_COEFS coefficients, streamed through one set of
        scratch arrays.  As x increases, the finite loads of each x[k] are
        a prefix, and so no others get a threshold.
        """
        q, limit = (x / self.cls.bandwidth, _FINITE_RATE) if rate else (x, _FINITE_SINR)
        out, spans, total = [], [], 0
        for b, ld in enumerate(loads, first):
            out.append(np.zeros(q.size * ld.size))
            full, counts = _finite_loads(q, ld, limit)
            spans.append((b, ld, out[-1], 0, full * ld.size))
            spans += [(b, ld, out[-1], k * ld.size, k * ld.size + n) for k, n in enumerate(counts, full)]
            total += full * ld.size + sum(counts)
        size = min(max(_BLOCK_COEFS // self.expos.size, 1), total)
        taus = np.empty(size)
        coefs = np.empty((size, self.expos.size), order="F")  # columns contiguous, as the kernel wants them
        pieces, used = [], 0
        for b, ld, dest, start, stop in spans:
            while start < stop:
                m = min(stop - start, size - used)
                _products(taus[used : used + m], q, ld, start)
                pieces.append((b, used, dest[start : start + m]))
                used, start = used + m, start + m
                if used == size:
                    self._kernel_call(taus, coefs, pieces, rate)
                    pieces, used = [], 0
        if pieces:
            self._kernel_call(taus[:used], coefs[:used], pieces, rate)
        return out

    def _kernel_call(self, taus: np.ndarray, coefs: np.ndarray, pieces: list, rate: bool) -> None:
        """Write S_ij at the rows of each piece (b, lo, dest) of one kernel call
        to dest, from taus[lo : lo + dest.size] and config b's terms.  taus
        holds x / W * load for a rate, made SINRs here in place; coefs is
        the call's coefficient scratch.

        S_ij(tau) = pi lam_ij / A_ij * integral_0^inf exp(-sum_k c_k u^e_k) du
        in u = y^2, with pi G and pi D terms and, for a noisy RAT, the noise
        term tau sigma^2 / P u^(alpha/2): one row of coefficients per tau.
        """
        if rate:
            np.subtract(np.exp2(taus, out=taus), 1.0, out=taus)
        spans = [(b, lo, lo + dest.size) for b, lo, dest in pieces]
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
        for b, lo, dest in pieces:
            np.multiply(kernel[lo : lo + dest.size], math.pi * self.cls.density / self.probs[b], out=dest)


def _finite_loads(q: np.ndarray, loads: np.ndarray, limit: float):
    """Which loads (increasing) keep q[k] * load at most `limit`, for q
    increasing: (full, counts), every load for k < full, and the leading
    counts[j] loads for k = full + j, one entry per further k with any."""
    full = int((q * loads[-1]).searchsorted(limit, side="right"))
    some = full if loads.size == 1 else int((q * loads[0]).searchsorted(limit, side="right"))
    if some == full:
        return full, []
    qp = q[full:some]  # each has between 1 and loads.size - 1 finite loads
    n = np.clip(loads.searchsorted(limit / qp, side="right"), 1, loads.size - 1)
    # the quotient is rounded: step to where the product itself passes the limit
    n -= qp * loads[n - 1] > limit
    n += qp * loads[n] <= limit
    return full, n.tolist()


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
            terms += sum(loads.size for loads, _ in laws[-1])
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
                rows = sv.rows(first, x, [loads for loads, _ in law], self.rate)
                # einsum: see decay_integral
                out += [np.einsum("rn,n->r", r.reshape(x.size, -1), w) for r, (_, w) in zip(rows, law)]
            first += len(laws)
        per_class = {sv.cls.id: np.array(c) for sv, c in zip(self.classes, curves)}
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
