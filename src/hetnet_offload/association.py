"""Association probabilities and the tagged-AP load pmf.

The typical user at the origin picks, among open classes, the class whose
nearest AP maximizes T_mk * d^(-alpha_mk) with T = P * B.  With every class
an independent PPP, the chance that class (i,j) wins is

    A_ij = 2 pi lam_ij int_0^inf z exp(-pi sum_mk G_mk z^(2 a_ij / a_mk)) dz,
    G_mk = lam_mk * (T_mk / T_ij)^(2 / a_mk),

the sum running over open classes.  When all open classes share one
exponent the integral collapses to A_ij = lam_ij / sum G_mk.

Loads: with users a PPP of density lam_u, the number of *other* users
sharing the AP serving the typical user is negative-binomial: the paper
takes a Gamma(3.5, 3.5) area law for the typical cell of a unit-density
Voronoi tessellation, area-biased to Gamma(4.5, 3.5) for the cell a
random user lands in.  Its pmf is built in one buffer sized from the law's
mean and standard deviation, at a peak of about 1.6 times its own size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ApClass, ClassId, NetworkConfig
from .numerics import (
    TAGGED_CELL_SHAPE,
    TYPICAL_CELL_SHAPE,
    NumericalError,
    decay_integral,
)


def _serving_class(config: NetworkConfig, serving: ClassId):
    cls = config.class_for(serving)
    if not serving.is_open or cls.density <= 0.0:
        raise ValueError(f"serving class {serving.label()} must be open with positive density")
    return cls


def _g_terms(config: NetworkConfig, serving: ClassId) -> tuple[np.ndarray, np.ndarray]:
    """(G_mk, alpha_ij/alpha_mk) over the open classes, for integrands in u = z^2."""
    ref = _serving_class(config, serving)
    open_classes = config.open_classes()
    g = np.array([c.density * (c.weight / ref.weight) ** (2.0 / c.exponent) for c in open_classes])
    expos = np.array([ref.exponent / c.exponent for c in open_classes])
    return g, expos


def _associations(cls: ApClass, g: np.ndarray, expos: np.ndarray) -> np.ndarray:
    """A_ij of serving class `cls` for each row of G terms, in one kernel call."""
    return math.pi * cls.density * decay_integral(math.pi * g, expos)


def association_probabilities(config: NetworkConfig) -> dict[ClassId, float]:
    """A_ij for every open class.  Sums to 1 over a valid config."""
    return {cls.id: float(_associations(cls, *_g_terms(config, cls.id))[0]) for cls in config.open_classes()}


def rat_offload_fraction(config: NetworkConfig, rat: int) -> float:
    """Fraction of users served by any open class of one RAT."""
    shares = [a for cid, a in association_probabilities(config).items() if cid.rat == rat]
    if not shares:
        raise ValueError(f"RAT {rat} has no open class with positive density")
    return sum(shares)


# ---------------------------------------------------------------------------
# Cell load
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadDistribution:
    """PMF of the number of other users on the tagged AP, cut where its
    tails are negligible (see `_nb_pmf`).

    ratio    r = lam_u * A_ij / lam_ij
    pmf      pmf[n] = P(O = n) for n = 0 .. pmf.size - 1
    """

    ratio: float
    pmf: np.ndarray


_MAX_PMF_TERMS = 10_000_000  # 80 MB of pmf; r ~ 1e6 needs about that many
_TAIL_MASS = 1e-10
_TAIL_MEAN = 1e-9  # times (1 + r)
_PMF_BLOCK = 2**16  # longest block of terms computed at once
_SUM_ROW = 256  # terms summed on their own before the rows are summed
_TAIL_SDS = 16.0  # standard deviations past the mean that the pmf buffer holds at first


def _running_sum(steps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """[0, cumsum(steps)], summed in rows of _SUM_ROW terms and then across rows.

    A plain running sum adds tens of thousands of small terms to a much
    larger total, and its rounding drifts: by ~2e-13 over a 65k-term block
    of log ratios, which shifted the pmf's end by tens of terms at
    r = 7.35e4.  Summing short rows first keeps the drift near 2e-14.  The
    first row is numpy's plain running sum, bit for bit.  `out` is scratch
    of whole rows past steps.size, its values unread: sums are prefix sums.
    """
    out[0] = 0.0
    out[1 : steps.size + 1] = steps
    rows = out.reshape(-1, _SUM_ROW)
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return out[: steps.size + 1]


def _nb_pmf(r: float, shape: float) -> np.ndarray:
    """Negative-binomial pmf with Gamma mixing shape `shape` and rate 3.5.

    P(O = n) = Gamma(n+shape) / (Gamma(shape) n!) (1-q)^shape q^n with
    q = r/(3.5+r).  The pmf is built in blocks of terms, in log space, from
    the term ratio P(n+1)/P(n) = q (n+shape)/(n+1); each block carries on
    from the log coefficient at the end of the one before.

    The walk stops at the first n where the discarded tail mass P(O > n)
    is at most 1e-10 and the discarded tail of the mean,
    E[O; O > n] = shape r/3.5 - E[O; O <= n], at most 1e-9 * (1+r); both
    are read off the running sums of the blocks, so no block is computed
    past the one that holds that n.  The blocks fill one buffer, first
    sized for mean + _TAIL_SDS sd + 64 terms and doubled if short, whose
    untouched pages cost no memory; four block-sized scratch arrays serve
    every block, and the buffer is cut in place at n.  The build peaks at
    about 1.6 times the pmf's size (r = 7.35e4).
    """
    if not r >= 0.0:
        raise ValueError(f"load ratio must be non-negative (got {r})")
    rate = TYPICAL_CELL_SHAPE  # 3.5, the Gamma rate of both area laws
    q = r / (rate + r)
    if q == 0.0:  # r = 0, or so small that q underflows
        return np.ones(1)
    log_q = math.log(q) if q < 0.5 else -math.log1p(rate / r)
    log_p0 = -shape * math.log1p(r / rate)  # log P(O = 0)
    mean = shape * r / rate
    # about the terms the tail criteria need, so one block usually does
    block = min(_PMF_BLOCK, 64 + math.ceil(12.0 * r))
    sd = math.sqrt(mean * (1.0 + r / rate))
    buf = np.empty(max(block, math.ceil(min(64.0 + mean + _TAIL_SDS * sd, _MAX_PMF_TERMS))))
    n, tmp = np.arange(block, dtype=float), np.empty(block)
    log_sums, sums = np.zeros((2, -(-(block + 1) // _SUM_ROW) * _SUM_ROW))
    mass = first_moment = log_coef = 0.0
    start = 0
    while True:
        if start >= _MAX_PMF_TERMS:
            raise NumericalError(f"load pmf needs more than {_MAX_PMF_TERMS} terms (r={r})")
        stop = start + block
        if stop > buf.size:  # no view of buf outlives the line that takes it
            buf.resize(max(stop, min(2 * buf.size, _MAX_PMF_TERMS)), refcheck=False)
        # log Gamma(n+shape) / (Gamma(shape) n!): its value at the block's
        # start plus the running sum of log term ratios within the block
        log_pmf = _running_sum(np.log1p(np.divide(shape - 1.0, n[1:], out=tmp[1:]), out=tmp[1:]), log_sums)
        block_sum = float(log_pmf[-1])
        log_pmf += np.add(np.multiply(n, log_q, out=tmp), log_coef + log_p0, out=tmp)
        log_coef += block_sum + math.log1p((shape - 1.0) / stop)
        mass_upto = _running_sum(np.exp(log_pmf, out=buf[start:stop]), sums)[1:]
        moment_upto = _running_sum(np.multiply(n, buf[start:stop], out=tmp), log_sums)[1:]
        mass_upto += mass
        moment_upto += first_moment
        mass, first_moment = float(mass_upto[-1]), float(moment_upto[-1])
        done = np.subtract(1.0, mass_upto, out=mass_upto) <= _TAIL_MASS
        done &= np.subtract(mean, moment_upto, out=moment_upto) <= _TAIL_MEAN * (1.0 + r)
        if done.any():
            buf.resize(start + int(np.argmax(done)) + 1, refcheck=False)
            return buf
        n += block
        start = stop


def tagged_load_distribution(config: NetworkConfig, serving: ClassId) -> LoadDistribution:
    """Distribution of the *other* users sharing the typical user's AP.

    The tagged AP's cell is area-biased (the user already landed in it), so
    the mixing area is Gamma(4.5, 3.5) and the mean is (9/7) r rather
    than r.
    """
    cls = _serving_class(config, serving)
    r = config.user_density * float(_associations(cls, *_g_terms(config, serving))[0]) / cls.density
    return LoadDistribution(ratio=r, pmf=_nb_pmf(r, TAGGED_CELL_SHAPE))
