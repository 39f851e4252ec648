"""References for the tagged-AP load: its Monte Carlo count and its moments.

`montecarlo._tagged_user_count` prunes users by the octant bound before
any association check.  `tagged_user_count_reference` associates every
user with every open class in full, with no pruning, and is the oracle
the tests hold the pruned count (and the restricted user draw) to.

`nb_pmf_reference` is the tagged-AP load pmf as a list of blocks joined
at the end, the layout `association._nb_pmf` had before it wrote its
blocks into one buffer, and `running_sum_reference` its row-wise running
sum in a fresh array each call; the tests hold `_nb_pmf` and
`_running_sum` to them bit for bit.

`tagged_load_moment` gives the moments of the tagged-AP load law in
closed form, through Stirling numbers of the second kind and the moments
`pv_area_moment` of the Gamma(3.5, 3.5) cell-area law, for the tests to
hold the load pmf to.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from hetnet_offload.association import (
    _MAX_PMF_TERMS,
    _PMF_BLOCK,
    _SUM_ROW,
    _TAIL_MASS,
    _TAIL_MEAN,
    load_ratio,
)
from hetnet_offload.model import ApClass, ClassId, NetworkConfig
from hetnet_offload.numerics import TYPICAL_CELL_SHAPE, NumericalError


def tagged_user_count_reference(
    config: NetworkConfig,
    points: dict[ClassId, np.ndarray],
    serving: ApClass,
    server_idx: int,
    users: np.ndarray,
) -> int:
    """Unpruned full-association load count; oracle for _tagged_user_count."""
    if users.shape[0] == 0:
        return 0
    best_w = np.full(users.shape[0], -np.inf)
    on_server = np.zeros(users.shape[0], dtype=bool)
    for cls in config.open_classes():
        pts = points[cls.id]
        if pts.shape[0] == 0:
            continue
        d2 = (users[:, 0, None] - pts[None, :, 0]) ** 2 + (users[:, 1, None] - pts[None, :, 1]) ** 2
        nearest = d2.min(axis=1)
        with np.errstate(divide="ignore"):
            w = cls.weight * nearest ** (-cls.exponent / 2.0)
        better = w > best_w  # strict: earlier (smaller) ClassId wins ties
        best_w[better] = w[better]
        if cls.id == serving.id:
            # within its class the tagged AP wins a tie, whatever its index
            on_server = better & (d2[:, server_idx] == nearest)
        else:
            on_server &= ~better
    return int(on_server.sum())


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
    * 3.5^j) = prod_{i<j} (3.5+i)/3.5, taken as that product: it gives
    9/7 for j = 2 bit for bit (through lgamma and exp it is 2 ulp off).
    The first three moments are 1, 9/7, 99/49.
    """
    if j < 0:
        raise ValueError("moment order must be non-negative")
    moment = 1.0
    for i in range(j):
        moment *= (TYPICAL_CELL_SHAPE + i) / TYPICAL_CELL_SHAPE
    return moment


def tagged_load_moment(config: NetworkConfig, serving: ClassId, n: int) -> float:
    """E[O^n] for the tagged-AP other-user count.

    E[O^n] = sum_{k=1..n} r^k S(n,k) E[C(1)^(k+1)] with S the Stirling
    numbers of the second kind; n = 1 gives the (9/7) r mean.
    """
    if n < 0:
        raise ValueError("moment order must be non-negative")
    if n == 0:
        return 1.0
    r = load_ratio(config, serving)
    return sum(r**k * stirling2(n, k) * pv_area_moment(k + 1) for k in range(1, n + 1))


def running_sum_reference(steps: np.ndarray) -> np.ndarray:
    """[0, cumsum(steps)], summed in rows of _SUM_ROW terms and then across rows.

    A plain running sum adds tens of thousands of small terms to a much
    larger total, and its rounding drifts: by ~2e-13 over a 65k-term block
    of log ratios, which shifted the pmf's end by tens of terms at
    r = 7.35e4.  Summing short rows first keeps the drift near 2e-14.  The
    first row is numpy's plain running sum, bit for bit.
    """
    sums = np.zeros(-(-(steps.size + 1) // _SUM_ROW) * _SUM_ROW)
    sums[1 : steps.size + 1] = steps
    rows = sums.reshape(-1, _SUM_ROW)
    np.cumsum(rows, axis=1, out=rows)
    if len(rows) > 1:
        rows[1:] += np.cumsum(rows[:-1, -1])[:, None]
    return sums[: steps.size + 1]


def nb_pmf_reference(r: float, shape: float) -> np.ndarray:
    """Negative-binomial pmf with Gamma mixing shape `shape` and rate 3.5.

    P(O = n) = Gamma(n+shape) / (Gamma(shape) n!) (1-q)^shape q^n with
    q = r/(3.5+r).  The pmf is built in blocks of terms, in log space, from
    the term ratio P(n+1)/P(n) = q (n+shape)/(n+1); each block carries on
    from the log coefficient at the end of the one before.

    The walk stops at the first n where the discarded tail mass P(O > n)
    is at most 1e-10 and the discarded tail of the mean,
    E[O; O > n] = shape r/3.5 - E[O; O <= n], at most 1e-9 * (1+r); both
    are read off the running sums of the blocks, so no block is computed
    past the one that holds that n.
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
    blocks = []
    mass = first_moment = log_coef = 0.0
    start = 0
    while True:
        if start >= _MAX_PMF_TERMS:
            raise NumericalError(f"load pmf needs more than {_MAX_PMF_TERMS} terms (r={r})")
        stop = start + block
        n = np.arange(start, stop, dtype=float)
        # log Gamma(n+shape) / (Gamma(shape) n!): its value at the block's
        # start plus the running sum of log term ratios within the block
        log_pmf = running_sum_reference(np.log1p((shape - 1.0) / n[1:]))
        block_sum = float(log_pmf[-1])
        log_pmf += n * log_q + (log_coef + log_p0)
        log_coef += block_sum + math.log1p((shape - 1.0) / stop)
        pmf = np.exp(log_pmf)
        mass_upto = mass + running_sum_reference(pmf)[1:]
        moment_upto = first_moment + running_sum_reference(n * pmf)[1:]
        done = (1.0 - mass_upto <= _TAIL_MASS) & (mean - moment_upto <= _TAIL_MEAN * (1.0 + r))
        if done.any():
            blocks.append(pmf[: int(np.argmax(done)) + 1])
            return np.concatenate(blocks)
        mass, first_moment = float(mass_upto[-1]), float(moment_upto[-1])
        blocks.append(pmf)
        start = stop
