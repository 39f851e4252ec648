"""References for the tagged-AP load: its Monte Carlo count and its moments.

`montecarlo._tagged_user_count` prunes users by the octant bound before
any association check.  `tagged_user_count_reference` associates every
user with every open class in full, with no pruning, and is the oracle
the tests hold the pruned count (and the restricted user draw) to.

`tagged_load_moment` gives the moments of the tagged-AP load law in
closed form, through Stirling numbers of the second kind and the moments
`pv_area_moment` of the Gamma(3.5, 3.5) cell-area law, for the tests to
hold the load pmf to.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from hetnet_offload.association import load_ratio
from hetnet_offload.model import ApClass, ClassId, NetworkConfig
from hetnet_offload.numerics import TYPICAL_CELL_SHAPE


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
