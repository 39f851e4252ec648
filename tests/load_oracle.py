"""Unpruned reference for the Monte Carlo tagged-AP load count.

`montecarlo._tagged_user_count` prunes users by the octant bound before
any association check.  This routine associates every user with every
open class in full, with no pruning, and is the oracle the tests hold the
pruned count (and the restricted user draw) to.
"""

from __future__ import annotations

import numpy as np

from hetnet_offload.model import ApClass, ClassId, NetworkConfig


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
        nn = d2.argmin(axis=1)
        with np.errstate(divide="ignore"):
            w = cls.weight * d2[np.arange(len(users)), nn] ** (-cls.exponent / 2.0)
        better = w > best_w  # strict: earlier (smaller) ClassId wins ties
        best_w[better] = w[better]
        if cls.id == serving.id:
            on_server = better & (nn == server_idx)
        else:
            on_server &= ~better
    return int(on_server.sum())
