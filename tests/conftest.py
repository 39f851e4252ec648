"""Shared config builders for the test suite.

The recurring scenarios:

* dual_rat_config   — macro cellular tier + dense open small cells + a
                      closed small-cell layer on the second RAT
* four_class_config — two RATs, four open classes, mixed exponents
* two_class_config  — the two-open-class equal-exponent SIR playground,
                      with two_class_sir_coverage its reduced SIR coverage
* single_class_config — one macro tier, the hand-checkable baseline
"""

from __future__ import annotations

from hetnet_offload import CLOSED, ClassId, NetworkConfig, db_to_linear, make_class
from hetnet_offload.numerics import z_integral


def dual_rat_config(
    bias_db: float = 0.0, user_density: float = 50.0, with_closed: bool = True
) -> NetworkConfig:
    """Macro (1,1) + open and closed small cells (2,3); mixed exponents."""
    classes = [
        make_class(1, 1, density=1.0, power_dbm=53.0, exponent=3.5),
        make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0, bias_db=bias_db),
    ]
    if with_closed:
        classes.append(
            make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0, access=CLOSED)
        )
    open_ids = [c.id for c in classes if c.id.is_open]
    return NetworkConfig(
        classes=tuple(classes),
        user_density=user_density,
        noise_power={},
        sinr_threshold={cid: 1.0 for cid in open_ids},
        rate_threshold={cid: 256e3 for cid in open_ids},
    )


def four_class_config(b23_db: float = 0.0, user_density: float = 50.0) -> NetworkConfig:
    """Two RATs, four open classes, three exponents, mid tiers biased 5 dB."""
    classes = (
        make_class(1, 1, density=1.0, power_dbm=53.0, exponent=3.5),
        make_class(1, 2, density=5.0, power_dbm=33.0, exponent=3.8, bias_db=5.0),
        make_class(2, 2, density=5.0, power_dbm=33.0, exponent=3.8, bias_db=5.0),
        make_class(2, 3, density=10.0, power_dbm=23.0, exponent=4.0, bias_db=b23_db),
    )
    return NetworkConfig(
        classes=classes,
        user_density=user_density,
        noise_power={},
        sinr_threshold={c.id: 1.0 for c in classes},
        rate_threshold={c.id: 256e3 for c in classes},
    )


def two_class_config(
    bias_db: float = 0.0,
    user_density: float = 200.0,
    density2: float = 10.0,
    tau1_db: float = 0.0,
    tau2_db: float = 0.0,
) -> NetworkConfig:
    """Two open classes on distinct RATs, common exponent, no noise."""
    classes = (
        make_class(1, 1, density=1.0, power_dbm=53.0, exponent=3.5),
        make_class(2, 3, density=density2, power_dbm=23.0, exponent=3.5, bias_db=bias_db),
    )
    return NetworkConfig(
        classes=classes,
        user_density=user_density,
        noise_power={},
        sinr_threshold={
            ClassId(1, 1): db_to_linear(tau1_db),
            ClassId(2, 3): db_to_linear(tau2_db),
        },
        rate_threshold={c.id: 256e3 for c in classes},
    )


def two_class_sir_coverage(config: NetworkConfig, bias_ratio: float) -> float:
    """SIR coverage of a two-open-class, equal-exponent, noise-free config
    at bias ratio b = B_2/B_1, from its reduced form

        S(b) = 1 / (Z1 + 1 + x) + 1 / (Z2 + 1 + 1/x),  x = a (b P_2/P_1)^(2/alpha),

    a = lam_2/lam_1: the brute-force objective that the closed-form
    SIR-optimal bias is held to.
    """
    c1, c2 = config.open_classes()
    alpha = c1.exponent
    z1 = z_integral(config.sinr_threshold_for(c1.id), alpha, 1.0)
    z2 = z_integral(config.sinr_threshold_for(c2.id), alpha, 1.0)
    x = (c2.density / c1.density) * (bias_ratio / (c1.power / c2.power)) ** (2.0 / alpha)
    return 1.0 / (z1 + 1.0 + x) + 1.0 / (z2 + 1.0 + 1.0 / x)


def single_class_config(
    alpha: float = 4.0,
    density: float = 1.0,
    user_density: float = 0.0,
    tau_db: float = 0.0,
    noise_w: float = 0.0,
) -> NetworkConfig:
    cls = make_class(1, 1, density=density, power_dbm=43.0, exponent=alpha)
    return NetworkConfig(
        classes=(cls,),
        user_density=user_density,
        noise_power={1: noise_w},
        sinr_threshold={cls.id: db_to_linear(tau_db)},
        rate_threshold={cls.id: 256e3},
    )
