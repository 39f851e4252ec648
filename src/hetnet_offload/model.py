"""Network model primitives.

A deployment is a collection of access-point (AP) classes.  Each class is a
homogeneous PPP described by a (RAT, tier) pair, an access mode, a density,
a transmit power, a path-loss exponent, a selection bias and a bandwidth.
A typical user associates with the open class maximizing the biased average
received power, i.e. the class/AP pair attaining

    max_(m,k) P_mk * B_mk * d_mk^(-alpha_mk),

where d_mk is the distance to the nearest AP of class (m,k).  Closed classes
never serve the typical user but do interfere within their own RAT.

Canonical internal units: watts, hertz, kilometres, bits/s, linear ratios.
Decibel values appear only at the edges (config files, CLI, solver traces).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping

OPEN = "open"
CLOSED = "closed"

_ACCESS_MODES = (OPEN, CLOSED)


def db_to_linear(x_db: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear ratio to dB.  Requires x > 0."""
    if x <= 0.0:
        raise ValueError(f"cannot express non-positive ratio {x!r} in dB")
    return 10.0 * math.log10(x)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power in dBm to watts (e.g. 53 dBm -> 199.526 W)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass(frozen=True, order=True)
class ClassId:
    """Identifier of an AP class: RAT index, tier index, access mode.

    Ordering is lexicographic on (rat, tier, access); it is the tie-break
    order used whenever two classes offer numerically equal association
    weight.
    """

    rat: int
    tier: int
    access: str = OPEN

    def __post_init__(self):
        if self.access not in _ACCESS_MODES:
            raise ValueError(f"access must be one of {_ACCESS_MODES}, got {self.access!r}")

    @property
    def is_open(self) -> bool:
        return self.access == OPEN

    def label(self) -> str:
        """Compact display form, closed classes marked with a prime."""
        prime = "'" if self.access == CLOSED else ""
        return f"({self.rat},{self.tier}{prime})"


@dataclass(frozen=True)
class ApClass:
    """One AP class: a homogeneous PPP of access points.

    density    APs per km^2
    power      transmit power, watts
    exponent   path-loss exponent alpha (> 2 for all analytic results)
    bias       linear association bias (cell range expansion); 1.0 = 0 dB
    bandwidth  hertz, shared equally among the users of one AP
    """

    id: ClassId
    density: float
    power: float
    exponent: float
    bias: float = 1.0
    bandwidth: float = 10e6

    @property
    def weight(self) -> float:
        """Association weight T = P * B (watts)."""
        return self.power * self.bias


@dataclass(frozen=True)
class NetworkConfig:
    """A full scenario: AP classes, user density, noise and QoS thresholds.

    user_density     users per km^2 (0 disables load modelling)
    noise_power      per-RAT receiver noise, watts; missing RAT -> 0 W
    sinr_threshold   per open class, linear SINR threshold tau
    rate_threshold   per open class, rate threshold rho in bits/s

    Treat instances as immutable; derived configurations are built with
    the with_* helpers.  Every instance passes `validate`: building one
    that does not, by any route, raises ConfigValidationError.
    """

    classes: tuple[ApClass, ...]
    user_density: float = 0.0
    noise_power: Mapping[int, float] = field(default_factory=dict)
    sinr_threshold: Mapping[ClassId, float] = field(default_factory=dict)
    rate_threshold: Mapping[ClassId, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(self.classes, key=lambda c: c.id)))
        object.__setattr__(self, "noise_power", dict(self.noise_power))
        object.__setattr__(self, "sinr_threshold", dict(self.sinr_threshold))
        object.__setattr__(self, "rate_threshold", dict(self.rate_threshold))
        require_valid(self)

    # -- lookups ---------------------------------------------------------

    def class_for(self, cid: ClassId) -> ApClass:
        for cls in self.classes:
            if cls.id == cid:
                return cls
        raise KeyError(f"no class {cid.label()} in config")

    def open_classes(self) -> tuple[ApClass, ...]:
        """Open classes with positive density, in ClassId order."""
        return tuple(c for c in self.classes if c.id.is_open and c.density > 0.0)

    def present_classes(self) -> tuple[ApClass, ...]:
        """All classes (open and closed) with positive density."""
        return tuple(c for c in self.classes if c.density > 0.0)

    def classes_of_rat(self, rat: int) -> tuple[ApClass, ...]:
        return tuple(c for c in self.present_classes() if c.id.rat == rat)

    def rats(self) -> tuple[int, ...]:
        return tuple(sorted({c.id.rat for c in self.present_classes()}))

    def noise_for(self, rat: int) -> float:
        return float(self.noise_power.get(rat, 0.0))

    def sinr_threshold_for(self, cid: ClassId) -> float:
        try:
            return float(self.sinr_threshold[cid])
        except KeyError:
            raise KeyError(f"no SINR threshold for class {cid.label()}") from None

    def rate_threshold_for(self, cid: ClassId) -> float:
        try:
            return float(self.rate_threshold[cid])
        except KeyError:
            raise KeyError(f"no rate threshold for class {cid.label()}") from None

    # -- derived configurations ------------------------------------------

    def with_bias(self, cid: ClassId, bias: float) -> "NetworkConfig":
        """Copy with one class's linear bias replaced."""
        return self._with(cid, bias=bias)

    def with_density(self, cid: ClassId, density: float) -> "NetworkConfig":
        """Copy with one class's density replaced."""
        return self._with(cid, density=density)

    def _with(self, cid: ClassId, **change) -> "NetworkConfig":
        self.class_for(cid)  # KeyError when there is no such class
        return replace(self, classes=tuple(replace(c, **change) if c.id == cid else c for c in self.classes))


def validate(config: NetworkConfig) -> tuple[str, ...]:
    """Check a config against the model's admissibility rules: every failure's
    message, none when the config passes.

    Pure function: reports all failures, mutates nothing, and is idempotent.
    A field that is not a real number fails by name, and alone.
    """
    if not isinstance(config, NetworkConfig):
        return ("not a NetworkConfig",)
    try:
        return _range_failures(config)
    except TypeError:  # a range check met a value that is not a number: name each such value
        named = [("user density", config.user_density), *((f"RAT {r}: noise power", x) for r, x in config.noise_power.items())]
        named += [(f"{c.id.label()}: {f}", x) for c in config.classes for f, x in vars(c).items() if f != "id"]
        named += [(f"{cid.label()}: SINR threshold", x) for cid, x in config.sinr_threshold.items()]
        named += [(f"{cid.label()}: rate threshold", x) for cid, x in config.rate_threshold.items()]
        if failures := tuple(f"{name} must be a number (got {x!r})" for name, x in named if not isinstance(x, numbers.Real)):
            return failures
        raise


def _range_failures(config: NetworkConfig) -> tuple[str, ...]:
    failures: list[str] = []

    # every comparison with NaN is False, so each `not lo < x < inf` also rejects NaN
    if not 0.0 <= config.user_density < math.inf:
        failures.append(f"user density must be finite and >= 0 (got {config.user_density})")
    for rat, sigma2 in config.noise_power.items():
        if not 0.0 <= sigma2 < math.inf:
            failures.append(f"RAT {rat}: noise power must be finite and >= 0 W (got {sigma2})")

    for cls in config.classes:
        tag = cls.id.label()
        if cls.id.rat < 1 or cls.id.tier < 1:
            failures.append(f"{tag}: rat and tier indices must be >= 1")
        if not 0.0 <= cls.density < math.inf:
            failures.append(f"{tag}: density must be finite and >= 0 (got {cls.density})")
        if not 0.0 < cls.power < math.inf:
            failures.append(f"{tag}: power must be finite and > 0 W (got {cls.power})")
        if not 2.0 < cls.exponent < math.inf:
            failures.append(f"{tag}: exponent must exceed 2 and be finite (got {cls.exponent})")
        if not 0.0 < cls.bias < math.inf:
            failures.append(f"{tag}: bias must be finite and > 0 (got {cls.bias})")
        serves = cls.id.is_open and cls.density > 0.0
        if not math.isfinite(cls.bandwidth) or (serves and cls.bandwidth <= 0.0):
            failures.append(f"{tag}: bandwidth must be finite and > 0 Hz (got {cls.bandwidth})")
    # the classes are kept in ClassId order, so duplicates are neighbours
    failures += [f"duplicate class {a.id.label()}" for a, b in zip(config.classes, config.classes[1:]) if a.id == b.id]

    if not config.open_classes():
        failures.append("V_open empty: at least one open class needs positive density")

    for cid, tau in config.sinr_threshold.items():
        if not tau >= 0.0:
            failures.append(f"{cid.label()}: SINR threshold must be >= 0 (got {tau})")
    for cid, rho in config.rate_threshold.items():
        if not rho >= 0.0:
            failures.append(f"{cid.label()}: rate threshold must be >= 0 (got {rho})")

    return tuple(failures)


class ConfigValidationError(ValueError):
    """Raised when a config that fails `validate` is built or required."""

    def __init__(self, failures: tuple[str, ...]):
        self.failures = failures
        super().__init__("; ".join(failures))


def require_valid(config: NetworkConfig) -> NetworkConfig:
    if failures := validate(config):
        raise ConfigValidationError(failures)
    return config


def make_class(
    rat: int,
    tier: int,
    density: float,
    power_dbm: float,
    exponent: float,
    bias_db: float = 0.0,
    bandwidth: float = 10e6,
    access: str = OPEN,
) -> ApClass:
    """Convenience constructor taking dB-units, mirroring config files."""
    return ApClass(
        id=ClassId(rat, tier, access),
        density=density,
        power=dbm_to_watts(power_dbm),
        exponent=exponent,
        bias=db_to_linear(bias_db),
        bandwidth=bandwidth,
    )
