"""Reference values written apart from the package, from the model's formulas.

Nothing here imports `hetnet_offload`: a scenario is described by plain
per-class tuples, so an error in the package cannot leak into its oracle.

Model (see the docstrings of the package's `coverage` and `association`):

    A_ij     = 2 pi lam_ij int_0^inf y exp(-pi sum_mk G_mk y^(2 a_ij/a_mk)) dy
    S_ij(t)  = (2 pi lam_ij / A_ij) int_0^inf y exp(-t s_i y^a_ij / P_ij
                 - pi [sum_k D_k(t) y^(2 a_ij/a_k) + sum_mk G_mk y^(2 a_ij/a_mk)]) dy
    G_mk     = lam_mk (T_mk / T_ij)^(2/a_mk),          T = P * B, open classes
    D_k(t)   = lam_k (P_k/P_ij)^(2/a_k) Z(t, a_k, c_k), classes of the serving RAT,
               c_k = B_k/B_ij for open interferers and 0 for closed ones
    Z(a,b,c) = a^(2/b) int_{(c/a)^(2/b)}^inf du / (1 + u^(b/2))

Rates: the other users on the tagged AP are negative binomial with shape
4.5 and success probability 3.5/(3.5 + r), r = lam_u A_ij / lam_ij, and
R(rho) = sum_ij A_ij sum_n P(O=n) S_ij(2^(rho (n+1)/W) - 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.integrate

_REL = 1e-11
_ABS = 0.0
_LIMIT = 500
TAIL_MASS = 1e-13  # load-pmf mass left outside the summed window


@dataclass(frozen=True)
class Cls:
    rat: int
    tier: int
    open: bool
    density: float  # per km^2
    power: float  # W
    alpha: float
    bias: float  # linear
    bandwidth: float  # Hz


@dataclass(frozen=True)
class Scenario:
    classes: tuple[Cls, ...]
    users: float  # per km^2
    noise: dict  # rat -> W
    rate_threshold: dict  # (rat, tier) -> bps, open classes that set one

    def open_classes(self) -> tuple[Cls, ...]:
        return tuple(c for c in self.classes if c.open and c.density > 0.0)

    def with_bias(self, rat: int, tier: int, bias: float) -> "Scenario":
        classes = tuple(
            Cls(c.rat, c.tier, c.open, c.density, c.power, c.alpha, bias, c.bandwidth)
            if (c.rat, c.tier, c.open) == (rat, tier, True)
            else c
            for c in self.classes
        )
        return Scenario(classes, self.users, self.noise, self.rate_threshold)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file (the CLI's JSON schema) without the package."""
    raw = json.loads(Path(path).read_text())
    classes = []
    for c in raw["classes"]:
        classes.append(
            Cls(
                rat=int(c["rat"]),
                tier=int(c["tier"]),
                open=c.get("access", "open") == "open",
                density=float(c["density_per_km2"]),
                power=10.0 ** ((float(c["power_dbm"]) - 30.0) / 10.0),
                alpha=float(c["alpha"]),
                bias=10.0 ** (float(c.get("bias_db", 0.0)) / 10.0),
                bandwidth=float(c.get("bandwidth_hz", 10e6)),
            )
        )
    noise = {
        int(k): 0.0 if v is None else 10.0 ** ((float(v) - 30.0) / 10.0)
        for k, v in (raw.get("noise_dbm_per_rat") or {}).items()
    }
    thresholds = {
        (int(c["rat"]), int(c["tier"])): float(c["rate_threshold_bps"])
        for c in raw["classes"]
        if c.get("rate_threshold_bps") is not None
    }
    return Scenario(tuple(classes), float(raw.get("users_per_km2", 0.0)), noise, thresholds)


def _semi_infinite(f, scale: float):
    """int_0^inf f(y) dy for a scalar or vector-valued f, split at 4 * scale."""
    kw = dict(epsabs=_ABS, epsrel=_REL, limit=_LIMIT)
    head = scipy.integrate.quad_vec(f, 0.0, 4.0 * scale, norm="max", **kw)[0]
    tail = scipy.integrate.quad_vec(f, 4.0 * scale, math.inf, norm="max", **kw)[0]
    return head + tail


def z_oracle(a: float, b: float, c: float) -> float:
    """Z(a, b, c) by direct quadrature of 1/(1 + u^(b/2)) from its lower limit."""
    if a == 0.0:
        return 0.0
    lower = (c / a) ** (2.0 / b)
    f = lambda u: 1.0 / (1.0 + u ** (b / 2.0))
    kw = dict(epsabs=_ABS, epsrel=_REL, limit=_LIMIT)
    val = scipy.integrate.quad(f, lower, lower + 1.0, **kw)[0]
    val += scipy.integrate.quad(f, lower + 1.0, math.inf, **kw)[0]
    return a ** (2.0 / b) * val


def z_oracle_vec(a: np.ndarray, b: float, c: float) -> np.ndarray:
    """Z over an array of first arguments: one adaptive rule shared by all.

    Substituting u = L + s puts every lower limit L = (c/a)^(2/b) at s = 0.
    """
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    live = a > 0.0
    if not live.any():
        return out
    lower = (c / a[live]) ** (2.0 / b)
    f = lambda s: 1.0 / (1.0 + (lower + s) ** (b / 2.0))
    kw = dict(epsabs=_ABS, epsrel=_REL, limit=_LIMIT, norm="max")
    val = scipy.integrate.quad_vec(f, 0.0, 1.0, **kw)[0]
    val = val + scipy.integrate.quad_vec(f, 1.0, math.inf, **kw)[0]
    out[live] = a[live] ** (2.0 / b) * val
    return out


def _g_terms(sc: Scenario, srv: Cls) -> list[tuple[float, float]]:
    """(G_mk, exponent of y) per open class."""
    t_srv = srv.power * srv.bias
    return [
        (m.density * (m.power * m.bias / t_srv) ** (2.0 / m.alpha), 2.0 * srv.alpha / m.alpha)
        for m in sc.open_classes()
    ]


def _d_terms(sc: Scenario, srv: Cls, taus: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """(D_k(tau) over the taus, exponent of y) per present class of the serving RAT."""
    out = []
    for k in sc.classes:
        if k.rat != srv.rat or k.density <= 0.0:
            continue
        offset = k.bias / srv.bias if k.open else 0.0
        d = k.density * (k.power / srv.power) ** (2.0 / k.alpha) * z_oracle_vec(taus, k.alpha, offset)
        out.append((d, 2.0 * srv.alpha / k.alpha))
    return out


def _find(sc: Scenario, rat: int, tier: int) -> Cls:
    for c in sc.open_classes():
        if (c.rat, c.tier) == (rat, tier):
            return c
    raise KeyError((rat, tier))


def association_oracle(sc: Scenario, rat: int, tier: int) -> float:
    """A_ij by quadrature over the serving distance y."""
    srv = _find(sc, rat, tier)
    g = _g_terms(sc, srv)
    f = lambda y: y * math.exp(-math.pi * sum(c * y**e for c, e in g))
    scale = 1.0 / math.sqrt(math.pi * sum(c for c, _ in g))
    return float(2.0 * math.pi * srv.density * _semi_infinite(f, scale))


def associations(sc: Scenario) -> dict[tuple[int, int], float]:
    return {(c.rat, c.tier): association_oracle(sc, c.rat, c.tier) for c in sc.open_classes()}


def _closed_form_applies(sc: Scenario, srv: Cls) -> bool:
    present = [c for c in sc.classes if c.density > 0.0]
    return sc.noise.get(srv.rat, 0.0) == 0.0 and len({c.alpha for c in present}) == 1


def coverage_oracle(sc: Scenario, rat: int, tier: int, taus, assoc: float | None = None,
                    quadrature: bool = False) -> np.ndarray:
    """S_ij(tau) = P(SINR > tau | served by (rat, tier)) over an array of taus.

    With no noise and one common exponent every power of y is y^2 and the
    integral is lam_ij / (A_ij (sum D + sum G)); `quadrature=True` integrates
    anyway (the tests hold the two equal).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    out = np.zeros_like(taus)
    live = np.isfinite(taus)
    if not live.any():
        return out
    t = taus[live]
    srv = _find(sc, rat, tier)
    if assoc is None:
        assoc = association_oracle(sc, rat, tier)
    g = _g_terms(sc, srv)
    d = _d_terms(sc, srv, t)
    if not quadrature and _closed_form_applies(sc, srv):
        total = sum(c for c, _ in g) + sum(c for c, _ in d)
        out[live] = srv.density / (assoc * total)
        return out
    noise = t * sc.noise.get(srv.rat, 0.0) / srv.power

    def f(y):
        s = noise * y**srv.alpha
        for c, e in g + d:
            s = s + math.pi * c * y**e
        return y * np.exp(-s)

    scale = 1.0 / math.sqrt(math.pi * sum(c for c, _ in g))
    out[live] = 2.0 * math.pi * srv.density / assoc * _semi_infinite(f, scale)
    return out


def load_ratio(sc: Scenario, rat: int, tier: int, assoc: float | None = None) -> float:
    srv = _find(sc, rat, tier)
    if assoc is None:
        assoc = association_oracle(sc, rat, tier)
    return sc.users * assoc / srv.density


def tagged_pmf_oracle(r: float) -> tuple[np.ndarray, np.ndarray]:
    """(n, P(O = n)) over a window that leaves out TAIL_MASS of the law."""
    # imported here: scipy.stats adds ~18 MB, which a round's peak RSS, read
    # before the checks run, must not include
    import scipy.stats

    law = scipy.stats.nbinom(4.5, 3.5 / (3.5 + r))
    lo = int(law.ppf(TAIL_MASS / 2.0))
    hi = int(law.isf(TAIL_MASS / 2.0)) + 1
    n = np.arange(lo, hi + 1)
    return n, law.pmf(n)


def shannon(x):
    """SINR needed for spectral efficiency x, inf where 2^x overflows."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(x > 1000.0, np.inf, np.expm1(x * math.log(2.0)))


def conditional_rate_oracle(sc: Scenario, rat: int, tier: int, rho: float,
                            assoc: float | None = None) -> float:
    """P(rate > rho | served by (rat, tier)), mixed over the tagged-load law."""
    srv = _find(sc, rat, tier)
    if assoc is None:
        assoc = association_oracle(sc, rat, tier)
    n, pmf = tagged_pmf_oracle(load_ratio(sc, rat, tier, assoc))
    taus = shannon(rho / srv.bandwidth * (n + 1))
    return float(pmf @ coverage_oracle(sc, rat, tier, taus, assoc))


def rate_oracle(sc: Scenario, rho: float | None = None) -> float:
    """R(rho) with one common rate threshold, or each class's own if rho is None."""
    probs = associations(sc)
    return sum(
        a * conditional_rate_oracle(sc, rat, tier, sc.rate_threshold[(rat, tier)] if rho is None else rho, a)
        for (rat, tier), a in probs.items()
    )
