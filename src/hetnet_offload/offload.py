"""Offload design: bias optimization and percentile-rate solving.

For a two-class, equal-exponent, interference-limited network the SIR
coverage as a function of the bias ratio b = B_2/B_1 reduces to

    S(b) = 1 / (Z1 + 1 + x) + 1 / (Z2 + 1 + 1/x),
    x = a (P_hat b)^(2/alpha),   Z_i = Z(tau_i, alpha, 1),

with a = lam_2/lam_1 and P_hat = P_2/P_1: x is the RAT-2 association
probability odds.  The maximizer is x = Z1/Z2, giving the closed-form
optimal bias, the offload fraction A_2 = Z1/(Z1+Z2) and a maximum coverage
(Z1+Z2)/(Z1+Z2+Z1 Z2) that does not depend on the density ratio at all.

The rate objective has no such closed maximizer (the load couples to b
through A_ij), so the rate solver brackets by exhaustive coarse grid and
polishes with golden-section search in log-bias, recording every
evaluation so multimodality would be visible in the trace.  Both take
their values from `bias_sweep`: the coarse grid is one sweep, one stack of
configs for `coverage._Stack`, and each polish step is a sweep of one
bias.  A percentile solve prepares its config once and evaluates each
bisection step.  Every rate route takes a method, theorem1 or meanload,
which `coverage` checks before it evaluates anything; the solvers refuse
its sinr route, whose thresholds are not rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .association import rat_offload_fraction
# the rate_coverage* and sinr_coverage objectives are not called here, but
# benchmarks/tracing.py wraps them by this module's name
from .coverage import (  # noqa: F401
    _Stack,
    rate_coverage,
    rate_coverage_closed_form,
    rate_coverage_mean_load,
    sinr_coverage,
)
from .model import ClassId, NetworkConfig, db_to_linear
from .numerics import SolverError, z_integral

__all__ = [
    "OptimizationResult",
    "SolverError",
    "optimal_bias_sir",
    "optimal_bias_rate",
    "golden_section_max",
    "bias_sweep",
    "percentile_rate",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_COARSE_STEP_DB = 1.0  # grid step of the rate search's coarse pass
_DEFAULT_BRACKET_DB = (-20.0, 20.0)  # its bracket when the caller gives none
_WIDEST_DB = 60.0  # a default bracket widens up to +-this many dB ...
_WIDEN_STEPS = 10  # ... by this many coarse steps at a time
_TOL_DB = 0.01  # width at which its golden-section polish stops
_REL_TOL = 1e-3  # relative bracket width at which a percentile solve stops


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a bias search.

    b_opt             linear bias ratio B_2/B_1
    objective_at_opt  coverage at the optimum
    offload_fraction  A_2 at the optimum
    trace             (bias, objective) evaluations; empty for closed forms
    boundary_warning  maximizer hit the search bracket edge
    """

    b_opt: float
    objective_at_opt: float
    offload_fraction: float
    trace: tuple[tuple[float, float], ...] = ()
    boundary_warning: bool = False


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite (got {value})")


def optimal_bias_sir(config: NetworkConfig) -> OptimizationResult:
    """Closed-form SIR-optimal bias ratio B_2/B_1 of a two-RAT config.

    The config needs exactly two open classes, on different RATs, with one
    common exponent, no closed class, no noise and positive SINR
    thresholds.  b_opt = (P_1/P_2) (Z1 / (a Z2))^(alpha/2) with
    a = lam_2/lam_1, the maximizer of S(b) above.
    """
    open_classes = config.open_classes()
    if len(open_classes) != 2:
        raise ValueError(f"need exactly two open classes, got {len(open_classes)}")
    if len(open_classes) != len(config.present_classes()):
        raise ValueError("closed classes are outside the two-RAT scenario")
    c1, c2 = open_classes
    if c1.exponent != c2.exponent:
        raise ValueError("scenario requires one common path-loss exponent")
    if any(config.noise_for(r) != 0.0 for r in config.rats()):
        raise ValueError("scenario assumes zero noise (SIR regime)")
    if c1.id.rat == c2.id.rat:
        raise ValueError("scenario classes must live on different RATs")
    tau1, tau2 = config.sinr_threshold_for(c1.id), config.sinr_threshold_for(c2.id)
    if tau1 <= 0.0 or tau2 <= 0.0:
        raise ValueError("SIR thresholds must be positive for the closed form")
    alpha = c1.exponent
    z1, z2 = z_integral(tau1, alpha, 1.0), z_integral(tau2, alpha, 1.0)
    b_opt = (c1.power / c2.power) * (z1 / ((c2.density / c1.density) * z2)) ** (alpha / 2.0)
    return OptimizationResult(
        b_opt=b_opt,
        objective_at_opt=(z1 + z2) / (z1 + z2 + z1 * z2),
        offload_fraction=z1 / (z1 + z2),
        trace=(),
    )


def golden_section_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (x_best, f_best).
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    _require_positive("tol", tol)
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    while h > tol:
        if yc >= yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = f(d)
    if yc >= yd:
        return c, yc
    return d, yd


def _rate_method(method: str) -> str:
    """A rate solver's load-law method: `coverage` checks the name, but
    "sinr" is a route there, whose thresholds are SINRs, not rates."""
    if method == "sinr":
        raise ValueError(f"unknown method {method!r}")
    return method


def _default_target(config: NetworkConfig) -> ClassId:
    """The open class on the second RAT, if exactly two open classes sit on two RATs."""
    open_classes = config.open_classes()
    if len(open_classes) == 2 and open_classes[0].id.rat != open_classes[1].id.rat:
        return open_classes[1].id
    labels = ", ".join(c.id.label() for c in open_classes)
    raise ValueError(
        f"no default class to tune among the open classes {labels}; "
        "name one (--class RAT,TIER on the command line)"
    )


def optimal_bias_rate(
    config: NetworkConfig,
    target: ClassId | None = None,
    bracket_db: tuple[float, float] | None = None,
    method: str = "theorem1",
) -> OptimizationResult:
    """Rate-coverage-maximizing association bias for one open class.

    The objective is the rate coverage with the tagged-AP load pmf
    (theorem1, the default) or its mean alone (meanload, which takes the
    paper's closed form by itself on equal-exponent, noise-free configs).
    Search: evaluate a 1 dB grid over `bracket_db` (which must be finite
    and span at least 40 dB), then refine around the best grid point with
    golden-section search down to 0.01 dB.  Without a bracket the grid
    starts at -20...20 dB, and while its maximum sits on an edge that side
    grows by whole grid steps, up to +-60 dB; a bracket the caller gives
    is searched as it is.  If the coarse maximum sits on the final
    bracket's edge the result carries boundary_warning=True.  Without a
    target, the open class on the second RAT is tuned when exactly two open
    classes sit on two RATs.
    """
    lo_db, hi_db = _DEFAULT_BRACKET_DB if bracket_db is None else bracket_db
    if not (math.isfinite(lo_db) and math.isfinite(hi_db)):
        raise ValueError(f"bias bracket must be finite (got {lo_db} ... {hi_db} dB)")
    if hi_db - lo_db < 40.0:
        raise ValueError("bias bracket must span at least 40 dB")
    if target is None:
        target = _default_target(config)

    trace: list[tuple[float, float]] = []

    def sweep(grid_db: list[float]) -> list[float]:
        pairs = bias_sweep(config, target, grid_db, "rate_coverage", method=method)
        trace.extend((db_to_linear(b_db), value) for b_db, value in pairs)
        return [value for _, value in pairs]

    steps = int(round((hi_db - lo_db) / _COARSE_STEP_DB))
    grid = [lo_db + k * _COARSE_STEP_DB for k in range(steps + 1)]
    values = sweep(grid)
    k_best = max(range(len(grid)), key=values.__getitem__)
    # the default bracket grows on the side of an edge maximum, on the same
    # lattice; only the new points are evaluated, as one sweep
    while bracket_db is None and k_best in (0, len(grid) - 1):
        side = -1.0 if k_best == 0 else 1.0
        room = int(round((_WIDEST_DB - side * grid[k_best]) / _COARSE_STEP_DB))
        if room <= 0:
            break
        new = [grid[k_best] + side * k * _COARSE_STEP_DB for k in range(1, min(room, _WIDEN_STEPS) + 1)]
        if side < 0:
            new.reverse()
            grid, values = new + grid, sweep(new) + values
        else:
            grid, values = grid + new, values + sweep(new)
        k_best = max(range(len(grid)), key=values.__getitem__)
    boundary = k_best in (0, len(grid) - 1)

    if boundary:
        b_db, best = grid[k_best], values[k_best]
    else:
        b_db, best = golden_section_max(lambda x: sweep([x])[0], grid[k_best - 1], grid[k_best + 1], _TOL_DB)
        if values[k_best] > best:
            b_db, best = grid[k_best], values[k_best]

    b_opt = db_to_linear(b_db)
    tuned = config.with_bias(target, b_opt)
    offload = rat_offload_fraction(tuned, target.rat)
    return OptimizationResult(
        b_opt=b_opt,
        objective_at_opt=best,
        offload_fraction=offload,
        trace=tuple(trace),
        boundary_warning=boundary,
    )


def bias_sweep(
    config: NetworkConfig,
    target: ClassId,
    grid_db,
    metric: str = "rate_coverage",
    coverage_target: float = 0.95,
    method: str = "theorem1",
) -> list[tuple[float, float]]:
    """Evaluate a coverage metric over a grid of biases (dB) for one class.

    metric: sir_coverage | rate_coverage | percentile_rate.  The rate
    metrics take `method`'s load law; sir_coverage takes the sinr route.
    Works for any number of classes; only `target`'s bias moves.
    """
    if not target.is_open:
        raise ValueError(f"target class {target.label()} must be open")
    config.class_for(target)  # raise early on unknown class
    if metric not in ("sir_coverage", "rate_coverage", "percentile_rate"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric != "sir_coverage":
        _rate_method(method)
    grid_db = [float(b_db) for b_db in grid_db]
    configs = [config.with_bias(target, db_to_linear(b_db)) for b_db in grid_db]
    if metric == "percentile_rate":
        values = [percentile_rate(tuned, coverage_target, method=method) for tuned in configs]
    else:
        route = method if metric == "rate_coverage" else "sinr"
        values = _Stack(configs, route).evaluate(None)[0][:, 0].tolist() if configs else []
    return list(zip(grid_db, values))


def percentile_rate(
    config: NetworkConfig,
    coverage_target: float,
    method: str = "theorem1",
) -> float:
    """The rate rho with R(rho) = coverage_target (e.g. 0.95 -> rho_95).

    R is nonincreasing in a common rate threshold, so bisection on log-rho
    applies.  The bracket starts at [1 bps, max bandwidth], expands upward
    on demand and is bisected down to a relative width of _REL_TOL; failure
    to reach the target at 1 bps raises SolverError.
    """
    if not (0.0 < coverage_target < 1.0):
        raise ValueError(f"coverage target must be in (0,1), got {coverage_target}")
    stack = _Stack([config], _rate_method(method))

    def r_of(rho: float) -> float:
        return float(stack.evaluate([rho])[0][0, 0])

    lo = 1.0
    if r_of(lo) < coverage_target:
        raise SolverError(
            f"rate coverage at 1 bps is below the target {coverage_target}; no solution"
        )
    hi = max(c.bandwidth for c in config.open_classes())
    expansions = 0
    while r_of(hi) >= coverage_target:
        lo = hi
        hi *= 10.0
        expansions += 1
        if expansions > 12:
            raise SolverError("could not bracket the percentile rate from above")
    while hi / lo > 1.0 + _REL_TOL:
        mid = math.sqrt(lo * hi)
        if r_of(mid) >= coverage_target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
