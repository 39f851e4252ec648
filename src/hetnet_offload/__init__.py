"""Coverage analysis and offload design for multi-RAT heterogeneous networks.

Access points of each technology/tier class form an independent Poisson
process; a typical user associates with the strongest biased-weight
candidate.  The package computes association probabilities, per-cell load
distributions, SINR and rate coverage, and offload-optimal biases, and
cross-checks everything against a Monte Carlo simulator.

This namespace holds what a user of the library calls; the building blocks
behind it (kernels, the load ratio, the mean-load rate routes, the solvers'
helpers, the Monte Carlo deployment sampler) are imported from their modules.
The namespace loads numpy alone; each export, and each submodule such as
`hetnet_offload.coverage`, is imported on first access, so a process loads
only the modules that its calls use.

The package computes on one thread: when it is the first to import numpy,
it asks OpenBLAS for one thread unless the caller's OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS says otherwise, and leaves the
environment as it found it.
"""

import importlib
import os
import sys

# OpenBLAS reads its thread count once, as numpy loads it, and its idle
# worker thread spins for about 65 ms of CPU during `import numpy`; the
# kernels here never call a multi-threaded BLAS routine (numerics.py)
if "numpy" not in sys.modules and not any(
    v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
else:
    import numpy  # noqa: F401  (the package loads numpy in every case)

# the package's one list of public names, by defining module, for `__getattr__` (PEP 562)
_EXPORTS = {
    "model": (
        "CLOSED", "OPEN", "ApClass", "ClassId", "ConfigValidationError", "NetworkConfig",
        "db_to_linear", "linear_to_db", "make_class", "require_valid",
    ),
    "numerics": ("NumericalError", "SolverError"),
    "association": (
        "LoadDistribution", "association_probabilities", "rat_offload_fraction", "tagged_load_distribution",
    ),
    "coverage": ("CcdfCurve", "rate_ccdf", "rate_coverage", "sinr_ccdf", "sinr_coverage"),
    "offload": ("OptimizationResult", "bias_sweep", "optimal_bias_rate", "optimal_bias_sir", "percentile_rate"),
    "montecarlo": ("EmpiricalSummary", "SimSettings", "run_batch"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
