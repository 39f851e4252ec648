"""The machine-speed reference."""

import math
import sys
from pathlib import Path

import pytest
import scipy.integrate

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import tracing  # noqa: E402


def test_calibrate_takes_a_few_milliseconds():
    samples = [calibration.calibrate() for _ in range(5)]
    assert all(0.0 < s < 1.0 for s in samples)


def test_speed_factor_is_reference_over_median():
    ref = calibration.REFERENCE_S
    assert calibration.speed_factor([ref, ref / 2, ref * 2]) == pytest.approx(1.0)
    assert calibration.speed_factor([ref * 2, ref * 2, 99.0, ref * 2]) == pytest.approx(0.5)


def test_traced_calibration_is_not_counted_as_the_programs_quadrature():
    tracer = tracing.Tracer().install()
    try:
        calibration.calibrate()
        quad_calls_of_calibration = tracer.metrics()["numerics.quad.calls"]
        scipy.integrate.quad(math.exp, 0.0, 1.0)  # a call the way the package makes it
    finally:
        tracer.uninstall()
    assert quad_calls_of_calibration == 0
    assert tracer.metrics()["numerics.quad.calls"] == 1
