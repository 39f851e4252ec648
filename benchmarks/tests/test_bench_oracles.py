"""The oracles against textbook values, and each against its second route."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles  # noqa: E402
from oracles import Cls, Scenario  # noqa: E402


def _cls(rat, tier, density, power_w, alpha, bias=1.0, open_=True):
    return Cls(rat, tier, open_, density, power_w, alpha, bias, 10e6)


def _scenario(*classes, users=0.0, noise=None):
    thresholds = {(c.rat, c.tier): 256e3 for c in classes if c.open}
    return Scenario(tuple(classes), users, noise or {}, thresholds)


def test_z_textbook_values():
    assert oracles.z_oracle(1.0, 4.0, 1.0) == pytest.approx(math.pi / 4, abs=1e-12)
    assert oracles.z_oracle(1.0, 4.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-12)
    vec = oracles.z_oracle_vec([1.0, 1.0, 0.0], 4.0, 1.0)
    assert vec[:2] == pytest.approx([math.pi / 4] * 2, abs=1e-12)
    assert vec[2] == 0.0
    assert oracles.z_oracle_vec([1.0], 4.0, 0.0)[0] == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("b,c", [(3.5, 0.0), (3.5, 0.3), (3.8, 1.0), (4.0, 2.5), (6.0, 1.0)])
def test_z_vector_route_matches_scalar(b, c):
    a = np.logspace(-5, 3, 17)
    want = [oracles.z_oracle(x, b, c) for x in a]
    assert oracles.z_oracle_vec(a, b, c) == pytest.approx(want, rel=1e-9)


def test_tagged_pmf_is_the_area_biased_negative_binomial():
    for r in (0.5, 37.0, 1676.0):
        n, pmf = oracles.tagged_pmf_oracle(r)
        law = scipy.stats.nbinom(4.5, 3.5 / (3.5 + r))
        assert pmf == pytest.approx(law.pmf(n), rel=1e-12)
        assert pmf.sum() >= 1.0 - oracles.TAIL_MASS
        assert float(n @ pmf) == pytest.approx(9.0 / 7.0 * r, rel=1e-9)


def test_single_class_coverage_at_zero_db():
    sc = _scenario(_cls(1, 1, 1.0, 20.0, 4.0))
    assert oracles.association_oracle(sc, 1, 1) == pytest.approx(1.0, abs=1e-12)
    want = 1.0 / (1.0 + math.pi / 4.0)
    assert oracles.coverage_oracle(sc, 1, 1, 1.0)[0] == pytest.approx(want, abs=1e-12)
    assert oracles.coverage_oracle(sc, 1, 1, 1.0, quadrature=True)[0] == pytest.approx(want, abs=1e-10)


def test_two_class_closed_forms():
    alpha, lam1, lam2, p1, p2, b2 = 3.5, 1.0, 10.0, 200.0, 0.2, 3.0
    sc = _scenario(_cls(1, 1, lam1, p1, alpha), _cls(2, 3, lam2, p2, alpha, bias=b2))
    x = lam2 / lam1 * (p2 * b2 / p1) ** (2.0 / alpha)  # RAT-2 association odds
    assert oracles.association_oracle(sc, 2, 3) == pytest.approx(x / (1.0 + x), abs=1e-12)
    assert oracles.association_oracle(sc, 1, 1) == pytest.approx(1.0 / (1.0 + x), abs=1e-12)
    for tau in (0.1, 1.0, 10.0):
        total = 0.0
        for srv, other in (((1, 1), (2, 3)), ((2, 3), (1, 1))):
            s = sc.open_classes()[0 if srv == (1, 1) else 1]
            o = sc.open_classes()[1 if srv == (1, 1) else 0]
            g = s.density + o.density * (o.power * o.bias / (s.power * s.bias)) ** (2.0 / alpha)
            d = s.density * oracles.z_oracle(tau, alpha, 1.0)  # one class per RAT
            a = oracles.association_oracle(sc, *srv)
            quad = oracles.coverage_oracle(sc, *srv, tau, a, quadrature=True)[0]
            assert quad == pytest.approx(s.density / (a * (d + g)), rel=1e-9)
            total += a * quad
        # S = sum_i lam_i / (D_i + G_i)
        want = sum(
            c.density / (c.density * oracles.z_oracle(tau, alpha, 1.0)
                         + sum(m.density * (m.power * m.bias / (c.power * c.bias)) ** (2.0 / alpha)
                               for m in sc.open_classes()))
            for c in sc.open_classes()
        )
        assert total == pytest.approx(want, rel=1e-9)


def test_associations_sum_to_one_with_mixed_exponents():
    sc = oracles.load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "four_class.json")
    assert sum(oracles.associations(sc).values()) == pytest.approx(1.0, abs=1e-12)


def test_rate_with_users_off_is_the_sinr_coverage_at_the_shannon_threshold():
    sc = _scenario(_cls(1, 1, 1.0, 200.0, 3.5), _cls(2, 3, 10.0, 0.2, 4.0))
    rho = 2e6  # 10 MHz: spectral efficiency 0.2, threshold 2^0.2 - 1
    tau = 2.0**0.2 - 1.0
    want = sum(a * oracles.coverage_oracle(sc, *k, tau, a)[0] for k, a in oracles.associations(sc).items())
    assert oracles.rate_oracle(sc, rho) == pytest.approx(want, abs=1e-12)
