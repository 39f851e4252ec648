"""End-to-end acceptance gate: analytics vs the Monte Carlo oracle.

Twelve numbered checks (C1..C12) cover the headline claims of the
package: rate-CCDF agreement with simulation on the reference dual-RAT
and four-class scenarios, the closed-form optimal-bias results, the load
pmf, association consistency, mean-cell-area calibration, the
single-class sanity value, monotonicity properties, the percentile
solver, in simulation the paper's result that the SIR-optimal and
rate-optimal offloads differ, and SINR-CCDF agreement with simulation
within its sampling band.

Every test prints a one-line PASS/FAIL verdict with the measured numbers
so a full run doubles as a report.  The heavy 1e5-trial batches are
module-scoped fixtures shared across checks; the checks that use them
carry the `slow` marker.  On a 2-vCPU VM (Python 3.11.7, numpy 2.4.6)
the whole test suite took 4 min 42 s, C1 reporting 96 s.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dual_rat_config,
    four_class_config,
    single_class_config,
    two_class_config,
    two_class_sir_coverage,
)
from hetnet_offload import (
    ClassId,
    NetworkConfig,
    SimSettings,
    association_probabilities,
    bias_sweep,
    db_to_linear,
    linear_to_db,
    make_class,
    offload,
    optimal_bias_rate,
    optimal_bias_sir,
    percentile_rate,
    rate_ccdf,
    rate_coverage,
    run_batch,
    sinr_ccdf,
    sinr_coverage,
    tagged_load_distribution,
)
from hetnet_offload.cli import load_config
from hetnet_offload.coverage import rate_coverage_closed_form, rate_coverage_mean_load
from hetnet_offload.montecarlo import _run_block
from hetnet_offload.numerics import AREA_BIAS_FACTOR
import quad_oracle as oracle

MACRO = ClassId(1, 1)
SMALL = ClassId(2, 3)

TRIALS = 100_000
SEED = 1
RATE_GRID = np.logspace(4.0, 8.0, 20)  # 10 kbps .. 100 Mbps, common rho grid
Z99 = 2.5758293035489004  # two-sided 99% normal quantile
DKW_DELTA = 0.01  # C12: chance that an exact law leaves its DKW band


def _verdict(capsys, ok: bool, name: str, detail: str) -> str:
    line = f"{name}: {'PASS' if ok else 'FAIL'} — {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    return line


def _gap(analytic: np.ndarray, summary) -> float:
    return float(np.max(np.abs(analytic - np.asarray(summary.rate_ccdf.values))))


@pytest.fixture(scope="module")
def dual_rat_runs():
    """1e5-trial batches of the dual-RAT reference config at 0 and 10 dB."""
    runs = {}
    for bias_db in (0.0, 10.0):
        config = dual_rat_config(bias_db=bias_db)
        t0 = time.perf_counter()
        analytic = np.asarray(rate_ccdf(config, RATE_GRID).values)
        sim = run_batch(config, SimSettings(trials=TRIALS, seed=SEED), rate_grid=RATE_GRID)
        runs[bias_db] = {
            "config": config,
            "analytic": analytic,
            "sim": sim,
            "seconds": time.perf_counter() - t0,
        }
    return runs


@pytest.fixture(scope="module")
def four_class_runs():
    """1e5-trial batches of the four-class config at small-cell bias 0/10 dB."""
    runs = {}
    for bias_db in (0.0, 10.0):
        config = four_class_config(b23_db=bias_db)
        analytic = np.asarray(rate_ccdf(config, RATE_GRID).values)
        sim = run_batch(config, SimSettings(trials=TRIALS, seed=SEED), rate_grid=RATE_GRID)
        runs[bias_db] = {"config": config, "analytic": analytic, "sim": sim}
    return runs


@pytest.mark.slow
def test_c01_dual_rat_rate_ccdf_matches_simulation(dual_rat_runs, capsys):
    """C1: analytic rate CCDF tracks 1e5-trial simulation on the dual-RAT
    config at both biases (gap <= 0.04, <= 5 min), and a 1e4-trial smoke
    rerun stays within 0.08 in under 30 s."""
    gaps = {b: _gap(r["analytic"], r["sim"]) for b, r in dual_rat_runs.items()}
    total = sum(r["seconds"] for r in dual_rat_runs.values())

    t0 = time.perf_counter()
    smoke_cfg = dual_rat_config()
    smoke_analytic = np.asarray(rate_ccdf(smoke_cfg, RATE_GRID).values)
    smoke = run_batch(smoke_cfg, SimSettings(trials=10_000, seed=SEED + 1), rate_grid=RATE_GRID)
    smoke_gap = float(np.max(np.abs(smoke_analytic - np.asarray(smoke.rate_ccdf.values))))
    smoke_secs = time.perf_counter() - t0

    ok = (
        max(gaps.values()) <= 0.04
        and total <= 300.0
        and smoke_gap <= 0.08
        and smoke_secs <= 30.0
    )
    line = _verdict(
        capsys, ok, "C1",
        f"CCDF gaps {gaps[0.0]:.4f}/{gaps[10.0]:.4f} (<=0.04) at 1e5 trials "
        f"in {total:.0f}s (<=300s); smoke gap {smoke_gap:.4f} (<=0.08) "
        f"in {smoke_secs:.0f}s (<=30s)",
    )
    assert ok, line


@pytest.mark.slow
def test_c02_four_class_rate_ccdf_matches_simulation(four_class_runs, capsys):
    """C2: same CCDF agreement bound on the four-class mixed-exponent
    config at two small-cell bias values."""
    gaps = {b: _gap(r["analytic"], r["sim"]) for b, r in four_class_runs.items()}
    ok = max(gaps.values()) <= 0.04
    line = _verdict(
        capsys, ok, "C2",
        f"CCDF gaps {gaps[0.0]:.4f}/{gaps[10.0]:.4f} (<=0.04) at 1e5 trials",
    )
    assert ok, line


def test_c03_sir_bias_closed_form(capsys):
    """C3: the closed-form optimal bias beats a 0.05 dB brute-force grid,
    equal thresholds offload exactly half the users, and the optimal SIR
    coverage is invariant to the density ratio."""
    grid_db = np.arange(-10.0, 45.0 + 0.025, 0.05)
    worst_grid_gap = 0.0
    worst_offload = 0.0
    worst_assoc = 0.0
    spreads = []
    for tau1_db, tau2_db in ((0.0, 0.0), (3.0, 6.0)):
        covs_at_opt = []
        for a in (1.0, 5.0, 10.0, 20.0):
            config = two_class_config(density2=a, tau1_db=tau1_db, tau2_db=tau2_db)
            result = optimal_bias_sir(config)

            brute = max(grid_db, key=lambda b: two_class_sir_coverage(config, db_to_linear(b)))
            worst_grid_gap = max(worst_grid_gap, abs(linear_to_db(result.b_opt) - brute))
            covs_at_opt.append(two_class_sir_coverage(config, result.b_opt))
            if tau1_db == tau2_db:
                worst_offload = max(worst_offload, abs(result.offload_fraction - 0.5))
                realized = association_probabilities(
                    config.with_bias(SMALL, result.b_opt)
                )[SMALL]
                worst_assoc = max(worst_assoc, abs(realized - 0.5))
        spreads.append(max(covs_at_opt) - min(covs_at_opt))

    ok = (
        worst_grid_gap <= 0.05 + 1e-12
        and worst_offload <= 1e-9
        and worst_assoc <= 1e-9
        and max(spreads) <= 1e-9
    )
    line = _verdict(
        capsys, ok, "C3",
        f"brute-force gap {worst_grid_gap:.3f} dB (<=0.05); equal-threshold "
        f"offload off by {worst_offload:.1e} (assoc {worst_assoc:.1e}, <=1e-9); "
        f"coverage spread over densities {max(spreads):.1e} (<=1e-9)",
    )
    assert ok, line


def _random_config(rng, equal_exponent: bool = False) -> NetworkConfig:
    """A small random scenario: 2-4 open classes over 1-2 RATs, no noise."""
    n_classes = int(rng.integers(2, 5))
    alpha0 = float(rng.uniform(3.2, 4.5))
    used: set[tuple[int, int]] = set()
    classes = []
    for _ in range(n_classes):
        while True:
            rat, tier = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            if (rat, tier) not in used:
                used.add((rat, tier))
                break
        classes.append(
            make_class(
                rat,
                tier,
                density=float(10.0 ** rng.uniform(-0.3, 1.3)),
                power_dbm=float(rng.uniform(20.0, 55.0)),
                exponent=alpha0 if equal_exponent else float(rng.uniform(3.0, 5.0)),
                bias_db=float(rng.uniform(-5.0, 10.0)),
            )
        )
    return NetworkConfig(classes=tuple(classes), user_density=float(rng.uniform(20.0, 120.0)))


def test_c04_closed_form_matches_quadrature_mean_load(capsys):
    """C4: on random equal-exponent zero-noise configs the closed-form
    mean-load rate coverage equals the adaptive quadrature of its defining
    integrals (tests/quad_oracle.py) to 1e-6."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(10):
        config = _random_config(rng, equal_exponent=True)
        closed = rate_coverage_closed_form(config, rho_common=256e3)
        quad = oracle.mean_load_rate_coverage(config, 256e3)
        worst = max(worst, abs(closed - quad))
    ok = worst <= 1e-6
    line = _verdict(capsys, ok, "C4", f"max |closed - adaptive quadrature| = {worst:.2e} (<=1e-6)")
    assert ok, line


@pytest.mark.slow
def test_c05_load_law(dual_rat_runs, capsys):
    """C5: the tagged-AP load pmf keeps its mass and mean, and is compared
    in total variation against the 1e5-trial load histogram.

    The mass/mean clauses hold to 1e-6.  The TV clause is implemented
    faithfully and fails: the pmf rests on a one-parameter Gamma(3.5)
    area law whose shape is calibrated on unweighted cells, and on this
    heterogeneous config the weighted macro cells are punctured into a
    *narrower* area distribution (area-bias ratio 1.20 vs 9/7) while the
    small-cell islands spread *wider* (1.59 vs 9/7).  A single-class
    control run matches the same pmf to TV ~0.01, pinning the gap on the
    shared area ansatz, not the estimator; first moments and the rate
    CCDF built from this pmf agree with simulation (C1/C6/C7).
    """
    run = dual_rat_runs[0.0]
    config, summary = run["config"], run["sim"]
    probs = association_probabilities(config)

    worst_mass_gap = 0.0
    worst_mean_rel = 0.0
    dists = {}
    for cid in summary.load_histogram:
        dist = tagged_load_distribution(config, cid)
        dists[cid] = dist
        r = dist.ratio
        mean = np.arange(dist.pmf.size) @ dist.pmf
        worst_mass_gap = max(worst_mass_gap, 1.0 - dist.pmf.sum())
        worst_mean_rel = max(worst_mean_rel, abs(mean - AREA_BIAS_FACTOR * r) / (AREA_BIAS_FACTOR * r))

    # histogram index is the total load (>= 1), pmf index counts the other
    # users on the tagged AP (>= 0): align with a one-slot shift.
    width = max(
        max(len(h) for h in summary.load_histogram.values()),
        1 + max(d.pmf.size for d in dists.values()),
    )
    mix_emp = np.zeros(width)
    mix_ana = np.zeros(width)
    tv_class = {}
    for cid, hist in summary.load_histogram.items():
        emp = np.zeros(width)
        emp[: len(hist)] = np.asarray(hist, dtype=float) / summary.trial_count
        ana = np.zeros(width)
        ana[1 : 1 + dists[cid].pmf.size] = dists[cid].pmf
        share = emp.sum()
        tv_class[cid] = 0.5 * float(np.abs(emp / share - ana).sum())
        mix_emp += emp
        mix_ana += probs[cid] * ana
    tv_mix = 0.5 * float(np.abs(mix_emp - mix_ana).sum())

    ok = (
        worst_mass_gap <= 1e-6
        and worst_mean_rel <= 1e-6
        and tv_mix <= 0.03
        and max(tv_class.values()) <= 0.03
    )
    per_class = ", ".join(f"{cid.label()}: {tv:.3f}" for cid, tv in sorted(tv_class.items()))
    line = _verdict(
        capsys, ok, "C5",
        f"pmf mass gap {worst_mass_gap:.1e} (<=1e-6), mean rel err "
        f"{worst_mean_rel:.1e} (<=1e-6); load-histogram TV mixture {tv_mix:.3f}, "
        f"per-class {{{per_class}}} vs bound 0.03 — the one-parameter area "
        f"law misses weighted-cell area spread (known model error)",
    )
    assert ok, line


@pytest.mark.slow
def test_c06_association_consistency(dual_rat_runs, four_class_runs, capsys):
    """C6: association probabilities sum to one on random mixed-exponent
    configs, the equal-exponent fast path equals the defining integral,
    and 1e5-trial frequencies sit inside 99% binomial intervals."""
    rng = np.random.default_rng(11)
    worst_sum = max(
        abs(sum(association_probabilities(_random_config(rng)).values()) - 1.0)
        for _ in range(20)
    )

    rng = np.random.default_rng(17)
    worst_route = 0.0
    for _ in range(10):
        config = _random_config(rng, equal_exponent=True)
        for cid, fast in association_probabilities(config).items():
            worst_route = max(worst_route, abs(fast - oracle.association_probability(config, cid)))

    worst_sigma = 0.0
    ci_ok = True
    for runs in (dual_rat_runs, four_class_runs):
        for run in runs.values():
            probs = association_probabilities(run["config"])
            freq = run["sim"].association_freq
            n = run["sim"].trial_count
            for cid, a in probs.items():
                halfwidth = Z99 * math.sqrt(a * (1.0 - a) / n)
                gap = abs(freq[cid] - a)
                worst_sigma = max(worst_sigma, gap / (halfwidth / Z99))
                ci_ok = ci_ok and gap <= halfwidth

    ok = worst_sum <= 1e-8 and worst_route <= 1e-8 and ci_ok
    line = _verdict(
        capsys, ok, "C6",
        f"max |sum A - 1| = {worst_sum:.1e} (<=1e-8); fast-vs-integral gap "
        f"{worst_route:.1e} (<=1e-8); association freqs within 99% CI "
        f"(worst {worst_sigma:.2f} sigma of {Z99:.2f})",
    )
    assert ok, line


@pytest.mark.slow
def test_c07_mean_cell_area_calibration(capsys):
    """C7: empirical mean cell area matches A_ij / lambda_ij within 2% on
    the two-class association-region config at 20 dB and 10 dB weight
    ratios."""
    worst = 0.0
    for delta_db in (20.0, 10.0):
        config = NetworkConfig(
            classes=(
                make_class(1, 1, 1.0, 23.0 + delta_db, 3.5),
                make_class(2, 3, 10.0, 23.0, 3.5),
            ),
        )
        probs = association_probabilities(config)
        sim = run_batch(config, SimSettings(window_km=10.0, trials=TRIALS, seed=SEED))
        for cid, a in probs.items():
            want = a / config.class_for(cid).density
            worst = max(worst, abs(sim.mean_cell_area[cid] - want) / want)
    ok = worst <= 0.02
    line = _verdict(capsys, ok, "C7", f"worst mean-area rel err {worst:.4f} (<=0.02)")
    assert ok, line


def test_c08_single_class_sanity(capsys):
    """C8: one class, alpha=4, no noise, tau=0 dB gives S = 1/(1+pi/4)
    analytically to 1e-8 and by simulation within 0.01."""
    config = single_class_config()
    want = 1.0 / (1.0 + math.pi / 4.0)
    analytic = sinr_coverage(config)
    sim = run_batch(config, SimSettings(trials=TRIALS, seed=SEED))
    assert sim.sinr_ccdf.grid[20] == 1.0  # 0 dB on the default -20..60 dB grid
    simulated = float(sim.sinr_ccdf.values[20])
    ok = abs(analytic - want) <= 1e-8 and abs(simulated - want) <= 0.01
    line = _verdict(
        capsys, ok, "C8",
        f"S = {analytic:.9f} vs 1/(1+pi/4) = {want:.9f} "
        f"(|diff| {abs(analytic - want):.1e} <= 1e-8); sim {simulated:.4f} "
        f"(|diff| {abs(simulated - want):.4f} <= 0.01)",
    )
    assert ok, line


@pytest.mark.slow
def test_c09_monotonicity_properties(dual_rat_runs, four_class_runs, capsys):
    """C9: rate CCDFs are nonincreasing; rate coverage is nondecreasing on
    a 3x3 grid in (small-cell density x common density scale) at fixed
    bias; removing closed APs never lowers SINR coverage."""
    violations = 0

    for runs in (dual_rat_runs, four_class_runs):
        for run in runs.values():
            curve = run["analytic"]
            violations += int(np.sum(np.diff(curve) > 1e-12))

    # densifying either the small-cell class or the whole deployment
    # lightens every load, so coverage must not drop along either axis
    for bias_db in (0.0, 5.0):
        table = {}
        for d2 in (5.0, 10.0, 20.0):
            table[d2] = []
            for scale in (1.0, 2.0, 4.0):
                config = two_class_config(bias_db=bias_db, density2=d2)
                config = config.with_density(MACRO, scale).with_density(SMALL, d2 * scale)
                table[d2].append(rate_coverage_closed_form(config, rho_common=256e3))
        for d2 in (5.0, 10.0, 20.0):
            row = table[d2]
            violations += sum(1 for x, y in zip(row, row[1:]) if y < x - 1e-12)
        for j in range(3):
            col = [table[d2][j] for d2 in (5.0, 10.0, 20.0)]
            violations += sum(1 for x, y in zip(col, col[1:]) if y < x - 1e-12)

    config = dual_rat_config()
    tau_grid = np.asarray([db_to_linear(t) for t in np.arange(-10.0, 21.0, 2.5)])
    with_closed = np.asarray(sinr_ccdf(config, tau_grid).values)
    without = np.asarray(sinr_ccdf(dual_rat_config(with_closed=False), tau_grid).values)
    violations += int(np.sum(without < with_closed - 1e-12))

    ok = violations == 0
    line = _verdict(
        capsys, ok, "C9",
        f"{violations} violations across 4 rate CCDFs, two 3x3 density "
        f"grids, and closed-AP removal on a SINR sweep (need 0)",
    )
    assert ok, line


def test_c10_percentile_solver_and_bias_agnosticism(capsys, monkeypatch):
    """C10: the percentile solver lands on R = 0.95 within 1e-3 on random
    configs, and the bias maximizing the 95th-percentile rate matches the
    bias maximizing rate coverage at a fixed threshold within one 0.5 dB
    step."""
    rng = np.random.default_rng(7)
    worst = 0.0
    monkeypatch.setattr(offload, "_REL_TOL", 1e-5)
    for _ in range(10):
        config = _random_config(rng)
        rho95 = percentile_rate(config, 0.95, method="meanload")
        worst = max(worst, abs(rate_coverage_mean_load(config, rho_common=rho95) - 0.95))

    config = two_class_config()
    grid = np.arange(15.0, 28.0 + 0.25, 0.5)
    by_coverage = max(
        bias_sweep(config, SMALL, grid, metric="rate_coverage", method="meanload"),
        key=lambda p: p[1],
    )[0]
    # a percentile solve per grid point: needs tolerance well under the
    # bias-induced differences near the flat optimum
    monkeypatch.setattr(offload, "_REL_TOL", 1e-6)
    by_percentile = max(
        (
            (b, percentile_rate(config.with_bias(SMALL, db_to_linear(b)), 0.95, method="meanload"))
            for b in grid
        ),
        key=lambda p: p[1],
    )[0]
    step_gap = abs(by_coverage - by_percentile)

    ok = worst <= 1e-3 and step_gap <= 0.5 + 1e-9
    line = _verdict(
        capsys, ok, "C10",
        f"max |R(rho95) - 0.95| = {worst:.1e} (<=1e-3); argmax bias "
        f"{by_percentile:.1f} dB (rho95) vs {by_coverage:.1f} dB (fixed rho): "
        f"gap {step_gap:.1f} dB (<=0.5)",
    )
    assert ok, line


@pytest.mark.slow
def test_c11_sir_and_rate_optimal_offloads_differ_in_simulation(capsys):
    """C11: the paper's headline claim in simulation.  On two_class_sir, the
    SIR-optimal bias covers more users at 0 dB SINR, and the rate-optimal
    bias (theorem1, bracket -10..45 dB) more at 256 kbps.  Both biases run
    the same 4,000 trials (one seed keys every stream by trial and class,
    so the runs share their draws), and each paired gap must exceed 4
    paired standard errors.  Trials, seed and k were fixed before the
    first run."""
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "two_class_sir.json")
    biases = {
        "SIR-opt": optimal_bias_sir(config).b_opt,
        "rate-opt": optimal_bias_rate(config, method="theorem1", bracket_db=(-10.0, 45.0)).b_opt,
    }
    settings = SimSettings(trials=4000, seed=11)
    covered, analytic = {}, {}
    for name, b in biases.items():
        biased = config.with_bias(SMALL, b)
        _, _, sinr, _, rate, _ = _run_block(biased, settings, 0, settings.trials)
        covered[name] = (sinr > 1.0).astype(float), (rate > 256e3).astype(float)
        analytic[name] = sinr_coverage(biased), rate_coverage(biased)

    def paired(diff):
        return diff.mean(), diff.std(ddof=1) / math.sqrt(diff.size)

    sinr_gap, sinr_se = paired(covered["SIR-opt"][0] - covered["rate-opt"][0])
    rate_gap, rate_se = paired(covered["rate-opt"][1] - covered["SIR-opt"][1])
    ok = sinr_gap > 4.0 * sinr_se and rate_gap > 4.0 * rate_se
    sims = {name: (c[0].mean(), c[1].mean()) for name, c in covered.items()}
    line = _verdict(
        capsys, ok, "C11",
        f"bias SIR-opt {linear_to_db(biases['SIR-opt']):.2f} dB, rate-opt "
        f"{linear_to_db(biases['rate-opt']):.2f} dB; SINR cov at 0 dB sim "
        f"{sims['SIR-opt'][0]:.4f} vs {sims['rate-opt'][0]:.4f} (analytic "
        f"{analytic['SIR-opt'][0]:.3f} vs {analytic['rate-opt'][0]:.3f}), gap "
        f"{sinr_gap:.4f} = {sinr_gap / sinr_se:.1f} SE (>4); rate cov at 256 kbps "
        f"sim {sims['rate-opt'][1]:.4f} vs {sims['SIR-opt'][1]:.4f} (analytic "
        f"{analytic['rate-opt'][1]:.3f} vs {analytic['SIR-opt'][1]:.3f}), gap "
        f"{rate_gap:.4f} = {rate_gap / rate_se:.1f} SE (>4)",
    )
    assert ok, line


@pytest.mark.slow
def test_c12_sinr_ccdf_within_the_dkw_band(dual_rat_runs, four_class_runs, capsys):
    """C12: the SINR CCDF of each 1e5-trial C1/C2 batch (dual-RAT and
    four-class, small-cell bias 0 and 10 dB) lies within the DKW band of
    the analytic one, which is exact for SINR (no load approximation):
    sup |F_n - F| <= eps = sqrt(ln(2/delta) / (2n)) (Massart's constant),
    delta = 0.01 fixed before the first run, at every simulated threshold
    (-20..60 dB).  The batches are the C1/C2 fixtures: no extra trials."""
    gaps, eps = {}, {}
    for name, runs in (("dual-RAT", dual_rat_runs), ("four-class", four_class_runs)):
        for bias_db, run in runs.items():
            sim = run["sim"].sinr_ccdf
            analytic = np.asarray(sinr_ccdf(run["config"], sim.grid).values)
            gaps[name, bias_db] = float(np.max(np.abs(analytic - np.asarray(sim.values))))
            eps[name, bias_db] = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * run["sim"].trial_count))
    ok = all(gaps[k] <= eps[k] for k in gaps)
    line = _verdict(
        capsys, ok, "C12",
        "SINR CCDF sup gaps " + ", ".join(f"{name} {b:g} dB {gap:.4f}" for (name, b), gap in gaps.items())
        + f" (<= DKW eps {max(eps.values()):.5f}, delta {DKW_DELTA})",
    )
    assert ok, line
