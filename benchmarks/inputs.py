"""The scenario files each workload reads (kept free of heavy imports)."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH.parent / "configs"
SCENARIOS = BENCH / "scenarios"

DUAL_RAT = CONFIGS / "two_rat_three_tier.json"  # users 50
TWO_CLASS = CONFIGS / "two_class_sir.json"  # users 200
FOUR_CLASS = SCENARIOS / "four_class.json"
DUAL_RAT_USERS_OFF = SCENARIOS / "dual_rat_users_off.json"
DUAL_RAT_500 = SCENARIOS / "dual_rat_500.json"
TWO_CLASS_2000 = SCENARIOS / "two_class_2000.json"
DENSE_VENUE = SCENARIOS / "dual_rat_dense_venue.json"  # users 1e5

# what a fresh process loads before its first operation (see setup_probe.py)
WORKLOAD_SCENARIOS = {
    "analytic-mixed": (DUAL_RAT, FOUR_CLASS),
    "analytic-dense": (DUAL_RAT_500, TWO_CLASS_2000, DENSE_VENUE),
    "mc-validate": (DUAL_RAT_USERS_OFF, TWO_CLASS),
}
