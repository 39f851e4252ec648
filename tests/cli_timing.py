"""Print the wall and CPU time of each CLI command, in fresh processes.

    python3 tests/cli_timing.py [PACKAGE_DIR] [--runs N]

PACKAGE_DIR defaults to this checkout's `src/hetnet_offload`; pass another
checkout's to time it the same way.  Every command of the golden matrix
(`tests/golden/record.py`'s COMMANDS) runs on each shipped config as
`python -m hetnet_offload.cli`, N times (default 5), each in a new
process with PACKAGE_DIR's parent as PYTHONPATH and the caller's
environment otherwise.  A process's CPU time is read with RUSAGE_CHILDREN,
so it includes the interpreter's start-up and every import.  The table
gives the median wall and CPU seconds of each command and its exit code
(a command the package refuses still pays its start-up); the last line
sums the medians.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests" / "golden"))
from record import COMMANDS, CONFIGS  # noqa: E402


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_command(package: Path, argv: list[str]) -> tuple[float, float, int]:
    """Wall and CPU seconds of one fresh CLI process, and its exit code."""
    env = {**os.environ, "PYTHONPATH": str(package.resolve().parent)}
    with tempfile.TemporaryDirectory() as tmp:
        cpu0, wall0 = _children_cpu(), time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hetnet_offload.cli", *argv, "-o", tmp],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - wall0, _children_cpu() - cpu0, proc.returncode


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "hetnet_offload")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    width = max(len(" ".join(command)) for command in COMMANDS)
    print(f"{'config':<20} {'command':<{width}} {'wall_s':>7} {'cpu_s':>7} exit")
    totals = [0.0, 0.0]
    for config_name in CONFIGS:
        config = str(ROOT / "configs" / f"{config_name}.json")
        for command in COMMANDS:
            runs = [time_command(args.package, [*command, "--config", config]) for _ in range(args.runs)]
            wall = statistics.median(r[0] for r in runs)
            cpu = statistics.median(r[1] for r in runs)
            totals[0] += wall
            totals[1] += cpu
            codes = "/".join(sorted({str(r[2]) for r in runs}))
            print(f"{config_name:<20} {' '.join(command):<{width}} {wall:7.3f} {cpu:7.3f} {codes}")
    print(f"{'total of medians':<{width + 21}} {totals[0]:7.3f} {totals[1]:7.3f}")


if __name__ == "__main__":
    main()
