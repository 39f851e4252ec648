"""Print the wall and CPU time of each CLI command, in fresh processes.

    python3 tests/cli_timing.py [PACKAGE_DIR ...] [--runs N]

PACKAGE_DIR defaults to this checkout's `src/hetnet_offload`; pass another
checkout's to time it the same way, or several to compare them.  Every
command of the golden matrix (`tests/golden/record.py`'s COMMANDS) runs on
each shipped config as `python -m hetnet_offload.cli`, N times (default 5)
on each tree, each in a new process with that PACKAGE_DIR's parent as
PYTHONPATH and the caller's environment otherwise.  The trees take turns
command by command, and the tree that runs first moves on at every repeat,
so that drift in the machine's speed falls on all of them alike.  A
process's CPU time and minor page faults are read with RUSAGE_CHILDREN,
so they include the interpreter's start-up and every import.  The table
gives, per tree, the median wall and CPU seconds and minor faults of each
command, then the exit codes (a command the package refuses still pays
its start-up); the last line sums the medians.  Faults show a regression
in how a command's memory is laid out that its timings hide in noise.
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


def _children() -> tuple[float, int]:
    """CPU seconds and minor page faults of the reaped children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_minflt


def time_command(package: Path, argv: list[str]) -> tuple[float, float, int, int]:
    """Wall and CPU seconds of one fresh CLI process, its exit code and its minor faults."""
    env = {**os.environ, "PYTHONPATH": str(package.resolve().parent)}
    with tempfile.TemporaryDirectory() as tmp:
        (cpu0, faults0), wall0 = _children(), time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "hetnet_offload.cli", *argv, "-o", tmp],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        cpu, faults = _children()
        return time.perf_counter() - wall0, cpu - cpu0, proc.returncode, faults - faults0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("packages", nargs="*", type=Path, default=[ROOT / "src" / "hetnet_offload"])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    trees = range(len(args.packages))
    tags = [""] if len(trees) == 1 else [str(k + 1) for k in trees]
    if len(trees) > 1:
        for k, package in enumerate(args.packages, 1):
            print(f"tree {k}: {package}")
    width = max(len(" ".join(command)) for command in COMMANDS)
    columns = "".join(f" {'wall_s' + t:>7} {'cpu_s' + t:>7} {'minflt' + t:>7}" for t in tags)
    print(f"{'config':<20} {'command':<{width}}{columns} exit")
    totals = [[0.0, 0.0, 0.0] for _ in trees]
    for config_name in CONFIGS:
        config = str(ROOT / "configs" / f"{config_name}.json")
        for command in COMMANDS:
            runs = [[] for _ in trees]
            for repeat in range(args.runs):
                for k in ((repeat + j) % len(trees) for j in trees):
                    runs[k].append(time_command(args.packages[k], [*command, "--config", config]))
            cells, codes = "", []
            for k in trees:
                wall = statistics.median(r[0] for r in runs[k])
                cpu = statistics.median(r[1] for r in runs[k])
                faults = statistics.median(r[3] for r in runs[k])
                totals[k][0] += wall
                totals[k][1] += cpu
                totals[k][2] += faults
                cells += f" {wall:7.3f} {cpu:7.3f} {faults:7.0f}"
                codes.append("/".join(sorted({str(r[2]) for r in runs[k]})))
            print(f"{config_name:<20} {' '.join(command):<{width}}{cells} {' '.join(codes)}")
    cells = "".join(f" {wall:7.3f} {cpu:7.3f} {faults:7.0f}" for wall, cpu, faults in totals)
    print(f"{'total of medians':<{width + 21}}{cells}")


if __name__ == "__main__":
    main()
