"""What a fresh process pays before its first operation on a workload.

    python3 benchmarks/setup_probe.py WORKLOAD

Imports the package, loads and validates the workload's scenario files
with `cli.load_config`, and makes the first association call on each.
`run.py` times the whole process from start to exit.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hetnet_offload import association, cli  # noqa: E402

from inputs import WORKLOAD_SCENARIOS  # noqa: E402


def main() -> int:
    for path in WORKLOAD_SCENARIOS[sys.argv[1]]:
        association.association_probabilities(cli.load_config(path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
