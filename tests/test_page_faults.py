"""Minor page faults of the rate path, counted in a fresh process.

A rate CCDF streams its (rate, load) rows through block-sized scratch
arrays that stay below glibc's 128 KiB mmap threshold, so once the
process has run one CCDF, the next ones reuse heap pages instead of
mapping and faulting in fresh ones.  The count is taken in a new
interpreter: a large allocation made earlier in a process (a test's 4 MB
array, say) raises glibc's mmap threshold and would hide the faults.
Linux counts minor faults in `getrusage`'s ru_minflt.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import hetnet_offload

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(hetnet_offload.__file__).resolve().parents[1])
# per call, fixed before the first run; with the rows in 16,384-row kernel
# calls and fresh temporaries the same calls took 430-640 faults each
FAULT_BUDGET = 100

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux") or not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"),
    reason="minor faults are counted by Linux getrusage",
)

_PROBE = """
import json, resource, sys
import numpy as np
from hetnet_offload import cli, coverage
config = cli.load_config(sys.argv[1])
grid = np.logspace(4.0, 8.0, 20)
coverage.rate_ccdf(config, grid)  # warm-up: the first call maps the heap it will reuse
faults = []
for k in range(1, 9):
    shifted = grid * 10.0 ** (0.01 * k)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    coverage.rate_ccdf(config, shifted)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def test_back_to_back_rate_ccdfs_stay_within_the_fault_budget():
    """Eight 20-point two_class_sir rate CCDFs after one warm-up call, each
    on a slightly shifted grid: every call stays under FAULT_BUDGET minor
    faults."""
    config = str(ROOT / "configs" / "two_class_sir.json")
    # glibc's MALLOC_* tunables would move the count: the probe runs without them
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    out = subprocess.run([sys.executable, "-c", _PROBE, config], env={**env, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True)
    faults = json.loads(out.stdout.strip().splitlines()[-1])
    assert len(faults) == 8
    assert max(faults) < FAULT_BUDGET, faults
