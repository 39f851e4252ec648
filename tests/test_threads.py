"""The package's one-thread rule for OpenBLAS, checked in fresh processes.

When `hetnet_offload` is the first to import numpy it loads numpy with
OPENBLAS_NUM_THREADS=1, unless the caller set OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS, and then deletes the variable again.
Each case runs `python -c` with PYTHONPATH=src and counts the process's
threads in /proc/self/task; the numbers do not depend on the count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hetnet_offload

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(hetnet_offload.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# OpenBLAS starts no more threads than the process may run on
TWO = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 2

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task")


def _run(code: str, **env_vars: str) -> str:
    """stdout's last line of `code` in a fresh interpreter, with none of the
    thread variables set but those in `env_vars`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=SRC, **env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _report(head: str, **env_vars: str) -> list:
    """[threads, environment unchanged, the thread variables] after `head`."""
    code = (f"import json, os\nbefore = dict(os.environ)\n{head}\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')), dict(os.environ) == before,"
            f" {{v: os.environ.get(v) for v in {THREAD_VARS!r}}}]))\n")
    return json.loads(_run(code, **env_vars))


def test_package_first_loads_one_thread_and_restores_the_environment():
    threads, unchanged, values = _report("import hetnet_offload")
    assert threads == 1
    assert unchanged and values == dict.fromkeys(THREAD_VARS)


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_callers_thread_count_wins(var):
    threads, unchanged, values = _report("import hetnet_offload", **{var: "2"})
    assert threads == TWO
    assert unchanged and values[var] == "2"


def test_numpy_imported_first_keeps_its_default():
    plain = _report("import numpy")
    assert _report("import numpy\nimport hetnet_offload") == plain


@pytest.mark.parametrize("unset_by_import", [False, True])
def test_failed_numpy_import_still_deletes_the_variable(unset_by_import):
    """The `finally` runs when numpy's import fails, and also when the
    import itself already deleted the variable."""
    code = (
        "import json, os, sys\n"
        "seen = []\n"
        "class Refuse:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        f"            if {unset_by_import!r}:\n"
        "                del os.environ['OPENBLAS_NUM_THREADS']\n"
        "            raise ImportError('numpy refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
        "try:\n"
        "    import hetnet_offload\n"
        "except ImportError as e:\n"
        "    error = str(e)\n"
        "print(json.dumps([seen, error, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    assert json.loads(_run(code)) == [["1"], "numpy refused", None]


_DIGEST = f"""
import hashlib, json, os
import hetnet_offload as h
import numpy as np
from hetnet_offload.cli import load_config
from hetnet_offload.numerics import z_integral

digest = hashlib.sha256()

def add(x):
    digest.update(np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes())

rng = np.random.default_rng(7)
for b in (2.5, 3.0, 3.5, 4.0, 6.0):
    for n in (1, 7, 100, 2048, 20000):
        a = 10.0 ** rng.uniform(-3.0, 3.0, n)
        add(z_integral(a, b, 1.0))
        add(z_integral(a, b, rng.uniform(0.0, 2.0, n)))
paths = [{str(ROOT / "configs" / "two_class_sir.json")!r}, {str(ROOT / "configs" / "two_rat_three_tier.json")!r},
         {str(ROOT / "benchmarks" / "scenarios" / "four_class.json")!r},
         {str(ROOT / "benchmarks" / "scenarios" / "dual_rat_500.json")!r}]
for path in paths:
    config = load_config(path)
    for curve in (h.sinr_ccdf(config, 10.0 ** (np.arange(-10.0, 31.0) / 10.0)),
                  h.rate_ccdf(config, np.logspace(4.0, 8.0, 9))):
        add(curve.values)
        for cid in sorted(curve.per_class):
            add(curve.per_class[cid])
summary = h.run_batch(load_config(paths[1]), h.SimSettings(trials=64, seed=5, window_km=8.0),
                      rate_grid=np.logspace(4.0, 8.0, 9))
for curve in (summary.sinr_ccdf, summary.rate_ccdf):
    add(curve.values)
for cid in sorted(summary.association_freq):
    add([summary.association_freq[cid], summary.mean_cell_area[cid], *summary.load_histogram[cid]])
print(json.dumps([len(os.listdir('/proc/self/task')), digest.hexdigest()]))
"""


def test_outputs_do_not_depend_on_the_thread_count():
    """z_integral, sinr_ccdf, rate_ccdf (theorem1) and a 64-trial run_batch
    hash the same under one OpenBLAS thread and under two."""
    one = json.loads(_run(_DIGEST))
    two = json.loads(_run(_DIGEST, OPENBLAS_NUM_THREADS="2"))
    assert (one[0], two[0]) == (1, TWO)
    assert one[1] == two[1]
