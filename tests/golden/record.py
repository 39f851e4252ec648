"""Record, or replay, the golden matrix of CLI outputs and the Monte Carlo
block digests.

Thirteen commands run on each shipped config, in process, through
`hetnet_offload.cli.main`.  For each one the matrix keeps the exit code,
stdout, stderr, the warnings raised and the text of every output file.
`duration_seconds` is dropped from the manifest, and the config path and
output directory are written as the placeholders `{config}` and `{out}`.

The block digests are the SHA-256 of every array `montecarlo._run_block`
returns (serving rank, distance, SINR, load, rate, AP counts) for four
scenarios and two seeds, 500 trials each: the Monte Carlo engine's outputs
bit for bit, so a change meant to be a pure speed-up can be checked.  The
float arrays go through numpy's and libm's power, log and arctan2, whose
last bit can depend on the numpy version, the C library and the SIMD code
numpy picks for the CPU, so the recording also keeps that environment.

Run from the repo root to record both again, after a change that alters an
output on purpose (`cli` or `mc` records one of them):

    PYTHONPATH=src python3 tests/golden/record.py [cli|mc]

`tests/test_cli_golden.py` replays the matrix and
`tests/test_montecarlo.py` the block digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from hetnet_offload import NetworkConfig, SimSettings
from hetnet_offload.cli import load_config, main
from hetnet_offload.montecarlo import _run_block

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tests"))
from conftest import dual_rat_config, four_class_config  # noqa: E402

MATRIX = Path(__file__).with_name("cli_matrix.json")
MC_BLOCKS = Path(__file__).with_name("mc_blocks.json")
CONFIGS = ("two_class_sir", "two_rat_three_tier")

_RHO = ["--rho-grid", "1e4:1e8:9"]
_SWEEP = ["sweep", "bias", "--class", "2,3", "--range-db", "-10:30:10", "--method", "meanload", "--metric"]
_SIM = ["--trials", "150", "--seed", "3", "--window-km", "8"]
COMMANDS = (
    ["analyze", "sinr"],
    ["analyze", "rate", "--method", "theorem1", *_RHO],
    ["analyze", "rate", "--method", "meanload", *_RHO],
    ["analyze", "rate", "--method", "closedform", *_RHO],
    [*_SWEEP, "sir"],
    [*_SWEEP, "rate"],
    [*_SWEEP, "p95"],
    ["optimize", "bias", "--mode", "sir"],
    ["optimize", "bias", "--mode", "rate"],
    ["optimize", "bias", "--mode", "rate", "--method", "meanload", "--class", "2,3",
     "--bracket-lo-db", "-10", "--bracket-hi-db", "45"],
    ["simulate", *_SIM, "--deployment", "ppp"],
    ["simulate", *_SIM, "--deployment", "grid"],
    ["compare", *_SIM],
)


def run_entry(config_name: str, command: list[str], workdir: Path) -> dict:
    """Run one command and return its record, with paths as placeholders."""
    config = str(ROOT / "configs" / f"{config_name}.json")
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*command, "--config", config, "-o", str(out)])

    def unpath(text: str) -> str:
        return text.replace(str(out), "{out}").replace(config, "{config}")

    files = {}
    for path in sorted(out.iterdir()) if out.exists() else ():
        text = path.read_text()
        if path.name == "manifest.json":
            manifest = json.loads(text)
            del manifest["duration_seconds"]
            text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        files[path.name] = unpath(text)
    return {
        "config": config_name,
        "command": command,
        "exit_code": code,
        "stdout": unpath(stdout.getvalue()),
        "stderr": unpath(stderr.getvalue()),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": files,
    }


def mc_scenarios() -> dict[str, NetworkConfig]:
    """The block-digest scenarios: both shipped configs, dual-RAT with its
    closed APs and four-class, each with a 10 dB small-cell bias."""
    return {
        "two_class_sir": load_config(ROOT / "configs" / "two_class_sir.json"),
        "dual_rat_closed_10db": dual_rat_config(bias_db=10.0),
        "four_class_10db": four_class_config(b23_db=10.0),
        "two_rat_three_tier": load_config(ROOT / "configs" / "two_rat_three_tier.json"),
    }


MC_SEEDS = (1, 2**33 + 5)
MC_TRIALS = 500
_BLOCK_ARRAYS = ("serving", "distance_km", "sinr", "load", "rate_bps", "ap_counts")
INTEGER_ARRAYS = ("serving", "load", "ap_counts")


def float_environment() -> dict:
    """What the float arrays' last bits can depend on: the numpy version,
    the C library, and the SIMD targets numpy's ufuncs run on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath

    simd = [*umath.__cpu_baseline__, *(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))]
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()).strip(),
        "simd": simd,
    }


def mc_block_digests(config: NetworkConfig, seed: int) -> dict[str, str]:
    """SHA-256 of each `_run_block` array over trials 0..MC_TRIALS-1, with
    its dtype and shape."""
    arrays = _run_block(config, SimSettings(trials=MC_TRIALS, seed=seed), 0, MC_TRIALS)
    out = {}
    for name, array in zip(_BLOCK_ARRAYS, arrays):
        array = np.ascontiguousarray(array)
        head = f"{array.dtype.str}{array.shape}".encode()
        out[name] = hashlib.sha256(head + array.tobytes()).hexdigest()
    return out


def record_mc_blocks() -> dict:
    blocks = [
        {"scenario": name, "seed": seed, "trials": MC_TRIALS, "digests": mc_block_digests(config, seed)}
        for name, config in mc_scenarios().items()
        for seed in MC_SEEDS
    ]
    return {"float_environment": float_environment(), "blocks": blocks}


def record() -> list[dict]:
    entries = []
    for config_name in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                entries.append(run_entry(config_name, command, Path(tmp)))
    return entries


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    if what not in ("all", "cli", "mc"):
        sys.exit(f"usage: {sys.argv[0]} [cli|mc]")
    if what in ("all", "cli"):
        entries = record()
        MATRIX.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
        failed = sum(e["exit_code"] != 0 for e in entries)
        print(f"wrote {MATRIX.relative_to(ROOT)}: {len(entries)} commands, {failed} with a nonzero exit", file=sys.stderr)
    if what in ("all", "mc"):
        blocks = record_mc_blocks()
        MC_BLOCKS.write_text(json.dumps(blocks, indent=1, sort_keys=True) + "\n")
        print(f"wrote {MC_BLOCKS.relative_to(ROOT)}: {len(blocks['blocks'])} blocks", file=sys.stderr)
