"""Record, or replay, the golden matrix of CLI outputs.

Thirteen commands run on each shipped config, in process, through
`hetnet_offload.cli.main`.  For each one the matrix keeps the exit code,
stdout, stderr, the warnings raised and the text of every output file.
`duration_seconds` is dropped from the manifest, and the config path and
output directory are written as the placeholders `{config}` and `{out}`.

Run from the repo root to record the matrix again, after a change that
alters an output on purpose:

    PYTHONPATH=src python3 tests/golden/record.py

`tests/test_cli_golden.py` replays the matrix and compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

from hetnet_offload.cli import main

ROOT = Path(__file__).resolve().parents[2]
MATRIX = Path(__file__).with_name("cli_matrix.json")
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


def record() -> list[dict]:
    entries = []
    for config_name in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                entries.append(run_entry(config_name, command, Path(tmp)))
    return entries


if __name__ == "__main__":
    entries = record()
    MATRIX.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    failed = sum(e["exit_code"] != 0 for e in entries)
    print(f"wrote {MATRIX.relative_to(ROOT)}: {len(entries)} commands, {failed} with a nonzero exit", file=sys.stderr)
