"""Golden test of CLI outputs: the recorded command matrix, replayed.

`tests/golden/record.py` recorded 13 commands on each shipped config.
Each replay must give the same exit code, and the same text around every
number, in stdout, stderr, the warnings and every output file.  Numbers
must agree within 1e-10 relative, and the files of a Monte Carlo command
byte for byte.  A change that alters an output on purpose records the
matrix again (see that script) and says so in CHANGES.md.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

from hetnet_offload import cli

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record import COMMANDS, MATRIX, run_entry  # noqa: E402

ENTRIES = json.loads(MATRIX.read_text())
# commands whose files come from a Monte Carlo run: they must stay byte-identical
MONTE_CARLO_COMMANDS = ("simulate", "compare")
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _same_text(got: str, want: str) -> bool:
    """Equal text around the numbers, and numbers equal within 1e-10 relative."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for k, (g, w) in enumerate(zip(got_parts, want_parts)):
        if g == w:
            continue
        if k % 2 == 0 or not math.isclose(float(g), float(w), rel_tol=1e-10, abs_tol=0.0):
            return False  # odd parts are the numbers
    return True


def _entry_id(entry: dict) -> str:
    return f"{entry['config']}:{' '.join(entry['command'])}"


def test_matrix_covers_both_configs():
    assert len(ENTRIES) == 26
    assert {e["config"] for e in ENTRIES} == {"two_class_sir", "two_rat_three_tier"}


@pytest.mark.parametrize("want", ENTRIES, ids=_entry_id)
def test_cli_output_matches_recording(want, tmp_path):
    got = run_entry(want["config"], want["command"], tmp_path)
    assert got["exit_code"] == want["exit_code"]
    assert got["warnings"] == want["warnings"]
    for stream in ("stdout", "stderr"):
        assert _same_text(got[stream], want[stream]), (stream, got[stream], want[stream])
    assert sorted(got["files"]) == sorted(want["files"])
    exact = want["command"][0] in MONTE_CARLO_COMMANDS
    for name, text in want["files"].items():
        if exact:
            assert got["files"][name] == text, name
        else:
            assert _same_text(got["files"][name], text), name


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_command_parses_as_in_the_whole_tree(command, capsys):
    """Each recorded command parses to the same namespace from its own
    parser as from the whole tree, or fails there with the same error."""
    argv = cli._merge_grid_flags([*command, "--config", "c.json", "-o", "out"])
    outcomes = []
    for parser in (cli.build_parser(argv), cli.build_parser([])):
        try:
            outcomes.append(vars(parser.parse_args(argv)))
        except SystemExit as e:
            outcomes.append((e.code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]


def test_number_comparison_reads_numbers():
    assert _same_text("b = 1.0000000000001 dB", "b = 1.0 dB")
    assert not _same_text("b = 1.000000001 dB", "b = 1.0 dB")
    assert not _same_text("b = 1.0 dB", "b = 1.0 dBm")
    assert not _same_text("a,1", "a,1,2")
