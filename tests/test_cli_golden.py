"""Golden test of CLI outputs: the recorded command matrix, replayed.

`tests/golden/record.py` recorded 13 commands on each shipped config.
Each replay must match its recording under that script's rule
(`mismatches`): the same exit code and warnings, the same text around
every number in stdout, stderr and every output file, numbers within
1e-10 relative, and the files of a Monte Carlo command byte for byte.  A
change that alters an output on purpose records the matrix again (see
that script) and says so in CHANGES.md.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

from hetnet_offload import cli

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record import COMMANDS, MATRIX, merge, mismatches, run_entry, same_text  # noqa: E402

ENTRIES = json.loads(MATRIX.read_text())


def _entry_id(entry: dict) -> str:
    return f"{entry['config']}:{' '.join(entry['command'])}"


def test_matrix_covers_both_configs():
    assert len(ENTRIES) == 26
    assert {e["config"] for e in ENTRIES} == {"two_class_sir", "two_rat_three_tier"}


@pytest.mark.parametrize("want", ENTRIES, ids=_entry_id)
def test_cli_output_matches_recording(want, tmp_path):
    got = run_entry(want["config"], want["command"], tmp_path)
    assert mismatches(got, want) == [], got


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
    assert same_text("b = 1.0000000000001 dB", "b = 1.0 dB")
    assert not same_text("b = 1.000000001 dB", "b = 1.0 dB")
    assert not same_text("b = 1.0 dB", "b = 1.0 dBm")
    assert not same_text("a,1", "a,1,2")


def _entry(command: list[str], stdout: str, file_text: str) -> dict:
    return {"config": "two_class_sir", "command": command, "exit_code": 0, "stdout": stdout, "stderr": "",
            "warnings": [], "files": {"out.csv": file_text}}


def test_record_again_keeps_the_entries_that_replay():
    """Recording again keeps an entry's recorded text when the new run is
    within the replay rule, and takes the new run's otherwise."""
    recorded = [
        _entry(["optimize", "bias"], "b = 1.0 dB\n", "x,0.25\n"),
        _entry(["analyze", "sinr"], "wrote 2 rows\n", "x,0.5\n"),
        _entry(["simulate"], "wrote\n", "x,0.75\n"),
    ]
    runs = copy.deepcopy(recorded)
    runs[0]["stdout"], runs[0]["files"]["out.csv"] = "b = 1.0000000000001 dB\n", "x,0.25000000000000006\n"
    runs[1]["files"]["out.csv"] = "x,0.500001\n"  # outside 1e-10
    runs[2]["files"]["out.csv"] = "x,0.7500000000000001\n"  # a Monte Carlo file: byte for byte
    new = _entry(["compare"], "max gap\n", "x,1\n")  # no recording yet
    merged = merge(recorded, [*runs, new])
    assert merged == [recorded[0], runs[1], runs[2], new]
    assert mismatches(runs[0], recorded[0]) == []
    assert mismatches(runs[1], recorded[1]) == mismatches(runs[2], recorded[2]) == ["out.csv"]
