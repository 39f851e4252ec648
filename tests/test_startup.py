"""What a fresh process loads: the package imports a module on first use.

`import hetnet_offload` loads numpy and none of the package's modules;
each export and submodule is imported when it is first read, and the CLI
imports argparse when it builds a parser and a command's modules when its
handler runs.  Each case runs `python -c` with PYTHONPATH=src, as
`test_threads.py` does, and reads the process's `sys.modules` at its end.
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
CONFIG = str(ROOT / "configs" / "two_class_sir.json")

_REPORT = """
import json, sys
print(json.dumps([sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("hetnet_offload.")),
                  "argparse" in sys.modules, "numpy" in sys.modules]))
"""


def _run(code: str):
    """The JSON on stdout's last line of `code` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded(code: str) -> tuple[set, bool, bool]:
    """The package's submodules `code` left loaded in a fresh interpreter,
    and whether argparse and numpy are loaded."""
    modules, argparse, numpy = _run(code + _REPORT)
    return set(modules), argparse, numpy


def test_bare_import_loads_numpy_and_no_submodule():
    assert _loaded("import hetnet_offload") == (set(), False, True)


def test_benchmark_setup_path_loads_only_what_it_calls():
    """The benchmark's set-up probe: import association and cli, load a
    config and make the first association call."""
    code = ("from hetnet_offload import association, cli\n"
            f"association.association_probabilities(cli.load_config({CONFIG!r}))\n")
    assert _loaded(code) == ({"model", "numerics", "association", "cli"}, False, True)


_SIM = ["--trials", "20", "--window-km", "4"]
# each command, and the package modules it must not load
COMMANDS = [
    (["analyze", "sinr"], {"offload", "montecarlo"}),
    (["analyze", "rate", "--rho-grid", "1e4:1e8:3"], {"offload", "montecarlo"}),
    (["simulate", *_SIM], {"offload"}),
    (["compare", *_SIM, "--rho-grid", "1e4:1e8:3"], {"offload"}),
    (["sweep", "bias", "--class", "2,3", "--range-db", "0:10:10", "--metric", "sir"], {"montecarlo"}),
    (["optimize", "bias", "--mode", "sir"], {"montecarlo"}),
    (["optimize", "bias", "--mode", "rate", "--method", "meanload"], {"montecarlo"}),
]


@pytest.mark.parametrize("command, absent", COMMANDS, ids=[" ".join(command) for command, _ in COMMANDS])
def test_a_command_loads_only_its_modules(command, absent, tmp_path):
    argv = [*command, "--config", CONFIG, "-o", str(tmp_path)]
    modules, argparse, _ = _loaded(f"from hetnet_offload.cli import main\nassert main({argv!r}) == 0\n")
    assert argparse
    assert {"model", "numerics", "association", "cli"} <= modules
    assert not modules & absent, modules & absent


def test_module_run_loads_only_its_modules(tmp_path):
    """Run as a script (`python -m hetnet_offload.cli`), the module binds its
    late names in the script's namespace all the same."""
    argv = ["hetnet-offload", "analyze", "sinr", "--config", CONFIG, "-o", str(tmp_path)]
    code = ("import runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('hetnet_offload.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code\n")
    modules, argparse, _ = _loaded(code)
    assert "coverage" in modules and argparse
    assert not modules & {"offload", "montecarlo"}
    assert (tmp_path / "sinr_ccdf.csv").exists()


_EXPORTS = """
import json
import hetnet_offload as h
listed = set(dir(h))
missing = [name for name in h.__all__ if name not in listed]
values = {name: getattr(h, name) for name in h.__all__}
namespace = {}
exec("from hetnet_offload import *", namespace)
star = sorted(name for name in namespace if name != "__builtins__")
import hetnet_offload.numerics, hetnet_offload.offload
same = h.SolverError is h.numerics.SolverError is h.offload.SolverError
print(json.dumps([missing, len(values), star == sorted(h.__all__), same,
                  all(namespace[name] is values[name] for name in h.__all__)]))
"""


def test_every_export_resolves_in_a_fresh_process():
    """Every `__all__` name is listed by dir() before it is loaded, resolves
    to its module's object, and comes with `import *`; SolverError is one
    class wherever it is imported from."""
    missing, count, star, same, identical = _run(_EXPORTS)
    assert missing == []
    assert count == len(hetnet_offload.__all__) == 29
    assert star and same and identical


def test_submodules_resolve_as_attributes():
    modules, _, _ = _loaded("import hetnet_offload\nhetnet_offload.coverage.sinr_ccdf\n")
    assert modules == {"model", "numerics", "association", "coverage"}


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        hetnet_offload.bogus
    from hetnet_offload import cli

    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        cli.bogus
