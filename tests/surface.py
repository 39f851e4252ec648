"""Print the package's size on the three measures of ROADMAP aim 2, and its start-up.

    python3 tests/surface.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's `src/hetnet_offload`; pass another
checkout's to measure it the same way.  The measures are:

* lines: `wc -l` over the package's `*.py` files;
* exports: the names in the package's `__all__`;
* settable values: the defaults of every `def` (positional and
  keyword-only; lambdas not counted) plus the annotated fields of every
  `@dataclass` class, counted with `ast`;
* start-up lines: the lines of the package's modules that a fresh
  `from hetnet_offload import cli` loads, read in a new interpreter with
  PACKAGE_DIR's parent as PYTHONPATH, against all of the package's lines.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hetnet_offload"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def exports(init: Path) -> int:
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return len(node.value.elts)
    return 0


def _lines(path: Path) -> int:
    return len(path.read_bytes().splitlines())


def startup_files(package: Path) -> list[Path]:
    """The package's files that a fresh `from hetnet_offload import cli` loads."""
    code = ("import json, sys\nfrom hetnet_offload import cli\n"
            "print(json.dumps([m.__file__ for name, m in sys.modules.items()\n"
            "                  if name.split('.')[0] == 'hetnet_offload']))")
    env = {**os.environ, "PYTHONPATH": str(package.resolve().parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return [Path(f) for f in json.loads(out.stdout)]


def main(package: Path) -> None:
    files = sorted(package.glob("*.py"))
    lines = sum(_lines(f) for f in files)
    settable = sum(settable_values(ast.parse(f.read_text())) for f in files)
    print(f"src lines        {lines}")
    print(f"__all__ names    {exports(package / '__init__.py')}")
    print(f"settable values  {settable}")
    print(f"start-up lines   {sum(_lines(f) for f in startup_files(package))} of {lines}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
