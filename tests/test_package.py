"""Package hygiene: every module uses each name it imports, and the import
defines its classes without generating code."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import specfam

SRC = Path(__file__).resolve().parent.parent / "src" / "specfam"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "SpectrumSet"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports((SRC / path).read_text()) == []


def test_unused_import_check_flags_a_leftover():
    source = "from typing import Callable, Sequence\nfrom .errors import EmptySet\nx: Sequence = ()\n"
    assert _unused_imports(source) == ["Callable (line 1)", "EmptySet (line 2)"]


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = {
        name for name, value in vars(specfam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(specfam.__all__) == len(set(specfam.__all__))
    assert set(specfam.__all__) == bound | {"__version__"}


def test_importing_the_cli_after_numpy_loads_every_module_and_no_dataclasses():
    # the modules that `import specfam.cli` adds to a fresh interpreter that has numpy
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import specfam.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert "dataclasses" not in added
    # every module of the package, eagerly: none is left to a later, untimed first use
    package = {"specfam"} | {f"specfam.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert {m for m in added if m.split(".")[0] == "specfam"} == package


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_module_does_not_import_dataclasses(path):
    tree = ast.parse((SRC / path).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert all(name.split(".")[0] != "dataclasses" for name in names), node.lineno
