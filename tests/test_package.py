"""The package namespace: flipforge.__all__ lists exactly what __init__ imports."""

import ast
import os
import subprocess
import sys

import flipforge


def _imported_public_names():
    with open(flipforge.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")]


def test_all_names_resolve():
    for name in flipforge.__all__:
        assert hasattr(flipforge, name), name


def test_all_is_sorted_without_duplicates():
    assert flipforge.__all__ == sorted(set(flipforge.__all__))


def test_all_lists_every_public_import():
    imported = _imported_public_names()
    assert len(imported) == len(set(imported))
    assert set(imported) == set(flipforge.__all__)


def test_import_loads_neither_dataclasses_nor_inspect():
    """Records need no generated methods, so start-up skips both modules. A
    child process is needed, because pytest itself imports inspect."""
    child = ("import sys, flipforge, flipforge.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(flipforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
