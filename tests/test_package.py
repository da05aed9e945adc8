"""The package namespace: flipforge.__all__ is the union of its modules' __all__."""

import inspect
import os
import subprocess
import sys

import flipforge
from flipforge import analysis, construct, ecgraph, group, pipelines, setalg

SRC = os.path.dirname(os.path.dirname(flipforge.__file__))
MODULES = [analysis, construct, ecgraph, group, pipelines, setalg]


def test_all_names_resolve():
    for name in flipforge.__all__:
        assert hasattr(flipforge, name), name


def test_all_is_sorted_without_duplicates():
    assert flipforge.__all__ == sorted(set(flipforge.__all__))


def test_all_is_the_union_of_the_module_lists():
    exported = [name for module in MODULES for name in module.__all__]
    assert len(exported) == len(set(exported))
    assert flipforge.__all__ == sorted(exported)


def test_each_module_lists_only_what_it_defines():
    """An imported class or function listed in the wrong module's __all__ would
    be exported from there too."""
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)


def test_star_import_binds_exactly_all():
    """A child interpreter, so that nothing else is already in the namespace."""
    child = ("from flipforge import *\n"
             "print(sorted(k for k in dir() if not k.startswith('__')))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{flipforge.__all__}\n"


def test_only_group_reads_the_numbering_blocks():
    """GroupSpec alone numbers and translates elements; other modules call its methods."""
    package = os.path.dirname(flipforge.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "group.py":
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                assert "_blocks" not in handle.read(), name


def test_import_loads_neither_dataclasses_nor_inspect():
    """Records need no generated methods, so start-up skips both modules. A
    child process is needed, because pytest itself imports inspect."""
    child = ("import sys, flipforge, flipforge.cli\n"
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
