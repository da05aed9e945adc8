"""The package namespace: flipforge.__all__ lists exactly what __init__ imports."""

import ast

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
