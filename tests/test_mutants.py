"""The mutant registry follows the source: each mutant's text occurs
exactly once where it says, and each of its tests is a test function of
its file.  ``run_mutants.py`` runs the mutants themselves."""

import ast
from functools import cache

import pytest
from _support import ROOT
from mutants import MUTANTS


@cache
def _test_ids(path: str) -> set[str]:
    """The node ids ``path::name`` and ``path::Class::name`` of the test
    functions and methods that path defines."""
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.update(
                f"{path}::{node.name}::{method.name}"
                for method in node.body
                if isinstance(method, ast.FunctionDef) and method.name.startswith("test")
            )
    return ids


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert names and len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[name for name, *_ in MUTANTS])
def test_each_mutant_targets_one_place_and_named_tests(mutant):
    _, file, old, new, test_ids = mutant
    assert old != new and test_ids
    assert (ROOT / file).read_text(encoding="utf-8").count(old) == 1
    for test_id in test_ids:
        assert test_id in _test_ids(test_id.split("::")[0]), test_id
