"""The mutant catalogue in ``mutants.py`` stays runnable: every entry's
fragment occurs exactly once in its file, and every test it names is
defined where it says.  Running the mutants themselves is CI's ``mutants``
job; this reads the files only."""
import ast
import functools

import pytest

import mutants


@functools.cache
def defined(path: str) -> set[str]:
    """The ``Class::function`` and ``function`` names of the tests in ``path``."""
    names = set()
    for node in ast.parse((mutants.ROOT / path).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{sub.name}" for sub in node.body if isinstance(sub, ast.FunctionDef))
    return names


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[mutant.name for mutant in mutants.MUTANTS])
def test_catalogue_entry_can_run(mutant):
    assert (mutants.ROOT / mutant.path).read_text().count(mutant.fragment) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (mutants.ROOT / path).is_file(), test
        assert name.partition("[")[0] in defined(path), test
