import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once(mutant):
    # a refactor that moves or rewrites the mutated code must update the entry
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests and mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_listed_tests_exist(mutant):
    # a renamed test would otherwise turn the mutant into an "error" the
    # runner reports only when it is run
    for node in mutant.tests:
        path, *parts = node.split("::")
        assert (ROOT / path).is_file(), node
        source = (ROOT / path).read_text()
        for part in parts:
            name = part.split("[")[0]
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.M), node


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
