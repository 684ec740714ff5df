import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once(mutant):
    # a refactor that moves or rewrites the mutated code must update the entry
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.tests and mutant.new != mutant.old


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
