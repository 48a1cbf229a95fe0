"""The recorded mutations still apply: ``tests/mutants.py`` runs them on demand."""

import pytest

import mutants


def test_names_are_unique_and_one_is_planted():
    names = [mutation.name for mutation in mutants.MUTATIONS]
    assert len(names) == len(set(names))
    assert [mutation.name for mutation in mutants.MUTATIONS if mutation.survives] == [
        "planted-comment-only"
    ]


@pytest.mark.parametrize("mutation", mutants.MUTATIONS, ids=lambda mutation: mutation.name)
def test_old_text_occurs_exactly_once(mutation):
    assert mutants.problem(mutation) is None
