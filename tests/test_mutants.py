"""The mutation matrix stays applicable: tests/mutants.py plants each bug by
replacing a text that must occur exactly once in its file, so a refactor that
moves or copies that text shows here, not only when the matrix is run."""

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("path, old", [(path, old) for _, path, old, _ in MUTANTS],
                         ids=[name for name, *_ in MUTANTS])
def test_each_mutant_text_occurs_once_in_its_file(path, old):
    assert (REPO / path).read_text(encoding="utf-8").count(old) == 1
