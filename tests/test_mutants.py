"""Each entry of the mutant ledger (`mutants.py`): its probe finds nothing on
the package as it is, and finds what the ledger pins under the mutant."""

import pytest

from mutants import LEDGER


@pytest.mark.parametrize("name", LEDGER)
def test_the_probe_passes_clean_and_catches_its_mutant(name, monkeypatch, fresh_memos):
    mutant = LEDGER[name]
    assert not any(mutant.probe())
    fresh_memos()  # values cached by the clean run would hide the mutant
    mutant.apply(monkeypatch)
    assert mutant.probe() == mutant.caught
