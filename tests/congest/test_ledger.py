"""Tests for the round ledger used by phase-composed algorithms."""

import pytest

from repro.congest import RoundLedger


class TestRoundLedger:
    def test_charge_accumulates(self):
        ledger = RoundLedger()
        ledger.charge(3, "mis")
        ledger.charge(2, "mis")
        ledger.charge(1, "cleanup")
        assert ledger.total == 6
        assert ledger.breakdown == {"mis": 5, "cleanup": 1}

    def test_negative_charge_rejected(self):
        ledger = RoundLedger()
        with pytest.raises(ValueError):
            ledger.charge(-1, "oops")

    def test_as_dict_includes_total(self):
        ledger = RoundLedger()
        ledger.charge(4, "phase")
        assert ledger.as_dict() == {"phase": 4, "total": 4}
