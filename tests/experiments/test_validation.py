"""The claim-validation gate: every paper claim must stay in band."""

from pathlib import Path

import pytest

from repro.analysis.validation import (
    ClaimCheck,
    failed_checks,
    summarize,
    validate_all,
)


@pytest.fixture(scope="module")
def checks():
    return validate_all(fast=True, seed=0)


class TestValidation:
    def test_no_hard_failures(self, checks):
        """The regression gate for the whole reproduction."""
        failures = failed_checks(checks)
        assert not failures, "\n".join(str(c) for c in failures)

    def test_covers_every_artifact(self, checks):
        prefixes = {check.claim_id.split("-")[0] for check in checks}
        assert {"T1", "F2", "F3", "OV", "F4", "CO"} <= prefixes

    def test_at_least_twenty_claims(self, checks):
        assert len(checks) >= 20

    def test_summary_mentions_counts(self, checks):
        text = summarize(checks)
        assert "claims in band" in text
        for check in checks[:3]:
            assert check.claim_id in text

    def test_claimcheck_status_logic(self):
        passing = ClaimCheck("x", "d", "p", measured=5.0, band=(4.0, 6.0))
        assert passing.passed and "PASS" in str(passing)
        failing = ClaimCheck("x", "d", "p", measured=9.0, band=(4.0, 6.0))
        assert not failing.passed and "FAIL" in str(failing)
        deviation = ClaimCheck(
            "x", "d", "p", measured=9.0, band=(4.0, 6.0), known_deviation=True
        )
        assert "DEVIATION" in str(deviation)
        assert failed_checks([passing, failing, deviation]) == [failing]


class TestGolden:
    def test_fast_seed0_summary_matches_golden(self, checks):
        """The fast claim table, byte for byte, as captured while
        validation still called the six drivers directly."""
        golden = Path(__file__).parent / "golden" / "validate_fast_seed0.txt"
        assert summarize(checks) + "\n" == golden.read_text()
