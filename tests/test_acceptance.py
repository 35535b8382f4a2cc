"""Acceptance battery: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines;
the same checks back the `current1d suite` CLI subcommand.
"""

import functools
import json
import math

import pytest

from current1d.approximation import CurveMeasure
from current1d.suite import ALL_CRITERIA, _criterion, criterion_5_geodesic_approximation

from conftest import engine_digests


@pytest.fixture(scope="module")
def run_once():
    """Each criterion's result, run at most once in this module, so that the
    details digest reads the acceptance run."""
    return functools.cache(lambda runner: runner())


@pytest.mark.parametrize("runner", ALL_CRITERIA, ids=lambda r: r.__name__)
def test_acceptance_criterion(runner, run_once):
    result = run_once(runner)
    print(result.line(), flush=True)
    assert result.passed, f"criterion {result.index} failed: {result.details}"


def test_details_match_the_pinned_digest(run_once):
    """The verdicts and details of all nine criteria, as ``suite_digest`` in
    golden/make_engine_digests.py writes them to golden/engine_digests.json."""
    pinned = json.loads(engine_digests.OUT.read_text())["suite"]["details"]
    assert engine_digests.suite_digest([run_once(r) for r in ALL_CRITERIA]) == pinned


def test_criterion_5_fails_on_a_family_longer_than_4(monkeypatch):
    """The length bound on its generated family is part of the verdict, not an assert."""
    monkeypatch.setattr(CurveMeasure, "length_bound", property(lambda self: 4.0 + 1e-9))
    assert not criterion_5_geodesic_approximation().passed


def test_all_criteria_are_listed_in_order():
    names = [fn.__name__ for fn in ALL_CRITERIA]
    assert len(names) == 9
    for i, name in enumerate(names, start=1):
        assert name.startswith(f"criterion_{i}_")


class TestCriterionRunner:
    DETAILS = {"worst": 0.5}

    def check(self):
        return True, self.DETAILS

    def test_passes_under_the_default_limit_with_details_unchanged(self):
        result = _criterion(3, "name")(self.check)()
        assert (result.index, result.name, result.passed) == (3, "name", True)
        assert result.details is self.DETAILS
        assert 0.0 <= result.seconds < math.inf

    def test_fails_past_its_limit(self):
        result = _criterion(3, "name", limit_s=0.0)(self.check)()
        assert not result.passed
        assert result.details is self.DETAILS

    def test_a_failed_check_fails_within_its_limit(self):
        assert not _criterion(1, "name")(lambda: (False, {}))().passed

    def test_keeps_the_check_name(self):
        assert _criterion(1, "name")(self.check).__name__ == "check"
