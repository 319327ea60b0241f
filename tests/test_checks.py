"""The bundled verification suites (light smoke; the heavy runs live in the
acceptance tests)."""

import pytest

from filterlab import checks
from filterlab.checks import CheckResult, _batch, run_suite, suite_names
from filterlab.domains import FilterLabError


def test_suite_names_are_distinct_and_known():
    names = suite_names()
    assert len(names) == len(set(names))
    assert "rank" in names and "ordinals" in names and "games" in names


def test_unknown_suite_raises():
    with pytest.raises(FilterLabError):
        run_suite("nosuch")


@pytest.mark.parametrize("name", ["ordinals", "rank", "type-gap"])
def test_fast_suites_pass(name):
    results = run_suite(name, seed=0)
    assert results
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.ok, f"{name}: {r.name}: {r.detail}"


def test_results_carry_names():
    results = run_suite("ordinals", seed=1)
    assert all(r.name for r in results)


# ---------------------------------------------------------------------------
# one tally per batch: the first failure, else the passing count


def test_a_batch_passes_when_every_case_does():
    assert _batch("b", ["", "", ""]) == CheckResult("b", True, "3/3")
    assert _batch("b", iter(["", ""]), lambda n: f"{n} agreements").detail == "2 agreements"
    assert _batch("b", []) == CheckResult("b", True, "0/0")


def test_a_batch_reports_its_first_failure():
    r = _batch("b", ["", "case 1 broke", "", "case 3 broke"], lambda n: "never shown")
    assert r.ok is False
    assert r.detail == "case 1 broke"
    assert _batch("b", (p for p in ["only case broke"])).detail == "only case broke"


def test_a_failing_primitive_fails_the_games_suite_at_its_first_failure(monkeypatch):
    real = checks.validate_transcript
    monkeypatch.setattr(
        checks,
        "validate_transcript",
        lambda t: [f"bad round in game {t.seed}"] if t.seed in (3, 7) else real(t),
    )
    results = {r.name: r for r in run_suite("games", seed=0)}
    copy = results["50 copy-strategy games, 50 rounds each: legal, budgeted, replayable"]
    assert copy.ok is False
    assert copy.detail == "seed 3: bad round in game 3"
    assert all(r.ok for r in results.values() if r is not copy)


def test_a_failing_parser_fails_only_its_round_trip(monkeypatch):
    monkeypatch.setattr(checks, "parse_seq", lambda src: None)
    results = run_suite("dsl", seed=0)
    failed = [r for r in results if not r.ok]
    assert [r.name for r in failed] == ["20 random sequences survive print and reparse"]
    assert failed[0].detail.startswith("sequence 0: seq(")
