"""Acceptance suite: one test per criterion, each at its stated tolerance.

The clause-total criterion is split per published row of
`reference.CLAUSE_ROWS` so its outcome is visible per configuration; each
row also asserts its published reduced total exactly, through
`acceptance.reduced_clause_count`, which is checked against `preprocess`
here.  Rows keep their published labels; `reference` explains the m=8 row,
published as k=8 and counted at k=6.
"""

import inspect

import pytest

from efxlab import acceptance, reference
from efxlab.encoding import EncodeOptions, encode_formula
from efxlab.simplify import preprocess


def run(check, **kwargs):
    result = check(**kwargs)
    detail = "\n".join(result.details)
    assert result.passed, f"{result.name}\n{detail}"
    return result


def test_criterion_1_allocation_counts():
    run(acceptance.check_allocation_counts)


def test_criterion_2_variable_counts():
    run(acceptance.check_variable_counts)


@pytest.mark.parametrize(
    "row",
    [pytest.param(row, id=f"m{row.m}_k{row.level_k}_{row.item_order}")
     for row in reference.CLAUSE_ROWS],
)
def test_criterion_3_clause_totals(row):
    ok, detail = acceptance.clause_total_check(row)
    assert ok, detail


@pytest.mark.parametrize(
    "opts",
    [pytest.param(EncodeOptions(m, k, item_order), id=f"m{m}_k{k}_{item_order}")
     for m in (3, 4, 5) for k in (None, *range(m + 2)) for item_order in (False, True)],
)
def test_reduced_clause_count_matches_preprocess(opts):
    result = preprocess(encode_formula(opts))
    expected = None if result.unsat else len(result.formula.clauses)
    assert acceptance.reduced_clause_count(opts) == expected


def test_criterion_3_monotonicity_family():
    from efxlab.encoding import clause_counts

    assert clause_counts(EncodeOptions(7, 5, True)).family_counts["monotonicity"] == 6177


def test_criterion_4_counterexample_verification():
    run(acceptance.check_counterexample_verification)


def test_criterion_5_analytics():
    run(acceptance.check_analytics)


def test_criterion_6_submodular_realization():
    run(acceptance.check_submodular_realization)


def test_criterion_7_extension():
    run(acceptance.check_extension)


def test_criterion_8_desk_scale_solving():
    run(acceptance.check_desk_solving)


def test_criterion_9_decoder_roundtrip():
    run(acceptance.check_decoder_roundtrip)


def test_criterion_10_three_agent_algorithm():
    run(acceptance.check_three_agent)


def test_criterion_11_smt_emission():
    run(acceptance.check_smt_emission)


def test_criterion_12_format_roundtrips():
    run(acceptance.check_format_roundtrips)


def test_a_false_expectation_fails_the_check_for_good():
    result = acceptance.CheckResult("x")
    result.record("fine")
    result.record("broken", False)
    result.record("fine again", True)
    assert not result.passed and result.details == ["fine", "broken", "fine again"]


def test_run_all_passes_jobs_to_exactly_the_checks_that_take_them(monkeypatch):
    for criterion in acceptance.ALL_CHECKS:
        takes = "jobs" in inspect.signature(criterion.check).parameters
        assert takes == criterion.takes_jobs, criterion.key
    calls = []

    def check(**kwargs):
        calls.append(kwargs)
        return acceptance.CheckResult("x")

    fakes = (
        acceptance.Criterion("plain", check),
        acceptance.Criterion("scan", check, takes_jobs=True),
        acceptance.Criterion("slow", check, slow=True),
    )
    monkeypatch.setattr(acceptance, "ALL_CHECKS", fakes)
    assert len(list(acceptance.run_all(jobs=3, skip=frozenset({"slow"})))) == 2
    assert calls == [{}, {"jobs": 3}]
