import pytest

from efxlab.smtlib import SmtStats, const_name, emit_smtlib, tokenize_balanced


def test_seven_good_script_statistics():
    text, stats = emit_smtlib(7)
    assert stats.disjuncts == 1806
    assert stats.inequalities == 25_284
    assert stats.inequalities == stats.disjuncts * 14
    assert stats.constants == 3 * 128
    tokenize_balanced(text)


def test_four_good_script_statistics():
    text, stats = emit_smtlib(4)
    assert stats.disjuncts == 36
    assert stats.inequalities == 288
    assert stats.constants == 48
    tokenize_balanced(text)


def assertion_counts(text):
    """Positivity, monotonicity and item-order assertions in the script text.

    A strict assertion compares two sets of one agent: monotonicity puts a set
    below a superset, item order one good below another."""
    positivity = monotonicity = item_order = 0
    for line in text.splitlines():
        if line.startswith("(assert (>= "):
            positivity += 1
        elif line.startswith("(assert (< "):
            a, b = (int(name.rsplit("_", 1)[1]) for name in line[len("(assert (< "):-2].split())
            if a & b == a:
                monotonicity += 1
            else:
                item_order += 1
    return positivity, monotonicity, item_order


# Every statistic of the script for each supported m, and its assertion counts,
# frozen so that a change to how the script is assembled must leave them unchanged.
@pytest.mark.parametrize(
    "stats,assertions",
    [
        pytest.param(stats, assertions, id=f"m{stats.m}")
        for stats, assertions in [
            (SmtStats(3, 24, 6, 36), (24, 57, 3)),
            (SmtStats(4, 48, 36, 288), (48, 195, 6)),
            (SmtStats(5, 96, 150, 1500), (96, 633, 10)),
            (SmtStats(6, 192, 540, 6480), (192, 1995, 15)),
            (SmtStats(7, 384, 1806, 25_284), (384, 6177, 21)),
            (SmtStats(8, 768, 5796, 92_736), (768, 18_915, 28)),
        ]
    ],
)
def test_script_statistics_for_every_m(stats, assertions):
    text, emitted = emit_smtlib(stats.m)
    assert emitted == stats
    assert assertion_counts(text) == assertions


def test_script_structure():
    text, stats = emit_smtlib(3)
    assert text.startswith("(set-logic QF_LRA)")
    assert text.rstrip().endswith("(check-sat)")
    assert text.count("declare-const") == stats.constants
    assert text.count("(assert (>=") == stats.constants
    # every constant is declared once and used at least once more
    for agent in range(3):
        for mask in range(8):
            assert text.count(const_name(agent, mask) + " ") + text.count(
                const_name(agent, mask) + ")"
            ) >= 2


def test_monotonicity_assertions_cover_all_proper_pairs():
    text, _ = emit_smtlib(5)
    _, monotonicity, item_order = assertion_counts(text)
    assert monotonicity == 3 * (3**5 - 2**5)
    assert item_order == 10


def test_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        emit_smtlib(2)
    with pytest.raises(ValueError):
        emit_smtlib(9)


def test_tokenizer_detects_imbalance():
    with pytest.raises(ValueError):
        tokenize_balanced("(assert (> a b)")
    with pytest.raises(ValueError):
        tokenize_balanced("(assert))")
