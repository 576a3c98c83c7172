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


# Every statistic of the script for each supported m, frozen so that a change
# to how the script is assembled must leave the counts unchanged.
@pytest.mark.parametrize(
    "stats",
    [
        SmtStats(3, 24, 24, 57, 3, 6, 36),
        SmtStats(4, 48, 48, 195, 6, 36, 288),
        SmtStats(5, 96, 96, 633, 10, 150, 1500),
        SmtStats(6, 192, 192, 1995, 15, 540, 6480),
        SmtStats(7, 384, 384, 6177, 21, 1806, 25_284),
        SmtStats(8, 768, 768, 18_915, 28, 5796, 92_736),
    ],
    ids=lambda stats: f"m{stats.m}",
)
def test_script_statistics_for_every_m(stats):
    assert emit_smtlib(stats.m)[1] == stats


def test_script_structure():
    text, stats = emit_smtlib(3)
    assert text.startswith("(set-logic QF_LRA)")
    assert text.rstrip().endswith("(check-sat)")
    assert text.count("declare-const") == stats.constants
    assert text.count("(assert (>=") == stats.positivity_assertions
    # every constant is declared once and used at least once more
    for agent in range(3):
        for mask in range(8):
            assert text.count(const_name(agent, mask) + " ") + text.count(
                const_name(agent, mask) + ")"
            ) >= 2


def test_monotonicity_assertions_cover_all_proper_pairs():
    _, stats = emit_smtlib(5)
    assert stats.monotonicity_assertions == 3 * (3**5 - 2**5)
    assert stats.item_order_assertions == 10


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
