"""Levels that lose nothing, and the m=8 level ladder.

An allocation of m goods into n non-empty bundles compares, in every EFX
condition that monotonicity does not settle, two sets of at most m - n goods
(`valuations.leveled` gives the argument).  Leveling at any k >= m - n + 1
keeps those comparisons, so it keeps every allocation's verdict and the
whole `verify` report; below that level the report can change.
"""

import pytest

from efxlab.cdcl import SolveStatus, solve
from efxlab.decoding import load_bundled_counterexample
from efxlab.dimacs import assignment_from_ranks
from efxlab.encoding import EncodeOptions, encode, encode_formula, var_id
from efxlab.errors import LevelOutOfRange
from efxlab.simplify import preprocess
from efxlab.valuations import leveled, random_monotone_rank_valuation
from efxlab.verification import verify


def seeded_instance(n: int, m: int, j: int):
    return [random_monotone_rank_valuation(m, 100 * n + 10 * m + j + 7 * a) for a in range(n)]


@pytest.mark.parametrize("k", [-1, 6, 9])
def test_levels_outside_zero_to_m_plus_one_are_refused_alike(k):
    """Leveling a valuation and encoding with a level read the one range check."""
    message = f"level threshold k={k} outside 0..5"
    with pytest.raises(LevelOutOfRange, match=message):
        leveled(random_monotone_rank_valuation(4, 0), k)
    with pytest.raises(LevelOutOfRange, match=message):
        EncodeOptions(4, k)


@pytest.mark.parametrize("k", [0, 5])
def test_levels_zero_and_m_plus_one_are_accepted(k):
    v = random_monotone_rank_valuation(4, 0)
    assert leveled(v, k).m == 4
    assert EncodeOptions(4, k).level_k == k


@pytest.mark.parametrize("n,m", [(3, 5), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7)])
def test_leveling_at_or_above_m_minus_n_plus_one_keeps_the_report(n, m):
    for j in range(6):
        instance = seeded_instance(n, m, j)
        report = verify(instance).to_json()
        for k in range(m - n + 1, m + 2):
            assert verify([leveled(v, k) for v in instance]).to_json() == report, (j, k)


def test_leveling_below_that_level_can_change_the_efx_count():
    instance = seeded_instance(3, 6, 2)
    assert verify(instance).efx_count == 22
    assert verify([leveled(v, 3) for v in instance]).efx_count == 23  # k = m - n


def test_shipped_counterexample_leveled_at_four_is_still_one_and_at_three_is_not():
    shipped = load_bundled_counterexample()
    assert verify([leveled(v, 4) for v in shipped]).efx_count == 0
    assert verify([leveled(v, 3) for v in shipped]).efx_count == 224


def test_leveled_counterexample_satisfies_the_m8_k4_item_order_formula():
    tables = [leveled(v, 4).rank for v in load_bundled_counterexample()]
    assignment = assignment_from_ranks(tables, lambda i, a, b: var_id(i, a, b, 8))
    true_lits = {var if value else -var for var, value in assignment.values.items()}
    streamed = falsified = 0
    for clause in encode(EncodeOptions(8, 4, True)):
        streamed += 1
        falsified += true_lits.isdisjoint(clause)
    assert (streamed, falsified) == (2_313_481, 0)


def test_m8_k3_item_order_formula_is_unsat():
    reduced = preprocess(encode_formula(EncodeOptions(8, 3, True)))
    assert not reduced.unsat
    result = solve(reduced.formula)
    assert result.status is SolveStatus.UNSATISFIABLE
    assert result.conflicts == 413
