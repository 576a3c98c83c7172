"""Cross-module properties on randomized instances."""

import pytest

from efxlab.allocations import Allocation, count_allocations, enumerate_bundle_tuples
from efxlab.fairness import is_efx
from efxlab.three_agent import TAG_EF1_EEFX, TAG_TEFX, equalize_for_valuation, solve_three
from efxlab.valuations import leveled, random_monotone_rank_valuation


@pytest.mark.parametrize("n,m", [(2, 8), (3, 9), (4, 7), (4, 8)])
def test_enumeration_length_matches_closed_form_wider(n, m):
    assert sum(1 for _ in enumerate_bundle_tuples(n, m)) == count_allocations(n, m)


def test_two_agent_cut_and_choose_from_equalized_partition():
    # split by one valuation, let the other agent pick its preferred bundle
    for seed in range(10):
        v = random_monotone_rank_valuation(5, 400 + seed)
        bundles = equalize_for_valuation((0, (1 << 5) - 1), v)
        preferred = max(range(2), key=lambda j: v.rank[bundles[j]])
        allocation = Allocation(5, (bundles[1 - preferred], bundles[preferred]))
        assert is_efx(allocation, [v, v])


def test_equalize_min_value_strictly_increases_when_input_not_efx():
    for seed in range(20):
        v = random_monotone_rank_valuation(5, 520 + seed)
        start = (0b00001, 0b00010, 0b11100)
        alloc = Allocation(5, start)
        already = is_efx(alloc, [v, v, v])
        out = equalize_for_valuation(start, v)
        before = min(v.rank[b] for b in start)
        after = min(v.rank[b] for b in out)
        if already:
            assert out == start
            assert after == before
        else:
            assert after > before


def test_three_agent_on_correlated_and_leveled_instances():
    for m in (4, 5, 6):
        for seed in range(40):
            a = random_monotone_rank_valuation(m, 1000 + seed)
            b = random_monotone_rank_valuation(m, 2000 + seed)
            mixes = (
                [a, b, b],
                [a, a, b],
                [a, leveled(b, m - 2), b],
                [leveled(a, 2), b, leveled(b, m - 1)],
            )
            for vals in mixes:
                result = solve_three(vals)
                assert result.tag in (TAG_TEFX, TAG_EF1_EEFX)
