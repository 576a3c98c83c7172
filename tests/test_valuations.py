from fractions import Fraction

import pytest

from efxlab.bitset import cardinality
from efxlab.errors import MonotonicityViolated, NotAPermutation
from efxlab.valuations import (
    RealValuation,
    as_real,
    leveled,
    numeric_order_valuation,
    perturb_nondegenerate,
    random_monotone_rank_valuation,
    rank_valuation_from_order,
)


def check_pairwise_order_preserved(a: RealValuation, b: RealValuation) -> bool:
    """True iff every strict comparison of a holds in b as well."""
    n_sets = 1 << a.m
    for s in range(n_sets):
        for t in range(n_sets):
            if a.values[s] < a.values[t] and not b.values[s] < b.values[t]:
                return False
    return True


def is_nondegenerate(v: RealValuation) -> bool:
    return len(set(v.values)) == len(v.values)


def test_from_order_binary_numbering_is_identity():
    m = 3
    val = rank_valuation_from_order(m, list(range(1 << m)))
    assert all(val.rank[mask] == mask for mask in range(1 << m))


def test_from_order_rejects_non_permutations():
    with pytest.raises(NotAPermutation):
        rank_valuation_from_order(3, [0] * 8)
    with pytest.raises(NotAPermutation):
        rank_valuation_from_order(3, list(range(7)))


def test_from_order_reports_monotonicity_witness():
    order = list(range(8))
    order[0], order[1] = order[1], order[0]  # empty set above {g0}
    with pytest.raises(MonotonicityViolated) as err:
        rank_valuation_from_order(3, order)
    assert (err.value.subset, err.value.superset) == (0, 1)


def test_order_roundtrip_is_identity():
    val = random_monotone_rank_valuation(5, 99)
    assert rank_valuation_from_order(5, val.order()) == val


def test_random_valuation_deterministic_and_valid():
    first = random_monotone_rank_valuation(3, seed=1)
    second = random_monotone_rank_valuation(3, seed=1)
    assert first == second
    assert first != random_monotone_rank_valuation(3, seed=2)
    random_monotone_rank_valuation(4, seed=7).validate()


def test_random_valuation_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        random_monotone_rank_valuation(17, 0)
    with pytest.raises(ValueError):
        random_monotone_rank_valuation(2, 0)


def test_perturb_separates_cardinality_ties():
    # v(S) = |S| on two goods is degenerate on the singletons; the smallest
    # power of two putting distinct values 2^m apart is 4.
    v = RealValuation(2, (0, 1, 1, 2))
    out = perturb_nondegenerate(v)
    assert out.values == (0, Fraction(5), Fraction(6), Fraction(11))
    assert out.values[0b01] < out.values[0b10]
    assert is_nondegenerate(out)
    out.validate()


def test_perturb_preserves_strict_order_and_is_idempotent_up_to_order():
    base = as_real(random_monotone_rank_valuation(4, 3))
    once = perturb_nondegenerate(base)
    twice = perturb_nondegenerate(once)
    assert check_pairwise_order_preserved(base, once)
    assert check_pairwise_order_preserved(once, twice)
    assert check_pairwise_order_preserved(twice, once)


def test_perturb_orders_singletons_by_index_on_flat_input():
    flat = RealValuation(3, tuple(0 if mask != 7 else 1 for mask in range(8)))
    out = perturb_nondegenerate(flat)
    assert is_nondegenerate(out)
    assert out.values[0b001] < out.values[0b010] < out.values[0b100]
    out.validate()


def test_leveled_threshold_above_m_is_identity():
    val = random_monotone_rank_valuation(4, 11)
    assert leveled(val, 5) == val


def test_leveled_puts_large_sets_above_smaller_ones():
    val = random_monotone_rank_valuation(7, 2)
    out = leveled(val, 5)
    out.validate()
    for large in range(1 << 7):
        if cardinality(large) < 5:
            continue
        for small in range(1 << 7):
            if cardinality(small) < cardinality(large):
                assert out.rank[small] < out.rank[large]


def test_leveled_zero_threshold_sorts_by_cardinality_then_number():
    val = random_monotone_rank_valuation(3, 8)
    out = leveled(val, 0)
    expected = sorted(range(8), key=lambda mask: (cardinality(mask), mask))
    assert out.order() == expected


def test_leveled_preserves_relative_order_below_threshold():
    val = random_monotone_rank_valuation(5, 17)
    out = leveled(val, 3)
    below = [mask for mask in val.order() if cardinality(mask) < 3]
    assert [mask for mask in out.order() if cardinality(mask) < 3] == below


def test_leveled_is_idempotent():
    val = random_monotone_rank_valuation(5, 23)
    assert leveled(leveled(val, 3), 3) == leveled(val, 3)


def test_numeric_order_valuation_is_valid():
    numeric_order_valuation(4).validate()
