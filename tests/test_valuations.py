import hashlib
import random
from types import SimpleNamespace

import pytest

from efxlab.bitset import cardinality, full_set, singleton_bits
from efxlab.errors import MonotonicityViolated, NotAPermutation
from efxlab.valuations import (
    RankValuation,
    RealValuation,
    leveled,
    monotonicity_violation,
    random_monotone_rank_valuation,
    rank_valuation_from_order,
)
from efxlab.verification import verify

from conftest import as_real, numeric_order_valuation


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


def test_real_tables_and_the_scan_share_the_monotonicity_check():
    values = (0, 2, 1, 3, 1, 1, 3, 4)  # only v({g0}) > v({g0, g2}) breaks monotonicity
    assert monotonicity_violation(values, 3) == (1, 5)
    with pytest.raises(MonotonicityViolated) as err:
        RealValuation(3, values)
    assert (err.value.subset, err.value.superset) == (1, 5)
    fine = as_real(random_monotone_rank_valuation(3, 4))
    unchecked = SimpleNamespace(m=3, value=values.__getitem__)  # a `Valuation` not checked when made
    report = verify([fine, unchecked, fine])
    assert report.monotone == (True, False, True)
    assert "valuation 1: NOT monotone" in report.to_text()


def _first_violation(values, m):
    """Reference: the first (sub, sup) pair, one singleton_bits walk per sub."""
    for sub in range(1 << m):
        for bit in singleton_bits(~sub & full_set(m)):
            if values[sub] > values[sub | bit]:
                return sub, sub | bit
    return None


def test_monotonicity_violation_matches_a_walk_over_single_goods():
    """The first pair on random integer tables: rank tables with a few entries moved, and noise."""
    rng = random.Random(21)
    for m in range(3, 7):
        for seed in range(40):
            values = list(random_monotone_rank_valuation(m, seed).rank)
            for _ in range(seed % 4):
                values[rng.randrange(1 << m)] = rng.randrange(1 << m)
            assert monotonicity_violation(values, m) == _first_violation(values, m), (m, seed)
            noise = [rng.randrange(4) for _ in range(1 << m)]
            assert monotonicity_violation(noise, m) == _first_violation(noise, m), (m, seed)


def _certify_draws(bench_seed):
    """The (m, seed) pairs of certify-m8's 150 random triples (perfbench/workloads.py)."""
    rng = random.Random(bench_seed)
    draws = []
    for _ in range(150):
        m = rng.choice((6, 7, 8))
        base = rng.randrange(1 << 30)
        draws += [(m, base + j) for j in range(3)]
    return draws


def test_random_valuations_are_pinned():
    """sha256 of the rank tables: 20 seeds at each m=3..8, criterion 10's 600 seeds at
    m=4..6, and the triples certify-m8 draws for benchmark seeds 1 and 2."""
    draws = [(m, seed) for m in range(3, 9) for seed in range(20)]
    draws += [(m, seed) for m in (4, 5, 6) for seed in range(600)]
    draws += _certify_draws(1) + _certify_draws(2)
    ranks = [random_monotone_rank_valuation(m, seed).rank for m, seed in draws]
    digest = hashlib.sha256(repr(ranks).encode()).hexdigest()
    assert digest == "b845e4c26ee8af91c42c3b05da9bc08f3afe607b25fd5ce706a843804aa99199"


def test_order_roundtrip_is_identity():
    val = random_monotone_rank_valuation(5, 99)
    assert rank_valuation_from_order(5, val.order()) == val


def test_random_valuation_deterministic_and_valid():
    first = random_monotone_rank_valuation(3, seed=1)
    second = random_monotone_rank_valuation(3, seed=1)
    assert first == second
    assert first != random_monotone_rank_valuation(3, seed=2)
    drawn = random_monotone_rank_valuation(4, seed=7)
    assert RankValuation(drawn.m, drawn.rank) == drawn


def test_random_valuation_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        random_monotone_rank_valuation(17, 0)
    with pytest.raises(ValueError):
        random_monotone_rank_valuation(2, 0)


def test_leveled_threshold_above_m_is_identity():
    val = random_monotone_rank_valuation(4, 11)
    assert leveled(val, 5) == val


def test_leveled_puts_large_sets_above_smaller_ones():
    val = random_monotone_rank_valuation(7, 2)
    out = leveled(val, 5)
    assert RankValuation(out.m, out.rank) == out
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
    v = numeric_order_valuation(4)
    assert RankValuation(v.m, v.rank) == v
