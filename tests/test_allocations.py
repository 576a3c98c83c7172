import pytest

from efxlab.allocations import (
    Allocation,
    count_allocations,
    enumerate_bundle_tuples,
    singleton_histogram,
)
from efxlab.errors import (
    AgentCountOutOfRange,
    BadPartitionInput,
    GoodCountOutOfRange,
    OverlappingBundles,
)
from efxlab.verification import _coded


def decoded_bundles(n, m):
    """Reference: decode every owner code digit by digit."""
    for code in range(n**m):
        bundles = [0] * n
        rest = code
        for good in range(m):
            bundles[rest % n] |= 1 << good
            rest //= n
        if all(bundles):
            yield code, tuple(bundles)


@pytest.mark.parametrize(
    "n,m,expected",
    [(3, 3, 6), (3, 6, 540), (3, 7, 1806), (3, 8, 5796), (4, 9, 186480)],
)
def test_closed_form_counts(n, m, expected):
    assert count_allocations(n, m) == expected


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3), (3, 6), (3, 7), (4, 6)])
def test_enumeration_matches_closed_form(n, m):
    assert sum(1 for _ in enumerate_bundle_tuples(n, m)) == count_allocations(n, m)


def test_three_goods_yields_all_singleton_assignments():
    allocations = list(enumerate_bundle_tuples(3, 3))
    assert len(allocations) == 6
    for bundles in allocations:
        Allocation(3, bundles)
        assert sorted(bundles) == [1, 2, 4]


def test_yields_are_valid_and_unique():
    seen = set()
    for bundles in enumerate_bundle_tuples(3, 5):
        Allocation(5, bundles)
        assert all(bundles)
        assert bundles not in seen
        seen.add(bundles)


def test_singleton_subcounts_for_seven_goods():
    assert singleton_histogram(3, 7) == {2: 126, 1: 1050, 0: 630}


def test_requires_enough_goods():
    with pytest.raises(AgentCountOutOfRange):
        count_allocations(4, 3)
    with pytest.raises(AgentCountOutOfRange):
        list(enumerate_bundle_tuples(4, 3))
    with pytest.raises(ValueError):
        list(enumerate_bundle_tuples(0, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coded_bundles_match_digit_by_digit_decode(n):
    """The bundle tuples, each with its owner code (`verification._coded`), are
    those of the ascending codes that leave no bundle empty."""
    for m in range(n, 8):
        coded = [_coded(n, bundles) for bundles in enumerate_bundle_tuples(n, m)]
        assert coded == list(decoded_bundles(n, m)), m
        assert len(coded) == count_allocations(n, m)


def test_allocation_validate_rejects_bad_partitions():
    with pytest.raises(ValueError):
        Allocation(3, (0b011, 0b110, 0b000))  # overlap
    with pytest.raises(ValueError):
        Allocation(3, (0b001, 0b010, 0b000))  # incomplete


def test_allocation_validate_names_the_fault():
    with pytest.raises(OverlappingBundles):
        Allocation(3, (0b011, 0b110, 0b000))
    with pytest.raises(BadPartitionInput):
        Allocation(3, (0b001, 0b010, 0b000))
    with pytest.raises(BadPartitionInput):
        Allocation(3, (0b001, 0b010, 0b1100))  # a good at m
    with pytest.raises(BadPartitionInput):
        Allocation(3, (0b001, 0b010, -4))  # a negative bundle
    with pytest.raises(GoodCountOutOfRange):
        Allocation(-1, ())
    Allocation(3, (0b001, 0b110, 0b000))
    Allocation(0, ())
