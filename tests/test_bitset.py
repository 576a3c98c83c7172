import random

import pytest

from efxlab.bitset import (
    bitstring,
    cardinality,
    check_good_count,
    cover_table,
    disjoint_union,
    full_set,
    goods,
    is_proper_subset,
    parse_bitstring,
    singleton_bits,
    submasks,
)
from efxlab.errors import BadPartitionInput, EfxLabError, GoodCountOutOfRange, OverlappingBundles


def test_cardinality_and_membership():
    assert cardinality(0) == 0
    assert cardinality(0b10110) == 3
    assert list(goods(0b10110)) == [1, 2, 4]
    assert list(singleton_bits(0b101)) == [1, 4]


def test_subset_relations():
    assert is_proper_subset(0b001, 0b011)
    assert not is_proper_subset(0b011, 0b011)


def test_submasks_enumerates_all_subsets_ascending():
    assert submasks(0b1010) == [0b0000, 0b0010, 0b1000, 0b1010]
    assert submasks(0) == [0]
    rng = random.Random(15)
    for mask in [0, (1 << 10) - 1, *(rng.randrange(1 << 12) for _ in range(20))]:
        assert submasks(mask) == [s for s in range(mask + 1) if not s & ~mask], mask


def test_cover_table_lists_one_good_steps_by_ascending_good():
    for m in range(7):
        above, below = cover_table(m)
        assert len(above) == len(below) == 1 << m
        for s in range(1 << m):
            assert above[s] == tuple(s | (1 << g) for g in range(m) if not s >> g & 1)
            assert below[s] == tuple(s ^ (1 << g) for g in goods(s))
        assert sum(map(len, above)) == sum(map(len, below)) == m << m >> 1
    assert cover_table(5) is cover_table(5)


def test_bitstring_leftmost_is_high_bit():
    assert bitstring(5, 8) == "00000101"
    assert parse_bitstring("00000101") == 5
    assert parse_bitstring(bitstring(0b1100101, 7)) == 0b1100101


def test_good_count_range_error_is_typed():
    check_good_count(3)
    check_good_count(16)
    for m in (2, 17):
        with pytest.raises(GoodCountOutOfRange) as exc:
            check_good_count(m)
        assert isinstance(exc.value, EfxLabError) and isinstance(exc.value, ValueError)


def test_disjoint_union_returns_the_union_of_disjoint_sets():
    assert disjoint_union(3, (0b001, 0b100)) == 0b101
    assert disjoint_union(3, ()) == 0
    assert disjoint_union(0, (0, 0)) == 0


@pytest.mark.parametrize(
    "m, sets, error",
    [
        (-1, (), GoodCountOutOfRange),
        (-1, (0b1,), GoodCountOutOfRange),
        (3, (0b001, 0b1000), BadPartitionInput),
        (3, (0b001, -4), BadPartitionInput),
        (3, (0b011, 0b011, 0b1000), BadPartitionInput),  # the range is checked before overlap
        (3, (0b011, 0b110), OverlappingBundles),
        (3, (0b001, 0b001), OverlappingBundles),
    ],
)
def test_disjoint_union_names_each_fault(m, sets, error):
    with pytest.raises(error):
        disjoint_union(m, sets)


def test_negative_good_count_is_typed():
    with pytest.raises(GoodCountOutOfRange):
        full_set(-1)
    assert full_set(0) == 0 and full_set(3) == 0b111
