import random
from math import factorial, prod

import pytest

from efxlab.allocations import (
    Allocation,
    class_pairs,
    coded_bundles,
    count_allocations,
    count_ordered_codes_below,
    enumerate_allocations,
    enumerate_bundle_tuples,
    singleton_histogram,
)
from efxlab.errors import AgentCountOutOfRange


def decoded_bundles(n, m, start, stop):
    """Reference: decode every owner code in [start, stop) digit by digit."""
    for code in range(start, stop):
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
    allocations = list(enumerate_allocations(3, 3))
    assert len(allocations) == 6
    for allocation in allocations:
        allocation.validate()
        assert sorted(allocation.bundles) == [1, 2, 4]


def test_yields_are_valid_and_unique():
    seen = set()
    for allocation in enumerate_allocations(3, 5):
        allocation.validate()
        assert all(allocation.bundles)
        assert allocation.bundles not in seen
        seen.add(allocation.bundles)


def test_singleton_subcounts_for_seven_goods():
    assert singleton_histogram(3, 7) == {2: 126, 1: 1050, 0: 630}


def test_requires_enough_goods():
    with pytest.raises(AgentCountOutOfRange):
        count_allocations(4, 3)
    with pytest.raises(AgentCountOutOfRange):
        list(enumerate_bundle_tuples(4, 3))
    with pytest.raises(ValueError):
        list(coded_bundles(0, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_odometer_matches_digit_by_digit_decode(n):
    rng = random.Random(n)
    for m in range(n, 8):
        space = n**m
        ranges = [(0, space), (0, 1), (space - 1, space), (5, 5)]
        for _ in range(6):
            start = rng.randrange(space)
            ranges.append((start, rng.randrange(start, space + 1)))
        for start, stop in ranges:
            got = list(coded_bundles(n, m, start, stop))
            assert got == list(decoded_bundles(n, m, start, stop)), (m, start, stop)
        assert len(list(coded_bundles(n, m))) == count_allocations(n, m)


# (n, m, classes of interchangeable agents): a class of 2, non-adjacent
# members, a class of 3, and a class of 3 beside one of 2
CLASSED = [
    (2, 5, [(0, 1)]),
    (3, 6, [(0, 2)]),
    (3, 6, [(0, 1, 2)]),
    (4, 6, [(1, 3)]),
    (4, 7, [(2, 3)]),
    (5, 6, [(0, 2, 4), (1, 3)]),
]


def filtered_bundles(n, m, start, stop, pairs):
    """Reference: the plain odometer, keeping codes whose pairs hold bundles[a] > bundles[b]."""
    for code, bundles in coded_bundles(n, m, start, stop):
        if all(bundles[a] > bundles[b] for a, b in pairs):
            yield code, bundles


def _skipped_codes(n, m, pairs):
    """Codes that break a pair but are not the first of their skipped block (code % n != 0)."""
    for code in range(n**m):
        owners = [code // n**g % n for g in range(m)]
        bundles = [sum(1 << g for g in range(m) if owners[g] == a) for a in range(n)]
        if code % n and any(bundles[a] < bundles[b] for a, b in pairs):
            yield code


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_skip_ahead_matches_filtering_the_odometer(n, m, classes):
    pairs = class_pairs(classes)
    rng = random.Random(n * 100 + m)
    space = n**m
    skipped = list(_skipped_codes(n, m, pairs))
    ranges = [(0, space), (1, space), (space - 1, space), (0, space - 1)]
    # starts inside a skipped block; stops where a jump lands (multiples of n**p)
    ranges += [(code, space) for code in rng.sample(skipped, 4)]
    ranges += [(0, k * n**p) for p in (m - 1, m - 2, 2) for k in range(1, n)]
    ranges += [(rng.choice(skipped), k * n ** (m - 1)) for k in range(1, n)]
    for _ in range(12):
        start = rng.randrange(space)
        ranges.append((start, rng.randrange(start, space + 1)))
    for start, stop in ranges:
        got = list(coded_bundles(n, m, start, stop, pairs))
        assert got == list(filtered_bundles(n, m, start, stop, pairs)), (start, stop)


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_ordered_code_count_matches_the_enumeration(n, m, classes):
    pairs = class_pairs(classes)
    orbit = prod(factorial(len(members)) for members in classes)
    codes = [code for code, _ in coded_bundles(n, m, pairs=pairs)]
    assert len(codes) * orbit == count_allocations(n, m)
    rng = random.Random(m)
    probes = [0, 1, codes[0], codes[-1], codes[-1] + 1, n**m, n**m + 5]
    probes += rng.sample(range(n**m), min(40, n**m))
    for code in probes:
        below = sum(1 for c in codes if c < code)
        assert count_ordered_codes_below(n, m, classes, code) == below, code


# (n, m, classes, empty bundles allowed): n may exceed m when enough may stay empty
WITH_EMPTY = [
    (2, 3, [(0, 1)], 1),
    (3, 4, [(0, 2)], 2),
    (3, 3, [(0, 1, 2)], 2),
    (4, 5, [(2, 3)], 1),
    (4, 3, [(0, 1), (2, 3)], 1),
    (5, 4, [(0, 2, 4), (1, 3)], 2),
    (3, 1, [], 2),
    (2, 0, [(0, 1)], 2),
]


@pytest.mark.parametrize("n,m,classes,empty", WITH_EMPTY)
def test_codes_with_empty_bundles_match_filtering_every_code(n, m, classes, empty):
    """Up to `empty` bundles may stay empty, and two empty members of a class tie."""
    pairs = class_pairs(classes)
    every = []
    for code in range(n**m):
        owners = [code // n**g % n for g in range(m)]
        bundles = tuple(sum(1 << g for g in range(m) if owners[g] == a) for a in range(n))
        if bundles.count(0) <= empty and all(bundles[a] >= bundles[b] for a, b in pairs):
            every.append((code, bundles))
    assert list(coded_bundles(n, m, pairs=pairs, empty=empty)) == every
    rng = random.Random(n * 10 + m)
    for _ in range(12):
        start = rng.randrange(n**m + 1)
        stop = rng.randrange(start, n**m + 1)
        got = list(coded_bundles(n, m, start, stop, pairs, empty))
        assert got == [(c, b) for c, b in every if start <= c < stop], (start, stop)
    for code in range(n**m + 2):
        below = sum(1 for c, _ in every if c < code)
        assert count_ordered_codes_below(n, m, classes, code, empty) == below, code


def test_stream_is_resumable_from_code_offsets():
    full = list(enumerate_bundle_tuples(3, 5))
    split = 3**5 // 3
    parts = [b for _, b in coded_bundles(3, 5, 0, split)] + [b for _, b in coded_bundles(3, 5, split)]
    assert parts == full


def test_allocation_validate_rejects_bad_partitions():
    with pytest.raises(ValueError):
        Allocation(3, (0b011, 0b110, 0b000)).validate()  # overlap
    with pytest.raises(ValueError):
        Allocation(3, (0b001, 0b010, 0b000)).validate()  # incomplete
