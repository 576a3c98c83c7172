import random
from math import factorial, prod

import pytest

from efxlab.allocations import (
    Allocation,
    coded_bundles,
    count_allocations,
    enumerate_allocations,
    enumerate_bundle_tuples,
    singleton_histogram,
)
from efxlab.errors import AgentCountOutOfRange
from efxlab.verification import _coded, _scan_plan, _shares, _walk


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


def _class_scan(n, m, classes, empty=0):
    """The scan plan of an additive instance whose class members share weights, plus
    `empty` null goods on top of the m core goods."""
    key = list(range(n))
    for members in classes:
        for agent in members:
            key[agent] = members[0]
    tables = []
    for agent in range(n):
        weights = [1 + g + 7 * key[agent] for g in range(m)]
        masks = range(1 << m + empty)
        tables.append([sum(w for g, w in enumerate(weights) if mask >> g & 1) for mask in masks])
    return _scan_plan(tables, m + empty, [tuple(members) for members in classes])


def _walked(scan, firsts):
    """The owner codes, over the core goods, of every allocation `_walk` visits."""
    tally, _ = _walk(scan, firsts)
    visited = []

    def record(bundles):
        visited.append(_coded(scan.n, bundles))
        return 0

    _walk(scan, firsts, set(tally), record)
    assert len(visited) == sum(tally.values())
    return sorted(visited)


def _every_first(scan):
    return list(range(1 << scan.m))


def filtered_bundles(n, m, classes, empty=0):
    """Reference: every code with at most `empty` empty bundles and each class's bundles
    decreasing, two empty bundles tying."""
    pairs = [pair for members in classes for pair in zip(members, members[1:])]
    for code in range(n**m):
        owners = [code // n**g % n for g in range(m)]
        bundles = tuple(sum(1 << g for g in range(m) if owners[g] == a) for a in range(n))
        if bundles.count(0) <= empty and all(bundles[a] >= bundles[b] for a, b in pairs):
            yield code, bundles


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_skip_ahead_matches_filtering_the_odometer(n, m, classes):
    """The walk skips every code that breaks a class pair, a whole subtree at a time, and
    visits the rest: one code per orbit, the lowest.  A subset of the first walked
    agent's bundles keeps exactly the codes that give that agent one of them."""
    scan = _class_scan(n, m, classes)
    every = list(filtered_bundles(n, m, classes))
    assert _walked(scan, _every_first(scan)) == every
    first = scan.order[0]
    rng = random.Random(n * 100 + m)
    for _ in range(4):
        firsts = rng.sample(_every_first(scan), 1 << m - 1)
        kept = [(c, b) for c, b in every if b[first] in firsts]
        assert _walked(scan, firsts) == kept


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_ordered_code_count_matches_the_enumeration(n, m, classes):
    """Walked codes times the orbit size count every allocation, and the parallel
    shares split the first walked agent's bundles, and the codes, without loss."""
    scan = _class_scan(n, m, classes)
    orbit = prod(factorial(len(members)) for members in classes)
    tally, _ = _walk(scan, _every_first(scan))
    assert sum(tally.values()) * orbit == count_allocations(n, m)
    for jobs in (2, 3, 4):
        shares = _shares(scan, jobs)
        assert len(shares) == jobs
        assert sorted(b for share in shares for b in share) == _every_first(scan)
        counts = [sum(_walk(scan, share)[0].values()) for share in shares]
        assert sum(counts) == sum(tally.values())


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
    scan = _class_scan(n, m, classes, empty)
    assert (scan.m, len(scan.null)) == (m, empty)
    assert _walked(scan, _every_first(scan)) == list(filtered_bundles(n, m, classes, empty))


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
