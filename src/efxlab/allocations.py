"""Enumeration and counting of complete allocations with non-empty bundles.

An allocation of ``m`` goods to ``n`` agents is identified with the base-n
integer whose digit ``i`` is the owner of good ``g_i``; enumeration ascends
through these codes, keeping only codes in which every agent owns something.
The lazy stream is resumable from any code offset, so it can be split into
independent ranges for parallel consumption.

Given ordered pairs of agents, the stream keeps only the codes in which the
first agent of each pair holds the larger bundle (as an integer), and skips
whole blocks of codes that break a pair.  Pairs taken along classes of
interchangeable agents (`class_pairs`) leave one code per orbit of bundle
swaps within the classes, the lowest one; `count_ordered_codes_below` counts
those codes in closed form.  Both can also let up to a given number of
bundles stay empty; two empty bundles tie, and a pair holds on a tie.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, prod

from .bitset import full_set
from .errors import AgentCountOutOfRange


@dataclass(frozen=True)
class Allocation:
    """Ordered partition of the m goods into n pairwise-disjoint bundles."""

    m: int
    bundles: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.bundles)

    def validate(self) -> None:
        union = 0
        for bundle in self.bundles:
            if union & bundle:
                raise ValueError("bundles overlap")
            union |= bundle
        if union != full_set(self.m):
            raise ValueError("bundles do not cover all goods")


def _check_agent_count(n: int, m: int) -> None:
    """Every agent needs a good of its own: 1 <= n <= m."""
    if not 1 <= n <= m:
        raise AgentCountOutOfRange(f"need 1 <= agents <= goods, got n={n}, m={m}")


def count_allocations(n: int, m: int) -> int:
    """Number of ordered partitions of m goods into n non-empty bundles.

    Inclusion-exclusion over the set of agents left empty:
    sum_k (-1)^k C(n,k) (n-k)^m.
    """
    _check_agent_count(n, m)
    return _surjections(n, n, m)


def _surjections(required: int, n: int, length: int) -> int:
    """Strings of `length` base-n digits in which `required` given digits all occur."""
    return sum(
        (-1) ** k * comb(required, k) * (n - k) ** length for k in range(required + 1)
    )


def class_pairs(classes: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    """The pairs (a, b) of consecutive members of each class (ascending agent lists)."""
    return tuple(pair for members in classes for pair in zip(members, members[1:]))


def count_ordered_codes_below(
    n: int, m: int, classes: Sequence[Sequence[int]], code: int, empty: int = 0
) -> int:
    """How many codes below `code` ``coded_bundles(n, m, pairs=class_pairs(classes), empty=empty)`` yields.

    Disjoint bundles satisfy X_a > X_b exactly when the top good of X_a | X_b
    is in X_a.  Read from good m-1 down, a code is therefore yielded when at
    most `empty` agents never occur and the members of each class that occur
    are the first ones of the class, first occurring in ascending order.  The
    codes below `code` are grouped by the first digit, from the top, at which
    they fall below it, and each group is counted by `_completions`.
    """
    _check_agent_count(n, m + empty)
    if code >= n**m:
        return _completions(n, m, 0, [len(members) for members in classes], empty)
    class_of = {agent: c for c, members in enumerate(classes) for agent in members}
    occurred = [0] * len(classes)  # members of each class seen so far
    seen: set[int] = set()
    below = 0
    for pos in range(m - 1, -1, -1):
        digit = code // n**pos % n
        for d in range(digit + 1):
            c = class_of.get(d)
            new = d not in seen
            if new and c is not None and classes[c][occurred[c]] != d:
                if d == digit:
                    return below  # d occurs ahead of a lower member of its class
                continue
            if new:
                seen.add(d)
                if c is not None:
                    occurred[c] += 1
            if d == digit:
                break
            waiting = [len(members) - k for members, k in zip(classes, occurred)]
            below += _completions(n, pos, len(seen), waiting, empty)
            if new:
                seen.discard(d)
                if c is not None:
                    occurred[c] -= 1
    return below


def _completions(n: int, length: int, seen: int, waiting: Sequence[int], empty: int) -> int:
    """Ways to append `length` lower digits to a prefix in which `seen` agents occur.

    `waiting[c]` members of class c have yet to occur.  The agents that occur
    in the lower digits are chosen: any t_0 of the unseen agents outside the
    classes, and the next t_c waiting members of each class c, leaving at
    most `empty` agents that never occur.  With t agents chosen, surj(t,
    seen + t, length) strings use exactly those letters besides the seen
    ones, and dividing by prod_c t_c! keeps the ones whose chosen members of
    each class first occur in ascending order, because permuting those
    members maps the strings with one order onto those with another.
    """
    unseen = n - seen
    free = unseen - sum(waiting)
    total = 0
    for chosen in product(range(free + 1), *(range(r + 1) for r in waiting)):
        t = sum(chosen)
        if unseen - t <= empty:
            total += comb(free, chosen[0]) * _surjections(t, seen + t, length) // prod(
                factorial(k) for k in chosen[1:]
            )
    return total


def coded_bundles(
    n: int,
    m: int,
    start: int = 0,
    stop: int | None = None,
    pairs: Sequence[tuple[int, int]] = (),
    empty: int = 0,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(code, bundles)`` for the owner codes in [start, stop) that leave at most `empty`
    bundles empty and have ``bundles[a] >= bundles[b]`` for every pair (a, b) in `pairs`.

    Disjoint bundles are equal only when both are empty, so without empty
    bundles every pair holds strictly.

    Codes ascend like an odometer over the owners of the goods: ``start`` is
    decoded once, and each later step moves only the goods whose digit
    changes (the lowest one, plus one more per carry; n/(n-1) goods per step
    on average).  A code with ``bundles[a] < bundles[b]`` is not stepped
    past but jumped past: with p the top good of X_b, every code that shares
    its digits from p up puts p in X_b and no good above p in X_a, so the
    odometer moves on to the next multiple of n**p, handing the goods below
    p to agent 0 and carrying from p.  Without pairs no code jumps.
    """
    _check_agent_count(n, m + empty)
    stop = n**m if stop is None else min(stop, n**m)
    if start >= stop:
        return
    owners = [0] * m
    bundles = [0] * n
    rest = start
    for good in range(m):
        rest, owner = divmod(rest, n)
        owners[good] = owner
        bundles[owner] |= 1 << good
    last = n - 1
    code = start
    while True:
        for a, b in pairs:
            if bundles[a] < bundles[b]:
                good = bundles[b].bit_length() - 1
                block = n**good
                code += block - code % block
                if code >= stop:
                    return
                for low in range(good):
                    owner = owners[low]
                    if owner:
                        bundles[owner] ^= 1 << low
                        bundles[0] |= 1 << low
                        owners[low] = 0
                bit = 1 << good
                break
        else:
            if 0 not in bundles or bundles.count(0) <= empty:
                yield code, tuple(bundles)
            code += 1
            if code == stop:
                return
            good, bit = 0, 1
        # code < n**m, so the carry stops at or before the last good
        owner = owners[good]
        while owner == last:
            bundles[last] ^= bit
            bundles[0] |= bit
            owners[good] = 0
            good += 1
            bit <<= 1
            owner = owners[good]
        bundles[owner] ^= bit
        bundles[owner + 1] |= bit
        owners[good] = owner + 1


def enumerate_bundle_tuples(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Raw bundle tuples, ascending by owner code; all bundles non-empty."""
    for _, bundles in coded_bundles(n, m):
        yield bundles


def enumerate_allocations(n: int, m: int) -> Iterator[Allocation]:
    """Every complete non-empty-bundle allocation exactly once, code order."""
    for bundles in enumerate_bundle_tuples(n, m):
        yield Allocation(m, bundles)


def singleton_histogram(n: int, m: int) -> dict[int, int]:
    """Allocation counts keyed by how many bundles are singletons."""
    hist: dict[int, int] = {}
    for bundles in enumerate_bundle_tuples(n, m):
        singles = sum(1 for b in bundles if b & (b - 1) == 0)
        hist[singles] = hist.get(singles, 0) + 1
    return hist
