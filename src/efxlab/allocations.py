"""Enumeration and counting of complete allocations with non-empty bundles.

An allocation of ``m`` goods to ``n`` agents is identified with the base-n
integer whose digit ``i`` is the owner of good ``g_i``; enumeration ascends
through these codes, keeping only codes in which every agent owns something.
The lazy stream is resumable from any code offset.  The encoder, the SMT
emission and the acceptance checks read it in code order; the exhaustive
scan in `verification` walks allocations bundle by bundle instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import comb

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


def coded_bundles(
    n: int, m: int, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """``(code, bundles)`` for the owner codes in [start, stop) that leave no bundle empty.

    Codes ascend like an odometer over the owners of the goods: ``start`` is
    decoded once, and each later step moves only the goods whose digit
    changes (the lowest one, plus one more per carry; n/(n-1) goods per step
    on average).
    """
    _check_agent_count(n, m)
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
        if 0 not in bundles:
            yield code, tuple(bundles)
        code += 1
        if code == stop:
            return
        # code < n**m, so the carry stops at or before the last good
        good, bit = 0, 1
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
