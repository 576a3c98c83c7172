"""The allocation record, and counting and enumeration of complete allocations
with non-empty bundles.

An allocation of ``m`` goods to ``n`` agents is identified with the base-n
integer whose digit ``i`` is the owner of good ``g_i``.  `enumerate_bundle_tuples`
ascends through these codes and yields the bundles, not the code, of each one
in which every agent owns something.  The encoder (and through its no-EFX
clauses the SMT emission) and the acceptance checks read it in code order; the
exhaustive scan in `verification` walks allocations bundle by bundle instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product
from math import comb

from .bitset import disjoint_union, full_set
from .errors import AgentCountOutOfRange, BadPartitionInput


@dataclass(frozen=True)
class Allocation:
    """Ordered partition of the m goods into n disjoint bundles, checked when made by
    `bitset.disjoint_union`; a union short of the m goods raises `BadPartitionInput`."""

    m: int
    bundles: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.bundles)

    def __post_init__(self) -> None:
        if disjoint_union(self.m, self.bundles) != full_set(self.m):
            raise BadPartitionInput(f"bundles {self.bundles} do not partition the {self.m} goods")


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
    return sum((-1) ** k * comb(n, k) * (n - k) ** m for k in range(n + 1))


def enumerate_bundle_tuples(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Bundle tuples, ascending by owner code, that leave no bundle empty.

    The owners run over the product with good m-1 as the first factor, so
    the last factor, good 0, is the lowest digit and codes ascend.
    """
    _check_agent_count(n, m)
    bits = [1 << good for good in reversed(range(m))]
    for owners in product(range(n), repeat=m):
        bundles = [0] * n
        for owner, bit in zip(owners, bits):
            bundles[owner] |= bit
        if 0 not in bundles:
            yield tuple(bundles)


def singleton_histogram(n: int, m: int) -> dict[int, int]:
    """Allocation counts keyed by how many bundles are singletons."""
    hist: dict[int, int] = {}
    for bundles in enumerate_bundle_tuples(n, m):
        singles = sum(1 for b in bundles if b & (b - 1) == 0)
        hist[singles] = hist.get(singles, 0) + 1
    return hist
