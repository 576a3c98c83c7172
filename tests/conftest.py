"""Helpers shared by the test modules."""

from collections.abc import Iterator

from efxlab.allocations import Allocation, enumerate_bundle_tuples
from efxlab.valuations import RankValuation, RealValuation


def numeric_order_valuation(m: int) -> RankValuation:
    """rank[S] = S: the order in which set numbers increase."""
    return RankValuation(m, tuple(range(1 << m)))


def as_real(v: RankValuation) -> RealValuation:
    """Rank valuation reinterpreted as integer values (rank = value)."""
    return RealValuation(v.m, tuple(v.rank))


def all_allocations(n: int, m: int) -> Iterator[Allocation]:
    """Every allocation of m goods to n agents with no bundle empty, in owner-code order."""
    return (Allocation(m, bundles) for bundles in enumerate_bundle_tuples(n, m))
