"""Helpers shared by the test modules."""

from efxlab.valuations import RankValuation, RealValuation


def numeric_order_valuation(m: int) -> RankValuation:
    """rank[S] = S: the order in which set numbers increase."""
    return RankValuation(m, tuple(range(1 << m)))


def as_real(v: RankValuation) -> RealValuation:
    """Rank valuation reinterpreted as integer values (rank = value)."""
    return RealValuation(v.m, tuple(v.rank))
