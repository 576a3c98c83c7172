"""Valuation data model: rank valuations and exact integer-valued valuations.

The canonical non-degenerate valuation is a *rank valuation*: a monotone
bijection from all ``2^m`` subsets onto the ranks ``0 .. 2^m - 1``.  Making
non-degeneracy structural keeps every fairness predicate a pure rank
comparison; no numeric values are needed anywhere downstream.  Value
tables may be degenerate; the extension instances use them.
Both valuation classes check themselves when they are made: the good count
(`check_good_count`), the table's shape, then `monotonicity_violation`, the
one monotonicity check, which `verification.verify` also reports from.  It and
`random_monotone_rank_valuation` walk the subset lattice through the one
neighbour table per m, `bitset.cover_table`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .bitset import cardinality, check_good_count, check_level, cover_table
from .errors import (
    AgentCountOutOfRange,
    ArityMismatch,
    InvalidValues,
    MonotonicityViolated,
    NotAPermutation,
)
from .fairness import Valuation


def monotonicity_violation(values: Sequence, m: int) -> tuple[int, int] | None:
    """The first (sub, sup), sup = sub plus one good, with values[sub] > values[sup].

    Pairs come by ascending sub, then ascending added good; None when the
    table is monotone.  On a rank table, a bijection, ``>`` is ``>=``.
    """
    above, _ = cover_table(m)
    for sub, sups in enumerate(above):
        value = values[sub]
        for sup in sups:
            if value > values[sup]:
                return sub, sup
    return None


def shared_good_count(valuations: Sequence[Valuation]) -> int:
    """The good count m of an instance, read before any value table.

    No valuations raise `AgentCountOutOfRange`, and valuations over different
    good counts `ArityMismatch`.
    """
    if not valuations:
        raise AgentCountOutOfRange("need at least one valuation")
    m = valuations[0].m
    if any(v.m != m for v in valuations):
        raise ArityMismatch(f"valuations disagree on the good count: {[v.m for v in valuations]}")
    return m


@dataclass(frozen=True)
class RankValuation:
    """Monotone bijection from the 2^m subsets to ranks 0 .. 2^m - 1."""

    m: int
    rank: tuple[int, ...]

    def __post_init__(self) -> None:
        check_good_count(self.m)
        n_sets = 1 << self.m
        if len(self.rank) != n_sets or sorted(self.rank) != list(range(n_sets)):
            raise NotAPermutation(f"rank table is not a bijection on 0..{n_sets - 1}")
        violation = monotonicity_violation(self.rank, self.m)
        if violation is not None:
            raise MonotonicityViolated(*violation)

    def value(self, mask: int) -> int:
        return self.rank[mask]

    def order(self) -> list[int]:
        """All subsets sorted by increasing rank."""
        by_rank = [0] * len(self.rank)
        for mask, r in enumerate(self.rank):
            by_rank[r] = mask
        return by_rank


@dataclass(frozen=True)
class RealValuation:
    """Integer valuation table, exact; may be degenerate but must be monotone."""

    m: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        check_good_count(self.m)
        n_sets = 1 << self.m
        if len(self.values) != n_sets:
            raise InvalidValues(f"expected {n_sets} values, got {len(self.values)}")
        if self.values[0] != 0:
            raise InvalidValues("empty set must have value 0")
        if any(v < 0 for v in self.values):
            raise InvalidValues("values must be non-negative")
        violation = monotonicity_violation(self.values, self.m)
        if violation is not None:
            raise MonotonicityViolated(*violation)

    def value(self, mask: int) -> int:
        return self.values[mask]


def rank_valuation_from_order(m: int, order: Sequence[int]) -> RankValuation:
    """Build a rank valuation from a total order of all subsets (low to high).

    Raises NotAPermutation if the order does not list every subset exactly
    once (`RankValuation` catches a repeated set), and MonotonicityViolated
    if some proper subset is ordered at or above one of its supersets.
    """
    check_good_count(m)
    n_sets = 1 << m
    rank = [-1] * n_sets
    if len(order) != n_sets:
        raise NotAPermutation(f"order has {len(order)} entries, expected {n_sets}")
    for position, mask in enumerate(order):
        if not 0 <= mask < n_sets:
            raise NotAPermutation(f"set {mask} is not a set of the {m} goods")
        rank[mask] = position
    return RankValuation(m, tuple(rank))


def random_monotone_rank_valuation(m: int, seed: int) -> RankValuation:
    """Seeded random linear extension of the subset lattice.

    Repeatedly picks uniformly among the currently minimal unplaced sets
    (those whose immediate subsets are all placed), which always yields a
    valid linear extension and is deterministic per seed.
    """
    check_good_count(m)
    rng = random.Random(seed)
    above, below = cover_table(m)
    missing = list(map(len, below))
    available = [0]
    rank = [-1] * len(above)
    for position in range(len(above)):
        idx = rng.randrange(len(available))
        mask = available[idx]
        available[idx] = available[-1]
        available.pop()
        rank[mask] = position
        for sup in above[mask]:
            missing[sup] -= 1
            if missing[sup] == 0:
                available.append(sup)
    return RankValuation(m, tuple(rank))


def leveled(v: RankValuation, k: int) -> RankValuation:
    """Rank valuation where size >= k sets dominate all strictly smaller sets.

    Sets of size below k keep their original relative order; sets of size at
    least k are ordered by (cardinality, set number) ascending, above every
    smaller set.  k = m + 1 leaves the order unchanged.

    For n agents, any k >= m - n + 1 loses nothing: every allocation of the
    m goods into n non-empty bundles keeps its EFX verdict.  A bundle holds
    at most m - n + 1 goods, and a set X_j - g at most m - n.  A bundle of
    m - n + 1 goods leaves one good to each other bundle, so its owner's
    conditions compare it with the empty set, which monotonicity settles.
    Every other condition compares two sets of fewer than k goods, whose
    order leveling keeps.  So sets of k or more goods meet only in settled
    conditions, and their order by set number is free.  For three agents
    that level is k = m - 2.  Any k >= 2 keeps the singletons' order, so a
    valuation that meets item order still meets it leveled.
    """
    check_level(k, v.m)
    low = [mask for mask in v.order() if cardinality(mask) < k]
    high = sorted(
        (mask for mask in range(1 << v.m) if cardinality(mask) >= k),
        key=lambda mask: (cardinality(mask), mask),
    )
    return rank_valuation_from_order(v.m, low + high)

