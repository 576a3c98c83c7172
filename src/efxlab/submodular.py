"""Submodular realization of rank orders and counterexample extensions.

A rank valuation's total order is realized exactly by the dyadic function
f(S_i) = sum of 2^-l for l = 1..i, where S_i is the set of rank i.  Scaling
by 2^N with N = 2^m - 1 keeps every value an integer, so the realization is
an integer `RealValuation` and submodularity can be checked with exact
big-integer arithmetic; floating point could not represent the 2^-255 gaps
that appear at m = 8.
"""

from __future__ import annotations

from collections.abc import Sequence

from .bitset import cardinality, check_good_count, full_set, singleton_bits, submasks
from .errors import AgentCountOutOfRange, GoodCountOutOfRange
from .fairness import Valuation
from .valuations import RankValuation, RealValuation, shared_good_count


def submodular_realize(v: RankValuation) -> RealValuation:
    """Order-isomorphic submodular realization of a rank valuation.

    The set of rank i receives sum(2^(N-l) for l=1..i) = 2^N - 2^(N-i);
    comparisons between any two sets agree with the source rank order.
    """
    scale_bits = (1 << v.m) - 1
    top = 1 << scale_bits
    values = [0] * (1 << v.m)
    for mask, rank in enumerate(v.rank):
        values[mask] = top - (top >> rank)
    return RealValuation(v.m, tuple(values))


def is_submodular(f: RealValuation) -> tuple[bool, tuple[int, int, int] | None]:
    """Diminishing-returns check over all (S, T, g) with S subset T, g not in T.

    Returns (True, None) or (False, witness) where the witness triple
    (S, T, g) has f(S+g) - f(S) < f(T+g) - f(T).
    """
    everything = full_set(f.m)
    values = f.values
    for t in range(1 << f.m):
        subsets = submasks(t)
        for g_bit in singleton_bits(everything & ~t):
            gain_t = values[t | g_bit] - values[t]
            for s in subsets:
                if values[s | g_bit] - values[s] < gain_t:
                    return False, (s, t, g_bit.bit_length() - 1)
    return True, None


def extend_counterexample(base: Sequence[RankValuation], n: int) -> list[RealValuation]:
    """Extension of a 3-agent, 8-good instance to n >= 4 agents, n + 5 goods.

    The new goods are worthless to agents 0 and 1; agents 2 .. n-1 share one
    valuation that adds a block of 2^8 (one more than the maximum base rank)
    per new good owned.  The outputs are deliberately degenerate.
    """
    if len(base) != 3:
        raise AgentCountOutOfRange("extension starts from exactly three base valuations")
    if any(v.m != 8 for v in base):
        raise GoodCountOutOfRange("base valuations must be over 8 goods")
    if n < 4:
        raise AgentCountOutOfRange(f"extension is defined for n >= 4 agents, got n={n}")
    base_m = 8
    m = n + 5
    check_good_count(m)
    base_mask = full_set(base_m)
    block = 1 << base_m  # exceeds every base rank
    extended: list[RealValuation] = []
    for agent in range(n):
        values = [0] * (1 << m)
        for mask in range(1 << m):
            core = mask & base_mask
            if agent < 2:
                values[mask] = base[agent].rank[core]
            else:
                extra = cardinality(mask >> base_m)
                values[mask] = block * extra + base[2].rank[core]
        extended.append(RealValuation(m, tuple(values)))
    return extended


def add_dummy_goods(valuations: Sequence[Valuation], extra: int) -> list[RealValuation]:
    """Append `extra` goods of value zero to every agent: v'(S) = v(S & old).

    Any valuation with ``m`` and ``value(mask)`` is accepted; each agent's
    table is read once.  The valuations must form one instance, as
    `shared_good_count` checks, and the new good count must lie in the
    supported range.
    """
    if extra < 0:
        raise GoodCountOutOfRange(f"extra goods must be non-negative, got {extra}")
    old_m = shared_good_count(valuations)
    m = old_m + extra
    check_good_count(m)
    old_mask = full_set(old_m)
    tables = [[v.value(mask) for mask in range(1 << old_m)] for v in valuations]
    return [
        RealValuation(m, tuple(table[mask & old_mask] for mask in range(1 << m)))
        for table in tables
    ]
