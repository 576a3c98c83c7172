"""Fairness predicates: EFX, its per-bundle variants and the EEFX certificate.

The EFX condition is one rule, v_i(X_j - g) <= v_i(X_i) for every agent i,
other bundle X_j and good g in X_j, read over one list of the removals
X_j - g, ``bitset.cover_table(m)[1]``, in three forms.  Triples: those of
`efx_conditions`, which the CNF encoding's no-EFX clauses negate, the SMT
script renders and `violated_condition_count` (and so `is_efx`) counts
when they fail.  Witness: the lowest g with v(X_j - g) above a value,
`strong_envy_witness`; with `transfer_witness` (the tEFX transfer test) it
backs every other predicate here and the reallocation, transfer split and
witness good of `three_agent`.  Sorted table: `removal_table`, whose rows
the allocation scan in `verification` bisects to count failures.

An `Allocation` is a partition checked when made, so predicates check only that
the valuations fit it; `strongly_envies` checks its two sets (`bitset.disjoint_union`).
All predicates work for any valuation object exposing ``m`` and
``value(mask)``; comparisons follow the definitions exactly, so degenerate
valuations are handled by the strictness of the inequalities themselves
(envy always requires a strict ``>``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Protocol

from .allocations import Allocation
from .bitset import cover_table, disjoint_union, submasks
from .errors import AgentCountOutOfRange, ArityMismatch, IndexOutOfRange


class Valuation(Protocol):
    m: int

    def value(self, mask: int) -> object: ...


def strong_envy_witness(v: Valuation, value: object, other: int) -> int:
    """The lowest good g of `other` with v(other - g) > value, else 0."""
    for removed in cover_table(v.m)[1][other]:
        if v.value(removed) > value:
            return other ^ removed
    return 0


def transfer_witness(v: Valuation, own: int, other: int) -> int:
    """The lowest good g of `other` with v(own + g) < v(other - g), else 0.

    Zero means that moving any single good of `other` to `own` leaves `own`
    at least as valuable as what remains of `other`.
    """
    for removed in cover_table(v.m)[1][other]:
        bit = other ^ removed
        if v.value(own | bit) < v.value(removed):
            return bit
    return 0


def strongly_envies(v: Valuation, own: int, other: int) -> bool:
    """True iff some single-good removal from `other` still beats `own`."""
    disjoint_union(v.m, (own, other))
    return bool(strong_envy_witness(v, v.value(own), other))


def _check_bundle(v: Valuation, bundle_index: int, allocation: Allocation) -> None:
    """The per-bundle predicates' argument check: the index, then `v`'s good count."""
    if not 0 <= bundle_index < allocation.n:
        raise IndexOutOfRange(f"bundle index {bundle_index} out of range")
    if v.m != allocation.m:
        raise ArityMismatch(f"a valuation of {v.m} goods for an allocation of {allocation.m}")


def efx_conditions(bundles: Sequence[int], m: int) -> Iterator[tuple[int, int, int]]:
    """The EFX conditions of an allocation of m goods as (i, X_j - g, X_i) triples.

    Each triple (i, removed, own) stands for v_i(removed) <= v_i(own).  They
    come in agent, then bundle, then ascending-good order, which fixes the
    literal order of the no-EFX clauses and the SMT conjuncts.
    """
    below = cover_table(m)[1]
    for i, own in enumerate(bundles):
        for j, other in enumerate(bundles):
            if j != i:
                for removed in below[other]:
                    yield i, removed, own


def removal_table(table: Sequence[int], m: int) -> list[list[int]]:
    """``removal[Y]``: the values v(Y - g) over the goods g in Y, sorted, so that
    ``bisect_right(removal[X_j], v_i(X_i))`` counts the conditions of i and X_j that hold."""
    return [sorted(map(table.__getitem__, removed)) for removed in cover_table(m)[1]]


def violated_condition_count(allocation: Allocation, valuations: Sequence[Valuation]) -> int:
    """Number of violated EFX conditions (see `efx_conditions`), in 0 .. m*(n-1)."""
    if len(valuations) != allocation.n:
        raise ArityMismatch(f"{len(valuations)} valuations for {allocation.n} bundles")
    if any(v.m != allocation.m for v in valuations):
        raise ArityMismatch("valuations disagree with the allocation's good count")
    return sum(
        valuations[i].value(removed) > valuations[i].value(own)
        for i, removed, own in efx_conditions(allocation.bundles, allocation.m)
    )


def is_efx(allocation: Allocation, valuations: Sequence[Valuation]) -> bool:
    """No EFX condition is violated: no agent strongly envies another's bundle."""
    return violated_condition_count(allocation, valuations) == 0


def is_efx_feasible(v: Valuation, bundle_index: int, allocation: Allocation) -> bool:
    """The indexed bundle beats every single-good removal of every bundle."""
    _check_bundle(v, bundle_index, allocation)
    own_value = v.value(allocation.bundles[bundle_index])
    return not any(strong_envy_witness(v, own_value, bundle) for bundle in allocation.bundles)


def is_tefx_feasible(v: Valuation, bundle_index: int, allocation: Allocation) -> bool:
    """Envy toward any bundle is curable by transferring any single good.

    Against every other bundle X_l, either v(own) > v(X_l) or moving any
    single good g from X_l to the owner flips the comparison:
    v(own + g) >= v(X_l - g).
    """
    _check_bundle(v, bundle_index, allocation)
    own = allocation.bundles[bundle_index]
    own_value = v.value(own)
    return not any(
        transfer_witness(v, own, other)
        for j, other in enumerate(allocation.bundles)
        if j != bundle_index and own_value <= v.value(other)
    )


def is_ef1_feasible(v: Valuation, bundle_index: int, allocation: Allocation) -> bool:
    """Envy toward any bundle is curable by removing some single good."""
    _check_bundle(v, bundle_index, allocation)
    own_value = v.value(allocation.bundles[bundle_index])
    below = cover_table(v.m)[1]
    for j, other in enumerate(allocation.bundles):
        if j == bundle_index or other == 0:
            continue
        if all(own_value < v.value(removed) for removed in below[other]):
            return False
    return True


def eefx_certificate(
    v: Valuation, bundle: int, rest: int, n: int
) -> tuple[int, ...] | None:
    """Exhaustive search for an EEFX certificate.

    Looks for a repartition of bundle + rest, with `bundle` as one part and
    `rest` split into n-1 labeled parts, such that `bundle` beats every
    single-good removal of every part.  Parts of `rest` are enumerated by
    ascending bitmask of the earlier parts; the first certificate found is
    returned (bundle first), or None if none exists.  Bundle and rest must
    make an `Allocation`; fewer than two agents raise `AgentCountOutOfRange`.
    """
    if n < 2:
        raise AgentCountOutOfRange(f"need n >= 2 agents, got n={n}")
    Allocation(v.m, (bundle, rest))
    own_value = v.value(bundle)
    if strong_envy_witness(v, own_value, bundle):
        return None

    def split(remaining: int, parts_left: int, acc: list[int]) -> tuple[int, ...] | None:
        if parts_left == 1:
            if not strong_envy_witness(v, own_value, remaining):
                return (bundle, *acc, remaining)
            return None
        for part in submasks(remaining):
            if not strong_envy_witness(v, own_value, part):
                found = split(remaining ^ part, parts_left - 1, acc + [part])
                if found is not None:
                    return found
        return None

    return split(rest, n - 1, [])

