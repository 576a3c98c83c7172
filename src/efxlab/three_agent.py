"""Constructive algorithm: every three-agent instance has a tEFX allocation
or an EF1-and-EEFX allocation.

The loop state is a partition (X0, X1, X2) satisfying: X0 and X1 beat every
single-good removal of every bundle under agent 0's valuation (EFX-feasible
for agent 0), sorted so v0(X0) < v0(X1), while X2 is the unique bundle that
agents 1 and 2 both consider tEFX-feasible.  Each iteration either exits
with an allocation or produces a partition with strictly larger potential
min(v0(X0), v0(X1)); the potential ranges over ranks, so the loop is bounded.

Every step returns (tag, bundles): `TAG_TEFX` or `TAG_EF1_EEFX` exits with
that allocation, None goes on from that partition.  Every exit passes one
confirmation, `_confirmed`, which re-derives the tag with the independent
fairness predicates, collects an EF1&EEFX result's certificates and builds
the result.

Inputs are restricted to rank valuations: every comparison below is strict,
and degenerate ties would make the case analysis unsound.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .allocations import Allocation, count_allocations
from .bitset import disjoint_union, full_set, singleton_bits
from . import fairness
from .errors import (
    AgentCountOutOfRange,
    BadPartitionInput,
    InvariantBroken,
    NonTermination,
    PredicateFailsOnPool,
    SetupViolated,
)
from .valuations import RankValuation, shared_good_count

TAG_TEFX = "tEFX"
TAG_EF1_EEFX = "EF1&EEFX"


@dataclass(frozen=True)
class TriSolveResult:
    m: int
    bundles: tuple[int, int, int]  # bundles[i] goes to agent i
    tag: str
    iterations: int
    certificates: dict[int, tuple[int, ...]] | None = None

    def allocation(self) -> Allocation:
        return Allocation(self.m, self.bundles)


def equalize_for_valuation(partition: Sequence[int], v: RankValuation) -> tuple[int, ...]:
    """Move strongly-envied goods into the poorest bundle until none remain.

    Classic single-valuation reallocation: while some bundle keeps a good
    whose removal still beats the poorest bundle, move that good to the
    poorest bundle.  The sorted tuple of bundle values strictly increases
    lexicographically with every move, so this terminates; the result makes
    every bundle EFX-feasible for an agent holding `v`, and the minimum
    bundle value never decreases (strictly increases unless the input was
    already that way).  The partition is checked as an `Allocation`.
    """
    bundles = list(Allocation(v.m, tuple(partition)).bundles)
    n = len(bundles)
    guard = n ** v.m + 1
    for _ in range(guard):
        poorest = min(range(n), key=lambda j: (v.rank[bundles[j]], j))
        threshold = v.rank[bundles[poorest]]
        for j in range(n):
            if j != poorest and (bit := fairness.strong_envy_witness(v, threshold, bundles[j])):
                bundles[j] ^= bit
                bundles[poorest] |= bit
                break
        else:
            return tuple(bundles)
    raise InvariantBroken("single-valuation reallocation failed to terminate")


def minimal_satisfying_subset(
    pool: int, predicate: Callable[[int], bool]
) -> int:
    """Inclusion-minimal subset of `pool` still satisfying an upward-closed predicate.

    Single greedy pass dropping goods in ascending index; correctness rests
    on upward closure (supersets of a satisfying set satisfy the predicate).
    A negative pool, which holds no set of goods, raises `BadPartitionInput`.
    """
    if pool < 0:
        raise BadPartitionInput(f"pool {pool} is negative")
    if not predicate(pool):
        raise PredicateFailsOnPool("predicate does not hold on the pool")
    subset = pool
    for bit in singleton_bits(pool):
        if predicate(subset ^ bit):
            subset ^= bit
    return subset


def transfer_split(v: RankValuation, first: int, third: int) -> tuple[int, int]:
    """Move goods from `first` to `third` until `third` is transfer-safe.

    Requires v(first) > v(third) on entry.  While moving some good keeps the
    donor ahead (v(first - g) > v(third + g)), the lowest-index such good
    moves; at the fixpoint v(first) > v(third) still holds and no single
    further move preserves it, which is exactly the condition making both
    parts tEFX-feasible against each other for an agent holding `v`.
    """
    disjoint_union(v.m, (first, third))
    if v.rank[first] <= v.rank[third]:
        raise SetupViolated("donor bundle does not beat the receiver")
    while bit := fairness.transfer_witness(v, third, first):
        first ^= bit
        third |= bit
    return first, third


def solve_three(valuations: Sequence[RankValuation]) -> TriSolveResult:
    """A tEFX or EF1-and-EEFX allocation for any three rank valuations.

    The returned tag is confirmed by `_confirmed` before the result is handed
    back; the certificates on an EF1&EEFX result come from that confirmation
    (exhaustive search, one per agent).  Other than three valuations raise
    `AgentCountOutOfRange` and mixed good counts `ArityMismatch`
    (`shared_good_count`).  A good count outside 3..16, a rank table that is
    not a bijection or not monotone never get here: `RankValuation` raises
    `GoodCountOutOfRange`, `NotAPermutation` or `MonotonicityViolated` when
    it is made.
    """
    if len(valuations) != 3:
        raise AgentCountOutOfRange("exactly three valuations required")
    m = shared_good_count(valuations)
    v0 = valuations[0]

    round_robin = [0, 0, 0]
    for good in range(m):
        round_robin[good % 3] |= 1 << good
    partition = equalize_for_valuation(round_robin, v0)

    bound = count_allocations(3, m) + 1
    potential: int | None = None
    for iteration in range(1, bound + 1):
        feasible = _feasible_sets(partition, valuations)
        tag, bundles = _try_direct_tefx(partition, feasible)
        if tag is None:
            partition = _relabel(partition, feasible, v0)
            new_potential = v0.rank[partition[0]]
            if potential is not None and new_potential <= potential:
                raise InvariantBroken("potential failed to increase")
            potential = new_potential
            tag, bundles = _dispatch(partition, valuations)
        if tag is not None:
            return _confirmed(valuations, tag, bundles, iteration)
        partition = bundles
    raise NonTermination(f"no result within {bound} iterations")


def _confirmed(
    valuations: Sequence[RankValuation], tag: str, bundles: tuple[int, int, int], iteration: int
) -> TriSolveResult:
    """An exit's result, its tag re-derived with the fairness predicates independently of
    the loop; an EF1&EEFX result carries each agent's EEFX certificate (exhaustive search)."""
    m = valuations[0].m
    allocation = Allocation(m, bundles)
    certificates: dict[int, tuple[int, ...]] = {}
    for agent, v in enumerate(valuations):
        if tag == TAG_TEFX:
            if not fairness.is_tefx_feasible(v, agent, allocation):
                raise InvariantBroken(f"claimed tEFX fails for agent {agent}")
            continue
        if not fairness.is_ef1_feasible(v, agent, allocation):
            raise InvariantBroken(f"claimed EF1 fails for agent {agent}")
        own = bundles[agent]
        certificate = fairness.eefx_certificate(v, own, full_set(m) ^ own, 3)
        if certificate is None:
            raise InvariantBroken(f"claimed EEFX fails for agent {agent}")
        certificates[agent] = certificate
    return TriSolveResult(m, bundles, tag, iteration, certificates or None)


# -- loop internals -------------------------------------------------------------


def _feasible_sets(
    partition: tuple[int, int, int], valuations: Sequence[RankValuation]
) -> tuple[list[int], ...]:
    """Per agent, the indices of the bundles that agent finds tEFX-feasible."""
    allocation = Allocation(valuations[0].m, tuple(partition))
    return tuple(
        [j for j in range(3) if fairness.is_tefx_feasible(v, j, allocation)] for v in valuations
    )


def _try_direct_tefx(
    partition: tuple[int, int, int], feasible: tuple[list[int], ...]
) -> tuple[str | None, tuple[int, int, int]]:
    """Assign distinct acceptable bundles to agents 1 and 2 when possible.

    Exits iff agents 1 and 2 can take different tEFX-feasible bundles while
    the leftover is tEFX-feasible for agent 0; going on certifies that both
    agents accept exactly one common bundle.
    """
    tefx0, tefx1, tefx2 = feasible
    for b1 in tefx1:
        for b2 in tefx2:
            if b1 == b2:
                continue
            leftover = 3 - b1 - b2
            if leftover in tefx0:
                return TAG_TEFX, (partition[leftover], partition[b1], partition[b2])
    return None, partition


def _relabel(
    partition: tuple[int, int, int], feasible: tuple[list[int], ...], v0: RankValuation
) -> tuple[int, int, int]:
    """Put the unique common tEFX bundle last, sort the rest by agent 0's rank."""
    _, tefx1, tefx2 = feasible
    if tefx1 != tefx2 or len(tefx1) != 1:
        raise InvariantBroken("direct exit failed without a unique common bundle")
    common = tefx1[0]
    rest = sorted((j for j in range(3) if j != common), key=lambda j: v0.rank[partition[j]])
    relabeled = (partition[rest[0]], partition[rest[1]], partition[common])
    if not (_efx_feasible(v0, 0, relabeled) and _efx_feasible(v0, 1, relabeled)):
        raise InvariantBroken("first two bundles not EFX-feasible for agent 0")
    return relabeled


def _efx_feasible(v: RankValuation, index: int, partition: tuple[int, int, int]) -> bool:
    return fairness.is_efx_feasible(v, index, Allocation(v.m, partition))


def _hand_out(
    tag: str, to_zero: int, agent: int, to_agent: int, to_other: int
) -> tuple[str, tuple[int, int, int]]:
    """An exit: agent 0 gets `to_zero`, `agent` (1 or 2) `to_agent`, the third `to_other`."""
    if agent == 1:
        return tag, (to_zero, to_agent, to_other)
    return tag, (to_zero, to_other, to_agent)


def _dispatch(
    partition: tuple[int, int, int], valuations: Sequence[RankValuation]
) -> tuple[str | None, tuple[int, int, int]]:
    """One step from a relabelled partition (X0, X1, X2): case 1, case 3, else the
    remaining case.

    There is no case 2, "some agent a in {1, 2} has v_a(X0) > v_a(X1)": once
    case 1 fails it never holds.  `_relabel` leaves X2 the only bundle that
    agents 1 and 2 find tEFX-feasible, so X0 is not tEFX-feasible for a.  If
    v_a(X0) > v_a(X1), X1 is not what makes it so; some g in X2 has
    v_a(X0 + g) < v_a(X2 - g).  Case 1 failing at g gives
    v_a(X2 - g) <= max(v_a(X0 + g), v_a(X1)), so v_a(X2 - g) <= v_a(X1).
    Then v_a(X1) > v_a(X0 + g) > v_a(X0) > v_a(X1), a contradiction.
    """
    v0, v1, v2 = valuations
    x0, x1, x2 = partition

    # Case 1: some non-zero agent prefers a reduced X2 over both alternatives.
    for v in (v1, v2):
        for bit in singleton_bits(x2):
            if v.rank[x2 ^ bit] > max(v.rank[x0 | bit], v.rank[x1]):
                return _case_shift(partition, v0, bit)

    # Case 3: a reduced X2 beats X1 for both non-zero agents.  Agent 1 splits;
    # agent 0 takes X1 if it can, and agent 2 its favorite side.
    for bit in singleton_bits(x2):
        if v1.rank[x2 ^ bit] > v1.rank[x1] and v2.rank[x2 ^ bit] > v2.rank[x1]:
            rebuilt = _split_sides(partition, v1, bit)
            if _efx_feasible(v0, 1, rebuilt):
                favored = max((0, 2), key=lambda j: v2.rank[rebuilt[j]])
                return _hand_out(TAG_TEFX, x1, 2, rebuilt[favored], rebuilt[2 - favored])
            return _repair_middle(rebuilt, v0)

    return _remaining_case(partition, valuations)


def _case_shift(
    partition: tuple[int, int, int], v0: RankValuation, bit: int
) -> tuple[None, tuple[int, int, int]]:
    """Case 1: move the witnessing good from X2 into X0 and repair."""
    x0, x1, x2 = partition
    shifted = (x0 | bit, x1, x2 ^ bit)
    if _efx_feasible(v0, 1, shifted):
        if not _efx_feasible(v0, 0, shifted):
            raise InvariantBroken("grown first bundle lost EFX-feasibility for agent 0")
        return None, shifted
    # X1's violation can only come from the grown bundle, so the threshold
    # subset below exists.
    minimal = minimal_satisfying_subset(
        x0 | bit, lambda s: v0.rank[s] > v0.rank[x1]
    )
    repaired = (minimal, x1, (x2 ^ bit) | ((x0 | bit) ^ minimal))
    if _efx_feasible(v0, 0, repaired) and _efx_feasible(v0, 1, repaired):
        return None, repaired
    return None, equalize_for_valuation(repaired, v0)


def _split_sides(
    partition: tuple[int, int, int], v_split: RankValuation, bit: int
) -> tuple[int, int, int]:
    """Rebalance X0+g against X2-g for the splitting agent, keeping X1 in the middle."""
    x0, x1, x2 = partition
    part_first, part_third = transfer_split(v_split, x0 | bit, x2 ^ bit)
    rebuilt = (part_first, x1, part_third)
    allocation = Allocation(v_split.m, rebuilt)
    if not all(fairness.is_tefx_feasible(v_split, index, allocation) for index in (0, 2)):
        raise InvariantBroken("split parts not tEFX-feasible for the splitting agent")
    return rebuilt


def _repair_middle(
    rebuilt: tuple[int, int, int], v0: RankValuation
) -> tuple[None, tuple[int, int, int]]:
    """X1 = rebuilt[1] is not EFX-feasible for agent 0: regroup around X1.

    Agent 0 strongly envies a side part Z.  The next partition is X1, the
    inclusion-minimal subset of Z still beating X1, and the remaining goods;
    it is equalized for agent 0 unless X1 is EFX-feasible in it.
    """
    x1 = rebuilt[1]
    envied = [j for j in (0, 2) if fairness.strongly_envies(v0, x1, rebuilt[j])]
    if not envied:
        raise InvariantBroken("agent 0 holds no strong envy yet X1 is infeasible")
    z = rebuilt[envied[0]]
    z_minimal = minimal_satisfying_subset(z, lambda s: v0.rank[s] > v0.rank[x1])
    candidate = (x1, z_minimal, rebuilt[2 - envied[0]] | (z ^ z_minimal))
    if _efx_feasible(v0, 0, candidate):
        if not _efx_feasible(v0, 1, candidate):
            raise InvariantBroken("minimal subset lost EFX-feasibility for agent 0")
        return None, candidate
    return None, equalize_for_valuation(candidate, v0)


def _remaining_case(
    partition: tuple[int, int, int], valuations: Sequence[RankValuation]
) -> tuple[str | None, tuple[int, int, int]]:
    v0 = valuations[0]
    x0, x1, x2 = partition
    m = v0.m
    allocation = Allocation(m, partition)

    # The keeper ("a") holds X1 in the EF1&EEFX exits.
    keeper = next((a for a in (1, 2) if fairness.is_ef1_feasible(valuations[a], 1, allocation)), 0)
    if not keeper:
        raise InvariantBroken("middle bundle EF1-feasible for neither agent")
    other = 3 - keeper
    v_keep, v_other = valuations[keeper], valuations[other]

    rest = full_set(m) ^ x1
    if fairness.eefx_certificate(v_keep, x1, rest, 3) is not None:
        return _hand_out(TAG_EF1_EEFX, x0, keeper, x1, x2)

    # X1 is neither tEFX- nor EEFX-feasible for the keeper, so a good in X2
    # witnesses the transfer failure.
    witness = fairness.transfer_witness(v_keep, x1, x2)
    if not witness:
        raise InvariantBroken("transfer-infeasible bundle has no witnessing good")
    if not v_keep.rank[x0 | witness] > v_keep.rank[x2 ^ witness]:
        raise InvariantBroken("witnessing good does not favor the grown bundle")
    if not v_other.rank[x1] > v_other.rank[x2 ^ witness]:
        raise InvariantBroken("middle bundle not EF1-feasible for the other agent")

    rebuilt = _split_sides(partition, v_keep, witness)
    favorite = max(range(3), key=lambda j: v_other.rank[rebuilt[j]])
    if favorite == 1:
        # `rebuilt` certifies X1 is EEFX-feasible for the other agent.
        return _hand_out(TAG_EF1_EEFX, x0, keeper, x2, x1)
    if _efx_feasible(v0, 1, rebuilt):
        return _hand_out(TAG_TEFX, x1, other, rebuilt[favorite], rebuilt[2 - favorite])
    return _repair_middle(rebuilt, v0)
