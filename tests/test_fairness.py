import random
from types import SimpleNamespace

import pytest

from efxlab.allocations import Allocation
from efxlab.bitset import full_set, singleton_bits
from efxlab.decoding import load_bundled_counterexample
from efxlab.errors import (
    AgentCountOutOfRange,
    ArityMismatch,
    BadPartitionInput,
    OverlappingBundles,
)
from efxlab.fairness import (
    eefx_certificate,
    efx_conditions,
    is_ef1_feasible,
    is_efx,
    is_efx_feasible,
    is_tefx_feasible,
    removal_table,
    strong_envy_witness,
    strongly_envies,
    transfer_witness,
    violated_condition_count,
)
from efxlab.submodular import add_dummy_goods
from efxlab.three_agent import equalize_for_valuation, solve_three, transfer_split
from efxlab.valuations import random_monotone_rank_valuation
from efxlab.verification import verify

from conftest import all_allocations, numeric_order_valuation


def test_strong_envy_needs_a_removable_good():
    v = random_monotone_rank_valuation(4, 0)
    assert not strongly_envies(v, own=0b0011, other=0)
    # singleton bundles leave the empty set after removal
    assert not strongly_envies(v, own=0b0011, other=0b0100)


def test_witnesses_are_the_lowest_qualifying_good():
    v = numeric_order_valuation(4)  # v(S) = S
    # Removing 0b0010, 0b0100 or 0b1000 from 0b1110 leaves 12, 10 or 6.
    assert strong_envy_witness(v, 0, 0b1110) == 0b0010
    assert strong_envy_witness(v, 11, 0b1110) == 0b0010
    assert strong_envy_witness(v, 12, 0b1110) == 0
    # Moving a good to 0b0001 gives 3, 5 or 9 against those remainders.
    assert transfer_witness(v, 0b0001, 0b1110) == 0b0010
    assert transfer_witness(v, 0b0001, 0b1100) == 0b0100
    assert transfer_witness(v, 0b0111, 0b1000) == 0


def test_strong_envy_rejects_overlap():
    v = random_monotone_rank_valuation(4, 0)
    with pytest.raises(OverlappingBundles):
        strongly_envies(v, 0b0011, 0b0010)


def test_counterexample_small_bundle_strongly_envies_the_rest():
    v0 = load_bundled_counterexample()[0]
    assert strongly_envies(v0, own=0b10000000, other=0b01111111)


def test_singleton_allocation_is_efx_for_identical_agents():
    v = random_monotone_rank_valuation(3, 4)
    allocation = Allocation(3, (1, 2, 4))
    assert is_efx(allocation, [v, v, v])
    assert violated_condition_count(allocation, [v, v, v]) == 0


def test_violation_count_zero_iff_efx():
    """Both agree with a reference kept here: no agent strongly envies another's bundle."""
    vals = [random_monotone_rank_valuation(4, 40 + j) for j in range(3)]
    for allocation in all_allocations(3, 4):
        count = violated_condition_count(allocation, vals)
        bundles = allocation.bundles
        envy_free = not any(
            strongly_envies(v, bundles[i], other)
            for i, v in enumerate(vals)
            for j, other in enumerate(bundles)
            if i != j
        )
        assert (count == 0) == envy_free == is_efx(allocation, vals)
        assert 0 <= count <= 2 * 4


def test_removal_tables_match_a_walk_over_single_goods():
    """The removals Y - g of every form of the EFX condition are those of a walk over the
    goods g of Y: the removed sets of `efx_conditions`, the witness of
    `strong_envy_witness` and the sorted rows of `removal_table`; on rank tables, on
    tables with ties, on the counterexample and with no goods at all."""
    rng = random.Random(22)
    tables = [(v.m, list(v.rank)) for v in load_bundled_counterexample()]
    tables += [(m, list(random_monotone_rank_valuation(m, m).rank)) for m in range(3, 9)]
    tables += [(m, [rng.randrange(5) for _ in range(1 << m)]) for m in range(9)]
    for m, table in tables:
        walk = [[bundle ^ bit for bit in singleton_bits(bundle)] for bundle in range(1 << m)]
        assert removal_table(table, m) == [sorted(map(table.__getitem__, row)) for row in walk]
        v = SimpleNamespace(m=m, value=table.__getitem__)
        for bundle, row in enumerate(walk):
            for value in {-1, *map(table.__getitem__, row)}:
                beaten = [bundle ^ removed for removed in row if table[removed] > value]
                assert strong_envy_witness(v, value, bundle) == min(beaten, default=0)
        owners = [rng.randrange(3) for _ in range(m)]
        bundles = tuple(sum(1 << g for g in range(m) if owners[g] == j) for j in range(3))
        triples = [
            (i, removed, own)
            for i, own in enumerate(bundles)
            for j, other in enumerate(bundles)
            if j != i
            for removed in walk[other]
        ]
        assert list(efx_conditions(bundles, m)) == triples, (m, bundles)


def test_arity_mismatch_is_rejected():
    v = random_monotone_rank_valuation(3, 1)
    with pytest.raises(ArityMismatch):
        is_efx(Allocation(3, (1, 2, 4)), [v, v])


@pytest.mark.parametrize("bundles", [(1, 6, 6), (1, 2, 3), (3, 4, 2), (7, 0, 7)])
def test_overlapping_bundles_are_refused_wherever_they_overlap(bundles):
    """However early an envy shows, an overlap anywhere in the allocation is refused."""
    v = numeric_order_valuation(3)
    for check in (is_efx, violated_condition_count):
        with pytest.raises(OverlappingBundles):
            check(Allocation(3, bundles), [v, v, v])


@pytest.mark.parametrize("predicate", [is_efx_feasible, is_tefx_feasible, is_ef1_feasible])
@pytest.mark.parametrize(
    "m, bundles, error",
    [(4, (1, 2, 12), ArityMismatch), (3, (1, 3, 6), OverlappingBundles)],
    ids=["four-goods", "overlap"],
)
def test_per_bundle_predicates_check_their_allocation(predicate, m, bundles, error):
    """A valuation over other goods than the allocation's, or overlapping bundles, is refused."""
    with pytest.raises(error):
        predicate(numeric_order_valuation(3), 0, Allocation(m, bundles))


R3, R4 = random_monotone_rank_valuation(3, 1), random_monotone_rank_valuation(4, 1)

# Three bundles of m=3 goods that are not a partition, one fault each.
NOT_PARTITIONS = {
    "overlap": (3, 4, 2),
    "good-at-m": (1, 2, 12),
    "negative": (1, 2, -4),
    "missing-good": (1, 2, 0),
}
PARTITION_CALLS = {
    "is_efx": lambda b: is_efx(Allocation(3, b), [R3] * 3),
    "violated_condition_count": lambda b: violated_condition_count(Allocation(3, b), [R3] * 3),
    "is_efx_feasible": lambda b: is_efx_feasible(R3, 0, Allocation(3, b)),
    "is_tefx_feasible": lambda b: is_tefx_feasible(R3, 0, Allocation(3, b)),
    "is_ef1_feasible": lambda b: is_ef1_feasible(R3, 0, Allocation(3, b)),
    "equalize_for_valuation": lambda b: equalize_for_valuation(b, R3),
}
# Functions of two raw sets, given the first and last bundle of a case.
PAIR_CALLS = {
    "strongly_envies": lambda b: strongly_envies(R3, b[0], b[2]),
    "transfer_split": lambda b: transfer_split(R3, b[0], b[2]),
}


@pytest.mark.parametrize(
    "call, case",
    [pytest.param(call, case, id=f"{name}-{case}")
     for name, call in PARTITION_CALLS.items() for case in NOT_PARTITIONS]
    + [pytest.param(call, case, id=f"{name}-{case}")
       for name, call in PAIR_CALLS.items() for case in NOT_PARTITIONS if case != "missing-good"],
)
def test_bundles_outside_a_partition_are_refused(call, case):
    """Every public function that takes bundles refuses bad ones with a typed error: goods
    outside the m goods, and a missing good where the bundles must partition the goods
    (two raw sets need not cover them), with `BadPartitionInput`; a shared good with
    `OverlappingBundles`."""
    with pytest.raises(OverlappingBundles if case == "overlap" else BadPartitionInput):
        call(NOT_PARTITIONS[case])


@pytest.mark.parametrize(
    "call, args",
    [
        (verify, ([R3, R4],)),
        (add_dummy_goods, ([R3, R4], 1)),
        (solve_three, ([R3, R3, R4],)),
        (is_efx, (Allocation(3, (1, 2, 4)), [R3, R3])),
        (is_efx_feasible, (R3, 5, Allocation(3, (1, 2, 4)))),
    ],
    ids=["verify", "add_dummy_goods", "solve_three", "is_efx", "is_efx_feasible"],
)
def test_shape_errors_are_value_errors(call, args):
    """Mixed good counts, too few valuations and an index out of range are bad arguments."""
    with pytest.raises(ValueError):
        call(*args)


def test_favorite_bundle_is_tefx_and_efx_feasible():
    vals = [random_monotone_rank_valuation(5, 60 + j) for j in range(3)]
    for allocation in list(all_allocations(3, 5))[:40]:
        for agent, v in enumerate(vals):
            favorite = max(range(3), key=lambda j: v.value(allocation.bundles[j]))
            assert is_tefx_feasible(v, favorite, allocation)
            assert is_efx_feasible(v, favorite, allocation)


def test_efx_feasible_implies_tefx_and_ef1():
    vals = [random_monotone_rank_valuation(5, 70 + j) for j in range(3)]
    for allocation in list(all_allocations(3, 5))[::7]:
        for agent, v in enumerate(vals):
            for j in range(3):
                if is_efx_feasible(v, j, allocation):
                    assert is_tefx_feasible(v, j, allocation)
                    assert is_ef1_feasible(v, j, allocation)


def test_ef1_holds_against_singleton_and_empty_bundles():
    v = random_monotone_rank_valuation(4, 2)
    allocation = Allocation(4, (0b1100, 0b0010, 0b0001))
    assert is_ef1_feasible(v, 0, allocation)


def test_dominated_small_bundle_fails_tefx_somewhere():
    # One agent holds a single low good against a heavy 3-good bundle whose
    # every one-good transfer still leaves it ahead.
    v = numeric_order_valuation(5)
    allocation = Allocation(5, (0b00001, 0b11100, 0b00010))
    # direct condition scan
    own = 0b00001
    other = 0b11100
    violated = any(
        v.value(own | bit) < v.value(other ^ bit)
        for bit in (0b00100, 0b01000, 0b10000)
    )
    assert violated
    assert not is_tefx_feasible(v, 0, allocation)


def test_ef1_fails_when_every_single_removal_still_beats():
    # Agent values the 3-good bundle above everything even minus its best good.
    order = [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12, 7, 11, 13, 14, 15]
    # bundle {g1,g2,g3} = 14; removals 6, 10, 12 all rank above own bundle {g0} = 1
    from efxlab.valuations import rank_valuation_from_order

    v = rank_valuation_from_order(4, order)
    allocation = Allocation(4, (1, 14, 0))
    assert not is_ef1_feasible(v, 0, allocation)


def test_eefx_certificate_exists_for_efx_feasible_bundle():
    vals = [random_monotone_rank_valuation(4, 90 + j) for j in range(3)]
    for allocation in list(all_allocations(3, 4))[::5]:
        for agent, v in enumerate(vals):
            bundle = allocation.bundles[agent]
            rest = full_set(4) ^ bundle
            if is_efx_feasible(v, agent, allocation):
                certificate = eefx_certificate(v, bundle, rest, 3)
                assert certificate is not None
                # re-check: the bundle beats every removal of every part
                assert certificate[0] == bundle
                recheck = Allocation(4, certificate)
                assert is_efx_feasible(v, 0, recheck)


def test_empty_bundle_has_no_certificate_against_larger_parts():
    v = random_monotone_rank_valuation(4, 13)
    assert eefx_certificate(v, 0, full_set(4), 3) is None


def test_eefx_certificate_input_validation():
    """Bundle and rest are checked as an `Allocation` is: a shared good is an overlap."""
    v = random_monotone_rank_valuation(4, 13)
    with pytest.raises(OverlappingBundles):
        eefx_certificate(v, 0b0011, 0b0110, 3)
    with pytest.raises(OverlappingBundles):
        Allocation(4, (0b0011, 0b0110))


@pytest.mark.parametrize("bundle,rest,n", [(7, 0, 1), (1, 6, 0)])
def test_eefx_certificate_needs_two_agents(bundle, rest, n):
    """`rest` is split into n - 1 parts, so n < 2 leaves no part to split it into."""
    v = random_monotone_rank_valuation(3, 13)
    with pytest.raises(AgentCountOutOfRange, match=f"n={n}"):
        eefx_certificate(v, bundle, rest, n)


def test_nondegenerate_efx_allocations_have_no_empty_bundles():
    vals = [random_monotone_rank_valuation(4, 150 + j) for j in range(3)]
    # partitions with an empty bundle and a >= 2 bundle are never EFX
    allocation = Allocation(4, (0, 0b0011, 0b1100))
    assert not is_efx(allocation, vals)
