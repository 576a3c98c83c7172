"""Tests for the constructive three-agent algorithm.

Besides random campaigns (whose outputs are always re-verified by the
independent fairness predicates inside solve_three), this module pins down
instances reaching every dispatch path: the witnessed-good shift with its
three repair flavors, the donor/receiver split case, and two hand-built
states for the final case, one exiting at the direct certificate check and
one traversing the witnessed-transfer branch to the certificate exit.
"""

import hashlib
import itertools
import re
from heapq import heapify, heappop, heappush

import pytest

from efxlab import fairness
from efxlab.allocations import Allocation, count_allocations
from efxlab.bitset import singleton_bits
from efxlab.decoding import load_bundled_counterexample
from efxlab.errors import (
    AgentCountOutOfRange,
    ArityMismatch,
    BadPartitionInput,
    GoodCountOutOfRange,
    OverlappingBundles,
    PredicateFailsOnPool,
    SetupViolated,
)
from efxlab.three_agent import (
    TAG_EF1_EEFX,
    TAG_TEFX,
    _confirmed,
    _dispatch,
    _repair_middle,
    equalize_for_valuation,
    minimal_satisfying_subset,
    solve_three,
    transfer_split,
)
from efxlab.valuations import RankValuation, random_monotone_rank_valuation, rank_valuation_from_order

from conftest import numeric_order_valuation


def lattice_order_with(m, extra_edges, weights):
    """Linear extension of the subset lattice plus extra (below, above) edges."""
    n_sets = 1 << m
    succ = {s: set() for s in range(n_sets)}
    indeg = dict.fromkeys(range(n_sets), 0)
    edges = {
        (s, t)
        for s in range(n_sets)
        for t in range(n_sets)
        if s != t and s & ~t == 0
    }
    edges |= set(extra_edges)
    for below, above in edges:
        if above not in succ[below]:
            succ[below].add(above)
            indeg[above] += 1

    def key(s):
        return (sum(weights[i] for i in range(m) if s >> i & 1), s)

    ready = [(key(s), s) for s in range(n_sets) if indeg[s] == 0]
    heapify(ready)
    order = []
    while ready:
        _, s = heappop(ready)
        order.append(s)
        for t in sorted(succ[s]):
            indeg[t] -= 1
            if indeg[t] == 0:
                heappush(ready, (key(t), t))
    assert len(order) == n_sets, "extra edges created a cycle"
    return order


def seeded_triple(m, seed):
    return [random_monotone_rank_valuation(m, seed * 31 + 7 * j + m) for j in range(3)]


# -- the single-valuation reallocation ------------------------------------------


def test_equalize_leaves_efx_partitions_unchanged():
    v = random_monotone_rank_valuation(4, 3)
    bundles = equalize_for_valuation((0b0011, 0b0100, 0b1000), v)
    assert equalize_for_valuation(bundles, v) == bundles


def test_equalize_fills_empty_bundles():
    out = equalize_for_valuation((0, 0, 0b111), numeric_order_valuation(3))
    assert all(out)
    alloc = Allocation(3, out)
    assert all(fairness.is_efx_feasible(numeric_order_valuation(3), j, alloc) for j in range(3))


@pytest.mark.parametrize("seed", range(8))
def test_equalize_postconditions_on_random_partitions(seed):
    v = random_monotone_rank_valuation(5, seed)
    start = (0b00001, 0b00110, 0b11000)
    out = equalize_for_valuation(start, v)
    alloc = Allocation(5, out)
    assert all(fairness.is_efx_feasible(v, j, alloc) for j in range(3))
    assert min(v.rank[b] for b in out) >= min(v.rank[b] for b in start)


# -- subset selection helpers ----------------------------------------------------


def test_minimal_subset_trivial_predicate_returns_empty():
    assert minimal_satisfying_subset(0b11, lambda s: True) == 0


def test_minimal_subset_threshold_example():
    v = numeric_order_valuation(3)
    out = minimal_satisfying_subset(0b011, lambda s: v.rank[s] > v.rank[0b001])
    assert out == 0b010


def test_minimal_subset_requires_pool_to_satisfy():
    with pytest.raises(PredicateFailsOnPool):
        minimal_satisfying_subset(0b11, lambda s: False)


def test_minimal_subset_refuses_a_negative_pool_before_asking_the_predicate():
    asked = []
    with pytest.raises(BadPartitionInput):
        minimal_satisfying_subset(-4, lambda s: asked.append(s) or True)
    assert asked == []


def test_minimal_subset_is_inclusion_minimal():
    v = random_monotone_rank_valuation(5, 12)
    threshold = v.rank[0b00110]
    pool = 0b11011
    if v.rank[pool] > threshold:
        out = minimal_satisfying_subset(pool, lambda s: v.rank[s] > threshold)
        assert v.rank[out] > threshold
        for bit in singleton_bits(out):
            assert v.rank[out ^ bit] <= threshold


def test_transfer_split_postconditions():
    checked = 0
    for seed in range(30):
        v = random_monotone_rank_valuation(5, 900 + seed)
        first, third = 0b00111, 0b11000
        if v.rank[first] <= v.rank[third]:
            continue
        checked += 1
        out_first, out_third = transfer_split(v, first, third)
        assert out_first | out_third == first | third
        assert out_first & out_third == 0
        assert v.rank[out_first] > v.rank[out_third]
        for bit in singleton_bits(out_first):
            assert v.rank[out_first ^ bit] < v.rank[out_third | bit]
    assert checked >= 5


def test_transfer_split_rejects_bad_setups():
    v = numeric_order_valuation(4)
    with pytest.raises(SetupViolated):
        transfer_split(v, 0b0001, 0b1110)
    with pytest.raises(OverlappingBundles):
        transfer_split(v, 0b0011, 0b0110)


def test_repair_tail_regroups_around_the_middle_bundle():
    """The shared tail of the split cases, on states where X1 fails for agent 0."""
    seen = {"kept": 0, "equalized": 0}
    for seed in range(60):
        v0 = random_monotone_rank_valuation(5, 300 + seed)
        for owners in ((0, 0, 1, 2, 2), (2, 0, 0, 1, 2), (0, 1, 2, 2, 2)):
            rebuilt = [0, 0, 0]
            for good, owner in enumerate(owners):
                rebuilt[owner] |= 1 << good
            rebuilt = tuple(rebuilt)
            if fairness.is_efx_feasible(v0, 1, Allocation(5, rebuilt)):
                continue
            tag, out = _repair_middle(rebuilt, v0)
            assert tag is None
            Allocation(5, out)
            assert all(fairness.is_efx_feasible(v0, j, Allocation(5, out)) for j in (0, 1))
            if out[0] == rebuilt[1]:
                seen["kept"] += 1
                envied = next(side for side in (rebuilt[0], rebuilt[2]) if out[1] & side)
                assert out[1] & ~envied == 0 and v0.rank[out[1]] > v0.rank[rebuilt[1]]
            else:
                seen["equalized"] += 1
    assert seen["kept"] and seen["equalized"]


# -- full runs --------------------------------------------------------------------


def test_identical_valuations_reach_a_tefx_allocation():
    v = numeric_order_valuation(3)
    result = solve_three([v, v, v])
    assert result.tag == TAG_TEFX
    assert sorted(result.bundles) == [1, 2, 4]


def test_counterexample_instance_returns_verified_result():
    result = solve_three(load_bundled_counterexample())
    assert result.tag in (TAG_TEFX, TAG_EF1_EEFX)
    Allocation(8, result.bundles)


def test_random_campaign_terminates_within_bound():
    for m in (4, 5):
        bound = count_allocations(3, m) + 1
        for seed in range(60):
            vals = [random_monotone_rank_valuation(m, seed * 3 + j) for j in range(3)]
            result = solve_three(vals)
            assert result.iterations <= bound


# sha256 of (tag, bundles, iterations, certificates) over criterion 10's 600
# seeded runs and the counterexample, frozen so that a refactor of the loop
# leaves every result unchanged.
RESULTS_DIGEST = "ac3d73b6329923457b428a1359420a65ffed25b32ea0d1577957447f2666c7f9"


def test_results_are_pinned():
    instances = [
        [random_monotone_rank_valuation(m, seed * 3 + j) for j in range(3)]
        for m in (4, 5, 6)
        for seed in range(200)
    ]
    instances.append(load_bundled_counterexample())
    digest = hashlib.sha256()
    for vals in instances:
        r = solve_three(vals)
        digest.update(repr((r.tag, r.bundles, r.iterations, r.certificates)).encode())
    assert digest.hexdigest() == RESULTS_DIGEST


@pytest.mark.parametrize(
    "m,seed",
    [
        (4, 14),      # witnessed shift accepted directly
        (6, 88),      # witnessed shift repaired by a minimal subset
        (6, 1379),    # witnessed shift falls back to the reallocation loop
        (7, 1066),    # donor/receiver split case
        (6, 263),     # multiple potential-raising iterations
        (6, 657),
    ],
)
def test_dispatch_path_seeds(m, seed):
    result = solve_three(seeded_triple(m, seed))
    assert result.tag in (TAG_TEFX, TAG_EF1_EEFX)


def test_case_1_failing_leaves_x0_below_x1():
    """The lemma in `_dispatch`'s docstring, by brute force over every partition
    (X0, X1, X2) of the goods, empty bundles included: for an agent that finds X0
    not tEFX-feasible and has no good g of X2 with v(X2 - g) > max(v(X0 + g), v(X1)),
    v(X0) < v(X1), so `_dispatch` needs no case for an agent that prefers X0."""
    met = needs_case_1 = 0
    for m, seeds in ((3, 40), (4, 20), (5, 10)):
        for seed in range(seeds):
            v = random_monotone_rank_valuation(m, 900 + seed)
            for owners in itertools.product(range(3), repeat=m):
                partition = tuple(
                    sum(1 << good for good, owner in enumerate(owners) if owner == j) for j in range(3)
                )
                x0, x1, x2 = partition
                if fairness.is_tefx_feasible(v, 0, Allocation(m, partition)):
                    continue
                if any(v.rank[x2 ^ bit] > max(v.rank[x0 | bit], v.rank[x1]) for bit in singleton_bits(x2)):
                    needs_case_1 += v.rank[x0] > v.rank[x1]
                    continue
                met += 1
                assert v.rank[x0] < v.rank[x1], (m, seed, partition)
    assert met >= 500
    assert needs_case_1  # without case 1 failing, X0 does beat X1


def test_rejects_wrong_arity_and_tiny_m():
    v = numeric_order_valuation(3)
    with pytest.raises(AgentCountOutOfRange):
        solve_three([v, v])
    with pytest.raises(GoodCountOutOfRange, match="m=2"):
        RankValuation(2, (0, 1, 2, 3))  # refused when made, so `solve_three` never sees it


def test_more_goods_than_supported_are_refused():
    """m=17 is refused when the valuation is made, before its table is read, as every other
    entry point refuses it."""
    with pytest.raises(GoodCountOutOfRange, match="m=17"):
        RankValuation(17, ())


def test_mixed_good_counts_are_an_arity_mismatch():
    """The instance shape is read as `verify` and `add_dummy_goods` read it."""
    v, w = numeric_order_valuation(3), random_monotone_rank_valuation(4, 0)
    for vals in ([v, v, w], [w, v, v], [v, w, w]):
        with pytest.raises(ArityMismatch, match=re.escape(str([x.m for x in vals]))):
            solve_three(vals)


# -- hand-built final-case states -------------------------------------------------


def final_case_state_with_certificate():
    """m=5 dispatch state that exits at the direct certificate check."""
    m = 5
    v0 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [], {0: 5, 1: 3, 2: 4, 3: 1, 4: 2}),
    )
    v1 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [(14, 16), (8, 6), (16, 9), (3, 4), (1, 6)],
                           {0: 6, 1: 1, 2: 8, 3: 2, 4: 20}),
    )
    v2 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [(22, 8), (16, 6), (8, 17), (3, 4), (1, 6)],
                           {0: 6, 1: 1, 2: 8, 3: 20, 4: 2}),
    )
    return (0b00001, 0b00110, 0b11000), [v0, v1, v2]


def final_case_state_without_certificate():
    """m=6 dispatch state whose middle bundle has no certificate for agent 1."""
    m = 6
    v0 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [(2, 1), (4, 1), (24, 1), (40, 1), (48, 1), (1, 6)],
                           {0: 9, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5}),
    )
    v1 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [(14, 48), (48, 9), (40, 6), (24, 33), (3, 4), (1, 6), (6, 16)],
                           {0: 4, 1: 1, 2: 6, 3: 2, 4: 14, 5: 10}),
    )
    v2 = rank_valuation_from_order(
        m,
        lattice_order_with(m, [(22, 40), (40, 17), (48, 6), (24, 6), (3, 4), (1, 6), (9, 6), (8, 6)],
                           {0: 4, 1: 2, 2: 7, 3: 9, 4: 3, 5: 8}),
    )
    return (0b000001, 0b000110, 0b111000), [v0, v1, v2]


def assert_final_case_preconditions(partition, vals):
    v0, v1, v2 = vals
    x0, x1, x2 = partition
    alloc = Allocation(v0.m, partition)
    assert v0.rank[x0] < v0.rank[x1]
    assert fairness.is_efx_feasible(v0, 0, alloc)
    assert fairness.is_efx_feasible(v0, 1, alloc)
    assert [j for j in range(3) if fairness.is_tefx_feasible(v1, j, alloc)] == [2]
    assert [j for j in range(3) if fairness.is_tefx_feasible(v2, j, alloc)] == [2]
    # none of the earlier dispatch guards fires
    for v in (v1, v2):
        for bit in singleton_bits(x2):
            assert not v.rank[x2 ^ bit] > max(v.rank[x0 | bit], v.rank[x1])
        assert v.rank[x0] < v.rank[x1]
    for bit in singleton_bits(x2):
        assert not (v1.rank[x2 ^ bit] > v1.rank[x1] and v2.rank[x2 ^ bit] > v2.rank[x1])


def test_final_case_direct_certificate_exit():
    partition, vals = final_case_state_with_certificate()
    assert_final_case_preconditions(partition, vals)
    tag, payload = _dispatch(partition, vals)
    assert tag == TAG_EF1_EEFX
    assert payload == partition  # agent 1 keeps the middle bundle
    result = _confirmed(vals, tag, payload, 1)
    assert (result.tag, result.bundles) == (TAG_EF1_EEFX, payload)
    assert set(result.certificates) == {0, 1, 2}


def test_final_case_witnessed_transfer_exit():
    partition, vals = final_case_state_without_certificate()
    assert_final_case_preconditions(partition, vals)
    x1 = partition[1]
    full = (1 << vals[0].m) - 1
    assert fairness.eefx_certificate(vals[1], x1, full ^ x1, 3) is None
    tag, payload = _dispatch(partition, vals)
    assert tag == TAG_EF1_EEFX
    # agent 1 takes the common bundle, agent 2 the middle one
    assert payload == (partition[0], partition[2], partition[1])
    _confirmed(vals, tag, payload, 1)


def test_final_case_states_solve_end_to_end():
    for build in (final_case_state_with_certificate, final_case_state_without_certificate):
        _, vals = build()
        result = solve_three(vals)
        assert result.tag in (TAG_TEFX, TAG_EF1_EEFX)
