import pytest

from efxlab.decoding import (
    decode_valuations,
    dump_dyadic,
    dump_rank_blocks,
    dump_value_blocks,
    load_bundled_counterexample,
    load_dyadic,
    load_rank_blocks,
    load_valuations,
    load_value_blocks,
)
from efxlab.dimacs import Assignment, assignment_from_ranks
from efxlab.encoding import num_variables, var_id
from efxlab.errors import (
    BitstringMismatch,
    GoodCountOutOfRange,
    IncompleteAssignment,
    LineCountMismatch,
    MalformedValuationLine,
    NotATotalOrder,
    RankNotIncreasing,
)
from efxlab.submodular import submodular_realize
from efxlab.valuations import as_real, random_monotone_rank_valuation


def numeric_assignment(m: int) -> Assignment:
    ranks = [tuple(range(1 << m))] * 3
    return assignment_from_ranks(list(ranks), lambda i, a, b: var_id(i, a, b, m))


def test_decode_numeric_order_assignment():
    decoded = decode_valuations(numeric_assignment(3), 3)
    for val in decoded:
        assert val.rank == tuple(range(8))


def test_decode_roundtrips_random_triples():
    for m in (3, 4):
        triple = [random_monotone_rank_valuation(m, 7 * m + j) for j in range(3)]
        assignment = assignment_from_ranks(
            [v.rank for v in triple], lambda i, a, b: var_id(i, a, b, m)
        )
        decoded = decode_valuations(assignment, m)
        assert [v.rank for v in decoded] == [v.rank for v in triple]


def test_decode_detects_missing_variables():
    assignment = numeric_assignment(3)
    del assignment.values[5]
    with pytest.raises(IncompleteAssignment) as err:
        decode_valuations(assignment, 3)
    assert err.value.var == 5


def test_decode_detects_comparison_cycles():
    assignment = numeric_assignment(3)
    # create 1 < 2 < 4 < 1 among the singletons for agent 0
    assignment.values[var_id(0, 1, 2, 3)] = True
    assignment.values[var_id(0, 2, 4, 3)] = True
    assignment.values[var_id(0, 1, 4, 3)] = False
    with pytest.raises(NotATotalOrder) as err:
        decode_valuations(assignment, 3)
    assert set(err.value.cycle) == {1, 2, 4}


def test_bundled_counterexample_spot_ranks():
    vals = load_bundled_counterexample()
    assert vals[0].rank[5] == 54
    assert vals[1].rank[16] == 1
    assert vals[2].rank[64] == 1
    for val in vals:
        val.validate()


def test_rank_block_roundtrip():
    vals = load_bundled_counterexample()
    assert load_rank_blocks(dump_rank_blocks(vals)) == vals


def test_rank_block_error_reporting():
    vals = [random_monotone_rank_valuation(3, 5)]
    text = dump_rank_blocks(vals)
    with pytest.raises(LineCountMismatch):
        load_rank_blocks(text + text.split("\n", 1)[0])  # one line past the block
    lines = text.splitlines()
    lines[1] = "1 010 1"  # set number disagrees with bitstring
    with pytest.raises(BitstringMismatch):
        load_rank_blocks("\n".join(lines))
    lines = text.splitlines()
    lines[1], lines[2] = lines[2], lines[1]  # ranks out of order
    with pytest.raises(RankNotIncreasing):
        load_rank_blocks("\n".join(lines))


def test_load_valuations_tells_the_block_forms_apart():
    ranks = [random_monotone_rank_valuation(3, seed) for seed in (1, 2)]
    assert load_valuations(dump_rank_blocks(ranks)) == ranks
    values = [as_real(v) for v in ranks]
    assert load_valuations("\n" + dump_value_blocks(values)) == values
    one_block = dump_value_blocks(values[:1])
    assert one_block.startswith("1 3\n0 000 0\n")
    assert load_valuations(one_block) == values[:1]


def test_rank_file_with_a_short_first_line_names_that_line():
    """``0 000`` is a rank line without its rank, not an ``n m`` header."""
    text = dump_rank_blocks([random_monotone_rank_valuation(3, 1)])
    lines = text.splitlines()
    lines[0] = "0 000"
    with pytest.raises(MalformedValuationLine, match="^line 1: need 3 fields, got 2$"):
        load_valuations("\n".join(lines))


def test_value_block_roundtrip():
    vals = [as_real(random_monotone_rank_valuation(4, seed)) for seed in (1, 2)]
    text = dump_value_blocks(vals)
    again = load_value_blocks(text)
    assert [v.values for v in again] == [v.values for v in vals]
    assert dump_value_blocks(again) == text


def test_value_block_header_and_bitstrings_are_checked():
    body = dump_value_blocks([as_real(random_monotone_rank_valuation(3, 4))]).splitlines()[1:]
    headers = {"x 3": MalformedValuationLine, "1 -1": GoodCountOutOfRange, "0 3": LineCountMismatch}
    for header, error in headers.items():
        with pytest.raises(error):
            load_value_blocks("\n".join([header, *body]))
    body[1] = "1 0_1 1"  # int("0_1", 2) == 1, but it is no bitstring
    with pytest.raises(BitstringMismatch):
        load_value_blocks("\n".join(["1 3", *body]))


def test_dyadic_roundtrip():
    dyadic = submodular_realize(random_monotone_rank_valuation(4, 9))
    assert load_dyadic(dump_dyadic(dyadic)) == dyadic


def test_assignment_covers_all_variables():
    assignment = numeric_assignment(3)
    assert len(assignment.values) == num_variables(3)
