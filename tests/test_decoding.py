import random

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
from efxlab.encoding import NUM_AGENTS, num_variables, var_id
from efxlab.errors import (
    BitstringMismatch,
    EfxLabError,
    GoodCountOutOfRange,
    IncompleteAssignment,
    LineCountMismatch,
    MalformedValuationLine,
    NotATotalOrder,
    RankNotIncreasing,
)
from efxlab.submodular import submodular_realize
from efxlab.valuations import RankValuation, random_monotone_rank_valuation

from conftest import as_real


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


def _reference_decode(assignment: Assignment, m: int) -> list[RankValuation]:
    """Reference: a comparison matrix per agent, filled one `var_id` at a time."""
    n_sets = 1 << m
    valuations = []
    for agent in range(NUM_AGENTS):
        below = [[False] * n_sets for _ in range(n_sets)]  # below[a][b]: v(b) < v(a)
        for a in range(n_sets):
            for b in range(a + 1, n_sets):
                var = var_id(agent, a, b, m)
                value = assignment.values.get(var)
                if value is None:
                    raise IncompleteAssignment(var)
                below[b][a] = value
                below[a][b] = not value
        rank = [sum(row) for row in below]
        seen = [-1] * n_sets
        for mask, r in enumerate(rank):
            if seen[r] != -1:
                first, second = (seen[r], mask) if below[mask][seen[r]] else (mask, seen[r])
                middle = next(
                    c for c in range(n_sets)
                    if c not in (first, second) and below[c][second] and below[first][c]
                )
                raise NotATotalOrder((second, middle, first))
            seen[r] = mask
        valuations.append(RankValuation(m, tuple(rank)))
    return valuations


def _outcome(decode, assignment, m):
    """The ranks `decode` returns, or the type and message of the error it raises."""
    try:
        return [v.rank for v in decode(assignment, m)]
    except EfxLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_decode_roundtrips_and_matches_the_matrix_decoder(m):
    """Round trips of random triples, then the same triples with comparisons flipped,
    which make 3-cycles or break monotonicity, against the reference decoder."""
    rng = random.Random(m)
    for trial in range(3):
        triple = [random_monotone_rank_valuation(m, 100 * m + 3 * trial + j) for j in range(3)]
        assignment = assignment_from_ranks(
            [v.rank for v in triple], lambda i, a, b: var_id(i, a, b, m)
        )
        assert _outcome(decode_valuations, assignment, m) == [v.rank for v in triple]
        for var in rng.sample(sorted(assignment.values), 4):
            assignment.values[var] = not assignment.values[var]
            assert _outcome(decode_valuations, assignment, m) == _outcome(
                _reference_decode, assignment, m
            )


@pytest.mark.parametrize("m", [1, 2])
def test_decode_refuses_good_counts_below_three(m):
    with pytest.raises(GoodCountOutOfRange):
        decode_valuations(Assignment(0), m)


@pytest.mark.parametrize(
    "missing",
    [[1], [num_variables(3) // 2], [num_variables(3)], [40, 80, 17], [80, 50]],
    ids=["first", "middle", "last", "three", "two-agents"],
)
def test_decode_names_the_first_missing_variable_in_pair_order(missing):
    assignment = numeric_assignment(3)
    for var in missing:
        del assignment.values[var]
    with pytest.raises(IncompleteAssignment) as err:
        decode_valuations(assignment, 3)
    assert err.value.var == min(missing)
    assert _outcome(decode_valuations, assignment, 3) == _outcome(_reference_decode, assignment, 3)


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
        assert RankValuation(val.m, val.rank) == val


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


@pytest.mark.parametrize("token", ["0_1", "1_0", "١"])
def test_valuation_integers_follow_the_dimacs_token_rule(token):
    """`int()` alone reads 0_1 as 1, 1_0 as 10 and the Arabic-Indic digit one as 1;
    each integer field of a valuation file refuses them, as DIMACS does, naming the line."""
    rank = dump_rank_blocks([random_monotone_rank_valuation(3, 1)])
    values = dump_value_blocks([as_real(random_monotone_rank_valuation(3, 4))])
    dyadic = dump_dyadic(submodular_realize(random_monotone_rank_valuation(3, 9)))
    cases = [  # (loader, text, line index, field index)
        (load_rank_blocks, rank, 1, 0),
        (load_rank_blocks, rank, 1, 2),
        (load_value_blocks, values, 0, 0),
        (load_value_blocks, values, 0, 1),
        (load_value_blocks, values, 2, 0),
        (load_value_blocks, values, 2, 2),
        (load_dyadic, dyadic, 1, 0),
        (load_dyadic, dyadic, 1, 1),
    ]
    for load, text, line, field in cases:
        lines = [row.split() for row in text.splitlines()]
        lines[line][field] = token
        with pytest.raises(MalformedValuationLine, match=f"^line {line + 1}: .* is not an integer$"):
            load("\n".join(map(" ".join, lines)))


def test_assignment_covers_all_variables():
    assignment = numeric_assignment(3)
    assert len(assignment.values) == num_variables(3)
