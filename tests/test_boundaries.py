"""Every name in `efxlab.__all__` that takes ints, called on boundary ints.

Each call must return, or raise an `EfxLabError`, within `CALL_LIMIT_S`
seconds, timed in this process by `signal.setitimer`.  The ints are -1, 0,
1, 2, 17 (one past the largest supported good count), 1 << M (the first set
number past M goods) and a negative mask; an int sequence is the empty list,
or one or two of those ints.  Every other argument is a fixed, valid object
over M goods, so that a call can fail only on its ints.  A valuation is
checked when it is made, so a function that reads one never sees a bad
table.  `RankValuation` also gets m = M with a table that is not monotone
and one that is too short, and each must raise its own error type, as must
each call in `TYPED_ERRORS`: empty value blocks, valuations of mixed good
counts, an order that names a set past the goods, and comparison models
built from no rank tables, tables of unequal length, or tables of a length
that is not 2^m for a supported m.  A variable numbering whose rows are not
the next runs of ids is refused at the first such row, which its message names.
"""

from __future__ import annotations

import inspect
import re
import signal
from functools import partial
from itertools import product

import pytest

import efxlab
from efxlab import (
    Allocation,
    EncodeOptions,
    RankValuation,
    RealValuation,
    TriSolveResult,
    VerifyReport,
    add_dummy_goods,
    clause_counts,
    count_allocations,
    decode_valuations,
    eefx_certificate,
    equalize_for_valuation,
    extend_counterexample,
    is_ef1_feasible,
    is_efx_feasible,
    is_tefx_feasible,
    leveled,
    load_bundled_counterexample,
    marginal_values,
    minimal_satisfying_subset,
    num_variables,
    random_monotone_rank_valuation,
    rank_valuation_from_order,
    strongly_envies,
    transfer_split,
    var_id,
    verify,
    violated_condition_count,
)
from efxlab.decoding import load_value_blocks
from efxlab.dimacs import Assignment, assignment_from_ranks
from efxlab.errors import (
    AgentCountOutOfRange,
    ArityMismatch,
    EfxLabError,
    GoodCountOutOfRange,
    LineCountMismatch,
    LiteralOutOfRange,
    MonotonicityViolated,
    NotAPermutation,
)

CALL_LIMIT_S = 3.0
M = 3
INTS = (-1, 0, 1, 2, 17, 1 << M, ~0b011)
INT_LISTS = [[]] + [[x] for x in INTS] + [[x, y] for x in INTS for y in INTS]

# rank tables over M goods -> the error each raises when made
BAD_RANK_TABLES = {
    tuple(reversed(range(1 << M))): MonotonicityViolated,
    (0, 1, 2): NotAPermutation,
}

V = random_monotone_rank_valuation(M, 1)
VAR_OF = partial(var_id, m=M)
ALLOCATION = Allocation(M, (0b001, 0b010, 0b100))

# a call past an input's bounds -> the error it must raise
TYPED_ERRORS = {
    "value_blocks_empty": (lambda: load_value_blocks(""), LineCountMismatch),
    "violations_mixed_goods": (
        lambda: violated_condition_count(ALLOCATION, [V, V, random_monotone_rank_valuation(M + 1, 1)]),
        ArityMismatch,
    ),
    "order_set_past_goods": (lambda: rank_valuation_from_order(M, [*range(7), 9]), NotAPermutation),
    "rank_tables_none": (lambda: assignment_from_ranks([], VAR_OF), AgentCountOutOfRange),
    "rank_tables_unequal": (lambda: assignment_from_ranks([tuple(range(4)), V.rank], VAR_OF), ArityMismatch),
    "rank_tables_not_2_to_the_m": (
        lambda: assignment_from_ranks([tuple(range(12))] * 3, VAR_OF), GoodCountOutOfRange
    ),
    "rank_tables_below_min_goods": (
        lambda: assignment_from_ranks([tuple(range(4))] * 3, VAR_OF), GoodCountOutOfRange
    ),
}

# name -> (call, one domain per argument of the call)
CALLS = {
    "Allocation": (Allocation, (INTS, INT_LISTS)),
    "EncodeOptions": (lambda m, k: clause_counts(EncodeOptions(m, k, True)), (INTS, INTS + (None,))),
    "RankValuation": (
        lambda m, rank: RankValuation(m, tuple(rank)), (INTS + (M,), INT_LISTS + list(BAD_RANK_TABLES))
    ),
    "RealValuation": (lambda m, values: RealValuation(m, tuple(values)), (INTS, INT_LISTS)),
    "TriSolveResult": (
        lambda m, bundles, iterations: TriSolveResult(m, tuple(bundles), "tEFX", iterations).allocation(),
        (INTS, INT_LISTS, INTS),
    ),
    "VerifyReport": (lambda n, m: VerifyReport(n, m, (), {}, None).to_text(), (INTS, INTS)),
    "add_dummy_goods": (lambda extra: add_dummy_goods([V] * 3, extra), (INTS,)),
    "count_allocations": (count_allocations, (INTS, INTS)),
    "decode_valuations": (lambda m: decode_valuations(Assignment(0), m), (INTS,)),
    "eefx_certificate": (lambda bundle, rest, n: eefx_certificate(V, bundle, rest, n), (INTS,) * 3),
    "equalize_for_valuation": (lambda partition: equalize_for_valuation(partition, V), (INT_LISTS,)),
    "extend_counterexample": (lambda n: extend_counterexample(load_bundled_counterexample(), n), (INTS,)),
    "is_ef1_feasible": (lambda index: is_ef1_feasible(V, index, ALLOCATION), (INTS,)),
    "is_efx_feasible": (lambda index: is_efx_feasible(V, index, ALLOCATION), (INTS,)),
    "is_tefx_feasible": (lambda index: is_tefx_feasible(V, index, ALLOCATION), (INTS,)),
    "leveled": (lambda k: leveled(V, k), (INTS,)),
    "marginal_values": (lambda good, size: marginal_values(V, good, size), (INTS, INTS)),
    "minimal_satisfying_subset": (lambda pool: minimal_satisfying_subset(pool, lambda s: True), (INTS,)),
    "num_variables": (num_variables, (INTS,)),
    "random_monotone_rank_valuation": (random_monotone_rank_valuation, (INTS, INTS)),
    "rank_valuation_from_order": (rank_valuation_from_order, (INTS, INT_LISTS)),
    "strongly_envies": (lambda own, other: strongly_envies(V, own, other), (INTS, INTS)),
    "transfer_split": (lambda first, third: transfer_split(V, first, third), (INTS, INTS)),
    "var_id": (var_id, (INTS,) * 4),
    "verify": (lambda jobs: verify([V] * 3, jobs), ((1, 2),)),  # jobs > 2 would start more workers
}


class CallTimedOut(Exception):
    pass


def _time_out(signum, frame):
    raise CallTimedOut


def _takes_ints(obj) -> bool:
    """Whether some parameter of `obj` is annotated with int, alone or inside a type."""
    try:
        parameters = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return False
    return any(re.search(r"\bint\b", str(p.annotation)) for p in parameters)


def test_every_public_name_that_takes_ints_is_called():
    takes_ints = {name for name in efxlab.__all__ if _takes_ints(getattr(efxlab, name))}
    assert takes_ints == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_boundary_ints_return_or_raise_a_typed_error_in_time(name):
    call, domains = CALLS[name]
    previous = signal.signal(signal.SIGALRM, _time_out)
    try:
        for args in product(*domains):
            signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
            try:
                call(*args)
            except EfxLabError:
                pass
            except CallTimedOut:
                pytest.fail(f"{name}{tuple(args)} ran longer than {CALL_LIMIT_S} s")
            except Exception as exc:
                pytest.fail(f"{name}{tuple(args)} raised {type(exc).__name__}: {exc}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("rank", list(BAD_RANK_TABLES), ids=["reversed", "short"])
def test_bad_rank_tables_are_refused_when_made(rank):
    with pytest.raises(BAD_RANK_TABLES[rank]):
        RankValuation(M, rank)


@pytest.mark.parametrize("name", sorted(TYPED_ERRORS))
def test_out_of_bounds_inputs_raise_their_own_error(name):
    call, error = TYPED_ERRORS[name]
    with pytest.raises(error):
        call()


# a numbering of x(i, a, b) over M goods -> the message naming its first bad row
FIRST_ROW = r"x\(0, 0, b\) for b > 0 must be the ids 1\.\.7"
BAD_NUMBERINGS = {
    "another-m": (partial(var_id, m=M + 1), r"x\(0, 1, b\) for b > 1 must be the ids 8\.\.13"),
    "first-id-off": (lambda i, a, b: VAR_OF(i, a, b) - (b == a + 1), FIRST_ROW),
    "last-id-off": (lambda i, a, b: VAR_OF(i, a, b) + (b == 7), FIRST_ROW),
}


@pytest.mark.parametrize("name", sorted(BAD_NUMBERINGS))
def test_a_row_not_numbered_as_the_next_ids_is_refused(name):
    var_of, message = BAD_NUMBERINGS[name]
    with pytest.raises(LiteralOutOfRange, match=f"^{message}$"):
        assignment_from_ranks([V.rank] * 3, var_of)
