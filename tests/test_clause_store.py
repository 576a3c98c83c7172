"""The flat clause store that `parse_dimacs` fills, against a list of the same clauses.

Every reader of a formula (propagation, subsumption, the solver's set-up,
the literal check) must give the same answer, step for step, whether the
clauses come as a `ClauseStore` or as the list of tuples it stands for.
"""

import io
import tracemalloc

import pytest

from efxlab.cdcl import _Solver
from efxlab.dimacs import ClauseStore, CnfFormula, parse_dimacs
from efxlab.encoding import EncodeOptions, write_dimacs_stream
from efxlab.errors import LiteralOutOfRange
from efxlab.simplify import preprocess, propagate_units

from test_cdcl import DigestSolver
from test_dimacs import _cases

# README's reproduction rows with m <= 6
README_ROWS = [EncodeOptions(6, 5, False), EncodeOptions(6, 4, False), EncodeOptions(6, 4, True)]


@pytest.fixture(scope="module")
def row_texts():
    texts = {}
    for opts in README_ROWS:
        out = io.StringIO()
        write_dimacs_stream(opts, out)
        texts[opts] = out.getvalue()
    return texts


def _simplified(result):
    return result.formula.clauses, list(result.fixed.items()), result.unsat, result.stats


def _search(formula, budget):
    solver = DigestSolver(formula)
    result = solver.solve(budget)
    return result.status, result.conflicts, result.decisions, result.restarts, solver.digest.hexdigest()


def _check_same_answers(store_formula, budget=None, search=True):
    """Every reader gives the store's formula the answers it gives the list
    (the solver only if `search`)."""
    assert isinstance(store_formula.clauses, ClauseStore)
    listed = CnfFormula(store_formula.num_vars, list(store_formula.clauses))
    assert store_formula.clauses == listed.clauses and listed.clauses == store_formula.clauses
    assert not store_formula.clauses != listed.clauses
    assert _simplified(propagate_units(store_formula)) == _simplified(propagate_units(listed))
    assert _simplified(preprocess(store_formula)) == _simplified(preprocess(listed))
    if search:
        assert _search(store_formula, budget) == _search(listed, budget)


def _check_shared(clauses):
    """Equal literals yielded by `clauses` are one int object."""
    first = {}
    for clause in clauses:
        for lit in clause:
            assert first.setdefault(lit, lit) is lit
    return first


@pytest.mark.parametrize("opts", README_ROWS, ids=lambda opts: f"m{opts.m}_k{opts.level_k}_{opts.item_order}")
def test_readme_rows_read_the_same_from_the_store(row_texts, opts):
    formula = parse_dimacs(row_texts[opts])
    # the solver sets up from the store on one row (about 1 s a side), and its
    # search is cut after 100 conflicts: enough to learn, restart and backjump
    _check_same_answers(formula, budget=100, search=opts.item_order)
    first = _check_shared(formula.clauses)
    assert max(first) > 256  # beyond the ints Python caches itself
    _check_shared(propagate_units(formula).formula.clauses)
    for index in (0, 1, len(formula.clauses) // 2, -1):
        assert all(first[lit] is lit for lit in formula.clauses[index])


def test_random_texts_read_the_same_from_the_store():
    parsed = 0
    for text, want in _cases(1500):
        try:
            formula = parse_dimacs(text)
        except Exception as exc:  # the same type, message and line as the list parser
            assert (type(exc), str(exc)) == want, text
            continue
        assert (formula.num_vars, formula.clauses) == want, text
        _check_same_answers(formula)
        _check_shared(formula.clauses)
        parsed += 1
    assert parsed > 300


def test_the_m6_k5_formula_is_held_in_well_under_a_tuple_per_clause(row_texts):
    # 461,835 clauses: about 6 MB as a store, about 34 MB as tuples
    text = row_texts[EncodeOptions(6, 5, False)]
    tracemalloc.start()
    try:
        formula = parse_dimacs(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(formula.clauses) == 461_835
    assert held < 10_000_000


def test_the_store_is_a_sequence_of_tuples():
    text = "p cnf 300 6\n1 -2 0\n300 2 0\n0\n-300 0\n+300 0\n1 2 3 0\n"
    clauses = parse_dimacs(text).clauses
    want = [(1, -2), (300, 2), (), (-300,), (300,), (1, 2, 3)]
    assert list(clauses) == want and clauses == want and len(clauses) == 6
    assert [clauses[i] for i in range(-6, 6)] == want + want
    assert clauses[1:4] == want[1:4] and clauses[::-1] == want[::-1]
    assert (300, 2) in clauses and (2, 300) not in clauses
    assert clauses.index(()) == 2 and clauses.count((300,)) == 1
    assert [width for width, _ in clauses.runs()] == [2, 0, 1, 3]
    assert clauses[1][0] is clauses[4][0]
    assert clauses != want[:-1] and clauses != [*want[:-1], (1, 2, 4)] and clauses != tuple(want)
    assert clauses == parse_dimacs(text.replace("+300", "300")).clauses
    assert repr(clauses) == f"ClauseStore({want!r})"
    for index in (6, -7):
        with pytest.raises(IndexError):
            clauses[index]
    with pytest.raises(TypeError):
        hash(clauses)


def test_literals_are_checked_and_counted_from_the_array():
    formula = parse_dimacs("p cnf 4 2\n1 -4 0\n2 0\n")
    assert list(formula.literals()) == [1, -4, 2]
    formula.check_literals()
    assert _Solver(formula).branch_vars == [1, 2, 4]
    formula.num_vars = 3
    with pytest.raises(LiteralOutOfRange, match="^literal -4 invalid for 3 variables$"):
        formula.check_literals()
