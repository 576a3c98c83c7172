import hashlib
import random

import pytest

from efxlab.cdcl import SolveStatus, solve
from efxlab.dimacs import CnfFormula, write_dimacs
from efxlab.encoding import (
    EncodeOptions,
    encode_formula,
    item_order_clauses,
    leveled_clauses,
    monotonicity_clauses,
    num_variables,
    transitivity_clauses,
)
from efxlab.simplify import SimplifyResult, SimplifyStats, preprocess, propagate_units, subsume


def test_unit_propagation_chains_to_fixpoint():
    formula = CnfFormula(3, [(1,), (1, 2), (-1, 3)])
    result = preprocess(formula)
    assert not result.unsat
    # x1 forces x3; both are reported fixed and no clauses remain
    assert result.fixed == {1: True, 3: True}
    assert result.formula.clauses == []


def test_contradictory_units_are_unsat():
    result = preprocess(CnfFormula(1, [(1,), (-1,)]))
    assert result.unsat


def test_derived_empty_clause_is_unsat():
    result = preprocess(CnfFormula(2, [(1,), (2,), (-1, -2)]))
    assert result.unsat


def test_subsumption_drops_supersets():
    formula = CnfFormula(3, [(1, 2), (1, 2, 3), (2, 1), (-1, 3)])
    reduced, removed = subsume(formula)
    assert removed == 2  # the 3-literal superset and the duplicate
    assert (1, 2) in reduced.clauses
    assert (-1, 3) in reduced.clauses


def test_preprocess_preserves_satisfiability_on_random_formulas():
    rng = random.Random(7)
    for _ in range(100):
        num_vars = rng.randint(3, 18)
        clauses = []
        for _ in range(rng.randint(3, 60)):
            width = rng.randint(1, 3)
            chosen = rng.sample(range(1, num_vars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        formula = CnfFormula(num_vars, clauses)
        result = preprocess(formula)
        direct = solve(formula).status
        if result.unsat:
            assert direct is SolveStatus.UNSATISFIABLE
        else:
            assert solve(result.formula).status is direct


def test_standalone_formula_keeps_fixed_units():
    formula = CnfFormula(3, [(1,), (-1, 2), (2, 3)])
    result = preprocess(formula)
    standalone = result.as_standalone_formula()
    assert (1,) in standalone.clauses and (2,) in standalone.clauses
    assert solve(standalone).status is SolveStatus.SATISFIABLE


@pytest.mark.parametrize(
    "opts,reduced_total",
    [
        (EncodeOptions(6, 4, True), 43_813),
        (EncodeOptions(6, 4, False), 47_310),
    ],
)
def test_six_good_reductions_match_published_counts(opts, reduced_total):
    result = preprocess(encode_formula(opts))
    assert not result.unsat
    assert len(result.formula.clauses) == reduced_total


def test_propagate_units_only_no_subsumption():
    formula = CnfFormula(4, [(1,), (-1, 2, 3), (2, 3, 4), (2, 3)])
    result = propagate_units(formula)
    assert result.fixed == {1: True}
    assert (2, 3) in result.formula.clauses
    assert (2, 3, 4) in result.formula.clauses


def test_subsumption_finds_subsets_without_a_shared_rarest_literal():
    reduced, removed = subsume(CnfFormula(5, [(1, 2), (1, 2, 5)]))
    assert removed == 1
    assert reduced.clauses == [(1, 2)]


def reference_subsume(formula):
    """Keep a clause iff no clause is a strict subset of it and no earlier one equals it."""
    sets = [frozenset(clause) for clause in formula.clauses]
    kept = [
        clause
        for i, clause in enumerate(formula.clauses)
        if not any(other < sets[i] for other in sets) and sets[i] not in sets[:i]
    ]
    return kept, len(formula.clauses) - len(kept)


def random_subsumption_formula(rng):
    num_vars = rng.randint(2, 7)
    clauses = []
    for _ in range(rng.randint(0, 40)):
        roll = rng.random()
        if clauses and roll < 0.2:  # the same literal set, reordered or repeated
            clause = list(rng.choice(clauses))
            rng.shuffle(clause)
            clause += rng.sample(clause, rng.randint(0, len(clause)))
        elif clauses and roll < 0.35:  # a superset of an earlier clause
            clause = list(rng.choice(clauses))
            clause += [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(1, 4))]
        elif roll < 0.37:
            clause = []
        else:
            width = rng.choice((1, 2, 2, 3, 3, 4, 5, 6, 8))
            clause = [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(width)]
        clauses.append(tuple(clause))
    return CnfFormula(num_vars, clauses)


def test_subsume_matches_brute_force_reference():
    rng = random.Random(2005)
    for _ in range(400):
        formula = random_subsumption_formula(rng)
        reduced, removed = subsume(formula)
        assert (reduced.clauses, removed) == reference_subsume(formula), formula
        assert reduced.num_vars == formula.num_vars


def reference_propagate(formula):
    """Queue-based unit propagation over occurrence lists of every clause."""
    assignment = {}
    queue = []
    clauses = []
    occur = {}
    stats = SimplifyStats(len(formula.clauses), 0, 0, 0, 0)
    unsat = False

    for idx, clause in enumerate(formula.clauses):
        lits = list(dict.fromkeys(clause))
        if len(lits) == 1:
            queue.append(lits[0])
            clauses.append(None)
            stats.satisfied_removed += 1
            continue
        if len(lits) == 0:
            unsat = True
        clauses.append(lits)
        for lit in lits:
            occur.setdefault(lit, []).append(idx)

    while queue and not unsat:
        lit = queue.pop()
        var, value = abs(lit), lit > 0
        if var in assignment:
            if assignment[var] != value:
                unsat = True
            continue
        assignment[var] = value
        stats.propagated_units += 1
        for idx in occur.get(lit, ()):
            if clauses[idx] is not None:
                clauses[idx] = None
                stats.satisfied_removed += 1
        for idx in occur.get(-lit, ()):
            clause = clauses[idx]
            if clause is None:
                continue
            clause.remove(-lit)
            if len(clause) == 1:
                queue.append(clause[0])
                clauses[idx] = None
                stats.satisfied_removed += 1
            elif len(clause) == 0:
                unsat = True
                break

    remaining = [tuple(c) for c in clauses if c is not None]
    stats.output_clauses = len(remaining)
    return SimplifyResult(CnfFormula(formula.num_vars, remaining), assignment, unsat, stats)


def random_propagation_formula(rng, index):
    num_vars = rng.randint(1, 16)
    lit = lambda: rng.choice((1, -1)) * rng.randint(1, num_vars)
    clauses = [
        tuple(lit() for _ in range(rng.choice((1, 2, 2, 3, 3, 3, 4, 6))))  # repeats allowed
        for _ in range(rng.randint(0, 30))
    ]
    if index % 7 == 0:  # units on both polarities of a variable
        var = rng.randint(1, num_vars)
        clauses += [(var,), (-var,)]
    if index % 11 == 0:
        clauses.append(())
    if index % 5 == 0:
        # a unit and a chain of implications from it, shuffled so that each
        # round of units reaches only the next link; its last variable then
        # shortens a clause over the other variables
        first, last = num_vars + 1, num_vars + rng.randint(30, 80)
        clauses += [(first,)] + [(-v, v + 1) for v in range(first, last)]
        clauses.append((-last, lit(), lit()))
        num_vars = last
    rng.shuffle(clauses)
    return CnfFormula(num_vars, clauses)


def test_propagate_units_matches_queue_reference():
    rng = random.Random(1960)
    outcomes = set()
    for index in range(300):
        formula = random_propagation_formula(rng, index)
        got, want = propagate_units(formula), reference_propagate(formula)
        assert got.unsat == want.unsat, formula
        outcomes.add(got.unsat)
        if not want.unsat:
            assert got.formula.clauses == want.formula.clauses, formula
            assert got.fixed == want.fixed, formula
            assert got.stats == want.stats, formula
    assert outcomes == {False, True}


def test_long_implication_chain_propagates_to_the_end():
    length = 500
    chain = [(-v, v + 1) for v in range(1, length)]
    random.Random(3).shuffle(chain)
    result = propagate_units(CnfFormula(length, chain + [(1,), (2, -length, 7)]))
    assert not result.unsat
    assert result.fixed == {v: True for v in range(1, length + 1)}
    assert result.formula.clauses == []


def assert_matches_reference(formula):
    got, want = propagate_units(formula), reference_propagate(formula)
    assert got.unsat == want.unsat
    if not want.unsat:
        assert got.formula.clauses == want.formula.clauses
        assert got.fixed == want.fixed
        assert got.stats == want.stats
    return got


def test_both_polarities_derived_by_the_first_sweep_are_unsat():
    assert assert_matches_reference(CnfFormula(2, [(1,), (-1, 2), (-1, -2)])).unsat


def test_units_that_stop_at_the_second_sweep():
    # the first sweep derives 2; the second applies it and derives nothing
    formula = CnfFormula(6, [(1,), (-2, 3, 4), (-1, 2), (2, 5), (3, 6), (-2, -6, 3)])
    result = assert_matches_reference(formula)
    assert result.fixed == {1: True, 2: True}
    assert result.formula.clauses == [(3, 4), (3, 6), (-6, 3)]


def test_units_of_the_second_sweep_start_further_sweeps():
    # 2 comes from the first sweep, 3 from the second, 4 from the third and 5 from the fourth
    formula = CnfFormula(7, [(1,), (-4, 5), (-3, 4), (-2, 3), (-1, 2), (-5, 6, 7), (-4, 6, -7)])
    result = assert_matches_reference(formula)
    assert result.fixed == {v: True for v in range(1, 6)}
    assert result.formula.clauses == [(6, 7), (6, -7)]


def test_contradiction_reached_in_the_third_sweep_is_unsat():
    # the first sweep derives 2 and -4, the second 3 and -3
    formula = CnfFormula(4, [(1,), (-1, 2), (-2, 3), (-3, 4), (-4, -1)])
    assert assert_matches_reference(formula).unsat


def test_clauses_holding_no_assigned_variable_are_kept_as_the_input_objects():
    # three sweeps derive 2, 3 and 4 in turn and a fourth applies 4; the
    # untouched clauses hold none of their variables
    untouched = [(5, 6), (-6, 7, 8), (5, -8)]
    clauses = [(1,), untouched[0], (-3, 4), (-1, 2), untouched[1], (-2, 3), untouched[2], (-4, 5, 7)]
    formula = CnfFormula(8, clauses)
    result = assert_matches_reference(formula)
    assert result.fixed == {1: True, 2: True, 3: True, 4: True}
    assert result.formula.clauses == untouched + [(5, 7)]
    assert all(got is want for got, want in zip(result.formula.clauses, untouched))


def test_deep_chain_beside_many_untouched_clauses():
    # 1,200 links derive one unit per sweep; 5,000 clauses over other
    # variables must come back untouched, as the input objects, in order
    rng = random.Random(26)
    untouched = [tuple(rng.sample(range(1, 301), 3)) for _ in range(5000)]
    first, last = 301, 1501
    clauses = untouched + [(first,)] + [(-v, v + 1) for v in range(first, last)]
    rng.shuffle(clauses)
    result = assert_matches_reference(CnfFormula(last, clauses))
    assert result.fixed == {v: True for v in range(first, last + 1)}
    kept = [clause for clause in clauses if len(clause) == 3]
    assert len(result.formula.clauses) == len(kept) == len(untouched)
    assert all(got is want for got, want in zip(result.formula.clauses, kept))


def test_subsume_returns_the_first_input_clause_of_each_literal_set():
    clauses = [tuple(lits) for lits in ([2, 1], [3, -1], [1, 2], [-1, 3, 3], [4, 5, 6], [2, 1, 2], [6, 5, 4, 1])]
    reduced, removed = subsume(CnfFormula(6, clauses))
    assert removed == 4
    assert len(reduced.clauses) == 3
    assert all(got is want for got, want in zip(reduced.clauses, [clauses[0], clauses[1], clauses[4]]))


def consistency_formula(m, k):
    """Every family except no-EFX, with item order: satisfiable."""
    clauses = [
        *monotonicity_clauses(m),
        *transitivity_clauses(m, k),
        *item_order_clauses(m),
        *leveled_clauses(m, k),
    ]
    return CnfFormula(num_variables(m), clauses)


# sha256 of the DIMACS text of the reduced formula, fixed units included,
# frozen so that a faster reduction must leave every byte unchanged.
REDUCED_DIGESTS = [
    ("m6_k5", lambda: encode_formula(EncodeOptions(6, 5, False)),
     "135076a0683080f37f328b5a8240a1a33157c0a9580ddea2466dc3e39989c4d3"),
    ("m6_k4_item_order", lambda: encode_formula(EncodeOptions(6, 4, True)),
     "cb7342ea669a581a8eeda14c12fa1b53177eb5bb9f7ede2170c6fbe93ba8468b"),
    ("m6_k3_item_order", lambda: encode_formula(EncodeOptions(6, 3, True)),
     "3a385c6c1b2e4bd233e74e203c60ed9cc809b545dd9e40a15f157243103658f1"),
    ("m5_no_level", lambda: encode_formula(EncodeOptions(5, None, False)),
     "e33624f2f2a8426353b8b9c916774ca142bd98af9d25c7ea775c8d771c9d257c"),
    ("m6_k4_consistency", lambda: consistency_formula(6, 4),
     "0743c158a216911774d239881d9778119c59114f8da54b0af1e666c48882d03e"),
]


@pytest.mark.parametrize(
    "make,digest", [pytest.param(make, digest, id=name) for name, make, digest in REDUCED_DIGESTS]
)
def test_reduced_output_is_pinned(make, digest):
    text = write_dimacs(preprocess(make()).as_standalone_formula())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
