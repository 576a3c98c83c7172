import hashlib
import random
from collections import defaultdict

import pytest

from efxlab.cdcl import SolveStatus, _Solver, luby, solve
from efxlab.cli import main
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
from efxlab.errors import BudgetOutOfRange, EfxLabError, LiteralOutOfRange
from efxlab.simplify import preprocess, propagate_units


def brute_force_satisfiable(formula: CnfFormula) -> bool:
    for bits in range(1 << formula.num_vars):
        if all(
            any((bits >> (abs(lit) - 1)) & 1 == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return True
    return False


def random_formula(rng: random.Random, max_vars: int = 10) -> CnfFormula:
    num_vars = rng.randint(3, max_vars)
    clauses = []
    for _ in range(rng.randint(3, 5 * num_vars)):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(num_vars, clauses)


def test_luby_prefix():
    assert [luby(i) for i in range(1, 16)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_tiny_unsat_and_sat():
    assert solve(CnfFormula(2, [(1, 2), (-1,), (-2,)])).status is SolveStatus.UNSATISFIABLE
    result = solve(CnfFormula(3, [(1, 2), (-1, 3), (-3, -2)]))
    assert result.status is SolveStatus.SATISFIABLE


def test_models_are_checked_against_every_clause():
    rng = random.Random(11)
    for _ in range(60):
        formula = random_formula(rng)
        result = solve(formula)
        if result.status is SolveStatus.SATISFIABLE:
            assert result.assignment is not None
            assert result.assignment.satisfies(formula)


def test_agreement_with_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        formula = random_formula(rng)
        got = solve(formula).status is SolveStatus.SATISFIABLE
        assert got == brute_force_satisfiable(formula)


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    def var(p, h):
        return p * holes + h + 1

    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append((-var(p, h), -var(q, h)))
    return CnfFormula(pigeons * holes, clauses)


def test_out_of_range_literal_is_rejected():
    with pytest.raises(LiteralOutOfRange):
        solve(CnfFormula(2, [(1, 3), (-1,)]))
    with pytest.raises(LiteralOutOfRange):
        solve(CnfFormula(2, [(1, 0)]))


def test_solver_input_matches_per_clause_definition():
    # reference: literals deduplicated in first-occurrence order, tautologies
    # dropped, units queued in clause order, an empty clause refutes at once
    rng = random.Random(5)
    seen = {"tautology": 0, "repeat": 0}
    for _ in range(300):
        num_vars = rng.randint(1, 6)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 12))
        ]
        seen["tautology"] += any(-lit in clause for clause in clauses for lit in clause)
        seen["repeat"] += any(len(set(clause)) < len(clause) for clause in clauses)
        kept = [list(dict.fromkeys(clause)) for clause in clauses]
        kept = [lits for lits in kept if not any(-lit in lits for lit in lits)]
        solver = _Solver(CnfFormula(num_vars, clauses))
        assert solver.clauses == [lits for lits in kept if len(lits) > 1]
        assert solver.units == [lits[0] for lits in kept if len(lits) == 1]
        assert solver.ok == all(kept)
        assert solver.branch_vars == sorted({abs(lit) for clause in clauses for lit in clause})
        for lit in [*range(1, num_vars + 1), *range(-num_vars, 0)]:
            assert solver.watches[lit] == [c for c in solver.clauses if lit in c[:2]]
    assert min(seen.values()) > 0


def test_budget_exhaustion_returns_unknown():
    # the pigeonhole principle has no units, so refuting it needs conflicts;
    # a zero-conflict budget must therefore give up
    formula = pigeonhole(4, 3)
    assert solve(formula).status is SolveStatus.UNSATISFIABLE
    result = solve(formula, conflict_budget=0)
    assert result.status is SolveStatus.UNKNOWN


def test_negative_budget_is_rejected():
    with pytest.raises(BudgetOutOfRange) as err:
        solve(pigeonhole(4, 3), conflict_budget=-5)
    assert isinstance(err.value, EfxLabError) and isinstance(err.value, ValueError)
    assert str(err.value) == "conflict budget must be >= 0, got -5"


def test_a_variable_count_no_list_can_index_is_out_of_memory(tmp_path, capsys):
    """2^64 declared variables cannot get a slot each: MemoryError, not OverflowError, and
    the command line prints one error line and exits 2."""
    with pytest.raises(MemoryError):
        solve(CnfFormula(1 << 64, []))
    path = tmp_path / "huge.cnf"
    path.write_text(f"p cnf {1 << 64} 0\n")
    assert main(["sat", "-i", str(path)]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {1 << 64} variables are more than a list can index\n"


def test_watched_propagation_agrees_with_naive_propagation():
    rng = random.Random(13)
    for _ in range(80):
        formula = random_formula(rng)
        naive = propagate_units(formula)
        solver = _Solver(formula)
        if not solver.ok:
            assert naive.unsat
            continue
        conflict = None
        for lit in solver.units:
            if not solver._enqueue(lit, None):
                conflict = True
                break
        if conflict is None:
            conflict = solver._propagate() is not None
        if naive.unsat:
            assert conflict
            continue
        assert not conflict
        forced = {abs(lit): lit > 0 for lit in solver.trail}
        assert forced == naive.fixed


def test_efx_encoding_unsat_at_desk_scale():
    formula = encode_formula(EncodeOptions(4, 2, True))
    assert solve(formula).status is SolveStatus.UNSATISFIABLE


def test_counterexample_assignment_satisfies_reduced_encoding():
    # forcing a known model as units on top of the no-EFX and monotonicity
    # clauses must come back satisfiable with that model
    from efxlab.decoding import load_bundled_counterexample
    from efxlab.dimacs import assignment_from_ranks
    from efxlab.encoding import monotonicity_clauses, not_efx_clauses, num_variables, var_id

    vals = load_bundled_counterexample()
    assignment = assignment_from_ranks([v.rank for v in vals], lambda i, a, b: var_id(i, a, b, 8))
    units = [(var if value else -var,) for var, value in assignment.values.items()]
    clauses = units + list(monotonicity_clauses(8)) + list(not_efx_clauses(8))
    result = solve(CnfFormula(num_variables(8), clauses))
    assert result.status is SolveStatus.SATISFIABLE
    assert result.assignment is not None
    assert all(result.assignment.values[var] == val for var, val in assignment.values.items())


@pytest.fixture(scope="module")
def nolevel_m5() -> CnfFormula:
    """The preprocessed m=5 no-level encoding: UNSAT, 855 of 1,488 variables occur."""
    reduced = preprocess(encode_formula(EncodeOptions(5, None, False)))
    assert not reduced.unsat
    return reduced.formula


class DigestSolver(_Solver):
    """Hashes the learned clauses, in order, as each one leaves analysis."""

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.digest = hashlib.sha256()

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        learned, backjump, lbd = super()._analyze(conflict)
        self.digest.update(f"{' '.join(map(str, learned))}\n".encode())
        return learned, backjump, lbd


def test_learning_search_on_efx_encoding_is_pinned(nolevel_m5):
    # Both need learning and restarts; neither reaches clause-database
    # reduction (`test_search_with_db_reduction_is_pinned` does).  Their
    # counters and the hash of the learned-clause sequence pin the search:
    # decision order, learned clauses, restart points.  The values come from
    # the solver that kept clauses by index.
    learn = preprocess(encode_formula(EncodeOptions(6, 3, True))).formula
    for formula, want in (
        (learn, (3588, 7220, 28, "41057963a583e706")),
        (nolevel_m5, (912, 1415, 9, "ac8eae005570fdd9")),
    ):
        solver = DigestSolver(formula)
        result = solver.solve(None)
        assert result.status is SolveStatus.UNSATISFIABLE
        got = (result.conflicts, result.decisions, result.restarts, solver.digest.hexdigest()[:16])
        assert got == want


class CountingSolver(DigestSolver):
    """Counts the clause-database reductions and activity rescales of a search."""

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.reductions = self.rescales = 0

    def _reduce_db(self) -> None:
        self.reductions += 1
        super()._reduce_db()

    def _rescale_activities(self) -> None:
        self.rescales += 1
        super()._rescale_activities()


def test_search_with_db_reduction_is_pinned():
    # preprocessed m=6 k=4 with item order passes the learned-clause ceiling
    # once and the activity bound once, on the solver's own schedule; the
    # values come from the solver that keeps clauses by reference
    formula = preprocess(encode_formula(EncodeOptions(6, 4, True))).formula
    solver = CountingSolver(formula)
    result = solver.solve(None)
    assert result.status is SolveStatus.UNSATISFIABLE
    got = (result.conflicts, result.decisions, result.restarts, solver.digest.hexdigest()[:16])
    assert got == (5062, 9608, 30, "807a2654a463cf79")
    assert (solver.reductions, solver.rescales) == (1, 1)


def test_sat_model_search_on_consistency_formula_is_pinned(tmp_path, capsys):
    # every family but no-EFX at m=6 k=4 with item order, preprocessed: the
    # model `efxlab sat` prints after 403 decisions and no conflict
    m, k = 6, 4
    clauses = [
        *monotonicity_clauses(m),
        *transitivity_clauses(m, k),
        *item_order_clauses(m),
        *leveled_clauses(m, k),
    ]
    reduced = preprocess(CnfFormula(num_variables(m), clauses))
    path = tmp_path / "consistency.cnf"
    path.write_text(write_dimacs(reduced.formula))
    assert main(["sat", "-i", str(path)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("s SATISFIABLE\n")
    assert hashlib.sha256(printed.encode()).hexdigest() == (
        "90592439071804bf6498b23dcdc2755caf70a44e61699c4e6340fe759abac1a2"
    )


def scan_branch_var(solver: _Solver) -> int:
    """Reference decision order: the O(n) scan over occurring variables that
    the heap replaced."""
    best = 0
    best_act = -1.0
    for var in solver.branch_vars:
        if solver.value[var] == 0 and solver.activity[var] > best_act:
            best = var
            best_act = solver.activity[var]
    return best


class ScanCheckedSolver(_Solver):
    """Checks the decision heap against the O(n) scan it replaced.

    At every decision the heap must pick what the scan picks.  After every
    analysis (where bumps and rescales happen) and every backtrack, each
    unassigned or queued decision variable must have an entry carrying its
    current activity, and stale entries must not take the heap past twice the
    number of decision variables.
    """

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.checked = 0

    def _check_heap(self) -> None:
        assert len(self.heap) <= 2 * len(self.branch_vars)
        entries = set(self.heap)
        for var in self.branch_vars:
            if self.value[var] == 0 or self.queued[var]:
                assert (-self.activity[var], var) in entries, f"variable {var} has no current entry"

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        analysis = super()._analyze(conflict)
        self._check_heap()
        return analysis

    def _backtrack(self, target_level: int) -> None:
        super()._backtrack(target_level)
        self._check_heap()

    def _pick_branch_var(self) -> int:
        want = scan_branch_var(self)
        got = super()._pick_branch_var()
        assert got == want, f"decision {self.decisions + 1}: heap {got}, scan {want}"
        self.checked += 1
        return got


def test_heap_decisions_match_scan_on_random_formulas():
    rng = random.Random(3)
    for _ in range(200):
        formula = random_formula(rng)
        solver = ScanCheckedSolver(formula)
        result = solver.solve(None)
        assert result.status is solve(formula).status
        assert solver.checked == result.decisions + (result.status is SolveStatus.SATISFIABLE)


def test_heap_decisions_match_scan_with_learning_and_restarts():
    solver = ScanCheckedSolver(pigeonhole(7, 6))
    result = solver.solve(None)
    assert result.status is SolveStatus.UNSATISFIABLE
    assert (result.conflicts, result.restarts) == (760, 6)
    assert solver.checked == result.decisions


def test_heap_decisions_match_scan_across_activity_rescale():
    solver = ScanCheckedSolver(pigeonhole(7, 6))
    solver.act_inc = 1e99  # a few bumps pass 1e100
    assert solver.solve(None).status is SolveStatus.UNSATISFIABLE
    assert solver.act_inc < 1e99  # only the rescale ever lowers the increment
    assert solver.checked > 0


class ReducingSolver(ScanCheckedSolver):
    """Halves the learned clauses every 200 conflicts, at a decision point."""

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.reductions = 0

    def _pick_branch_var(self) -> int:
        if self.conflicts >= 200 * (self.reductions + 1):
            before = len(self.clauses)
            self._reduce_db()
            self.reductions += 1
            assert len(self.clauses) < before
            self._check_invariants()
        return super()._pick_branch_var()

    def _check_invariants(self) -> None:
        """Watch lists hold each live clause, by identity, under exactly its
        first two literals, and hold nothing else; each trail literal's reason
        is None or a live clause whose first literal it is, and an unassigned
        variable has no reason."""
        live = {id(clause): clause for clause in self.clauses}
        assert len(live) == len(self.clauses), "a clause is listed twice"
        watched_under: dict[int, list[int]] = defaultdict(list)
        n = self.num_vars
        assert not self.watches[0]
        for lit in [*range(1, n + 1), *range(-n, 0)]:
            for clause in self.watches[lit]:
                assert live.get(id(clause)) is clause, f"watch list of {lit} holds a dropped clause"
                watched_under[id(clause)].append(lit)
        for clause in self.clauses:
            assert sorted(watched_under[id(clause)]) == sorted(clause[:2]), clause
        assert sum(map(len, self.watches)) == 2 * len(self.clauses)
        for lit in self.trail:
            reason = self.reason[abs(lit)]
            assert reason is None or (live.get(id(reason)) is reason and reason[0] == lit)
        for var in range(1, n + 1):
            assert self.value[var] or self.reason[var] is None


def test_reduce_db_mid_search_keeps_watches_and_reasons():
    solver = ReducingSolver(pigeonhole(7, 6))
    assert solver.solve(None).status is SolveStatus.UNSATISFIABLE
    assert solver.reductions >= 2


def unit_propagation_conflicts(clauses: list[list[int]], occurs: dict[int, list[int]],
                               assumed: list[int]) -> bool:
    """Whether naive unit propagation from the literals `assumed` true reaches a
    conflict; `occurs[lit]` lists the clauses that contain `lit`."""
    true: set[int] = set()
    queue: list[int] = []
    for lit in assumed:
        if -lit in true:
            return True
        if lit not in true:
            true.add(lit)
            queue.append(lit)
    while queue:
        lit = queue.pop()
        for idx in occurs[-lit]:
            unit = 0
            for other in clauses[idx]:
                if other in true:
                    break  # satisfied
                if -other not in true:
                    if unit:
                        break  # two literals unassigned
                    unit = other
            else:
                if not unit:
                    return True
                true.add(unit)
                queue.append(unit)
    return False


class MarkLog(list):
    """The solver's `seen` marks, logging every variable that gets marked."""

    def __init__(self, marks: list[bool]) -> None:
        super().__init__(marks)
        self.marked: list[int] = []

    def __setitem__(self, var, mark) -> None:
        if mark:
            self.marked.append(var)
        super().__setitem__(var, mark)


class RupCheckedSolver(_Solver):
    """Checks every learned clause, units included, as it leaves analysis.

    The clause must be RUP: making its literals false and unit-propagating
    naively over the live clauses and the level-0 trail must reach a conflict.
    Its UIP comes first, alone at the conflict level; the backjump level and
    LBD are those of the clause as returned.  Analysis may mark only variables
    at levels of the returned clause (minimization follows reasons through
    those levels alone), and it must leave no variable marked.
    """

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.seen = MarkLog(self.seen)
        self.checked = 0
        self.indexed: list[list[int]] | None = None  # the clause list `occurs` indexes
        self.indexed_count = 0
        self.occurs: dict[int, list[int]] = defaultdict(list)

    def _live_occurrences(self) -> dict[int, list[int]]:
        """Occurrence lists of the live clauses, extended as clauses are learned."""
        if self.indexed is not self.clauses:  # first call, or rebuilt by _reduce_db
            self.indexed = self.clauses
            self.occurs = defaultdict(list)
            self.indexed_count = 0
        for idx in range(self.indexed_count, len(self.clauses)):
            for lit in self.clauses[idx]:
                self.occurs[lit].append(idx)
        self.indexed_count = len(self.clauses)
        return self.occurs

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        self.seen.marked.clear()
        conflict_level = len(self.trail_lim)
        learned, backjump, lbd = super()._analyze(conflict)
        fixed = [lit for lit in self.trail if self.level[abs(lit)] == 0]
        assumed = fixed + [-lit for lit in learned]
        assert unit_propagation_conflicts(self.clauses, self._live_occurrences(), assumed), (
            f"learned clause {learned} is not RUP"
        )
        levels = [self.level[abs(lit)] for lit in learned]
        assert levels[0] == conflict_level and all(lv < conflict_level for lv in levels[1:])
        assert backjump == max(levels[1:], default=0)
        assert lbd == len(set(levels))
        assert not any(self.seen), "analysis left variables marked"
        stray = {self.level[var] for var in self.seen.marked} - set(levels)
        assert not stray, f"analysis marked variables at levels {stray} outside the clause"
        self.checked += 1
        return learned, backjump, lbd


def test_learned_clauses_are_rup_on_random_formulas():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        formula = random_formula(rng)
        solver = RupCheckedSolver(formula)
        assert solver.solve(None).status is solve(formula).status
        checked += solver.checked
    assert checked > 0


def test_learned_clauses_are_rup_with_learning_and_restarts(nolevel_m5):
    for formula in (pigeonhole(7, 6), nolevel_m5):
        solver = RupCheckedSolver(formula)
        result = solver.solve(None)
        assert result.status is SolveStatus.UNSATISFIABLE
        assert result.restarts > 0
        # the last conflict comes at level 0, or from a learned unit that
        # contradicts level 0; only the latter is analysed
        assert solver.checked in (result.conflicts - 1, result.conflicts)


class AllVariablesSolver(_Solver):
    """Decides on every variable, also on those that occur in no clause."""

    def __init__(self, formula: CnfFormula) -> None:
        super().__init__(formula)
        self.branch_vars = list(range(1, self.num_vars + 1))
        self._rebuild_heap()


def model_search_m5() -> CnfFormula:
    """Every family but no-EFX at m=5 k=4 with item order, preprocessed:
    satisfiable, and 873 of its 1,488 variables occur in no clause."""
    m, k = 5, 4
    clauses = [
        *monotonicity_clauses(m),
        *transitivity_clauses(m, k),
        *item_order_clauses(m),
        *leveled_clauses(m, k),
    ]
    reduced = preprocess(CnfFormula(num_variables(m), clauses))
    assert not reduced.unsat
    return reduced.formula


def decisions_with_and_without_absent_variables(formula: CnfFormula) -> tuple[int, int]:
    """Decision counts of the solver and of AllVariablesSolver, whose searches
    must otherwise agree: status, conflicts, restarts, clause DB and model."""
    solver, every = _Solver(formula), AllVariablesSolver(formula)
    got, want = solver.solve(None), every.solve(None)
    assert (got.status, got.conflicts, got.restarts) == (want.status, want.conflicts, want.restarts)
    assert solver.clauses == every.clauses
    assert (got.assignment and got.assignment.values) == (want.assignment and want.assignment.values)
    return got.decisions, want.decisions


def test_deciding_absent_variables_changes_only_the_decision_count(nolevel_m5):
    rng = random.Random(3)
    for _ in range(200):
        got, want = decisions_with_and_without_absent_variables(random_formula(rng))
        assert got <= want
    for formula in (nolevel_m5, model_search_m5()):
        got, want = decisions_with_and_without_absent_variables(formula)
        assert got < want
