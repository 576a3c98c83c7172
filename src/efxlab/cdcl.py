"""Minimal conflict-driven clause-learning SAT solver for desk-scale instances.

Two-watched-literal propagation, first-UIP learning with recursive clause
minimization, VSIDS-style activities with phase saving, Luby restarts (unit
64), and LBD-aware learned-clause reduction; standard defaults, untuned.  SAT
answers always carry a model that has been checked against every input clause
before being returned; UNSAT answers carry no certificate and are trusted at
desk scale only.

Minimization (Sörensson & Biere, SAT 2009, as in MiniSat) drops each literal
of the first-UIP clause whose reason clause follows, through further reasons,
from the clause's other literals and level-0 facts.  Reason chains are
followed only through the decision levels the clause occupies, kept as a
bitmask.  The UIP stays first, and the backjump level and LBD are those of the
minimized clause.

Only variables that occur in some input clause are decided.  After
preprocessing, most variables of an EFX encoding occur in none, and deciding
one would only open an empty level.  Left unassigned, such a variable takes
its saved phase in the model: false, the value a decision on it would give.

The decision variable comes from a binary heap (``heapq``) of
``(-activity, var)`` entries over the occurring variables rather than a scan:
the top valid entry is the unassigned occurring variable of highest activity,
lowest index on ties, which is exactly what a scan over them picks.  Entries
are lazy: a bump (always of an assigned variable) leaves its entry stale, the
backtrack that unassigns a variable pushes a fresh one, stale or assigned
entries are skipped when popped, and the heap is rebuilt when the activity
rescale fires or it grows past twice the number of occurring variables.  Truth
values and watch lists are indexed by literal (negative literals at the
negative end of the list).

Clauses are held by reference, as in MiniSat (Eén & Sörensson, SAT 2003):
watch lists hold the clause lists themselves, and a variable's reason is the
clause that implied it (None for decisions and level-0 facts), so neither a
visit to a watch nor a step back through a reason goes through an index, and
dropping learned clauses renumbers nothing.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import neg

from .dimacs import Assignment, CnfFormula
from .errors import BudgetOutOfRange


class SolveStatus(Enum):
    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"
    UNKNOWN = "unknown"


@dataclass
class SolveResult:
    status: SolveStatus
    assignment: Assignment | None = None
    conflicts: int = 0
    decisions: int = 0
    restarts: int = 0


def luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return luby(i - ((1 << (k - 1)) - 1))


class _Solver:
    def __init__(self, formula: CnfFormula) -> None:
        formula.check_literals()  # an out-of-range literal would alias another's slot
        n = self.num_vars = formula.num_vars
        if 2 * n + 1 > sys.maxsize:  # CPython would raise OverflowError making the tables
            raise MemoryError(f"{n} variables are more than a list can index")
        self.clauses: list[list[int]] = []
        self.learned_from = 0
        # indexed by literal (value[-v] at the negative end): 1 true, -1 false, 0 unset
        self.value: list[int] = [0] * (2 * n + 1)
        self.level: list[int] = [0] * (n + 1)
        # the clause that implied the variable; None for decisions and level-0 facts
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.phase: list[int] = [-1] * (n + 1)
        self.activity: list[float] = [0.0] * (n + 1)
        self.act_inc = 1.0
        # decision order: entries (-activity, var), so the top is the most active
        # variable with the lowest index on ties; queued[v] says v has an entry
        # carrying its current activity
        self.heap: list[tuple[float, int]] = []
        self.queued: list[bool] = [False] * (n + 1)
        self.seen: list[bool] = [False] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.prop_head = 0
        # by literal: the clauses whose first two literals hold it
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.units: list[int] = []
        self.clause_lbd: list[int] = []
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.restarts = 0

        clauses = self.clauses
        clause_lbd = self.clause_lbd
        watches = self.watches
        for clause in formula.clauses:
            distinct = set(clause)
            if not distinct.isdisjoint(map(neg, clause)):
                continue  # a tautology constrains nothing
            lits = list(clause) if len(distinct) == len(clause) else list(dict.fromkeys(clause))
            if len(lits) > 1:
                clauses.append(lits)
                clause_lbd.append(0)
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif lits:
                self.units.append(lits[0])
            else:
                self.ok = False
        self.learned_from = len(clauses)
        # only variables that occur in a clause are decided; the rest take their
        # saved phase in the model
        self.branch_vars = sorted(set(map(abs, chain.from_iterable(formula.clauses))))
        self._rebuild_heap()

    # -- clause plumbing -------------------------------------------------

    def _add_learned(self, lits: list[int], lbd: int) -> list[int]:
        """Adds a learned clause of two or more literals, watched by the first two."""
        self.clauses.append(lits)
        self.clause_lbd.append(lbd)
        self.watches[lits[0]].append(lits)
        self.watches[lits[1]].append(lits)
        return lits

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        value = self.value
        if value[lit] != 0:
            return value[lit] > 0
        value[lit] = 1
        value[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = 1 if lit > 0 else -1
        self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Returns a conflicting clause, or None."""
        trail = self.trail
        value = self.value
        watches = self.watches
        level = self.level
        reason = self.reason
        phase = self.phase
        current_level = len(self.trail_lim)
        head = self.prop_head
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watch_list = watches[false_lit]
            if not watch_list:
                continue
            kept: list[list[int]] = []
            for i, clause in enumerate(watch_list):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if value[first] > 0:
                    kept.append(clause)
                    continue
                for pos in range(2, len(clause)):
                    if value[clause[pos]] >= 0:
                        clause[1], clause[pos] = clause[pos], clause[1]
                        watches[clause[1]].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] < 0:
                        kept.extend(watch_list[i + 1 :])
                        watches[false_lit] = kept
                        self.prop_head = head
                        return clause
                    value[first] = 1
                    value[-first] = -1
                    var = abs(first)
                    level[var] = current_level
                    reason[var] = clause
                    phase[var] = 1 if first > 0 else -1
                    trail.append(first)
            watches[false_lit] = kept
        self.prop_head = head
        return None

    # -- learning --------------------------------------------------------

    def _rescale_activities(self) -> None:
        """Scales every activity and the increment by 1e-100, before one passes 1e100."""
        activity = self.activity
        for v in range(1, self.num_vars + 1):
            activity[v] *= 1e-100
        self.act_inc *= 1e-100
        self._rebuild_heap()

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP learned clause, minimized; backjump level, and LBD.

        Each variable the clause's derivation resolves on, or keeps, is
        bumped.  A bumped variable is assigned, so its heap entry, if any, goes
        stale; the backtrack that unassigns it pushes one carrying the new
        activity.
        """
        learned: list[int] = []
        seen = self.seen
        level = self.level
        reason = self.reason
        activity = self.activity
        queued = self.queued
        act_inc = self.act_inc
        trail = self.trail
        counter = 0
        propagated = 0  # trail literal whose reason is being expanded
        clause = conflict
        trail_pos = len(trail) - 1
        current_level = len(self.trail_lim)

        while True:
            for cl_lit in clause:
                if cl_lit == propagated:
                    continue
                var = abs(cl_lit)
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                activity[var] += act_inc
                queued[var] = False
                if activity[var] > 1e100:
                    self._rescale_activities()
                    act_inc = self.act_inc
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(cl_lit)
            while not seen[abs(trail[trail_pos])]:
                trail_pos -= 1
            propagated = trail[trail_pos]
            seen[abs(propagated)] = False
            trail_pos -= 1
            counter -= 1
            if counter == 0:
                break
            clause = reason[abs(propagated)]

        # recursive minimization (Sörensson & Biere 2009): drop each literal
        # whose reason is implied by the rest of the clause; `seen` still marks
        # the clause's literals below the current level
        levels = 0  # bit L set for each level of those literals
        for lit in learned:
            levels |= 1 << level[abs(lit)]
        marked = learned[:]
        learned = [-propagated] + [
            lit
            for lit in learned
            if reason[abs(lit)] is None or not self._redundant(lit, levels, marked)
        ]
        for lit in marked:
            seen[abs(lit)] = False

        if len(learned) == 1:
            backjump = 0
        else:
            best = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
            learned[1], learned[best] = learned[best], learned[1]
            backjump = level[abs(learned[1])]
        lbd = len({level[abs(l)] for l in learned})
        return learned, backjump, lbd

    def _redundant(self, lit: int, levels: int, marked: list[int]) -> bool:
        """Whether the learned clause may drop `lit`: its reason clause, followed
        back through reasons, rests only on marked variables and level 0.

        The search gives up at a decision, and at a literal whose level has no
        bit in `levels`: its reasons lead back to that level's decision, which
        is not in the clause.  Variables found redundant stay marked and join
        `marked`, so later calls reuse them; on failure this call's marks are
        undone.
        """
        seen = self.seen
        level = self.level
        reason = self.reason
        start = len(marked)
        stack = [lit]
        while stack:
            # the reason's implied literal, clause[0], is on a marked variable
            for other in reason[abs(stack.pop())]:
                var = abs(other)
                if seen[var] or level[var] == 0:
                    continue
                if reason[var] is None or not levels >> level[var] & 1:
                    for undo in marked[start:]:
                        seen[abs(undo)] = False
                    del marked[start:]
                    return False
                seen[var] = True
                stack.append(other)
                marked.append(other)
        return True

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        value = self.value
        reason = self.reason
        activity = self.activity
        heap = self.heap
        queued = self.queued
        cut = self.trail_lim[target_level]
        for lit in self.trail[cut:]:
            value[lit] = 0
            value[-lit] = 0
            var = abs(lit)
            reason[var] = None
            if not queued[var]:
                heappush(heap, (-activity[var], var))
                queued[var] = True
        del self.trail[cut:]
        del self.trail_lim[target_level:]
        self.prop_head = min(self.prop_head, len(self.trail))
        if len(heap) > 2 * len(self.branch_vars):
            self._rebuild_heap()  # shed the entries that bumps left behind

    def _rebuild_heap(self) -> None:
        value = self.value
        activity = self.activity
        queued = self.queued
        queued[:] = [False] * (self.num_vars + 1)
        unassigned = [var for var in self.branch_vars if value[var] == 0]
        for var in unassigned:
            queued[var] = True
        self.heap[:] = [(-activity[var], var) for var in unassigned]
        heapify(self.heap)

    def _reduce_db(self) -> None:
        """Drop the weaker half of the learned clauses (high LBD, long)."""
        clauses = self.clauses
        clause_lbd = self.clause_lbd
        learned_ids = [
            idx
            for idx in range(self.learned_from, len(clauses))
            if clause_lbd[idx] > 2 and not self._is_reason(clauses[idx])
        ]
        learned_ids.sort(key=lambda idx: (clause_lbd[idx], len(clauses[idx])))
        drop = set(learned_ids[len(learned_ids) // 2 :])
        if not drop:
            return
        kept = [idx for idx in range(len(clauses)) if idx not in drop]
        self.clauses = clauses = [clauses[idx] for idx in kept]
        self.clause_lbd = [clause_lbd[idx] for idx in kept]
        # watch lists are rebuilt in clause order, as they were first built
        watches = self.watches = [[] for _ in range(2 * self.num_vars + 1)]
        for clause in clauses:
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)

    def _is_reason(self, clause: list[int]) -> bool:
        return self.reason[abs(clause[0])] is clause

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, lowest index on ties; 0 if none."""
        heap = self.heap
        activity = self.activity
        while heap:
            neg_act, var = heappop(heap)
            if -neg_act != activity[var]:
                continue  # superseded by a bump
            self.queued[var] = False
            if self.value[var] == 0:
                return var
        return 0

    # -- main loop ---------------------------------------------------------

    def solve(self, conflict_budget: int | None) -> SolveResult:
        if not self.ok:
            return SolveResult(SolveStatus.UNSATISFIABLE)
        for lit in self.units:
            if not self._enqueue(lit, None):
                return SolveResult(SolveStatus.UNSATISFIABLE)
        if self._propagate() is not None:
            return SolveResult(SolveStatus.UNSATISFIABLE)

        restart_ceiling = 64 * luby(self.restarts + 1)
        conflicts_at_restart = 0
        reduce_ceiling = 4000

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_at_restart += 1
                if conflict_budget is not None and self.conflicts > conflict_budget:
                    return self._stats_result(SolveStatus.UNKNOWN)
                if len(self.trail_lim) == 0:
                    return self._stats_result(SolveStatus.UNSATISFIABLE)
                learned, backjump, lbd = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return self._stats_result(SolveStatus.UNSATISFIABLE)
                else:
                    self._enqueue(learned[0], self._add_learned(learned, lbd))
                self.act_inc /= 0.95
                if len(self.clauses) - self.learned_from > reduce_ceiling:
                    self._reduce_db()
                    reduce_ceiling += 2000
                continue

            if conflicts_at_restart >= restart_ceiling:
                self.restarts += 1
                conflicts_at_restart = 0
                restart_ceiling = 64 * luby(self.restarts + 1)
                self._backtrack(0)
                continue

            var = self._pick_branch_var()
            if var == 0:
                return self._stats_result(SolveStatus.SATISFIABLE)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var * self.phase[var], None)

    def _stats_result(self, status: SolveStatus) -> SolveResult:
        assignment = None
        if status is SolveStatus.SATISFIABLE:
            # a variable in no clause is unassigned: it takes its saved phase
            value = self.value
            phase = self.phase
            values = {
                var: value[var] > 0 if value[var] else phase[var] > 0
                for var in range(1, self.num_vars + 1)
            }
            assignment = Assignment(self.num_vars, values)
        return SolveResult(status, assignment, self.conflicts, self.decisions, self.restarts)


def solve(formula: CnfFormula, conflict_budget: int | None = None) -> SolveResult:
    """SAT/UNSAT/UNKNOWN for the formula; SAT models are verified before return.

    `conflict_budget` bounds the number of conflicts; exceeding it yields
    UNKNOWN rather than an answer.  A negative budget raises BudgetOutOfRange.
    The tables hold a slot per declared variable, so a count beyond memory
    raises MemoryError.
    """
    if conflict_budget is not None and conflict_budget < 0:
        raise BudgetOutOfRange(f"conflict budget must be >= 0, got {conflict_budget}")
    result = _Solver(formula).solve(conflict_budget)
    if result.status is SolveStatus.SATISFIABLE:
        assert result.assignment is not None
        if not result.assignment.satisfies(formula):
            raise AssertionError("solver produced a model that fails a clause")
    return result
