"""Satisfiability-preserving CNF reduction: unit propagation + subsumption.

Unit propagation runs to fixpoint: clauses containing a satisfied literal are
removed (the propagated units themselves included; fixed variables are
reported separately) and falsified literals are stripped, possibly producing
further units or the empty clause (immediate UNSAT).  The unit clauses are
assigned first, then one sweep over the other clauses applies them.  While
a sweep derives units, they are assigned in turn, and the next sweep applies
them to the clauses that hold one of their variables.  The second sweep
finds those clauses in one C-level pass over the residue, and the encodings
the toolkit writes reach the fixpoint there.  A third sweep first maps each
variable to its residue positions, once; from then on each sweep visits
only the positions of its units' variables, so a chain of d units costs one
map, not d passes over the residue.

Subsumption then keeps the first clause of each literal set, in clause order,
and drops every clause whose literal set strictly contains another clause's.
One dict holds one key per distinct literal set, mapped to its first clause;
it is the dedupe, the set of kept clauses and the survivors at once.  The
check is complete; shortest literal sets are tried first, a subsumed one
leaves the dict, and a kept subset is found by looking up the candidate's
proper subsets (short candidates) or by scanning the kept sets watched by
the candidate's literals (long ones).  Deletion-only subsumption cannot
enable further propagation, so that is the fixpoint.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, combinations, compress, filterfalse
from operator import ne, not_

from .dimacs import Clause, ClauseStore, CnfFormula

# Candidates up to this width look up each of their proper subsets among the
# kept literal sets (at most 2^width probes); wider ones scan watch lists.
SUBSET_PROBE_WIDTH = 4


@dataclass
class SimplifyStats:
    input_clauses: int
    propagated_units: int
    satisfied_removed: int
    subsumed_removed: int
    output_clauses: int


@dataclass
class SimplifyResult:
    formula: CnfFormula
    fixed: dict[int, bool]
    unsat: bool
    stats: SimplifyStats

    def as_standalone_formula(self) -> CnfFormula:
        """Residual clauses plus the fixed assignment re-added as units."""
        units = [(var if value else -var,) for var, value in sorted(self.fixed.items())]
        if self.unsat:
            return CnfFormula(self.formula.num_vars, [()])
        return CnfFormula(self.formula.num_vars, units + list(self.formula.clauses))


def _runs(clauses: Sequence[Clause]) -> Iterable[tuple[int | None, Iterable[Clause]]]:
    """A `ClauseStore`'s runs of clauses of one width, each with its width;
    any other sequence as one run of mixed widths (width None)."""
    return clauses.runs() if isinstance(clauses, ClauseStore) else [(None, clauses)]


def propagate_units(formula: CnfFormula) -> SimplifyResult:
    """Unit propagation to fixpoint, without subsumption.

    A `ClauseStore` is read one run of equal width at a time, so its unit
    clauses are found without making a tuple for any wider clause, and each
    wider clause is a tuple only while the first sweep looks at it, or for
    as long as it stays in the residue.
    """
    clauses = formula.clauses
    # true literals in assignment order: the unit clauses first
    units = (clause for width, run in _runs(clauses) if width in (1, None) for clause in run)
    trail = list(dict.fromkeys(clause[0] for clause in units if len(clause) == 1))
    true_lits = set(trail)
    false_lits = {-lit for lit in trail}
    unsat = not true_lits.isdisjoint(false_lits)

    # One sweep applies the unit clauses to every other clause.  Clauses
    # that hold no assigned literal and no repeated one are kept as they are.
    residue: list[Clause] = []
    derived: list[int] = []  # units the sweep left, not yet assigned
    wider = chain.from_iterable(run for width, run in _runs(clauses) if width != 1)
    for clause in () if unsat else wider:
        if len(clause) == 1 or not true_lits.isdisjoint(clause):
            continue
        if clause and false_lits.isdisjoint(clause) and len(set(clause)) == len(clause):
            residue.append(clause)
            continue
        lits = tuple(filterfalse(false_lits.__contains__, dict.fromkeys(clause)))
        if len(lits) > 1:
            residue.append(lits)
        elif lits:
            derived.append(lits[0])
        else:
            unsat = True
            break

    # While a sweep derives units, they are assigned, and the next sweep
    # applies them to the residue clauses that hold one of their variables:
    # picked out at C level in the second sweep, since most clauses hold
    # none, and through `occurs` from the third on.  A clause a later sweep
    # settles leaves () in its place, which every later sweep skips.
    occurs: dict[int, list[int]] = {}  # variable -> ascending residue positions
    sweep = 1  # the sweeps made
    while derived and not unsat:
        sweep += 1
        units, derived = derived, []  # now the units this sweep leaves
        for lit in units:
            if -lit in true_lits:
                unsat = True
                break
            if lit not in true_lits:
                true_lits.add(lit)
                false_lits.add(-lit)
                trail.append(lit)
        if unsat:
            break
        if sweep == 2:
            touch = {lit for unit in units for lit in (unit, -unit)}
            picked = compress(range(len(residue)), map(not_, map(touch.isdisjoint, residue)))
        else:
            if sweep == 3:
                for idx, clause in enumerate(residue):
                    for lit in clause:
                        occurs.setdefault(abs(lit), []).append(idx)
            picked = sorted({idx for unit in units for idx in occurs.get(abs(unit), ())})
        for idx in picked:
            clause, residue[idx] = residue[idx], ()
            if not clause or not true_lits.isdisjoint(clause):
                continue
            lits = tuple(filterfalse(false_lits.__contains__, clause))
            if len(lits) > 1:
                residue[idx] = lits
            elif lits:
                derived.append(lits[0])
            else:
                unsat = True
                break

    remaining = list(filter(None, residue))
    fixed = {abs(lit): lit > 0 for lit in trail}
    stats = SimplifyStats(
        input_clauses=len(clauses),
        propagated_units=len(fixed),
        satisfied_removed=len(clauses) - len(remaining),
        subsumed_removed=0,
        output_clauses=len(remaining),
    )
    return SimplifyResult(CnfFormula(formula.num_vars, remaining), fixed, unsat, stats)


def subsume(formula: CnfFormula) -> tuple[CnfFormula, int]:
    """Complete subsumption: drop repeated literal sets and strict supersets.

    A clause is kept iff no earlier clause has the same literal set and no
    clause's literal set is a strict subset of its own.  Kept clauses keep
    their order.
    """
    clauses = formula.clauses
    # each literal set, as a sorted tuple, to its first clause, in clause order;
    # sorted clauses are those tuples unless some clause repeats a literal
    first: dict[Clause, Clause] = {}
    deque(map(first.setdefault, map(tuple, map(sorted, clauses)), clauses), maxlen=0)
    if any(map(ne, map(len, first), map(len, map(set, first)))):
        first.clear()
        deque(map(first.setdefault, map(tuple, map(sorted, map(set, clauses))), clauses), maxlen=0)
    if () in first:  # the empty clause is a strict subset of every other clause
        return CnfFormula(formula.num_vars, [()]), len(clauses) - 1

    # Subsumed sets leave `first`, so a narrower set still in it is a kept one.
    kept_widths: list[int] = []  # ascending
    watch: dict[int, list[Clause]] = {}  # each kept set under its first literal
    for key in sorted(first, key=len):
        # Every kept set is narrower than the key or distinct from it at the
        # same width, so only a strict subset of the key can be found: the
        # probes skip the key's own width.
        width = len(key)
        if width <= SUBSET_PROBE_WIDTH:
            subsumed = any(
                not first.keys().isdisjoint(combinations(key, w)) for w in kept_widths if w < width
            )
        else:
            lits = set(key)
            subsumed = any(lits.issuperset(other) for lit in key for other in watch.get(lit, ()))
        if subsumed:
            del first[key]
            continue
        watch.setdefault(key[0], []).append(key)
        if not kept_widths or kept_widths[-1] < width:
            kept_widths.append(width)

    survivors = list(first.values())
    return CnfFormula(formula.num_vars, survivors), len(clauses) - len(survivors)


def preprocess(formula: CnfFormula) -> SimplifyResult:
    """Unit propagation to fixpoint, then complete subsumption.

    The reference to `formula` is dropped before `subsume` runs, so a caller
    that keeps none lets the input clauses that propagation removed be freed.
    """
    result = propagate_units(formula)
    del formula
    if result.unsat:
        return result
    reduced, removed = subsume(result.formula)
    result.formula = reduced
    result.stats.subsumed_removed = removed
    result.stats.output_clauses = len(reduced.clauses)
    return result
