"""Satisfiability-preserving CNF reduction: unit propagation + subsumption.

Unit propagation runs to fixpoint: clauses containing a satisfied literal are
removed (the propagated units themselves included; fixed variables are
reported separately) and falsified literals are stripped, possibly producing
further units or the empty clause (immediate UNSAT).  The surviving clauses
then get one forward-subsumption pass with signature filtering, shortest
clauses first.  A clause is dropped when a kept clause that contains the
clause's rarest literal (the one in fewest kept clauses so far) is a subset
of it.  The pass is incomplete: a kept subset that lacks that literal is
missed, so ``(1, 2)`` does not remove ``(1, 2, 5)``.  On the EFX encodings
m=6 k=5, m=6 k=4 with item order, m=5 k=3 with item order and m=5 without a
level it removes exactly what a complete check removes.
Deletion-only subsumption cannot enable further propagation, so that is the
fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dimacs import CnfFormula


@dataclass
class SimplifyStats:
    input_clauses: int
    propagated_units: int
    satisfied_removed: int
    literals_stripped: int
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


def _signature(clause: tuple[int, ...]) -> int:
    sig = 0
    for lit in clause:
        sig |= 1 << (hash(lit) & 63)
    return sig


def propagate_units(formula: CnfFormula) -> SimplifyResult:
    """Unit propagation to fixpoint, without subsumption."""
    assignment: dict[int, bool] = {}
    queue: list[int] = []
    clauses: list[list[int] | None] = []
    occur: dict[int, list[int]] = {}
    stats = SimplifyStats(len(formula.clauses), 0, 0, 0, 0, 0)
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
        for idx in occur.get(lit, ()):  # satisfied clauses
            if clauses[idx] is not None:
                clauses[idx] = None
                stats.satisfied_removed += 1
        for idx in occur.get(-lit, ()):  # falsified literals
            clause = clauses[idx]
            if clause is None:
                continue
            clause.remove(-lit)
            stats.literals_stripped += 1
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


def subsume(formula: CnfFormula) -> tuple[CnfFormula, int]:
    """Forward subsumption: drop clauses that are supersets of kept clauses.

    Only kept clauses holding the candidate's rarest literal are tried, so
    some subsumed clauses survive (see the module docstring).
    """
    order = sorted(range(len(formula.clauses)), key=lambda i: len(formula.clauses[i]))
    kept_sets: list[frozenset[int]] = []
    kept_sigs: list[int] = []
    occur: dict[int, list[int]] = {}
    keep_flags = [False] * len(formula.clauses)
    removed = 0

    for idx in order:
        clause = frozenset(formula.clauses[idx])
        sig = _signature(tuple(clause))
        rarest = min(clause, key=lambda lit: len(occur.get(lit, ())), default=None)
        subsumed = False
        if rarest is not None:
            for kept_id in occur.get(rarest, ()):
                if kept_sigs[kept_id] & ~sig:
                    continue
                if kept_sets[kept_id] <= clause:
                    subsumed = True
                    break
        if subsumed:
            removed += 1
            continue
        keep_flags[idx] = True
        kept_id = len(kept_sets)
        kept_sets.append(clause)
        kept_sigs.append(sig)
        for lit in clause:
            occur.setdefault(lit, []).append(kept_id)

    kept = [formula.clauses[i] for i in range(len(formula.clauses)) if keep_flags[i]]
    return CnfFormula(formula.num_vars, kept), removed


def preprocess(formula: CnfFormula) -> SimplifyResult:
    """Unit propagation to fixpoint, then one subsumption pass."""
    result = propagate_units(formula)
    if result.unsat:
        return result
    reduced, removed = subsume(result.formula)
    result.formula = reduced
    result.stats.subsumed_removed = removed
    result.stats.output_clauses = len(reduced.clauses)
    return result
