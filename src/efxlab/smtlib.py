"""Quantifier-free linear-real-arithmetic encoding, emitted as SMT-LIB 2 text.

One real constant per (agent, set) pair carries the set's value; the script
asserts positivity, monotonicity over all proper-subset pairs, agent 0's
singleton order, and the negation of "some allocation is EFX" (a disjunction
with one conjunct of 2m strict inequalities per complete non-empty-bundle
allocation, the negations of the EFX conditions `fairness.efx_conditions`
yields).  Unsatisfiability of the script is equivalent to EFX existence
for the given m; no solver is invoked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocations import count_allocations, enumerate_bundle_tuples
from .bitset import check_good_count, submasks
from .encoding import NUM_AGENTS
from .errors import GoodCountOutOfRange
from .fairness import efx_conditions


@dataclass
class SmtStats:
    m: int
    constants: int
    positivity_assertions: int
    monotonicity_assertions: int
    item_order_assertions: int
    disjuncts: int
    inequalities: int


def const_name(agent: int, mask: int) -> str:
    return f"v_{agent}_{mask}"


def emit_smtlib(m: int) -> tuple[str, SmtStats]:
    """SMT-LIB 2 script plus emission statistics for the given good count."""
    check_good_count(m)
    if m > 8:
        raise GoodCountOutOfRange(f"LRA emission supported for m <= 8, got m={m}")
    n_sets = 1 << m
    lines: list[str] = ["(set-logic QF_LRA)"]

    for agent in range(NUM_AGENTS):
        for mask in range(n_sets):
            lines.append(f"(declare-const {const_name(agent, mask)} Real)")

    positivity = 0
    for agent in range(NUM_AGENTS):
        for mask in range(n_sets):
            lines.append(f"(assert (>= {const_name(agent, mask)} 0))")
            positivity += 1

    monotonicity = 0
    for agent in range(NUM_AGENTS):
        for small in range(n_sets):
            for extra in submasks(small ^ (n_sets - 1))[1:]:  # the proper supersets, ascending
                lines.append(
                    f"(assert (< {const_name(agent, small)} {const_name(agent, small | extra)}))"
                )
                monotonicity += 1

    item_order = 0
    for i in range(m):
        for j in range(i + 1, m):
            lines.append(f"(assert (< {const_name(0, 1 << i)} {const_name(0, 1 << j)}))")
            item_order += 1

    disjuncts = 0
    inequalities = 0
    lines.append("(assert (not (or")
    for bundles in enumerate_bundle_tuples(NUM_AGENTS, m):
        owns = [const_name(i, own) for i, own in enumerate(bundles)]
        terms = [
            f"(< {const_name(i, removed)} {owns[i]})" for i, removed, _ in efx_conditions(bundles)
        ]
        inequalities += len(terms)
        lines.append("  (and " + " ".join(terms) + ")")
        disjuncts += 1
    lines.append(")))")
    lines.append("(check-sat)")

    stats = SmtStats(
        m=m,
        constants=NUM_AGENTS * n_sets,
        positivity_assertions=positivity,
        monotonicity_assertions=monotonicity,
        item_order_assertions=item_order,
        disjuncts=disjuncts,
        inequalities=inequalities,
    )
    if disjuncts != count_allocations(NUM_AGENTS, m):
        raise AssertionError("disjunct count disagrees with the allocation count")
    return "\n".join(lines) + "\n", stats


def tokenize_balanced(text: str) -> int:
    """Number of top-level s-expressions; raises on imbalance."""
    depth = 0
    top_level = 0
    in_comment = False
    for ch in text:
        if in_comment:
            if ch == "\n":
                in_comment = False
            continue
        if ch == ";":
            in_comment = True
        elif ch == "(":
            if depth == 0:
                top_level += 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ')'")
    if depth != 0:
        raise ValueError("unbalanced '('")
    return top_level
