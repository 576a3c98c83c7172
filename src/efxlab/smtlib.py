"""Quantifier-free linear-real-arithmetic encoding, emitted as SMT-LIB 2 text.

One real constant per (agent, set) pair carries the set's value.  The script
asserts positivity, then renders the encoder's own clause families: each unit
of `encoding.monotonicity_clauses` and `encoding.item_order_clauses` becomes
one strict inequality, and the negation of "some allocation is EFX" is a
disjunction with one conjunct per `encoding.not_efx_clauses` clause, the 2m
negated literals of its EFX conditions.  Unsatisfiability of the script is
equivalent to EFX existence for the given m; no solver is invoked here.
The script holds no comments, so `tokenize_balanced`, its balance check,
counts parentheses only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocations import count_allocations
from .bitset import check_good_count
from .encoding import NUM_AGENTS, item_order_clauses, monotonicity_clauses, not_efx_clauses
from .errors import GoodCountOutOfRange


@dataclass
class SmtStats:
    m: int
    constants: int
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
    names = [[const_name(agent, mask) for mask in range(n_sets)] for agent in range(NUM_AGENTS)]
    constants = [name for row in names for name in row]
    # pairs[x] = the names of v_i(a) and v_i(b) for the variable x = x(i, a, b), a < b;
    # variable ids follow the one order that the `encoding.var_id` docstring states.
    pairs = [("", "")] + [
        (row[a], row[b]) for row in names for a in range(n_sets) for b in range(a + 1, n_sets)
    ]

    def less(lit: int) -> str:
        a, b = pairs[abs(lit)]
        return f"(< {a} {b})" if lit > 0 else f"(< {b} {a})"

    monotonicity = [f"(assert {less(lit)})" for (lit,) in monotonicity_clauses(m)]
    item_order = [f"(assert {less(lit)})" for (lit,) in item_order_clauses(m)]
    disjuncts = [[less(-lit) for lit in clause] for clause in not_efx_clauses(m)]
    if len(disjuncts) != count_allocations(NUM_AGENTS, m):
        raise AssertionError("disjunct count disagrees with the allocation count")

    lines = [
        "(set-logic QF_LRA)",
        *[f"(declare-const {name} Real)" for name in constants],
        *[f"(assert (>= {name} 0))" for name in constants],
        *monotonicity,
        *item_order,
        "(assert (not (or",
        *["  (and " + " ".join(terms) + ")" for terms in disjuncts],
        ")))",
        "(check-sat)",
    ]
    stats = SmtStats(
        m=m,
        constants=len(constants),
        disjuncts=len(disjuncts),
        inequalities=sum(map(len, disjuncts)),
    )
    return "\n".join(lines) + "\n", stats


def tokenize_balanced(text: str) -> int:
    """Number of top-level s-expressions; raises on imbalance."""
    depth = 0
    top_level = 0
    for ch in text:
        if ch == "(":
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
