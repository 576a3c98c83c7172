"""CNF encoding of "no EFX allocation exists" for three agents and m goods.

Variables: for each agent i and pair of set numbers A < B, the variable
x(i, A, B) holds iff v_i(A) < v_i(B); `var_id` states their one order.
Where a comparison with A > B is needed, the negated variable of the
swapped pair is used; x(i, A, A) does not exist.

Clause families, emitted in this order with ascending loops inside each:

* monotonicity     - unit x(i, A, B) for every proper subset pair A < B
                     (deliberately verbose: one unit per pair, all agents)
* transitivity     - (-x(i,A,B) | -x(i,B,C) | x(i,A,C)) over ordered triples
                     of pairwise-distinct sets; with a level threshold k only
                     triples with all cardinalities below k are needed, and
                     triples where A is a proper subset of C are skipped
                     because the monotonicity unit already satisfies them
* item order       - unit x(0, {g_i}, {g_j}) for i < j, pinning agent 0's
                     singleton order (symmetry breaking)
* leveled          - units making every set of size >= k beat every smaller
                     set, with equal-size sets at levels >= k ordered by set
                     number.  At k >= m - 2 no counterexample is lost, item
                     order included (`valuations.leveled` gives the argument)
* no-EFX           - one clause per complete non-empty-bundle allocation,
                     2m literals each (two per good, duplicates kept): the
                     negation -x(i, X_j - g, X_i) of every EFX condition
                     `fairness.efx_conditions` yields, in its order

`write_dimacs_stream` feeds `encode` to the one DIMACS writer,
`dimacs.stream_dimacs`, with the header count from `clause_counts`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import comb
from typing import IO

from .allocations import count_allocations, enumerate_bundle_tuples
from .bitset import cardinality, check_good_count, check_level, full_set, is_proper_subset, submasks
from .dimacs import Clause, CnfFormula, stream_dimacs
from .errors import BadPartitionInput, GoodCountOutOfRange, IndexOutOfRange
from .fairness import efx_conditions
from . import reference

NUM_AGENTS = 3


@dataclass(frozen=True)
class EncodeOptions:
    """Checked when made: m by `check_good_count`, a level threshold k by `check_level`."""

    m: int
    level_k: int | None = None
    item_order: bool = False

    def __post_init__(self) -> None:
        check_good_count(self.m)
        if self.level_k is not None:
            check_level(self.level_k, self.m)


@dataclass
class EncodeStats:
    m: int
    level_k: int | None
    item_order: bool
    variables: int
    family_counts: dict[str, int]
    notes: list[str] = field(default_factory=list)

    @property
    def total_clauses(self) -> int:
        return sum(self.family_counts.values())


def num_variables(m: int) -> int:
    p = full_set(m) + 1
    return NUM_AGENTS * p * (p - 1) // 2


def good_count(num_vars: int) -> int:
    """The m with num_variables(m) == num_vars; GoodCountOutOfRange if none."""
    m = 0
    while num_variables(m) < num_vars:
        m += 1
    if num_variables(m) != num_vars:
        raise GoodCountOutOfRange(f"no good count m has {num_vars} comparison variables")
    return m


def var_id(agent: int, a: int, b: int, m: int) -> int:
    """Signed id of x(agent, a, b); for a > b the negation of x(agent, b, a).

    The one variable order, which other modules may read: ids from 1,
    agent-major, then the pairs lo < hi of set numbers in lexicographic
    order, so x(i, a, a+1) .. x(i, a, P-1) are consecutive ids, P = 2^m.
    Two readers take such a row of set a as one run: `decoding.decode_valuations`
    and `dimacs.assignment_from_ranks`.
    An agent outside 0..2 or a == b raises `IndexOutOfRange`, a set outside
    0..P-1 `BadPartitionInput`, a negative m `GoodCountOutOfRange`.
    """
    if a == b:
        raise IndexOutOfRange("comparison variables require two distinct sets")
    if not 0 <= agent < NUM_AGENTS:
        raise IndexOutOfRange(f"agent {agent} out of range")
    p = full_set(m) + 1
    lo, hi = (a, b) if a < b else (b, a)
    if lo < 0 or hi >= p:
        raise BadPartitionInput(f"need sets in 0..{p - 1}, got ({a}, {b})")
    var = agent * (p * (p - 1) // 2) + p * lo - lo * (lo + 1) // 2 + hi - lo
    return var if a < b else -var


# -- clause family streams ----------------------------------------------------

def monotonicity_clauses(m: int) -> Iterator[Clause]:
    full = full_set(m)
    for agent in range(NUM_AGENTS):
        for a in range(full + 1):
            for extra in submasks(full ^ a)[1:]:  # the proper supersets a | extra, ascending
                yield (var_id(agent, a, a | extra, m),)


def transitivity_clauses(m: int, level_k: int | None = None) -> Iterator[Clause]:
    n_sets = 1 << m
    if level_k is None:
        sets = range(n_sets)
    else:
        sets = [s for s in range(n_sets) if cardinality(s) < level_k]
    positions = range(len(sets))
    # The third set C of a triple ranges over every other set except the
    # proper supersets of A, whose monotonicity unit satisfies the clause.
    thirds = [
        [k for k, c in enumerate(sets) if c != a and not is_proper_subset(a, c)] for a in sets
    ]
    for agent in range(NUM_AGENTS):
        # lit[i][j] = var_id(agent, sets[i], sets[j], m), looked up once per literal
        lit = [[var_id(agent, a, b, m) if a != b else 0 for b in sets] for a in sets]
        for i in positions:
            lit_a = lit[i]
            third = thirds[i]
            for j in positions:
                if j == i:
                    continue
                not_ab = -lit_a[j]
                lit_b = lit[j]
                for k in third:
                    if k != j:
                        yield (not_ab, -lit_b[k], lit_a[k])


def item_order_clauses(m: int) -> Iterator[Clause]:
    for i in range(m):
        for j in range(i + 1, m):
            yield (var_id(0, 1 << i, 1 << j, m),)


def leveled_clauses(m: int, k: int) -> Iterator[Clause]:
    n_sets = 1 << m
    by_card: list[list[int]] = [[] for _ in range(m + 1)]
    for s in range(n_sets):
        by_card[cardinality(s)].append(s)
    for agent in range(NUM_AGENTS):
        for b_card in range(k, m + 1):
            for b in by_card[b_card]:
                for a_card in range(b_card):
                    for a in by_card[a_card]:
                        yield (var_id(agent, a, b, m),)
                for a in by_card[b_card]:
                    if a < b:
                        yield (var_id(agent, a, b, m),)


def not_efx_clauses(m: int) -> Iterator[Clause]:
    for bundles in enumerate_bundle_tuples(NUM_AGENTS, m):
        yield tuple(-var_id(i, removed, own, m) for i, removed, own in efx_conditions(bundles, m))


def encode(opts: EncodeOptions) -> Iterator[Clause]:
    """All clause families concatenated in the canonical order."""
    yield from monotonicity_clauses(opts.m)
    yield from transitivity_clauses(opts.m, opts.level_k)
    if opts.item_order:
        yield from item_order_clauses(opts.m)
    if opts.level_k is not None:
        yield from leveled_clauses(opts.m, opts.level_k)
    yield from not_efx_clauses(opts.m)


def encode_formula(opts: EncodeOptions) -> CnfFormula:
    """Materialized formula; intended for small m."""
    return CnfFormula(num_variables(opts.m), list(encode(opts)))


# -- closed-form counting (the two-pass writer's counting pre-pass) -----------

def clause_counts(opts: EncodeOptions) -> EncodeStats:
    """Exact per-family clause counts, computed without enumerating clauses."""
    m, k = opts.m, opts.level_k
    mono = NUM_AGENTS * (3**m - 2**m)
    if k is None:
        below = 1 << m
        subset_pairs = 3**m - 2**m
    else:
        below = sum(comb(m, c) for c in range(min(k, m + 1)))
        subset_pairs = sum(comb(m, c) * (2**c - 1) for c in range(min(k, m + 1)))
    trans = NUM_AGENTS * (below - 2) * (below * (below - 1) - subset_pairs)
    if k is None or k > m:
        lev = 0
    else:
        lev = NUM_AGENTS * sum(
            comb(m, b) * sum(comb(m, a) for a in range(b)) + comb(comb(m, b), 2)
            for b in range(k, m + 1)
        )
    counts = {
        "monotonicity": mono,
        "transitivity": trans,
        "item_order": comb(m, 2) if opts.item_order else 0,
        "leveled": lev,
        "not_efx": count_allocations(NUM_AGENTS, m),
    }
    stats = EncodeStats(m, k, opts.item_order, num_variables(m), counts)
    stats.notes.extend(reference.variable_count_notes(m, stats.variables))
    stats.notes.extend(reference.clause_total_notes(m, k, opts.item_order, counts))
    return stats


def write_dimacs_stream(
    opts: EncodeOptions, out: IO[str], comments: Iterable[str] = ()
) -> EncodeStats:
    """Stream the encoding to `out` without materializing the clause list.

    The header's clause count comes from the closed-form counting pre-pass,
    which the test suite pins against actual stream lengths.
    """
    stats = clause_counts(opts)
    written = stream_dimacs(out, stats.variables, stats.total_clauses, encode(opts), comments)
    if written != stats.total_clauses:
        raise AssertionError(
            f"counting pre-pass predicted {stats.total_clauses} clauses, emitted {written}"
        )
    return stats
