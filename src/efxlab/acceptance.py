"""The acceptance suite: one callable check per criterion.

Each check returns a CheckResult whose detail lines carry their expectations
(`CheckResult.record`); the pytest module asserts them and the CLI
`selfcheck` subcommand prints them.  `ALL_CHECKS` says per criterion whether
`selfcheck --quick` skips it and whether it takes `jobs`.  The published
figures and their tolerance come from `reference`; the other expected
values are frozen here.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

from . import cdcl, reference, smtlib, three_agent, verification
from .allocations import count_allocations, enumerate_bundle_tuples, singleton_histogram
from .bitset import MAX_GOODS, cardinality, goods, is_proper_subset
from .decoding import (
    decode_valuations,
    dump_rank_blocks,
    load_bundled_counterexample,
    load_rank_blocks,
)
from .dimacs import CnfFormula, assignment_from_ranks, parse_dimacs, parse_model, write_dimacs
from .encoding import (
    NUM_AGENTS,
    EncodeOptions,
    clause_counts,
    encode_formula,
    num_variables,
    var_id,
)
from .fairness import efx_conditions
from .simplify import preprocess
from .submodular import add_dummy_goods, extend_counterexample, is_submodular, submodular_realize
from .valuations import RealValuation, random_monotone_rank_valuation


@dataclass
class CheckResult:
    name: str
    passed: bool = True
    details: list[str] = field(default_factory=list)
    seconds: float = 0.0

    def record(self, detail: str, ok: bool = True) -> None:
        """Add a detail line; the check fails if its expectation `ok` is false."""
        self.details.append(detail)
        self.passed = self.passed and ok

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)"


def check_allocation_counts() -> CheckResult:
    res = CheckResult("1 allocation counts (540 / 1806 / 5796, singleton split 126/1050/630)")
    expected = {(3, 6): 540, (3, 7): 1806, (3, 8): 5796}
    for (n, m), want in expected.items():
        closed = count_allocations(n, m)
        streamed = sum(1 for _ in enumerate_bundle_tuples(n, m))
        res.record(
            f"(n={n}, m={m}): closed form {closed}, stream {streamed}, expected {want}",
            closed == want == streamed,
        )
    hist = singleton_histogram(3, 7)
    res.record(f"m=7 singleton histogram: {hist}", hist == {2: 126, 1: 1050, 0: 630})
    return res


def check_variable_counts() -> CheckResult:
    published = reference.PUBLISHED_VARIABLE_COUNTS
    res = CheckResult(f"2 variable counts ({published[7]} / {published[8]}, m=6 discrepancy flagged)")
    for m in (7, 8):
        got = num_variables(m)
        res.record(f"m={m}: {got} variables (expected {published[m]})", got == published[m])
    got6 = num_variables(6)
    flagged = reference.variable_count_disagrees(6, got6)
    res.record(f"m=6: {got6} variables; discrepancy note present: {flagged}", got6 == 6_048 and flagged)
    return res


def _close(rows: list[int]) -> None:
    """Transitive closure, in place, of a relation given as bitset rows."""
    for w, row_w in enumerate(rows):
        bit = 1 << w
        for u, row in enumerate(rows):
            if row & bit:
                rows[u] = row | row_w


def _open_triangles(rows: list[int]) -> int:
    """Oriented 3-cycles with no arc in the strict order `rows`.

    A triangle with no comparable pair leaves both orientations open, one
    with a single comparable pair leaves one, and any other leaves none.
    Counting incidences gives 2*C(n,3) - c*(n-2) + t for c comparable pairs
    and t totally ordered triples, each counted once by its middle element.
    """
    n = len(rows)
    up = [row.bit_count() for row in rows]
    down = [0] * n
    for row in rows:
        for pos in goods(row):
            down[pos] += 1
    chains = sum(d * u for d, u in zip(down, up))
    return 2 * comb(n, 3) - sum(up) * (n - 2) + chains


def reduced_clause_count(opts: EncodeOptions) -> int | None:
    """Clauses that `preprocess` leaves of `encode(opts)`, counted without encoding.

    Returns None where unit propagation alone refutes the formula.  This
    reaches the published m=8 reduced total, where the generated formula has
    tens of millions of clauses; `preprocess` needs about 1 GB already at m=7.
    The count rests on this argument:

    * The transitivity clause of (a, b, c) is {x(b,a), x(c,b), x(a,c)}.  It
      forbids one agent's oriented 3-cycle a < b < c < a, and its three
      rotations give the same clause.
    * Those clauses exist for the triples of the sets S below the level
      threshold (all sets without one), and a leveled unit fixes every pair
      not inside S.  So propagation fixes, per agent, the monotonicity and
      item-order units on S closed under transitivity over S.  That relation
      never conflicts: an additive valuation with v(g_i) = 1 + i/m obeys it.
    * The distinct transitivity residues are then the oriented triangles on
      S with no arc fixed true (`_open_triangles`).
    * A residue subsumes no other triangle's clause, because any two of its
      literals name the triangle and its orientation.  It subsumes no no-EFX
      clause either: a two-literal residue is a chain p < q < r, while every
      literal of agent i in a no-EFX clause says v_i(X_i) < v_i(A) and so
      starts at X_i.  For the same reason a no-EFX residue inside a triangle
      clause would be a single literal.
    * An empty no-EFX residue refutes the formula.  A single-literal one
      would propagate further; no configuration with m = 3..8 has one, and
      the count raises rather than follow it.  The others are reduced among
      themselves by `_minimal_sets`, which shares no code with `subsume`.

    Subsumption keeps the distinct minimal clauses, so the count is the open
    triangles plus the distinct minimal no-EFX residues.
    """
    m, k = opts.m, opts.level_k
    sets = [s for s in range(1 << m) if k is None or cardinality(s) < k]
    index = {s: pos for pos, s in enumerate(sets)}
    subset_rows = [
        sum(1 << q for q, b in enumerate(sets) if is_proper_subset(a, b)) for a in sets
    ]
    above = [list(subset_rows) for _ in range(NUM_AGENTS)]
    if opts.item_order and 1 in index:
        for g in range(m):
            for h in range(g + 1, m):
                above[0][index[1 << g]] |= 1 << index[1 << h]

    for rows in above:
        _close(rows)

    def fixed(agent: int, lo: int, hi: int) -> bool:
        """Whether v_agent(lo) < v_agent(hi) is fixed true."""
        if lo in index and hi in index:
            return bool(above[agent][index[lo]] >> index[hi] & 1)
        return (cardinality(lo), lo) < (cardinality(hi), hi)

    residues: list[tuple[int, ...]] = []
    for bundles in enumerate_bundle_tuples(NUM_AGENTS, m):
        residue = []
        # The no-EFX literal of (agent, removed, own) says v(own) < v(removed).
        for agent, removed, own in dict.fromkeys(efx_conditions(bundles, m)):
            if fixed(agent, own, removed):
                break
            if not fixed(agent, removed, own):
                residue.append(-var_id(agent, removed, own, m))
        else:
            if not residue:
                return None
            if len(residue) == 1:
                raise NotImplementedError(
                    f"{opts}: a no-EFX clause propagates a unit, which this count does not follow"
                )
            residues.append(tuple(residue))
    return sum(_open_triangles(rows) for rows in above) + len(_minimal_sets(residues))


def _minimal_sets(clauses: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """The distinct literal sets of `clauses` that contain no other of them.

    Sets are taken shortest first, so every proper subset of a set comes
    before it.  A kept set T lies inside the candidate S when S holds all
    |T| of its literals, counted over the kept sets in which each literal
    of S occurs.
    """
    kept: list[frozenset[int]] = []
    holding: dict[int, list[int]] = {}  # literal -> indices of the kept sets with it
    for clause in sorted({frozenset(c) for c in clauses}, key=len):
        shared = Counter(t for lit in clause for t in holding.get(lit, ()))
        if any(count == len(kept[t]) for t, count in shared.items()):
            continue
        for lit in clause:
            holding.setdefault(lit, []).append(len(kept))
        kept.append(clause)
    return kept


def clause_total_check(row: reference.ClauseRow) -> tuple[bool, str]:
    """Criterion 3 on one published row, counted at the level that reproduces it."""
    opts = EncodeOptions(row.m, row.counted_level, row.item_order)
    stats = clause_counts(opts)
    total = stats.total_clauses
    verdict = reference.clause_total_verdict(row, stats.family_counts)
    if row.generated is None:
        ok = verdict in ("match", "within")
        target = f"target {row.total}, delta {total - row.total:+d}"
    else:
        flagged = verdict == "inconsistent"
        ok = total == row.generated and flagged
        target = f"expected {row.generated}; published {row.total} flagged as inconsistent: {flagged}"
    reduced = reduced_clause_count(opts)
    ok = ok and reduced == row.reduced
    families = ", ".join(f"{k}={v}" for k, v in stats.family_counts.items())
    return ok, (
        f"published as m={row.m} k={row.level_k} item_order={row.item_order}, "
        f"counted at k={opts.level_k}: {total} ({target}); reduced {reduced} "
        f"(published {row.reduced}); families: {families}"
    )


def check_clause_counts() -> CheckResult:
    res = CheckResult(
        "3 clause totals (<= 0.02% of published), exact reduced totals, m=7 monotonicity 6177"
    )
    for row in reference.CLAUSE_ROWS:
        ok, detail = clause_total_check(row)
        res.record(("ok  " if ok else "FAIL ") + detail, ok)
    mono7 = clause_counts(EncodeOptions(7, 5, True)).family_counts["monotonicity"]
    res.record(f"m=7 monotonicity family: {mono7} (expected 6177)", mono7 == 6_177)
    return res


def check_counterexample_verification(jobs: int = 1) -> CheckResult:
    res = CheckResult("4 counterexample verification (EFX count 0, 272 single-violation)")
    vals = load_bundled_counterexample()
    spots = (vals[0].rank[5], vals[1].rank[16], vals[2].rank[64])
    res.record(f"spot ranks (v0[5], v1[16], v2[64]) = {spots} (expected (54, 1, 1))", spots == (54, 1, 1))
    report = verification.verify(vals, jobs=jobs)
    single = report.violation_histogram.get(1, 0)
    res.record(
        f"monotone {report.monotone}, scanned {report.total_allocations}, "
        f"EFX {report.efx_count}, single-violation {single}",
        all(report.monotone) and report.total_allocations == 5_796
        and report.efx_count == 0 and single == 272,
    )
    return res


def check_analytics() -> CheckResult:
    res = CheckResult("5 analytics (marginals 11..131, featured quadruple, > 1500 violations)")
    v0 = load_bundled_counterexample()[0]
    size4 = verification.marginal_values(v0, 0, 4)
    size3 = verification.marginal_values(v0, 0, 3)
    res.record(
        f"g0 marginals at result size 4: min {size4[0]}, max {size4[-1]} (expected 11, 131)",
        (size4[0], size4[-1]) == (11, 131),
    )
    res.record(f"g0 marginals at result size 3 contain 10: {10 in size3}", 10 in size3)
    featured = (0b110, 0b10010001, 0b10100, 0b10000011)
    quads = verification.find_mms_violations(v0)
    values = tuple(v0.rank[s] for s in featured)
    res.record(
        f"featured quadruple present: {featured in quads}; values {values}",
        featured in quads and values == (77, 59, 40, 53),
    )
    ordered = verification.count_mms_violation_tuples(v0)
    res.record(f"ordered violation tuples: {ordered} (canonical {len(quads)})", ordered > 1_500)
    return res


def check_submodular_realization() -> CheckResult:
    res = CheckResult("6 submodular realization (all three valuations, supermodular witness)")
    for agent, v in enumerate(load_bundled_counterexample()):
        dyadic = submodular_realize(v)
        ok, witness = is_submodular(dyadic)
        res.record(f"agent {agent}: submodular = {ok}", ok)
        if not ok:
            res.record(f"  witness: {witness}")
    bad = RealValuation(3, tuple(1000 if mask == 7 else (1 if mask else 0) for mask in range(8)))
    ok, witness = is_submodular(bad)
    res.record(
        f"constructed supermodular input rejected: {not ok}, witness {witness}",
        not ok and witness is not None,
    )
    return res


def check_extension(jobs: int = 1) -> CheckResult:
    res = CheckResult(
        f"7 extension (n=4, m=9 and n=5, m=10 exhaustive; n=3 with 1..{MAX_GOODS - 8} dummy goods)"
    )
    base = load_bundled_counterexample()
    for n, want in ((4, 186_480), (5, 5_103_000)):
        _scan_extension(res, base, n, want, jobs)
    for m in range(9, MAX_GOODS + 1):
        padded = add_dummy_goods(base, m - 8)
        report = verification.verify(padded, jobs=jobs)
        res.record(
            f"n=3, m={m} with {m - 8} dummy goods: scanned {report.total_allocations}, "
            f"EFX {report.efx_count}",
            report.total_allocations == count_allocations(3, m) and report.efx_count == 0,
        )
    return res


def check_extension_n6(jobs: int = 1) -> CheckResult:
    res = CheckResult("13 extension (n=6, m=11 exhaustive, 129230640 allocations)")
    _scan_extension(res, load_bundled_counterexample(), 6, 129_230_640, jobs)
    return res


def _scan_extension(res: CheckResult, base, n: int, want: int, jobs: int) -> None:
    """Scan the n-agent, (n+5)-good extension: `want` allocations, none EFX."""
    report = verification.verify(extend_counterexample(base, n), jobs=jobs)
    res.record(
        f"n={n}, m={n + 5}: scanned {report.total_allocations} (expected {want}), "
        f"EFX {report.efx_count}",
        report.total_allocations == want and report.efx_count == 0,
    )


def check_desk_solving() -> CheckResult:
    res = CheckResult("8 desk-scale solving (m=4 and m=5 UNSAT, preprocess agreement)")
    for m, budget_seconds in ((4, 60.0), (5, 900.0)):
        start = time.monotonic()
        formula = encode_formula(EncodeOptions(m, 2, True))
        outcome = cdcl.solve(formula)
        elapsed = time.monotonic() - start
        res.record(
            f"m={m}, k=2, item order: {outcome.status.value} in {elapsed:.1f}s "
            f"({outcome.conflicts} conflicts)",
            outcome.status is cdcl.SolveStatus.UNSATISFIABLE and elapsed <= budget_seconds,
        )
    rng = random.Random(20_240_817)
    disagreements = 0
    for _ in range(100):
        formula = _random_formula(rng)
        pre = preprocess(formula)
        direct = cdcl.solve(formula).status
        if pre.unsat:
            simplified = cdcl.SolveStatus.UNSATISFIABLE
        else:
            simplified = cdcl.solve(pre.formula).status
        if direct is not simplified:
            disagreements += 1
    res.record(
        f"preprocess/solve agreement on 100 random formulas: {100 - disagreements}/100",
        not disagreements,
    )
    return res


def _random_formula(rng: random.Random) -> CnfFormula:
    num_vars = rng.randint(5, 30)
    clauses = []
    for _ in range(rng.randint(5, 4 * num_vars)):
        width = rng.randint(1, 3)
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return CnfFormula(num_vars, clauses)


def check_decoder_roundtrip() -> CheckResult:
    res = CheckResult("9 decoder round-trip (random m<=4 triples, counterexample tables)")
    for m in (3, 4):
        triple = [random_monotone_rank_valuation(m, 100 + m * 10 + j) for j in range(3)]
        assignment = assignment_from_ranks(
            [v.rank for v in triple], lambda i, a, b, m=m: var_id(i, a, b, m)
        )
        decoded = decode_valuations(assignment, m)
        same = all(d.rank == v.rank for d, v in zip(decoded, triple))
        res.record(f"m={m} random triple round-trip: {same}", same)
    tables = load_bundled_counterexample()
    assignment = assignment_from_ranks(
        [v.rank for v in tables], lambda i, a, b: var_id(i, a, b, 8)
    )
    decoded = decode_valuations(assignment, 8)
    same = all(d.rank == v.rank for d, v in zip(decoded, tables))
    res.record(f"counterexample tables reproduce through decoding: {same}", same)
    return res


def check_three_agent() -> CheckResult:
    res = CheckResult("10 three-agent algorithm (600 seeded runs, counterexample instance)")
    tags: dict[str, int] = {}
    worst_iterations = 0
    bounded = True
    for m in (4, 5, 6):
        bound = count_allocations(3, m) + 1
        for seed in range(200):
            vals = [random_monotone_rank_valuation(m, seed * 3 + j) for j in range(3)]
            outcome = three_agent.solve_three(vals)
            tags[outcome.tag] = tags.get(outcome.tag, 0) + 1
            worst_iterations = max(worst_iterations, outcome.iterations)
            bounded = bounded and outcome.iterations <= bound
    res.record(f"600 runs verified; tags {tags}; max iterations {worst_iterations}", bounded)
    outcome = three_agent.solve_three(load_bundled_counterexample())
    res.record(f"counterexample instance: {outcome.tag} {outcome.bundles}")
    return res


def check_smt_emission() -> CheckResult:
    res = CheckResult("11 SMT emission (m=7: 1806 x 14 = 25284; m=4: 36 x 8 = 288)")
    for m, want_disjuncts, want_inequalities in ((7, 1_806, 25_284), (4, 36, 288)):
        text, stats = smtlib.emit_smtlib(m)
        smtlib.tokenize_balanced(text)
        res.record(
            f"m={m}: {stats.disjuncts} disjuncts, {stats.inequalities} inequalities, "
            f"{stats.constants} constants; balanced",
            (stats.disjuncts, stats.inequalities) == (want_disjuncts, want_inequalities),
        )
    return res


def check_format_roundtrips() -> CheckResult:
    res = CheckResult("12 format round-trips (DIMACS, valuation blocks, model lines)")
    formula = encode_formula(EncodeOptions(4, 3, True))
    text = write_dimacs(formula)
    reparsed = parse_dimacs(text)
    dimacs_ok = reparsed.clauses == formula.clauses and write_dimacs(reparsed) == text
    res.record(f"DIMACS write/parse identity: {dimacs_ok}", dimacs_ok)
    vals = load_bundled_counterexample()
    blocks_ok = load_rank_blocks(dump_rank_blocks(vals)) == vals
    res.record(f"valuation block dump/load identity: {blocks_ok}", blocks_ok)
    single = parse_model("s SATISFIABLE\nv 1 -2 3 -4 0\n")
    multi = parse_model("v 1 -2\nv 3\nv -4 0\n")
    model_ok = single.values == multi.values == {1: True, 2: False, 3: True, 4: False}
    res.record(f"single-line and multi-line model blocks agree: {model_ok}", model_ok)
    return res


class Criterion(NamedTuple):
    key: str
    check: Callable[..., CheckResult]
    slow: bool = False  # `selfcheck --quick` skips it
    takes_jobs: bool = False  # the check scans allocations with `jobs` workers


ALL_CHECKS: tuple[Criterion, ...] = (
    Criterion("allocations", check_allocation_counts),
    Criterion("variables", check_variable_counts),
    Criterion("clauses", check_clause_counts),
    Criterion("counterexample", check_counterexample_verification, takes_jobs=True),
    Criterion("analytics", check_analytics),
    Criterion("submodular", check_submodular_realization),
    Criterion("extension", check_extension, slow=True, takes_jobs=True),
    Criterion("solving", check_desk_solving, slow=True),
    Criterion("decoder", check_decoder_roundtrip),
    Criterion("three-agent", check_three_agent, slow=True),
    Criterion("smt", check_smt_emission),
    Criterion("formats", check_format_roundtrips),
    Criterion("extension-n6", check_extension_n6, slow=True, takes_jobs=True),
)
SLOW_CHECKS = frozenset(c.key for c in ALL_CHECKS if c.slow)


def run_all(jobs: int = 1, skip: frozenset[str] = frozenset()) -> Iterator[CheckResult]:
    verification.check_job_count(jobs)
    for criterion in ALL_CHECKS:
        if criterion.key in skip:
            continue
        start = time.monotonic()
        result = criterion.check(jobs=jobs) if criterion.takes_jobs else criterion.check()
        result.seconds = time.monotonic() - start
        yield result
