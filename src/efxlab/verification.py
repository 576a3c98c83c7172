"""Exhaustive verification of EFX (non-)existence and valuation analytics.

The verifier scans every complete allocation with non-empty bundles, counting
EFX allocations and building a histogram of how many (good, non-owner)
conditions each allocation violates.  Agents with equal value tables are
interchangeable: swapping their bundles changes neither EFX status nor the
violation count.  The scan therefore visits one allocation per orbit of such
swaps, the one with the lowest owner code, and weights it by the orbit size.
It walks those allocations with the skip-ahead odometer
`allocations.coded_bundles` and counts violations from value tables and
sorted removal tables, built once per distinct valuation.  The code space can
be cut into ranges of equally many orbits for parallel workers, and partial
reports merge as a commutative monoid, so serial and parallel runs produce
identical reports, equal to a scan of every allocation.

A null good changes no agent's value of any set, like the dummy goods of
`submodular.add_dummy_goods`.  With z null goods the scan walks the owner
codes of the other, core goods only, letting up to z core bundles stay
empty.  Handing z_j null goods to agent j adds z_j violated conditions for
each agent that envies j's core bundle, so each core code yields its share
of the histogram in closed form, and the scan does n^z times less work.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations, product
from math import comb, factorial, prod
from multiprocessing import Pool

from .allocations import class_pairs, coded_bundles, count_allocations, count_ordered_codes_below
from .bitset import cardinality, goods, singleton_bits, submasks
from .fairness import Valuation
from .valuations import RankValuation, monotonicity_violation


@dataclass
class VerifyReport:
    n: int
    m: int
    monotone: tuple[bool, ...]
    total_allocations: int = 0
    efx_count: int = 0
    violation_histogram: dict[int, int] = field(default_factory=dict)
    first_efx_witness: tuple[int, ...] | None = None
    first_witness_code: int | None = None

    def merge(self, other: VerifyReport) -> VerifyReport:
        hist = dict(self.violation_histogram)
        for bucket, count in other.violation_histogram.items():
            hist[bucket] = hist.get(bucket, 0) + count
        witness, code = self.first_efx_witness, self.first_witness_code
        if other.first_witness_code is not None and (code is None or other.first_witness_code < code):
            witness, code = other.first_efx_witness, other.first_witness_code
        return VerifyReport(
            self.n,
            self.m,
            self.monotone,
            self.total_allocations + other.total_allocations,
            self.efx_count + other.efx_count,
            hist,
            witness,
            code,
        )

    def to_text(self) -> str:
        lines = [f"agents: {self.n}", f"goods: {self.m}"]
        for agent, mono in enumerate(self.monotone):
            lines.append(f"valuation {agent}: {'monotone' if mono else 'NOT monotone'}")
        lines.append(f"allocations scanned: {self.total_allocations}")
        lines.append(f"EFX count: {self.efx_count} / {self.total_allocations}")
        for bucket in sorted(self.violation_histogram):
            lines.append(f"violations={bucket}: {self.violation_histogram[bucket]} allocations")
        if self.first_efx_witness is not None:
            lines.append(f"first EFX allocation: {list(self.first_efx_witness)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "agents": self.n,
                "goods": self.m,
                "monotone": list(self.monotone),
                "allocations_scanned": self.total_allocations,
                "efx_count": self.efx_count,
                "violation_histogram": {str(k): v for k, v in sorted(self.violation_histogram.items())},
                "first_efx_witness": (
                    list(self.first_efx_witness) if self.first_efx_witness is not None else None
                ),
            },
            indent=2,
        )


def value_tables(valuations: Sequence[Valuation]) -> list[list[int]]:
    n_sets = 1 << valuations[0].m
    return [[v.value(mask) for mask in range(n_sets)] for v in valuations]


def identical_classes(tables: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The agents whose value tables are equal, as ascending classes of two or more."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for agent, table in enumerate(tables):
        groups.setdefault(tuple(table), []).append(agent)
    return [tuple(members) for members in groups.values() if len(members) > 1]


def null_goods(tables: Sequence[Sequence[int]], m: int) -> tuple[int, ...]:
    """The goods g with v(S + g) == v(S) in every value table for every set S, ascending.

    The sets without g come in runs of 2^g masks, each followed by the same
    run with g added, so one slice comparison checks a whole run.
    """
    return tuple(
        g
        for g in range(m)
        if all(
            table[low : low + (1 << g)] == table[low + (1 << g) : low + (2 << g)]
            for table in tables
            for low in range(0, 1 << m, 2 << g)
        )
    )


def _spread(goods_kept: Sequence[int]) -> list[int]:
    """``spread[k]``: the mask over all goods of the set whose bit c is good goods_kept[c]."""
    masks = [0]
    for good in goods_kept:
        masks += [mask | 1 << good for mask in masks]
    return masks


def _removal_table(table: list[int], m: int) -> list[list[int]]:
    """``removal[Y]``: the values v(Y - g) over the goods g in Y, sorted."""
    return [
        sorted(table[bundle ^ bit] for bit in singleton_bits(bundle)) for bundle in range(1 << m)
    ]


def _envy_table(table: list[int], m: int, n: int, floor: int) -> list[list[int]]:
    """The removal table with v(Y) added K = (n-1)m + 1 times to each row.

    ``bisect_right(envy[Y], own)`` is then h + K*[v(Y) <= own], where h is the
    removal-table count, h <= m.  The row of the empty set also holds n*K
    copies of `floor`, a value below every own value, which marks the empty
    bundle: summed over the n - 1 other agents, a column reads h_sum + K*q
    with h_sum < K, and q >= n exactly when the bundle is empty.
    """
    marks = (n - 1) * m + 1
    rows = [
        sorted(removed + [table[bundle]] * marks)
        for bundle, removed in enumerate(_removal_table(table, m))
    ]
    rows[0] += [floor] * (n * marks)
    rows[0].sort()
    return rows


@dataclass(frozen=True)
class _Scan:
    """Everything a range scan reads, built once per `verify` and sent to every worker.

    `agents` holds (i, v_i table, v_i removal table, the other agents); the
    members of a class of identical agents share one table and one removal
    table.  `pairs` keeps the bundles of each class decreasing, which selects
    the lowest code of each orbit, and `weight` is the orbit size, the
    product of k! over the classes.

    With null goods, the scan runs over the `core` goods only: `m` counts
    them, the tables are indexed by masks over them, and the removal tables
    are envy tables (`_envy_table`).  `null` lists the null goods.
    """

    n: int
    m: int
    agents: tuple[tuple[int, list[int], list[list[int]], tuple[int, ...]], ...]
    pairs: tuple[tuple[int, int], ...]
    weight: int
    classes: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]
    null: tuple[int, ...]


def _scan_plan(tables: list[list[int]], m: int, classes: list[tuple[int, ...]]) -> _Scan:
    n = len(tables)
    shared = list(range(n))
    for members in classes:
        for agent in members:
            shared[agent] = members[0]
    null = null_goods(tables, m)
    core = tuple(g for g in range(m) if g not in null)
    if null:
        spread = _spread(core)
        tables = [[table[mask] for mask in spread] for table in tables]
        floor = min(min(table) for table in tables) - 1
        removal = {i: _envy_table(tables[i], len(core), n, floor) for i in set(shared)}
    else:
        removal = {i: _removal_table(tables[i], m) for i in set(shared)}
    agents = tuple(
        (i, tables[shared[i]], removal[shared[i]], tuple(j for j in range(n) if j != i))
        for i in range(n)
    )
    weight = prod(factorial(len(members)) for members in classes)
    return _Scan(n, len(core), agents, class_pairs(classes), weight, tuple(classes), core, null)


def _scan_range(
    scan: _Scan, start: int, stop: int
) -> tuple[int, int, dict[int, int], tuple[int, ...] | None, int | None]:
    """Count EFX allocations and violated conditions, one orbit per lowest code in [start, stop).

    A violated condition is a triple (i, j, g), j != i and g in X_j, with
    v_i(X_j - g) > v_i(X_i), as in `fairness.efx_conditions`.  With the
    sorted removal tables, bisect_right(removal_i[X_j], v_i(X_i)) counts
    the goods of X_j whose condition holds for i, so one C-level bisect
    replaces |X_j| comparisons.  The bundles partition the m goods, so the
    pairs j != i of agent i cover m - |X_i| conditions and all pairs cover
    (n - 1) * m; the violations are that total minus the bisect counts.
    Each lowest code stands for its whole orbit, so every count is taken
    `scan.weight` times; the witness is the lowest EFX code, which is the
    lowest of its orbit.  Tests hold the scan to
    `fairness.violated_condition_count` and to a scan of every code.
    With null goods the codes are those of the core goods, and
    `_scan_core_range` counts the allocations each one stands for.
    """
    if scan.null:
        return _scan_core_range(scan, start, stop)
    conditions = (scan.n - 1) * scan.m
    found = efx_count = 0
    hist: dict[int, int] = {}
    witness: tuple[int, ...] | None = None
    witness_code: int | None = None
    for code, bundles in coded_bundles(scan.n, scan.m, start, stop, scan.pairs):
        held = 0
        for i, table, rows, others in scan.agents:
            own = table[bundles[i]]
            for j in others:
                held += bisect_right(rows[bundles[j]], own)
        violations = conditions - held
        found += 1
        hist[violations] = hist.get(violations, 0) + 1
        if violations == 0:
            efx_count += 1
            if witness_code is None:
                witness, witness_code = bundles, code
    weight = scan.weight
    hist = {bucket: count * weight for bucket, count in hist.items()}
    return found * weight, efx_count * weight, hist, witness, witness_code


def _scan_core_range(
    scan: _Scan, start: int, stop: int
) -> tuple[int, int, dict[int, int], tuple[int, ...] | None, int | None]:
    """`_scan_range` for an instance with null goods, over the core codes in [start, stop).

    Codes with equal column sums (`_core_tally`) count alike, so the scan
    tallies the sums.  They read as the core violations and an envy pattern
    (`_reading`), and `_hand_outs` counts the allocations behind each
    pattern once.  Only when a range holds an EFX allocation does a second
    pass collect the codes that have one; `_lowest_completion` gives the
    lowest full code among them.
    """
    tally, _ = _core_tally(scan, start, stop)
    patterns: dict[tuple[tuple[bool, ...], tuple[int, ...]], dict[int, int]] = {}
    for sums, count in tally.items():
        violations, pattern = _reading(scan, sums)
        by_violations = patterns.setdefault(pattern, {})
        by_violations[violations] = by_violations.get(violations, 0) + count
    total = efx_count = 0
    hist: dict[int, int] = {}
    efx_readings = set()
    for pattern, by_violations in patterns.items():
        added = _hand_outs(scan, *pattern)
        for violations, count in by_violations.items():
            for extra, ways in added.items():
                hist[violations + extra] = hist.get(violations + extra, 0) + count * ways
                total += count * ways
        if 0 in by_violations and 0 in added:
            efx_count += by_violations[0] * added[0]
            efx_readings.add((0, pattern))
    if not efx_readings:
        return total, efx_count, hist, None, None
    efx_sums = {sums for sums in tally if _reading(scan, sums) in efx_readings}
    _, hits = _core_tally(scan, start, stop, efx_sums)
    witness_code, witness = min(_lowest_completion(scan, bundles) for bundles in hits)
    return total, efx_count, hist, witness, witness_code


def _core_tally(
    scan: _Scan, start: int, stop: int, wanted: frozenset | set = frozenset()
) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """How many core codes in [start, stop) have each packing of column sums, and the
    bundles of the codes whose packings are in `wanted`.

    Column j sums ``bisect_right(envy_i[X_j], v_i(X_i))`` over the agents
    i != j (`_envy_table`), so it reads as h + K*q: h conditions on the
    goods of X_j hold, and q counts the agents that do not envy X_j, plus
    n(n-1) when X_j is empty.  The columns are packed into one integer, as
    the digits of base `_radix(scan)`, which keeps the tally small.
    """
    radix = _radix(scan)
    agents = [
        (i, table, rows, tuple((j, radix**j) for j in others))
        for i, table, rows, others in scan.agents
    ]
    tally: dict[int, int] = {}
    hits = []
    for _, bundles in coded_bundles(scan.n, scan.m, start, stop, scan.pairs, len(scan.null)):
        sums = 0
        for i, table, rows, others in agents:
            own = table[bundles[i]]
            for j, digit in others:
                sums += bisect_right(rows[bundles[j]], own) * digit
        tally[sums] = tally.get(sums, 0) + 1
        if sums in wanted:
            hits.append(bundles)
    return tally, hits


def _radix(scan: _Scan) -> int:
    """K * n^2 for K = (n-1)m + 1: a column is h + K*q with h < K and q < n^2."""
    return ((scan.n - 1) * scan.m + 1) * scan.n**2


def _reading(scan: _Scan, sums: int) -> tuple[int, tuple[tuple[bool, ...], tuple[int, ...]]]:
    """The core violations of a code with packed column sums `sums`, and its envy pattern:
    which core bundles are empty, and how many agents envy each."""
    n = scan.n
    marks = (n - 1) * scan.m + 1
    radix = _radix(scan)
    held = 0
    empty = []
    envied = []
    for _ in range(n):
        sums, column = divmod(sums, radix)
        q, h = divmod(column, marks)
        held += h
        empty.append(q >= n)
        envied.append(n - 1 - q % n)
    return (n - 1) * scan.m - held, (tuple(empty), tuple(envied))


def _hand_outs(scan: _Scan, empty: tuple[bool, ...], envied: tuple[int, ...]) -> dict[int, int]:
    """The allocations a core code stands for, by the violated conditions the null goods add.

    Handing z_j of the z null goods to agent j adds z_j * E_j violated
    conditions, where E_j = `envied[j]` counts the agents i != j with
    v_i(X_j) > v_i(X_i): removing a null good from X_j leaves v_i(X_j).  An
    empty core bundle needs z_j >= 1.  Each hand-out stands for z! / prod
    z_j! allocations, times the orbit size, prod k_c! / prod t_c! with t_c
    the members of class c whose core bundles are empty, since those tie.
    """
    z = len(scan.null)
    handed = {(0, 0): 1}  # (null goods handed out, added violations) -> ways
    for is_empty, envy in zip(empty, envied):
        step: dict[tuple[int, int], int] = {}
        for (used, extra), ways in handed.items():
            for k in range(1 if is_empty else 0, z - used + 1):
                key = (used + k, extra + k * envy)
                step[key] = step.get(key, 0) + ways * comb(z - used, k)
        handed = step
    weight = scan.weight // prod(
        factorial(sum(empty[agent] for agent in members)) for members in scan.classes
    )
    return {extra: ways * weight for (used, extra), ways in handed.items() if used == z}


def _lowest_completion(scan: _Scan, bundles: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The lowest full owner code, with its bundles, of an EFX allocation a core code stands for.

    Over each orbit image of the core bundles, the null goods may go only
    to agents nobody envies and must fill the empty bundles; the lowest code
    hands them out lowest owner first, from the highest null good down.
    """
    n = scan.n
    tables = [table for _, table, _, _ in scan.agents]
    completions = []
    for perms in product(*(permutations(members) for members in scan.classes)):
        image = list(bundles)
        for members, perm in zip(scan.classes, perms):
            for a, b in zip(members, perm):
                image[b] = bundles[a]
        allowed = [
            j
            for j in range(n)
            if all(tables[i][image[j]] <= tables[i][image[i]] for i in range(n) if i != j)
        ]
        waiting = [j for j in allowed if not image[j]]
        full = [sum(1 << scan.core[c] for c in goods(bundle)) for bundle in image]
        for left, good in enumerate(sorted(scan.null, reverse=True)):
            # once only as many null goods are left as empty bundles, they fill those
            owner = waiting[0] if len(waiting) == len(scan.null) - left else allowed[0]
            if waiting and owner == waiting[0]:
                waiting.pop(0)
            full[owner] |= 1 << good
        code = sum(j * n**g for j, bundle in enumerate(full) for g in goods(bundle))
        completions.append((code, tuple(full)))
    return min(completions)


def verify(valuations: Sequence[Valuation], jobs: int = 1) -> VerifyReport:
    """Scan all complete non-empty allocations of the instance, one per orbit.

    Agents with equal value tables form classes; the scan visits the lowest
    code of each orbit of bundle swaps within the classes and weights it by
    the orbit size, so the report equals that of a scan of every code.  The
    value and removal tables are built once, one removal table per distinct
    valuation, before any worker starts.  Null goods, which change no
    agent's value of any set, are factored out: the scan runs over the codes
    of the other goods, letting as many bundles stay empty as there are
    null goods, and counts the ways to hand the null goods out.  With jobs >
    1 the owner-code range is cut into contiguous chunks holding equally
    many orbits (`allocations.count_ordered_codes_below`), one per worker
    process, with at most one worker per CPU; the merged report is identical
    to a serial scan.
    """
    n, m = len(valuations), valuations[0].m
    expected = count_allocations(n, m)
    tables = value_tables(valuations)
    monotone = tuple(monotonicity_violation(table, m) is None for table in tables)
    report = VerifyReport(n, m, monotone)
    classes = identical_classes(tables)
    scan = _scan_plan(tables, m, classes)

    code_space = n**scan.m
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        parts = [_scan_range(scan, 0, code_space)]
    else:
        orbits_below = partial(count_ordered_codes_below, n, scan.m, classes, empty=len(scan.null))
        orbits = orbits_below(code_space)
        bounds = [
            bisect_left(range(code_space), orbits * i // jobs, key=orbits_below)
            for i in range(jobs)
        ]
        bounds.append(code_space)
        args = [
            (scan, bounds[i], bounds[i + 1])
            for i in range(jobs)
            if bounds[i] < bounds[i + 1]
        ]
        with Pool(processes=len(args)) as pool:
            parts = pool.starmap(_scan_range, args)

    for total, efx_count, hist, witness, code in parts:
        report = report.merge(
            VerifyReport(n, m, monotone, total, efx_count, hist, witness, code)
        )
    if report.total_allocations != expected:
        raise AssertionError(
            f"scanned {report.total_allocations} allocations, expected {expected}"
        )
    return report


# -- analytics -----------------------------------------------------------------

def marginal_values(v: RankValuation, good: int, result_size: int) -> list[int]:
    """Marginals v(S + good) - v(S) across all S with |S + good| = result_size.

    S ranges over the sets of size result_size - 1 that do not contain the
    good, so the multiset has C(m-1, result_size-1) entries, sorted ascending.
    """
    if not 0 <= good < v.m:
        raise ValueError(f"good {good} out of range")
    if not 1 <= result_size <= v.m:
        raise ValueError(f"result size {result_size} out of range")
    bit = 1 << good
    values = sorted(
        v.rank[mask | bit] - v.rank[mask]
        for mask in range(1 << v.m)
        if not mask & bit and cardinality(mask) == result_size - 1
    )
    return values


def iter_mms_violations(v: RankValuation) -> Iterator[tuple[int, int, int, int]]:
    """Canonical witnesses that v is not MMS-feasible.

    Yields (a, b, c, d) with a|b == c|d, a&b == 0 == c&d, and
    min(v(a), v(b)) > max(v(c), v(d)); within each pair the smaller set
    number comes first, and each unordered pair of splits is visited once
    (ground sets ascending, splits by ascending first part).
    """
    n_sets = 1 << v.m
    rank = v.rank
    for ground in range(n_sets):
        splits = [(part, ground ^ part) for part in submasks(ground) if part < ground ^ part]
        for i, (a, b) in enumerate(splits):
            low_ab = min(rank[a], rank[b])
            high_ab = max(rank[a], rank[b])
            for c, d in splits[i + 1 :]:
                if low_ab > max(rank[c], rank[d]):
                    yield (a, b, c, d)
                elif min(rank[c], rank[d]) > high_ab:
                    yield (c, d, a, b)


def find_mms_violations(v: RankValuation) -> list[tuple[int, int, int, int]]:
    """All canonical MMS violations, in `iter_mms_violations` order."""
    return list(iter_mms_violations(v))


def count_mms_violation_tuples(v: RankValuation) -> int:
    """Ordered quadruples (A, B, C, D) meeting the violation condition.

    Each canonical witness corresponds to four ordered quadruples (either
    pair may be written in either order), which is the count the condition
    itself defines.
    """
    return 4 * sum(1 for _ in iter_mms_violations(v))
