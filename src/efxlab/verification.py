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
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from math import factorial, prod
from multiprocessing import Pool

from .allocations import class_pairs, coded_bundles, count_allocations, count_ordered_codes_below
from .bitset import cardinality, singleton_bits, submasks
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


def _removal_table(table: list[int], m: int) -> list[list[int]]:
    """``removal[Y]``: the values v(Y - g) over the goods g in Y, sorted."""
    return [
        sorted(table[bundle ^ bit] for bit in singleton_bits(bundle)) for bundle in range(1 << m)
    ]


@dataclass(frozen=True)
class _Scan:
    """Everything a range scan reads, built once per `verify` and sent to every worker.

    `agents` holds (i, v_i table, v_i removal table, the other agents); the
    members of a class of identical agents share one table and one removal
    table.  `pairs` keeps the bundles of each class decreasing, which selects
    the lowest code of each orbit, and `weight` is the orbit size, the
    product of k! over the classes.
    """

    n: int
    m: int
    agents: tuple[tuple[int, list[int], list[list[int]], tuple[int, ...]], ...]
    pairs: tuple[tuple[int, int], ...]
    weight: int


def _scan_plan(tables: list[list[int]], m: int, classes: list[tuple[int, ...]]) -> _Scan:
    n = len(tables)
    shared = list(range(n))
    for members in classes:
        for agent in members:
            shared[agent] = members[0]
    removal = {i: _removal_table(tables[i], m) for i in set(shared)}
    agents = tuple(
        (i, tables[shared[i]], removal[shared[i]], tuple(j for j in range(n) if j != i))
        for i in range(n)
    )
    weight = prod(factorial(len(members)) for members in classes)
    return _Scan(n, m, agents, class_pairs(classes), weight)


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
    """
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


def verify(valuations: Sequence[Valuation], jobs: int = 1) -> VerifyReport:
    """Scan all complete non-empty allocations of the instance, one per orbit.

    Agents with equal value tables form classes; the scan visits the lowest
    code of each orbit of bundle swaps within the classes and weights it by
    the orbit size, so the report equals that of a scan of every code.  The
    value and removal tables are built once, one removal table per distinct
    valuation, before any worker starts.  With jobs > 1 the owner-code range
    is cut into contiguous chunks holding equally many orbits
    (`allocations.count_ordered_codes_below`), one per worker process, with
    at most one worker per CPU; the merged report is identical to a serial
    scan.
    """
    n, m = len(valuations), valuations[0].m
    expected = count_allocations(n, m)
    tables = value_tables(valuations)
    monotone = tuple(monotonicity_violation(table, m) is None for table in tables)
    report = VerifyReport(n, m, monotone)
    classes = identical_classes(tables)
    scan = _scan_plan(tables, m, classes)

    code_space = n**m
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        parts = [_scan_range(scan, 0, code_space)]
    else:
        orbits_below = partial(count_ordered_codes_below, n, m, classes)
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
