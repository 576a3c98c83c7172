"""Exhaustive verification of EFX (non-)existence and valuation analytics.

The verifier scans every complete allocation with non-empty bundles, building
a histogram of how many (good, non-owner) conditions each allocation
violates; the EFX allocations are its bucket 0.  Agents with equal value tables are
interchangeable: swapping their bundles changes neither EFX status nor the
violation count.  The scan therefore visits one allocation per orbit of such
swaps, the one with the lowest owner code, and weights it by the orbit size.
It walks those allocations agent by agent (`_walk`): each level fixes one
bundle as a submask of the goods left and adds the terms of the agent pairs
it completes, once for every allocation below it, and the innermost loop
splits what is left between the last two agents.  The terms of that last
pair depend only on the split, so a walk computes them once per distinct
set of goods left and keeps them for every prefix that leaves the same
goods: a cache local to the walk, of at most 3^m entries per list kept for
m goods, one per pair of disjoint bundles.  The class order of
identical agents is a restriction on the submasks, not a filter.  Violations
are counted from value tables and `fairness.removal_table`, built once per
distinct valuation.
The first agent's bundles can be dealt into shares of about equal work for
parallel workers; the shares' histograms add up, and the lowest-coded of
their witnesses is kept (`_summed`), so serial and parallel runs produce
identical reports, equal to a scan of every allocation.

A null good changes no agent's value of any set, like the dummy goods of
`submodular.add_dummy_goods`.  With z null goods the scan walks the
allocations of the other, core goods only, letting up to z core bundles stay
empty.  Handing z_j null goods to agent j adds z_j violated conditions for
each agent that envies j's core bundle, so each core allocation yields its
share of the histogram in closed form, and the scan does n^z times less
work.  Every part of a scan is counted this way (`_scan_part`); without
null goods there is nothing to hand out, and a tally is the held total.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Sequence, Set
from dataclasses import dataclass
from functools import cache, partial
from itertools import compress, permutations, product, repeat
from math import comb, factorial, prod
from multiprocessing import Pool

from .allocations import count_allocations
from .bitset import cardinality, goods, submasks
from .errors import GoodCountOutOfRange, IndexOutOfRange, JobCountOutOfRange
from .fairness import Valuation, removal_table
from .valuations import RankValuation, monotonicity_violation, shared_good_count


@dataclass
class VerifyReport:
    """A scan's histogram of violated conditions, from which its counts are read, and its
    lowest-coded EFX allocation."""

    n: int
    m: int
    monotone: tuple[bool, ...]
    violation_histogram: dict[int, int]
    first_efx_witness: tuple[int, ...] | None

    @property
    def total_allocations(self) -> int:
        return sum(self.violation_histogram.values())

    @property
    def efx_count(self) -> int:
        return self.violation_histogram.get(0, 0)

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
        for bundle, removed in enumerate(removal_table(table, m))
    ]
    rows[0] += [floor] * (n * marks)
    rows[0].sort()
    return rows


@dataclass(frozen=True)
class _Scan:
    """Everything a scan reads, built once per `verify` and sent to every worker.

    `tables` and `rows` hold each agent's value table and removal table; the
    members of a class of identical agents share one of each.  `order` is
    the order in which `_walk` fixes the bundles: the members of each class,
    ascending, then the other agents, so that the last two bundles, which
    the walk's innermost loop splits, are as free of class order as they can
    be.  `weight` is the orbit size, the product of k! over the classes.

    With null goods, the scan runs over the `core` goods only: `m` counts
    them, the tables are indexed by masks over them, and the removal tables
    are envy tables (`_envy_table`).  `null` lists the null goods.
    """

    n: int
    m: int
    tables: tuple[list[int], ...]
    rows: tuple[list[list[int]], ...]
    order: tuple[int, ...]
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
        # entry k of the core goods' submasks holds the core goods c whose bit c is set in k
        spread = submasks(sum(1 << g for g in core))
        tables = [[table[mask] for mask in spread] for table in tables]
        floor = min(min(table) for table in tables) - 1
        removal = {i: _envy_table(tables[i], len(core), n, floor) for i in set(shared)}
    else:
        removal = {i: removal_table(tables[i], m) for i in set(shared)}
    in_class = [agent for members in classes for agent in members]
    order = (*in_class, *(agent for agent in range(n) if agent not in in_class))
    weight = prod(factorial(len(members)) for members in classes)
    return _Scan(
        n,
        len(core),
        tuple(tables[shared[i]] for i in range(n)),
        tuple(removal[shared[i]] for i in range(n)),
        order,
        weight,
        tuple(classes),
        core,
        null,
    )


def _below(bundle: int) -> int:
    """The goods below the top good of `bundle`, all a later class member may hold; none if empty.

    Disjoint bundles X_b < X_a exactly when the top good of X_a | X_b is in
    X_a, so X_b has no good above the top good of X_a.
    """
    return (1 << bundle.bit_length() >> 1) - 1 if bundle else 0


def _walk(
    scan: _Scan,
    firsts: Sequence[int],
    wanted: Set[int] = frozenset(),
    rank: Callable[[tuple[int, ...]], tuple] | None = None,
) -> tuple[Counter[int], tuple | None]:
    """How many walked allocations have each packing of column sums, and the least
    `rank(bundles)` over those whose packing is in `wanted`.

    The walk fixes the bundles in `scan.order`, each a submask of the goods
    left, the first one taken from `firsts` (descending).  It visits one
    allocation per orbit of bundle swaps within the classes, the one with
    the lowest owner code: a class member's bundle ranges over the submasks
    of the goods below the top good of the member before it (`_below`).
    Up to one bundle per null good may stay empty; two empty members of a
    class tie.

    Column j sums ``bisect_right(rows_i[X_j], v_i(X_i))`` over the agents i
    != j, the conditions (i, j, g) with g in X_j that hold (`_scan_part`),
    and the columns are packed as the digits of base `_radix(scan)`; without
    null goods the base is 1, so the packing is the total.  A level adds the
    terms of each pair of bundles it completes.  The innermost loop splits
    the goods left between the last two bundles X_a and X_b, X_b = rest ^
    X_a, and reads the terms of every earlier bundle but the last with X_a
    and X_b from the tables `A` and `B` that the levels above built for the
    submasks of the goods they left.  The terms of the pair (a, b) itself
    depend on the split alone, not on the prefix above it, so they are
    computed once per distinct `rest` and kept in `splits`, with the split
    lists and the values of X_a and X_b, for every prefix that leaves the
    same goods; the class order and the empty bundles pick a slice of them.
    Without null goods the lists leave out the two splits with an empty
    bundle, which no walk takes.  Each list of `splits` holds at most one
    entry per submask of its `rest`, so each kind holds at most sum over
    rest of 2^|rest| = 3^m entries for m core goods.  So a split pays four
    bisects whatever n is, and two more the first time its `rest` comes up.
    """
    n, z = scan.n, len(scan.null)
    full = (1 << scan.m) - 1
    tally: Counter[int] = Counter()
    best = None
    if n == 1:
        if full in firsts:
            tally[0] = 1
            if 0 in wanted:
                best = rank((full,))
        return tally, best

    order = scan.order
    tables = [scan.tables[agent] for agent in order]
    rows = [scan.rows[agent] for agent in order]
    radix = _radix(scan)
    digits = [radix**agent for agent in order]
    at = {agent: p for p, agent in enumerate(order)}
    prev = [-1] * n  # the position of the class member before each position
    for members in scan.classes:
        for before, agent in zip(members, members[1:]):
            prev[at[agent]] = at[before]

    a, b, last = n - 2, n - 1, n - 3
    pa, pb = prev[a], prev[b]
    tab_a, tab_b, rows_a, rows_b = tables[a], tables[b], rows[a], rows[b]
    da, db = digits[a], digits[b]
    zero = [0] * (full + 1)  # the tables A and B before any level adds to them
    no_rows = [()] * (full + 1)  # the rows of the missing last level when n == 2
    batch: list[int] = []
    splits: dict[int, tuple[list[int], ...]] = {}  # see the docstring

    def inner(rest, X, O, base, A, B, left, only=None):
        """Tally every split of `rest` between X_a and X_b below the prefix X, O."""
        nonlocal best
        must_b = rest & ~_below(X[pa]) if pa >= 0 else 0
        if pb == a:
            must_a = 1 << rest.bit_length() >> 1
        else:
            must_a = rest & ~_below(X[pb]) if pb >= 0 else 0
        if must_a & must_b:
            return
        terms = splits.get(rest)
        if terms is None:
            xa = submasks(rest)
            if not z:  # no bundle may stay empty
                xa = xa[1:-1]
            xb = xa[::-1]
            ta = list(map(tab_a.__getitem__, xa))
            tb = list(map(tab_b.__getitem__, xb))
            mutual = [
                bisect_right(rows_b[x], t_b) * da + bisect_right(rows_a[y], t_a) * db
                for x, y, t_a, t_b in zip(xa, xb, ta, tb)
            ]
            terms = splits[rest] = xa, xb, ta, tb, mutual
        # must_a and must_b are each empty or the goods of rest above some good: the
        # X_a holding must_a are the last submasks, those leaving must_b to X_b the first
        count = 1 << rest.bit_count()
        start = count - (count >> must_a.bit_count())
        stop = count >> must_b.bit_count()
        if not left:  # neither bundle may stay empty
            start, stop = start + (not must_a), stop - (not must_b)
        if not z:
            start, stop = start - 1, stop - 1
        if start or stop < len(terms[0]):
            terms = [column[start:stop] for column in terms]
        if only is not None:
            keep = [x in only for x in terms[0]]
            terms = [list(compress(column, keep)) for column in terms]
        xa, xb, ta, tb, mutual = terms
        if last >= 0:
            rl, ol, dl = rows[last], O[last], digits[last]
            ral, rbl = rows_a[X[last]], rows_b[X[last]]
        else:
            rl, ol, dl, ral, rbl = no_rows, 0, 0, (), ()
        sums = [
            base + A[x] + B[y] + mu
            + bisect_right(rl[x], ol) * da + bisect_right(rl[y], ol) * db
            + (bisect_right(ral, t_a) + bisect_right(rbl, t_b)) * dl
            for x, y, t_a, t_b, mu in zip(xa, xb, ta, tb, mutual)
        ]
        batch.extend(sums)
        if len(batch) > 4096:
            tally.update(batch)
            batch.clear()
        if wanted and not wanted.isdisjoint(sums):
            bundles = [0] * n
            for p in range(a):
                bundles[order[p]] = X[p]
            for x, y, packed in zip(xa, xb, sums):
                if packed in wanted:
                    bundles[order[a]], bundles[order[b]] = x, y
                    found = rank(tuple(bundles))
                    if best is None or found < best:
                        best = found

    def level(d, rest, X, O, base, A, B, left, choices):
        """Fix X_d to each of `choices` in turn and walk the levels below."""
        table, own_rows, digit = tables[d], rows[d], digits[d]
        nxt = d + 1
        for sub in choices:
            if not (sub or left):
                continue
            after = rest ^ sub
            spare = left - (not sub)
            if after.bit_count() + spare < n - nxt:
                continue
            own = table[sub]
            packed = base
            held = 0
            for i in range(d):
                held += bisect_right(rows[i][sub], O[i])
                packed += bisect_right(own_rows[X[i]], own) * digits[i]
            packed += held * digit
            X[d], O[d] = sub, own
            if d == last:
                inner(after, X, O, packed, A, B, spare)
                continue
            p = prev[nxt]
            avail = after & _below(X[p]) if p >= 0 else after
            if not (avail or spare):
                continue
            ra, rb = rows_a[sub], rows_b[sub]
            subs = submasks(after)
            A2 = {
                y: A[y] + bisect_right(own_rows[y], own) * da + bisect_right(ra, tab_a[y]) * digit
                for y in subs
            }
            B2 = {
                y: B[y] + bisect_right(own_rows[y], own) * db + bisect_right(rb, tab_b[y]) * digit
                for y in subs
            }
            level(nxt, after, X, O, packed, A2, B2, spare, submasks(avail)[::-1])

    X, O = [0] * n, [0] * n
    if n == 2:
        inner(full, X, O, 0, zero, zero, z, set(firsts))
    else:
        level(0, full, X, O, 0, zero, zero, z, sorted(firsts, reverse=True))
    tally.update(batch)
    return tally, best


def _coded(n: int, bundles: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The owner code of an allocation, sum of owner * n^g over the goods g, with its bundles."""
    return sum(j * n**g for j, bundle in enumerate(bundles) for g in goods(bundle)), bundles


def _scan_part(scan: _Scan, firsts: Sequence[int]) -> tuple[dict[int, int], tuple | None]:
    """The histogram of violated conditions over the orbits whose first walked bundle is
    in `firsts`, and the lowest (owner code, bundles) of an EFX allocation there, or None.

    The conditions are those of `fairness.efx_conditions`; one C-level
    bisect into a row of `fairness.removal_table` counts those of an agent
    pair that hold.  The bundles partition the m goods, so the pairs j != i
    of agent i cover m - |X_i| conditions and all pairs cover (n - 1) * m;
    the violations are that total minus what `_walk` tallies.
    Walked allocations with equal tallies count alike, so each tally key is
    read once (`_reader`), and `_hand_outs` counts the allocations it stands
    for, orbits and hand-outs of null goods included.  The witness is the
    least `_lowest_completion` of a walked allocation that stands for an EFX
    one.  Without null goods the EFX key, the held total (n - 1) * m, is
    known before the walk, so the tally walk finds the witness; with them,
    only a part holding an EFX allocation walks again, for the keys that
    read as one.  Tests hold the scan to `fairness.violated_condition_count`
    and to a scan of every code.
    """
    rank = partial(_lowest_completion, scan)
    tally, best = _walk(scan, firsts, set() if scan.null else {(scan.n - 1) * scan.m}, rank)
    read = _reader(scan)
    patterns: dict[tuple[tuple[bool, ...], tuple[int, ...]], dict[int, int]] = {}
    for sums, count in tally.items():
        violations, pattern = read(sums)
        by_violations = patterns.setdefault(pattern, {})
        by_violations[violations] = by_violations.get(violations, 0) + count
    hist: dict[int, int] = {}
    efx_readings = set()
    for pattern, by_violations in patterns.items():
        added = _hand_outs(scan, *pattern)
        for violations, count in by_violations.items():
            for extra, ways in added.items():
                hist[violations + extra] = hist.get(violations + extra, 0) + count * ways
        if 0 in by_violations and 0 in added:
            efx_readings.add((0, pattern))
    if efx_readings and best is None:
        efx_sums = {sums for sums in tally if read(sums) in efx_readings}
        _, best = _walk(scan, firsts, efx_sums, rank)
    return hist, best


def _radix(scan: _Scan) -> int:
    """K * n^2 for K = (n-1)m + 1: a column is h + K*q with h < K and q < n^2.  Without
    null goods it is 1, and the packing is the held total."""
    return ((scan.n - 1) * scan.m + 1) * scan.n**2 if scan.null else 1


def _reader(scan: _Scan) -> Callable[[int], tuple[int, tuple[tuple[bool, ...], tuple[int, ...]]]]:
    """`read(sums)`: the core violations of a code with packed column sums `sums`, and its
    envy pattern: which core bundles are empty, and how many agents envy each.

    A column h + K*q reads as h held conditions, an empty bundle when q >= n,
    and n - 1 - q mod n envious agents; those readings are tabled once over
    every column value below the radix.  Without null goods `sums` is the
    held total, and the pattern has no empty bundle and counts no envy.
    """
    n, conditions = scan.n, (scan.n - 1) * scan.m
    if not scan.null:
        return lambda held: (conditions - held, ((False,) * n, (0,) * n))
    marks = conditions + 1
    radix = _radix(scan)
    columns = [
        (h, q >= n, n - 1 - q % n) for q, h in map(divmod, range(radix), repeat(marks))
    ]

    def read(sums: int) -> tuple[int, tuple[tuple[bool, ...], tuple[int, ...]]]:
        held = 0
        empty = []
        envied = []
        for _ in range(n):
            sums, column = divmod(sums, radix)
            h, is_empty, envy = columns[column]
            held += h
            empty.append(is_empty)
            envied.append(envy)
        return conditions - held, (tuple(empty), tuple(envied))

    return read


def _hand_outs(scan: _Scan, empty: tuple[bool, ...], envied: tuple[int, ...]) -> dict[int, int]:
    """The allocations a core code stands for, by the violated conditions the null goods add.

    Handing z_j of the z null goods to agent j adds z_j * E_j violated
    conditions, where E_j = `envied[j]` counts the agents i != j with
    v_i(X_j) > v_i(X_i): removing a null good from X_j leaves v_i(X_j).  An
    empty core bundle needs z_j >= 1.  Each hand-out stands for z! / prod
    z_j! allocations, times the orbit size, prod k_c! / prod t_c! with t_c
    the members of class c whose core bundles are empty, since those tie.
    Without null goods that is the orbit size, with no violation added.
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

    Without null goods that is the walked allocation itself, the lowest
    code of its orbit.  Otherwise, over each orbit image of the core
    bundles, the null goods may go only to agents nobody envies and must
    fill the empty bundles; the lowest code hands them out lowest owner
    first, from the highest null good down.
    """
    n = scan.n
    if not scan.null:
        return _coded(n, bundles)
    tables = scan.tables
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
        completions.append(_coded(n, tuple(full)))
    return min(completions)


def _shares(scan: _Scan, jobs: int) -> list[list[int]]:
    """The first walked agent's bundles dealt into at most `jobs` shares of about equal work.

    A first bundle X leaves its rest to the other n - 1 agents, and the k
    later members of its class take only goods below the top good of X.
    The walk under X is estimated by the assignments of the rest that leave
    no more agents without a good than the null goods allow, counted by
    inclusion-exclusion over the agents left without one.  The bundles go,
    largest estimate first, each to the share with the least estimated work
    so far (the lowest such share on a tie).  Each share lists its bundles
    descending, as `_walk` takes them.
    """
    n, full, z = scan.n, (1 << scan.m) - 1, len(scan.null)
    if jobs == 1:
        return [submasks(full)[::-1]]
    later = next((len(c) - 1 for c in scan.classes if c[0] == scan.order[0]), 0)
    others = n - 1 - later

    def onto(held: int, free: int, low: int, high: int) -> int:
        """Assignments of low + high goods giving a good to each of `held` agents, who
        take only the low goods, and of `free` agents."""
        return sum(
            (-1) ** (i + j) * comb(held, i) * comb(free, j)
            * (held - i + free - j) ** low * (free - j) ** high
            for i in range(held + 1)
            for j in range(free + 1)
        )

    @cache
    def estimate(low: int, high: int, spare: int) -> int:
        return sum(
            comb(later, i) * comb(others, j) * onto(later - i, others - j, low, high)
            for i in range(later + 1)
            for j in range(others + 1)
            if i + j <= spare
        )

    def work(bundle: int) -> int:
        rest = full ^ bundle
        low = (rest & _below(bundle)).bit_count()
        return estimate(low, rest.bit_count() - low, z - (not bundle))

    shares: list[list[int]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    # a stable sort: equal estimates keep the descending order of the bundles
    for bundle in sorted(submasks(full)[::-1], key=work, reverse=True):
        share = loads.index(min(loads))
        shares[share].append(bundle)
        loads[share] += work(bundle)
    return [sorted(share, reverse=True) for share in shares if share]


def verify(valuations: Sequence[Valuation], jobs: int = 1) -> VerifyReport:
    """Scan all complete non-empty allocations of the instance, one per orbit.

    Agents with equal value tables form classes; the scan visits the lowest
    code of each orbit of bundle swaps within the classes and weights it by
    the orbit size, so the report equals that of a scan of every code.  The
    value and removal tables are built once, one removal table per distinct
    valuation, before any worker starts.  Null goods, which change no
    agent's value of any set, are factored out: the scan runs over the
    other goods, letting as many bundles stay empty as there are null
    goods, and counts the ways to hand the null goods out.  With jobs > 1
    the first walked agent's bundles are dealt into shares of about equal
    work (`_shares`), one per worker process, with at most one worker per
    CPU this process may use (`usable_cpus`); the merged report is
    identical to a serial scan.  `jobs` below 1 raises `JobCountOutOfRange`,
    and `shared_good_count` refuses an empty list or mixed good counts.
    The `monotone` flags are read from the scanned tables: the two valuation
    classes are monotone when made, so a False flag marks another `Valuation`.
    """
    check_job_count(jobs)
    n, m = len(valuations), shared_good_count(valuations)
    expected = count_allocations(n, m)
    tables = value_tables(valuations)
    monotone = tuple(monotonicity_violation(table, m) is None for table in tables)
    classes = identical_classes(tables)
    scan = _scan_plan(tables, m, classes)

    shares = _shares(scan, min(jobs, usable_cpus()))
    if len(shares) == 1:
        parts = [_scan_part(scan, shares[0])]
    else:
        with Pool(processes=len(shares)) as pool:
            parts = pool.starmap(_scan_part, [(scan, share) for share in shares])

    report = VerifyReport(n, m, monotone, *_summed(parts))
    if report.total_allocations != expected:
        raise AssertionError(f"scanned {report.total_allocations} allocations, expected {expected}")
    return report


def _summed(parts: Sequence[tuple]) -> tuple[dict[int, int], tuple[int, ...] | None]:
    """The histogram of a scan from its parts' (`_scan_part`), and the bundles of the
    lowest-coded EFX allocation among theirs."""
    hist: Counter[int] = Counter()
    for part, _ in parts:
        hist.update(part)
    found = [best for _, best in parts if best is not None]
    return dict(hist), min(found)[1] if found else None


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one,
    else the CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_job_count(jobs: int) -> None:
    """A scan needs at least one job."""
    if jobs < 1:
        raise JobCountOutOfRange(f"need jobs >= 1, got {jobs}")


# -- analytics -----------------------------------------------------------------

def marginal_values(v: RankValuation, good: int, result_size: int) -> list[int]:
    """Marginals v(S + good) - v(S) across all S with |S + good| = result_size.

    S ranges over the sets of size result_size - 1 that do not contain the
    good, so the multiset has C(m-1, result_size-1) entries, sorted ascending.
    A good outside 0..m-1 raises `IndexOutOfRange`, a size outside 1..m `GoodCountOutOfRange`.
    """
    if not 0 <= good < v.m:
        raise IndexOutOfRange(f"good {good} out of range")
    if not 1 <= result_size <= v.m:
        raise GoodCountOutOfRange(f"result size {result_size} out of range")
    bit = 1 << good
    values = sorted(
        v.rank[mask | bit] - v.rank[mask]
        for mask in range(1 << v.m)
        if not mask & bit and cardinality(mask) == result_size - 1
    )
    return values


def _split_ranks(rank: Sequence[int], ground: int) -> list[tuple[int, int, int, int]]:
    """(a, b, low, high) for each split of `ground` into a < b = ground ^ a, with low and
    high the lesser and greater of v(a), v(b).

    Split (a, b) and split (c, d) violate MMS when low_ab > high_cd; the two
    splits then differ, as low <= high within a split.
    """
    splits = []
    for a in submasks(ground):
        b = ground ^ a
        if a < b:
            splits.append((a, b, *sorted((rank[a], rank[b]))))
    return splits


def find_mms_violations(v: RankValuation) -> list[tuple[int, int, int, int]]:
    """The canonical witnesses that v is not MMS-feasible.

    Lists (a, b, c, d) with a|b == c|d, a&b == 0 == c&d, and
    min(v(a), v(b)) > max(v(c), v(d)); within each pair the smaller set
    number comes first, and each unordered pair of splits is visited once
    (ground sets ascending, splits by ascending first part).
    """
    found = []
    for ground in range(1 << v.m):
        splits = _split_ranks(v.rank, ground)
        for i, (a, b, low_ab, high_ab) in enumerate(splits):
            for c, d, low_cd, high_cd in splits[i + 1 :]:
                if low_ab > high_cd:
                    found.append((a, b, c, d))
                elif low_cd > high_ab:
                    found.append((c, d, a, b))
    return found


def count_mms_violation_tuples(v: RankValuation) -> int:
    """Ordered quadruples (A, B, C, D) meeting the violation condition.

    Each canonical witness corresponds to four ordered quadruples (either
    pair may be written in either order), which is the count the condition
    itself defines.  Per ground set, a split (a, b) is the upper pair of one
    witness for each split whose high is below its low, so one sort of the
    highs and a bisect per split count them in O(k log k) for k splits.
    """
    count = 0
    for ground in range(1 << v.m):
        splits = _split_ranks(v.rank, ground)
        highs = sorted(high for _, _, _, high in splits)
        count += sum(map(bisect_left, repeat(highs), (low for _, _, low, _ in splits)))
    return 4 * count
