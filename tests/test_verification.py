import hashlib
import itertools
import json
import random
from bisect import bisect_right
from math import factorial, prod
from types import SimpleNamespace

import pytest

from efxlab import verification
from efxlab.allocations import Allocation, count_allocations, enumerate_bundle_tuples
from efxlab.bitset import goods, submasks
from efxlab.decoding import load_bundled_counterexample
from efxlab.errors import AgentCountOutOfRange, ArityMismatch, JobCountOutOfRange
from efxlab.fairness import is_efx, violated_condition_count
from efxlab.submodular import add_dummy_goods, extend_counterexample
from efxlab.three_agent import equalize_for_valuation
from efxlab.valuations import (
    RealValuation,
    monotonicity_violation,
    random_monotone_rank_valuation,
)
from efxlab.verification import (
    VerifyReport,
    _coded,
    _scan_part,
    _scan_plan,
    _shares,
    _summed,
    _walk,
    count_mms_violation_tuples,
    find_mms_violations,
    identical_classes,
    marginal_values,
    null_goods,
    value_tables,
    verify,
)

from conftest import all_allocations, as_real, numeric_order_valuation

FEATURED_QUAD = (0b00000110, 0b10010001, 0b00010100, 0b10000011)


def test_counterexample_verification_report():
    report = verify(load_bundled_counterexample())
    assert report.monotone == (True, True, True)
    assert report.total_allocations == 5796
    assert report.efx_count == 0
    assert report.first_efx_witness is None
    assert report.violation_histogram.get(0, 0) == 0
    assert report.violation_histogram[1] == 272
    assert sum(report.violation_histogram.values()) == 5796


def test_parallel_scan_matches_serial():
    vals = load_bundled_counterexample()
    serial = verify(vals, jobs=1)
    parallel = verify(vals, jobs=3)
    assert serial == parallel


def test_report_matches_fairness_predicates_on_small_instance():
    """The table-driven scan against the EFX-condition kernel, allocation by allocation.

    Instances: a random m=4 one, the same with two worthless goods added (so
    values tie), the bundled m=8 counterexample (5,796 allocations) and four
    random n=4, m=6 ones (1,560 allocations each).
    """
    instances = [[random_monotone_rank_valuation(4, 500 + j) for j in range(3)]]
    instances.append(add_dummy_goods([as_real(v) for v in instances[0]], 2))
    instances.append(load_bundled_counterexample())
    for seed in range(4):
        instances.append([random_monotone_rank_valuation(6, 40 * seed + j) for j in range(4)])
    for vals in instances:
        n, m = len(vals), vals[0].m
        report = verify(vals)
        histogram: dict[int, int] = {}
        for allocation in all_allocations(n, m):
            count = violated_condition_count(allocation, vals)
            histogram[count] = histogram.get(count, 0) + 1
        assert report.violation_histogram == histogram
        assert report.total_allocations == count_allocations(n, m)

        expected = sum(1 for a in all_allocations(n, m) if is_efx(a, vals))
        assert report.efx_count == expected == histogram.get(0, 0)
        if expected:
            assert is_efx(Allocation(m, report.first_efx_witness), vals)


def test_report_bytes_are_pinned(monkeypatch):
    """sha256 of the JSON report, serially and with 2 and 3 workers.

    Instances: the counterexample, the n=4, m=9 extension, and the extension
    plus one dummy good.
    """
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    counterexample = load_bundled_counterexample()
    extension = extend_counterexample(counterexample, 4)
    digests = {
        "8207f714ae92243b9f6afd2bbb587073bd4eb54cb4307332d06941ab3f2a4b62": counterexample,
        "38237044f16886b92cdbd7a6eda08cc451d75114cade63960e3f798f0c72062b": extension,
        "83713fdb96c1b9232e7640a7bd4355f385ed50008b757011dea319c1a2aee8ce": add_dummy_goods(
            extension, 1
        ),
    }
    for digest, vals in digests.items():
        for jobs in (1, 2, 3):
            report = verify(vals, jobs=jobs).to_json()
            assert hashlib.sha256(report.encode()).hexdigest() == digest, jobs


def test_reports_with_a_witness_are_pinned(monkeypatch):
    """sha256 of JSON reports that carry an EFX witness, serially and with 2 and 3 workers.

    Instances: a random m=6 triple; the same plus two dummy goods, whose
    witness holds null goods; and an n=4 instance in which three agents
    share one valuation.
    """
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    triple = [random_monotone_rank_valuation(6, 960 + j) for j in range(3)]
    u, v = (random_monotone_rank_valuation(6, 970 + j) for j in range(2))
    digests = {
        "5cc7659ba680e20c65c2fe57d41689185a496ab78b8fc54ac2c56846f9239b00": triple,
        "420662b85d611466f5c5fde76559be66cb9e09d5a9a4839c2e614334b745c272": add_dummy_goods(
            [as_real(x) for x in triple], 2
        ),
        "73e30f37c3a22565c9588c8f38edbd6c8e036b5bce82dc1b64b843329eff0b81": [u, v, v, v],
    }
    for digest, vals in digests.items():
        for jobs in (1, 2, 3):
            report = verify(vals, jobs=jobs)
            assert report.first_efx_witness is not None
            assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest, jobs


def _full_scan(vals):
    """Reference: every owner code scanned one by one, each agent with its own removal table."""
    n, m = len(vals), vals[0].m
    tables = value_tables(vals)
    removal = [
        [sorted(table[bundle ^ (1 << g)] for g in goods(bundle)) for bundle in range(1 << m)]
        for table in tables
    ]
    agents = [(i, tables[i], removal[i], tuple(j for j in range(n) if j != i)) for i in range(n)]
    conditions = (n - 1) * m
    hist: dict[int, int] = {}
    witness = None
    for bundles in enumerate_bundle_tuples(n, m):
        held = 0
        for i, table, rows, others in agents:
            own = table[bundles[i]]
            for j in others:
                held += bisect_right(rows[bundles[j]], own)
        violations = conditions - held
        hist[violations] = hist.get(violations, 0) + 1
        if violations == 0 and witness is None:
            witness = bundles
    monotone = tuple(monotonicity_violation(table, m) is None for table in tables)
    return VerifyReport(n, m, monotone, hist, witness)


def _instances_with_identical_agents():
    """Classes of 2 (adjacent or not) and 3, one of 3 beside one of 2, and tied values."""
    u, v, w = (random_monotone_rank_valuation(6, 700 + j) for j in range(3))
    yield [u, v, v]
    yield [v, u, v]
    yield [v, v, v]
    yield [u, v, v, v]
    yield [v, w, v, w, v]
    small = [random_monotone_rank_valuation(4, 710 + j) for j in range(2)]
    yield add_dummy_goods([as_real(small[0]), as_real(small[1]), as_real(small[1])], 2)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_orbit_scan_matches_the_full_scan(monkeypatch, jobs):
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    for vals in _instances_with_identical_agents():
        assert identical_classes(value_tables(vals))
        report = verify(vals, jobs=jobs)
        reference = _full_scan(vals)
        assert report.to_json() == reference.to_json()
        assert report == reference


def _instances_with_efx():
    v = random_monotone_rank_valuation(4, 5)
    yield [v, v]
    a, b = (random_monotone_rank_valuation(6, 720 + j) for j in range(2))
    yield [a, b, a, b, a]
    for seed in range(3):
        yield [random_monotone_rank_valuation(5, 10 * seed + j) for j in range(3)]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_witness_is_first_efx_allocation_in_code_order(monkeypatch, jobs):
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    for vals in _instances_with_efx():
        n, m = len(vals), vals[0].m
        first = next(a for a in all_allocations(n, m) if is_efx(a, vals))
        report = verify(vals, jobs=jobs)
        assert report.efx_count > 0
        assert report.first_efx_witness == first.bundles


def _merged(parts, n, m):
    return VerifyReport(n, m, (), *_summed(parts))


def _orbit(bundles, classes, n):
    """Codes of every allocation reached by permuting bundles within the classes."""
    codes = set()
    for perms in itertools.product(*(itertools.permutations(c) for c in classes)):
        moved = list(bundles)
        for members, perm in zip(classes, perms):
            for a, b in zip(members, perm):
                moved[b] = bundles[a]
        codes.add(sum(owner * n**g for owner, bundle in enumerate(moved) for g in goods(bundle)))
    return codes


def test_scan_shares_of_first_bundles_merge_to_the_full_scan():
    rng = random.Random(11)
    for vals in _instances_with_efx():
        n, m = len(vals), vals[0].m
        tables = value_tables(vals)
        classes = identical_classes(tables)
        scan = _scan_plan(tables, m, classes)
        firsts = list(range(1 << m))
        full = _merged([_scan_part(scan, firsts)], n, m)
        rng.shuffle(firsts)
        cuts = sorted(rng.sample(range(1, len(firsts)), 5))
        shares = [firsts[a:b] for a, b in itertools.pairwise([0, *cuts, len(firsts)])]
        assert _merged([_scan_part(scan, share) for share in shares], n, m) == full

        # A share counts the orbits whose lowest code gives the first walked
        # agent one of its bundles, each weighted by its size.  Without
        # identical agents every orbit is one code, and this is the
        # allocation-by-allocation count.
        first = scan.order[0]
        share = set(shares[0] + shares[1])
        hist, best = _scan_part(scan, share)
        expected: dict[int, int] = {}
        efx_codes = []
        efx_weight = 0
        for c, bundles in (_coded(n, bundles) for bundles in enumerate_bundle_tuples(n, m)):
            orbit = _orbit(bundles, classes, n)
            assert c in orbit
            if c != min(orbit) or bundles[first] not in share:
                continue
            count = violated_condition_count(Allocation(m, bundles), vals)
            expected[count] = expected.get(count, 0) + len(orbit)
            if count == 0:
                efx_codes.append((c, bundles))
                efx_weight += len(orbit)
        assert classes or efx_weight == len(efx_codes)
        assert (sum(hist.values()), hist.get(0, 0), hist) == (sum(expected.values()), efx_weight, expected)
        assert best == (efx_codes[0] if efx_codes else None)


class _RecordingPool:
    """Stands in for `multiprocessing.Pool`: records its size and shares, runs in-process."""

    calls: list[tuple[int, int]] = []
    shares: list[list[int]] = []

    def __init__(self, processes):
        self.processes = processes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, args):
        self.calls.append((self.processes, len(args)))
        self.shares.extend(share for _, share in args)
        return list(itertools.starmap(func, args))


@pytest.mark.parametrize("cpus,pools", [(2, [(2, 2)]), (3, [(3, 3)]), (None, [])])
def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, pools):
    """Without an affinity call the CPU count caps the pool, and an unknown count means one."""
    vals = [random_monotone_rank_valuation(4, 30 + j) for j in range(3)]
    monkeypatch.setattr(verification, "Pool", _RecordingPool)
    monkeypatch.delattr(verification.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    assert verify(vals, jobs=5000) == verify(vals, jobs=1)
    assert _RecordingPool.calls == pools


@pytest.mark.parametrize("allowed,pools", [({0, 1}, [(2, 2)]), ({5}, [])])
def test_worker_pool_is_capped_at_the_cpus_this_process_may_use(monkeypatch, allowed, pools):
    vals = [random_monotone_rank_valuation(4, 30 + j) for j in range(3)]
    monkeypatch.setattr(verification, "Pool", _RecordingPool)
    monkeypatch.setattr(verification.os, "sched_getaffinity", lambda pid: allowed, raising=False)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    assert verify(vals, jobs=5000) == verify(vals, jobs=1)
    assert _RecordingPool.calls == pools


@pytest.mark.parametrize("jobs", [2, 3])
def test_parallel_shares_balance_the_walk(monkeypatch, jobs):
    """The shares split the first walked agent's bundles; each holds about as many orbits.

    The second instance has a null good, so its shares walk the other five
    goods, and their allocations may leave one bundle empty.
    """
    u, v, w = (random_monotone_rank_valuation(6, 730 + j) for j in range(3))
    small = [as_real(random_monotone_rank_valuation(5, 740 + j)) for j in range(3)]
    padded = add_dummy_goods([small[0], small[1], small[2], small[1], small[2]], 1)
    for vals in ([u, v, w, v, w], padded):
        tables = value_tables(vals)
        scan = _scan_plan(tables, vals[0].m, identical_classes(tables))
        monkeypatch.setattr(verification, "Pool", _RecordingPool)
        monkeypatch.setattr(verification, "usable_cpus", lambda: jobs)
        monkeypatch.setattr(_RecordingPool, "calls", [])
        monkeypatch.setattr(_RecordingPool, "shares", [])
        assert verify(vals, jobs=jobs) == _full_scan(vals)
        assert _RecordingPool.calls == [(jobs, jobs)]
        shares = _RecordingPool.shares
        assert shares == _shares(scan, jobs)
        assert sorted(b for share in shares for b in share) == list(range(1 << scan.m))
        assert all(share == sorted(share, reverse=True) for share in shares)
        orbits = [sum(_walk(scan, share)[0].values()) for share in shares]
        assert max(orbits) - min(orbits) <= max(orbits) // 20, orbits


def _moved(vals, order):
    """The instance with its goods relabelled: new good p is old good ``order[p]``."""
    m = vals[0].m
    old = [sum(1 << order[p] for p in range(m) if mask >> p & 1) for mask in range(1 << m)]
    return [RealValuation(m, tuple(v.value(mask) for mask in old)) for v in vals]


def _instances_with_null_goods():
    """z = 1 and z = 2 null goods, on top, at position 0 and in the middle, with and
    without identical agents; every instance has EFX allocations."""
    a, b, c = (as_real(random_monotone_rank_valuation(4, 750 + j)) for j in range(3))
    yield add_dummy_goods([a, b, c], 1)  # null good 4
    yield _moved(add_dummy_goods([a, b, c], 1), [4, 0, 1, 2, 3])  # null good 0
    yield _moved(add_dummy_goods([a, b, c], 2), [0, 1, 4, 2, 5, 3])  # null goods 2 and 4
    yield _moved(add_dummy_goods([a, b, b], 1), [0, 1, 4, 2, 3])  # null good 2, a class of 2
    yield _moved(add_dummy_goods([b, a, b], 2), [5, 0, 1, 4, 2, 3])  # null goods 0 and 3
    yield add_dummy_goods([a, a, a], 2)  # a class of 3; two members can tie on empty bundles
    d, e = (as_real(random_monotone_rank_valuation(3, 760 + j)) for j in range(2))
    yield _moved(add_dummy_goods([d, e, d, e], 2), [3, 0, 4, 1, 2])  # two classes of 2, n > m - z


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_factored_scan_matches_the_full_scan(monkeypatch, jobs):
    """Histogram, EFX count and witness with null goods factored out, against every code."""
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    seen = set()
    for vals in _instances_with_null_goods():
        tables = value_tables(vals)
        null = null_goods(tables, vals[0].m)
        seen.add((len(null), bool(identical_classes(tables))))
        report = verify(vals, jobs=jobs)
        reference = _full_scan(vals)
        assert reference.efx_count > 0
        assert report.to_json() == reference.to_json()
        assert report == reference
    assert seen == {(1, False), (2, False), (1, True), (2, True)}


def test_null_goods_are_found_wherever_they_sit():
    a, b, c = (as_real(random_monotone_rank_valuation(4, 750 + j)) for j in range(3))
    assert null_goods(value_tables([a, b, c]), 4) == ()
    padded = add_dummy_goods([a, b, c], 2)
    assert null_goods(value_tables(padded), 6) == (4, 5)
    moved = _moved(padded, [5, 0, 1, 4, 2, 3])
    assert null_goods(value_tables(moved), 6) == (0, 3)
    # a good worthless to some agents but not all is not null
    extension = extend_counterexample(load_bundled_counterexample(), 4)
    assert null_goods(value_tables(extension), 9) == ()
    assert null_goods(value_tables(add_dummy_goods(extension, 1)), 10) == (9,)


def _walk_shapes():
    """(instance, what it covers): the walk's outer levels, classes and null goods."""
    a, b, c = (random_monotone_rank_valuation(5, 770 + j) for j in range(3))
    yield [a], "n=1: one bundle, no pair"
    yield [a, b], "n=2: no outer level"
    yield [a, a], "n=2: the innermost pair is a class"
    yield [a, b, a], "agent 0 in a class with agent 2"
    yield [a, a, a], "a class of three, split between the outer level and the innermost pair"
    yield [b, a, a, a], "a class of three beside agent 0; the innermost pair mixes them"
    yield [a, b, a, b], "two classes; the innermost pair is the second"
    yield [a, b, c, a, b], "two classes and a third agent"
    d, e = (as_real(random_monotone_rank_valuation(3, 780 + j)) for j in range(2))
    yield add_dummy_goods([d], 2), "n=1 with null goods"
    yield add_dummy_goods([d, d, d], 1), "z=1, a class of three"
    yield add_dummy_goods([d, e, d], 2), "z=2, empty class members tie"
    yield add_dummy_goods([d, e, e, d], 3), "z=3, two classes; up to three bundles empty"
    yield _moved(add_dummy_goods([d, e], 3), [5, 0, 3, 1, 4, 2]), "z=3 scattered, n=2"
    for seed in range(2):
        f, g, h = (random_monotone_rank_valuation(5, 790 + 10 * seed + j) for j in range(3))
        yield [f, g, h], "many EFX allocations"
        yield [f, g, h, f], "many EFX allocations and a class"


@pytest.mark.parametrize("jobs", [1, 2, 3, 5000])
def test_walk_matches_the_full_scan(monkeypatch, jobs):
    """Whole reports, witness included, against a scan of every code, for every share count."""
    monkeypatch.setattr(verification, "Pool", _RecordingPool)
    monkeypatch.setattr(verification, "usable_cpus", lambda: 5000)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    monkeypatch.setattr(_RecordingPool, "shares", [])
    efx_rich = 0
    for vals, shape in _walk_shapes():
        report = verify(vals, jobs=jobs)
        reference = _full_scan(vals)
        assert report.to_json() == reference.to_json(), shape
        assert report == reference, shape
        efx_rich += reference.efx_count > reference.total_allocations // 10
    assert efx_rich >= 4
    sizes = [processes for processes, _ in _RecordingPool.calls]
    assert all(size <= jobs for size in sizes) and (jobs == 1) == (not sizes)


# (n, m, classes of interchangeable agents): a class of 2, non-adjacent
# members, a class of 3, and a class of 3 beside one of 2
CLASSED = [
    (2, 5, [(0, 1)]),
    (3, 6, [(0, 2)]),
    (3, 6, [(0, 1, 2)]),
    (4, 6, [(1, 3)]),
    (4, 7, [(2, 3)]),
    (5, 6, [(0, 2, 4), (1, 3)]),
    (4, 5, [(0, 1, 2, 3)]),
]


def _class_scan(n, m, classes, empty=0):
    """The scan plan of an additive instance whose class members share weights, plus
    `empty` null goods on top of the m core goods."""
    key = list(range(n))
    for members in classes:
        for agent in members:
            key[agent] = members[0]
    tables = []
    for agent in range(n):
        weights = [1 + g + 7 * key[agent] for g in range(m)]
        masks = range(1 << m + empty)
        tables.append([sum(w for g, w in enumerate(weights) if mask >> g & 1) for mask in masks])
    return _scan_plan(tables, m + empty, [tuple(members) for members in classes])


def _walked(scan, firsts):
    """The owner codes, over the core goods, of every allocation `_walk` visits."""
    tally, _ = _walk(scan, firsts)
    visited = []

    def record(bundles):
        visited.append(_coded(scan.n, bundles))
        return 0

    _walk(scan, firsts, set(tally), record)
    assert len(visited) == sum(tally.values())
    return sorted(visited)


def _every_first(scan):
    return list(range(1 << scan.m))


def filtered_bundles(n, m, classes, empty=0):
    """Reference: every code with at most `empty` empty bundles and each class's bundles
    decreasing, two empty bundles tying."""
    pairs = [pair for members in classes for pair in zip(members, members[1:])]
    for code in range(n**m):
        owners = [code // n**g % n for g in range(m)]
        bundles = tuple(sum(1 << g for g in range(m) if owners[g] == a) for a in range(n))
        if bundles.count(0) <= empty and all(bundles[a] >= bundles[b] for a, b in pairs):
            yield code, bundles


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_walk_visits_the_lowest_code_of_each_orbit(n, m, classes):
    """The walk skips every code that breaks a class pair, a whole subtree at a time, and
    visits the rest: one code per orbit, the lowest.  A subset of the first walked
    agent's bundles keeps exactly the codes that give that agent one of them."""
    scan = _class_scan(n, m, classes)
    every = list(filtered_bundles(n, m, classes))
    assert _walked(scan, _every_first(scan)) == every
    first = scan.order[0]
    rng = random.Random(n * 100 + m)
    for _ in range(4):
        firsts = rng.sample(_every_first(scan), 1 << m - 1)
        kept = [(c, b) for c, b in every if b[first] in firsts]
        assert _walked(scan, firsts) == kept


@pytest.mark.parametrize("n,m,classes", CLASSED)
def test_walk_and_its_shares_count_every_allocation(n, m, classes):
    """Walked codes times the orbit size count every allocation, and the parallel
    shares split the first walked agent's bundles, and the codes, without loss."""
    scan = _class_scan(n, m, classes)
    orbit = prod(factorial(len(members)) for members in classes)
    tally, _ = _walk(scan, _every_first(scan))
    assert sum(tally.values()) * orbit == count_allocations(n, m)
    for jobs in (2, 3, 4):
        shares = _shares(scan, jobs)
        assert len(shares) == jobs
        assert sorted(b for share in shares for b in share) == _every_first(scan)
        counts = [sum(_walk(scan, share)[0].values()) for share in shares]
        assert sum(counts) == sum(tally.values())


# (n, m, classes, empty bundles allowed): n may exceed m when enough may stay empty
WITH_EMPTY = [
    (2, 3, [(0, 1)], 1),
    (3, 4, [(0, 2)], 2),
    (3, 3, [(0, 1, 2)], 2),
    (4, 5, [(2, 3)], 1),
    (4, 3, [(0, 1), (2, 3)], 1),
    (5, 4, [(0, 2, 4), (1, 3)], 2),
    (3, 1, [], 2),
    (2, 0, [(0, 1)], 2),
    (4, 3, [(0, 1, 2, 3)], 1),
]


@pytest.mark.parametrize("n,m,classes,empty", WITH_EMPTY)
def test_codes_with_empty_bundles_match_filtering_every_code(n, m, classes, empty):
    """Up to `empty` bundles may stay empty, and two empty members of a class tie."""
    scan = _class_scan(n, m, classes, empty)
    assert (scan.m, len(scan.null)) == (m, empty)
    assert _walked(scan, _every_first(scan)) == list(filtered_bundles(n, m, classes, empty))


def test_jobs_below_one_are_refused():
    vals = [random_monotone_rank_valuation(4, 30 + j) for j in range(3)]
    for jobs in (0, -3):
        with pytest.raises(JobCountOutOfRange):
            verify(vals, jobs=jobs)


def test_verify_refuses_a_list_that_is_not_one_instance():
    with pytest.raises(AgentCountOutOfRange):
        verify([])
    vals = [random_monotone_rank_valuation(3, 1), random_monotone_rank_valuation(3, 2)]
    with pytest.raises(ArityMismatch, match=r"\[3, 3, 4\]"):
        verify([*vals, random_monotone_rank_valuation(4, 3)])


def test_every_good_null():
    """No core good at all: each allocation is a hand-out of the null goods, and all are EFX."""
    zero = RealValuation(3, (0,) * 8)
    for vals in ([zero, zero], [zero, zero, zero]):
        report = verify(vals)
        assert report == _full_scan(vals)
        assert report.efx_count == count_allocations(len(vals), 3)


def test_identical_two_agent_instance_has_efx():
    v = random_monotone_rank_valuation(4, 5)
    assert verify([v, v]).efx_count >= 1


def test_equalized_identical_instance_contains_efx_allocation():
    v = random_monotone_rank_valuation(5, 77)
    bundles = equalize_for_valuation((0b00111, 0b01000, 0b10000), v)
    assert is_efx(Allocation(5, bundles), [v, v, v])


def test_report_text_and_json_forms():
    report = verify([random_monotone_rank_valuation(4, 1)] * 3)
    text = report.to_text()
    assert "EFX count" in text
    payload = json.loads(report.to_json())
    assert payload["allocations_scanned"] == report.total_allocations


def test_marginal_values_of_lowest_good():
    v0 = load_bundled_counterexample()[0]
    at_four = marginal_values(v0, 0, 4)
    assert (min(at_four), max(at_four)) == (11, 131)
    assert len(at_four) == 35
    at_three = marginal_values(v0, 0, 3)
    assert 10 in at_three
    assert len(at_three) == 21


def test_marginal_multiset_size():
    v = random_monotone_rank_valuation(5, 4)
    from math import comb

    for size in (1, 3, 5):
        assert len(marginal_values(v, 2, size)) == comb(4, size - 1)


def test_featured_mms_quadruple_is_found_with_reported_values():
    v0 = load_bundled_counterexample()[0]
    quads = find_mms_violations(v0)
    assert FEATURED_QUAD in quads
    a, b, c, d = FEATURED_QUAD
    assert (v0.rank[a], v0.rank[b], v0.rank[c], v0.rank[d]) == (77, 59, 40, 53)


def test_mms_violation_totals():
    v0 = load_bundled_counterexample()[0]
    canonical = len(find_mms_violations(v0))
    assert canonical == 1363
    assert count_mms_violation_tuples(v0) == 4 * canonical
    assert count_mms_violation_tuples(v0) > 1500


def test_mms_violations_respect_limit_and_shape():
    v0 = load_bundled_counterexample()[0]
    quads = find_mms_violations(v0)[:25]
    assert len(quads) == 25
    for a, b, c, d in quads:
        assert a | b == c | d and a & b == 0 and c & d == 0
        assert a < b and c < d
        assert min(v0.rank[a], v0.rank[b]) > max(v0.rank[c], v0.rank[d])


def test_numeric_orderable_valuation_has_no_mms_violations():
    assert find_mms_violations(numeric_order_valuation(3)) == []
    assert find_mms_violations(numeric_order_valuation(4)) == []


def _brute_force_report(vals):
    """Reference: every allocation, its violations counted by the fairness predicates."""
    n, m = len(vals), vals[0].m
    hist: dict[int, int] = {}
    witness = None
    for allocation in all_allocations(n, m):
        count = violated_condition_count(allocation, vals)
        hist[count] = hist.get(count, 0) + 1
        if count == 0 and witness is None:
            witness = allocation.bundles
    monotone = tuple(monotonicity_violation(table, m) is None for table in value_tables(vals))
    return VerifyReport(n, m, monotone, hist, witness)


def _random_instances(seed, count):
    """Random instances with n = 2..5 agents, all identical, in classes of 2 or 3, or all
    distinct, and 0..2 null goods at random positions; at most ~4,000 allocations each."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        z = rng.randint(0, 2)
        core = max(m for m in range(3, 8) if n**m <= 4096) - z
        shape = rng.choice(["identical", "classes", "distinct"])
        if shape == "identical":
            sizes = [n]
        elif shape == "classes":
            sizes = []
            while sum(sizes) < n:
                sizes.append(min(rng.choice([1, 2, 2, 3]), n - sum(sizes)))
            if max(sizes) < 2:
                sizes = [2, *sizes[2:]]
        else:
            sizes = [1] * n
        owners = [k for k, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(owners)
        base = rng.randrange(1 << 20)
        kinds = [as_real(random_monotone_rank_valuation(core, base + k)) for k in range(len(sizes))]
        vals = add_dummy_goods([kinds[k] for k in owners], z)
        order = list(range(core + z))
        rng.shuffle(order)
        yield _moved(vals, order), (n, core, z, shape)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_scan_matches_the_fairness_predicates_on_random_instances(monkeypatch, jobs):
    """The split cache, its slices and the table-read columns against a brute-force scan."""
    monkeypatch.setattr(verification, "usable_cpus", lambda: 3)  # jobs chunks on any host
    seen = set()
    for vals, shape in _random_instances(1900 + jobs, 24):
        tables = value_tables(vals)
        seen.add((shape[3], len(null_goods(tables, vals[0].m))))
        report = verify(vals, jobs=jobs)
        assert report.to_json() == _brute_force_report(vals).to_json(), shape
    assert {shape for shape, _ in seen} == {"identical", "classes", "distinct"}
    assert {z for _, z in seen} == {0, 1, 2}


def _reading_by_divmod(scan, sums):
    """Reference: the core violations and envy pattern of packed column sums, two divmods
    per column."""
    n = scan.n
    marks = (n - 1) * scan.m + 1
    radix = verification._radix(scan)
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


def test_column_tables_read_every_tally_as_divmod_does():
    """Every packed sum the walk tallies, on the dummy-good instance of the certify-m8
    benchmark and on instances with two null goods."""
    extension = extend_counterexample(load_bundled_counterexample(), 4)
    instances = [add_dummy_goods(extension, 1)]
    instances += [vals for vals, (_, _, z, _) in _random_instances(1950, 12) if z == 2]
    for vals in instances:
        tables = value_tables(vals)
        scan = _scan_plan(tables, vals[0].m, identical_classes(tables))
        assert scan.null
        tally, _ = _walk(scan, _every_first(scan)[::-1])
        read = verification._reader(scan)
        assert all(read(sums) == _reading_by_divmod(scan, sums) for sums in tally)
    assert len(instances) > 2


def _mms_tuples_by_definition(rank, m):
    """Reference: ordered (A, B, C, D) with A|B == C|D, A&B == 0 == C&D and
    min(v(A), v(B)) > max(v(C), v(D)), counted over ordered pairs of ordered splits."""
    count = 0
    for ground in range(1 << m):
        parts = submasks(ground)
        for a in parts:
            low = min(rank[a], rank[ground ^ a])
            count += sum(low > max(rank[c], rank[ground ^ c]) for c in parts)
    return count


@pytest.mark.parametrize("m", range(3, 8))
def test_mms_count_by_sorting_matches_the_pairwise_count(m):
    """Monotone rank valuations, and arbitrary rank permutations passed as stand-ins with only
    `m` and `rank`, which a `RankValuation` would refuse."""
    rng = random.Random(m)
    valuations = [random_monotone_rank_valuation(m, 60 + k) for k in range(3)]
    for _ in range(3):
        ranks = list(range(1 << m))
        rng.shuffle(ranks)
        valuations.append(SimpleNamespace(m=m, rank=tuple(ranks)))
    for v in valuations:
        count = count_mms_violation_tuples(v)
        assert count == 4 * len(find_mms_violations(v))
        if m <= 6:
            assert count == _mms_tuples_by_definition(v.rank, m)


def test_mms_counts_of_the_counterexample_are_pinned():
    counts = [count_mms_violation_tuples(v) for v in load_bundled_counterexample()]
    assert counts == [5452, 5124, 5192]
