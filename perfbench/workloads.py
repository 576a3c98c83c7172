"""The three benchmark workloads, their frozen figures, and their output checks.

Each workload has a spec (instance sizes plus the figures every pass must
reproduce), a ``setup`` that builds the inputs from the seed, and a ``run``
that makes one pass of public efxlab calls, each inside a span, and checks
every output.  The seed only orders the work or draws the random instances,
so every seed reproduces the same frozen figures.

* reduce-m6  - two README reproduction rows (m=6 k=5; m=6 k=4 with item
               order), each encoded to a DIMACS file, parsed and preprocessed,
               plus the m=7 SMT-LIB emission.
* refute-m6  - CDCL on two UNSAT encodings (m=6 k=3 with item order learns,
               restarts and reduces its clause database; m=5 without level)
               and on the m=6 k=4 consistency formula (SAT, decisions only)
               whose model is decoded and verified.
* certify-m8 - the bundled m=8 counterexample taken from an external model
               through decoding, exhaustive verification, submodular
               realization, the n=4 extension, one dummy good on top of it
               (scanned serially and with a worker pool), MMS analytics and
               the three-agent algorithm.
"""

from __future__ import annotations

import hashlib
import os
import random
import tempfile
from dataclasses import dataclass
from types import SimpleNamespace

from tracing import Tracer


def worker_count() -> int:
    """J = min(2, usable CPUs): the only concurrency in any workload."""
    return min(2, len(os.sched_getaffinity(0)))


class Checks:
    """Output checks of one run: every check is attempted once per pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, what: str, got: object, want: object) -> bool:
        return self.holds(what, got == want, f"got {got!r}, expected {want!r}")

    def holds(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{what}: {detail}" if detail else what)
        return ok


def preprocess(lib, formula, label: str, tracer: Tracer):
    """simplify.preprocess inside a span that carries its counters."""
    with tracer.span("simplify.preprocess", label) as span:
        result = lib.simplify.preprocess(formula)
        span.counts.update(
            units_fixed=result.stats.propagated_units,
            satisfied_removed=result.stats.satisfied_removed,
            subsumed_removed=result.stats.subsumed_removed,
            output_clauses=result.stats.output_clauses,
        )
    return result


# -- reduce-m6 ---------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One README reproduction row: clauses generated and left after preprocess."""

    m: int
    level_k: int | None
    item_order: bool
    clauses: int
    reduced: int


@dataclass(frozen=True)
class ReduceSpec:
    rows: tuple[Row, ...]
    smt_m: int
    smt_inequalities: int


REDUCE_M6 = ReduceSpec(
    rows=(Row(6, 5, False, 461_835, 110_520), Row(6, 4, True, 189_735, 43_813)),
    smt_m=7,
    smt_inequalities=25_284,
)


class Reduce:
    name = "reduce-m6"

    def __init__(self, spec: ReduceSpec, scratch_dir: str) -> None:
        self.spec = spec
        self.scratch_dir = scratch_dir

    @property
    def clauses_per_pass(self) -> int:
        return sum(row.clauses for row in self.spec.rows)

    def setup(self, lib: SimpleNamespace, seed: int, tracer: Tracer) -> list:
        jobs: list = [(row, lib.encoding.EncodeOptions(row.m, row.level_k, row.item_order))
                      for row in self.spec.rows]
        jobs.append(None)  # the SMT-LIB emission
        random.Random(seed).shuffle(jobs)
        return jobs

    def run(self, lib, jobs, tracer: Tracer, checks: Checks, traced: bool) -> None:
        for job in jobs:
            if job is None:
                with tracer.span("smtlib.emit"):
                    _, stats = lib.smtlib.emit_smtlib(self.spec.smt_m)
                checks.expect(f"m={self.spec.smt_m} SMT inequalities",
                              stats.inequalities, self.spec.smt_inequalities)
            else:
                self._reduce_row(lib, *job, tracer, checks, traced)

    def _reduce_row(self, lib, row: Row, opts, tracer: Tracer, checks: Checks,
                    traced: bool) -> None:
        label = f"m{row.m}k{row.level_k}{'io' if row.item_order else ''}"
        with tempfile.TemporaryFile("w+", encoding="utf-8", dir=self.scratch_dir) as handle:
            with tracer.span("dimacs.write", label) as write:
                stats = lib.encoding.write_dimacs_stream(opts, handle)
                write.counts["bytes"] = handle.tell()
            with tracer.span("dimacs.parse", label) as parse:
                handle.seek(0)
                text = handle.read()
                formula = lib.dimacs.parse_dimacs(text)
                parse.counts["bytes"] = len(text)
        del text
        result = preprocess(lib, formula, label, tracer)
        checks.expect(f"{label} clauses written", stats.total_clauses, row.clauses)
        checks.expect(f"{label} clauses parsed", len(formula.clauses), row.clauses)
        checks.expect(f"{label} not refuted by preprocess", result.unsat, False)
        checks.expect(f"{label} reduced clauses", len(result.formula.clauses), row.reduced)
        if traced:
            emitted = {family: 0 for family in stats.family_counts}
            for chunk in tracer.children(write):
                family = chunk.name.split(".", 1)[1]
                emitted[family] += chunk.counts["clauses"]
            checks.expect(f"{label} clauses per family", emitted, stats.family_counts)


# -- refute-m6 ---------------------------------------------------------------------


@dataclass(frozen=True)
class Refutation:
    label: str
    m: int
    level_k: int | None
    item_order: bool


@dataclass(frozen=True)
class ModelSearch:
    """Every family except no-EFX: satisfiable, and its model must decode."""

    label: str
    m: int
    level_k: int
    item_order: bool
    allocations: int


@dataclass(frozen=True)
class RefuteSpec:
    unsat: tuple[Refutation, ...]
    sat: ModelSearch


REFUTE_M6 = RefuteSpec(
    unsat=(Refutation("learn", 6, 3, True), Refutation("nolevel", 5, None, False)),
    sat=ModelSearch("model", 6, 4, True, 540),
)


class Refute:
    name = "refute-m6"

    def __init__(self, spec: RefuteSpec) -> None:
        self.spec = spec

    def setup(self, lib: SimpleNamespace, seed: int, tracer: Tracer) -> list:
        jobs = []
        for inst in self.spec.unsat:
            opts = lib.encoding.EncodeOptions(inst.m, inst.level_k, inst.item_order)
            with tracer.span("encoding.encode", inst.label):
                formula = lib.encoding.encode_formula(opts)
            jobs.append((inst, self._reduce(lib, formula, inst.label, tracer)))
        sat = self.spec.sat
        with tracer.span("encoding.encode", sat.label):
            enc = lib.encoding
            clauses = [
                *enc.monotonicity_clauses(sat.m),
                *enc.transitivity_clauses(sat.m, sat.level_k),
                *(enc.item_order_clauses(sat.m) if sat.item_order else ()),
                *enc.leveled_clauses(sat.m, sat.level_k),
            ]
            formula = lib.dimacs.CnfFormula(enc.num_variables(sat.m), clauses)
        jobs.append((sat, self._reduce(lib, formula, sat.label, tracer)))
        random.Random(seed).shuffle(jobs)
        return jobs

    @staticmethod
    def _reduce(lib, formula, label: str, tracer: Tracer):
        result = preprocess(lib, formula, label, tracer)
        if result.unsat:
            raise RuntimeError(f"{label}: preprocessing alone refuted the formula")
        return result

    def run(self, lib, jobs, tracer: Tracer, checks: Checks, traced: bool) -> None:
        status = lib.cdcl.SolveStatus
        for inst, reduced in jobs:
            with tracer.span("cdcl.solve", inst.label) as span:
                result = lib.cdcl.solve(reduced.formula)
                span.counts.update(
                    conflicts=result.conflicts,
                    decisions=result.decisions,
                    restarts=result.restarts,
                )
            if isinstance(inst, Refutation):
                checks.expect(f"{inst.label} status", result.status, status.UNSATISFIABLE)
            elif checks.expect(f"{inst.label} status", result.status, status.SATISFIABLE):
                self._check_model(lib, inst, reduced, result.assignment, tracer, checks)

    @staticmethod
    def _check_model(lib, inst: ModelSearch, reduced, model, tracer: Tracer,
                     checks: Checks) -> None:
        # The solver saw only the reduced formula; the fixed variables complete it.
        values = {**model.values, **reduced.fixed}
        full = lib.dimacs.Assignment(model.num_vars, values)
        with tracer.span("decoding.decode", inst.label):
            valuations = lib.decoding.decode_valuations(full, inst.m)
        with tracer.span("verification.scan", inst.label) as scan:
            report = lib.verification.verify(valuations)
            scan.counts["allocations"] = report.total_allocations
        checks.expect(f"{inst.label} allocations", report.total_allocations, inst.allocations)
        checks.holds(f"{inst.label} model has an EFX allocation", report.efx_count > 0,
                     f"efx_count={report.efx_count}")


# -- certify-m8 --------------------------------------------------------------------


@dataclass(frozen=True)
class CertifySpec:
    ranks_sha256: str  # of repr() of the bundled counterexample's rank tables
    counterexample_allocations: int
    mms_counts: tuple[int, ...]
    agents: int
    extended_allocations: int
    dummy_goods: int
    dummy_allocations: int
    random_instances: int
    random_goods: tuple[int, ...]


CERTIFY_M8 = CertifySpec(
    ranks_sha256="876f2c5d4b8d9c59de0268b6a7d545152320e5889211182f3d0f26bfa30a2dcd",
    counterexample_allocations=5_796,
    mms_counts=(5_452, 5_124, 5_192),
    agents=4,
    extended_allocations=186_480,
    dummy_goods=1,
    dummy_allocations=818_520,
    random_instances=150,
    random_goods=(6, 7, 8),
)

MODEL_LITERALS_PER_LINE = 20


@dataclass
class CertifyInputs:
    counterexample: list
    model_text: str
    num_vars: int
    instances: list


class Certify:
    name = "certify-m8"

    def __init__(self, spec: CertifySpec) -> None:
        self.spec = spec
        self.jobs = worker_count()

    def setup(self, lib: SimpleNamespace, seed: int, tracer: Tracer) -> CertifyInputs:
        with tracer.span("decoding.load_counterexample"):
            counterexample = lib.decoding.load_bundled_counterexample()
        m = counterexample[0].m
        with tracer.span("dimacs.assignment_from_ranks"):
            assignment = lib.dimacs.assignment_from_ranks(
                [v.rank for v in counterexample],
                lambda agent, a, b: lib.encoding.var_id(agent, a, b, m),
            )
        literals = [var if value else -var for var, value in sorted(assignment.values.items())]
        lines = ["s SATISFIABLE"]
        for i in range(0, len(literals), MODEL_LITERALS_PER_LINE):
            lines.append("v " + " ".join(map(str, literals[i : i + MODEL_LITERALS_PER_LINE])))
        lines.append("v 0")
        rng = random.Random(seed)
        instances = []
        for _ in range(self.spec.random_instances):
            goods = rng.choice(self.spec.random_goods)
            base = rng.randrange(1 << 30)
            instances.append([
                lib.valuations.random_monotone_rank_valuation(goods, base + j) for j in range(3)
            ])
        return CertifyInputs(counterexample, "\n".join(lines) + "\n",
                             assignment.num_vars, instances)

    def run(self, lib, inputs: CertifyInputs, tracer: Tracer, checks: Checks,
            traced: bool) -> None:
        spec = self.spec
        counterexample = inputs.counterexample
        m = counterexample[0].m
        with tracer.span("dimacs.parse_model"):
            model = lib.dimacs.parse_model(inputs.model_text, inputs.num_vars)
        with tracer.span("decoding.decode", f"m{m}"):
            decoded = lib.decoding.decode_valuations(model, m)
        ranks = [v.rank for v in decoded]
        checks.expect("decoded ranks", ranks, [v.rank for v in counterexample])
        checks.expect("decoded ranks digest",
                      hashlib.sha256(repr(ranks).encode()).hexdigest(), spec.ranks_sha256)

        self._scan(lib, "counterexample", counterexample, 1,
                   spec.counterexample_allocations, tracer, checks)
        for agent, v in enumerate(counterexample):
            with tracer.span("submodular.realize"):
                realized = lib.submodular.submodular_realize(v)
            with tracer.span("submodular.check"):
                ok, witness = lib.submodular.is_submodular(realized)
            checks.holds(f"agent {agent} realization is submodular", ok, f"witness {witness}")

        with tracer.span("submodular.extend", "extension"):
            extended = lib.submodular.extend_counterexample(counterexample, spec.agents)
        self._scan(lib, "extension", extended, 1, spec.extended_allocations, tracer, checks)
        with tracer.span("submodular.extend", "dummy"):
            padded = lib.submodular.add_dummy_goods(extended, spec.dummy_goods)
        serial = self._scan(lib, "dummy", padded, 1, spec.dummy_allocations, tracer, checks)
        parallel = self._scan(lib, "dummy", padded, self.jobs, spec.dummy_allocations,
                              tracer, checks)
        checks.expect("parallel report equals serial report", parallel, serial)

        for agent, (v, want) in enumerate(zip(counterexample, spec.mms_counts)):
            with tracer.span("verification.mms"):
                got = lib.verification.count_mms_violation_tuples(v)
            checks.expect(f"agent {agent} MMS violation tuples", got, want)

        for index, valuations in enumerate([counterexample, *inputs.instances]):
            with tracer.span("three_agent.solve") as span:
                result = lib.three_agent.solve_three(valuations)
                span.counts["iterations"] = result.iterations
                span.counts[result.tag] = 1
            checks.holds(f"three-agent instance {index} tag {result.tag} re-verified",
                         _tag_holds(lib, valuations, result))

    @staticmethod
    def _scan(lib, label: str, valuations, jobs: int, allocations: int, tracer: Tracer,
              checks: Checks):
        name = "verification.scan" if jobs == 1 else "verification.scan_jobs"
        with tracer.span(name, label) as scan:
            report = lib.verification.verify(valuations, jobs=jobs)
            scan.counts["allocations"] = report.total_allocations
        checks.expect(f"{label} allocations (jobs={jobs})", report.total_allocations, allocations)
        checks.expect(f"{label} EFX allocations (jobs={jobs})", report.efx_count, 0)
        return report


def _tag_holds(lib, valuations, result) -> bool:
    """Re-derive a three-agent tag with the fairness predicates."""
    fairness = lib.fairness
    allocation = result.allocation()
    full = (1 << result.m) - 1
    if result.tag == lib.three_agent.TAG_TEFX:
        return all(fairness.is_tefx_feasible(v, i, allocation) for i, v in enumerate(valuations))
    if result.tag == lib.three_agent.TAG_EF1_EEFX:
        return all(
            fairness.is_ef1_feasible(v, i, allocation)
            and fairness.eefx_certificate(v, result.bundles[i], full ^ result.bundles[i], 3)
            is not None
            for i, v in enumerate(valuations)
        )
    return False
