"""In-memory spans around the benchmark's calls into efxlab.

A span is (id, name, tag, run, parent, start, end, counts).  The part of the
name before the first dot is the layer: one of the efxlab modules in LAYERS.
Root spans ("setup", "pass") belong to the benchmark itself, so their self
time is the benchmark's glue.  Spans are kept in a list and written out once,
at the end of a run.

The benchmark opens spans only around public calls.  Where a public call
makes further public calls that are timed on their own (the clause families
inside ``write_dimacs_stream`` and ``encode``, ``propagate_units`` and
``subsume`` inside ``preprocess``, ``Assignment.satisfies`` inside
``cdcl.solve``), ``instrumented`` swaps those names for timing wrappers while
a traced pass runs, and puts the originals back afterwards.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from types import SimpleNamespace

LAYERS = (
    "encoding",
    "dimacs",
    "simplify",
    "cdcl",
    "decoding",
    "verification",
    "submodular",
    "three_agent",
    "smtlib",
)

FAMILIES = ("monotonicity", "transitivity", "item_order", "leveled", "not_efx")

# Clauses pulled from a family generator per timed chunk: large enough that
# the two clock reads per chunk cost nothing next to generating the chunk.
CHUNK = 4096


@dataclass
class Span:
    id: int
    name: str
    tag: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans of one benchmark process; `run` labels the current pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.run = "setup"
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = "") -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(len(self.spans), name, tag, self.run, parent, perf_counter())
        self.spans.append(record)
        self._open.append(record.id)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def in_run(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans[parent.id + 1 :] if s.parent == parent.id]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                record = {
                    "run_id": self.run_id,
                    "run": s.run,
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "tag": s.tag,
                    "start": s.start,
                    "end": s.end,
                    "counts": s.counts,
                }
                handle.write(json.dumps(record) + "\n")


def own_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus its children's, by span id.

    Children of one span never overlap (one thread opens them in turn), so
    the part of a span its children cover is the sum of their durations.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] = covered.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - covered.get(s.id, 0.0) for s in spans}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self seconds per layer; spans outside the layers (the roots) count as glue."""
    own = own_seconds(spans)
    totals = {layer: 0.0 for layer in LAYERS}
    totals["glue"] = 0.0
    for s in spans:
        totals[s.layer if s.layer in totals else "glue"] += own[s.id]
    return totals


def _chunked(tracer: Tracer, name: str, family: Callable[..., Iterator]) -> Callable[..., Iterator]:
    def wrapper(*args, **kwargs):
        clauses = family(*args, **kwargs)
        while True:
            with tracer.span(name) as span:
                chunk = list(islice(clauses, CHUNK))
                span.counts["clauses"] = len(chunk)
            if not chunk:
                return
            yield from chunk

    return wrapper


def _spanned(tracer: Tracer, name: str, call: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return call(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented(lib: SimpleNamespace, tracer: Tracer) -> Iterator[None]:
    """Time the calls that public efxlab calls make, for one traced pass."""
    swaps = [
        (lib.encoding, f"{family}_clauses", _chunked(
            tracer, f"encoding.{family}", getattr(lib.encoding, f"{family}_clauses")
        ))
        for family in FAMILIES
    ]
    swaps += [
        (lib.simplify, "propagate_units",
         _spanned(tracer, "simplify.propagate", lib.simplify.propagate_units)),
        (lib.simplify, "subsume", _spanned(tracer, "simplify.subsume", lib.simplify.subsume)),
        (lib.dimacs.Assignment, "satisfies",
         _spanned(tracer, "dimacs.model_check", lib.dimacs.Assignment.satisfies)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    for owner, attr, wrapper in swaps:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
