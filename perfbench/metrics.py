"""Per-layer metrics computed from recorded spans.

BENCHMARK.json names every metric with its unit and direction; MOVES adds,
for each per-layer metric, the end-to-end metric and workload it should
move.  Layers a workload does not run report 0 there.
"""

from __future__ import annotations

from statistics import median

from tracing import FAMILIES, LAYERS, Span, own_seconds, self_times
from workloads import REFUTE_M6

_REDUCE = "wall_ref_s and clauses_per_s on reduce-m6; setup_s on refute-m6"
_CDCL = "wall_ref_s on refute-m6 only"
_CERTIFY = "wall_ref_s and allocations_per_s on certify-m8"
_SMALL = "a small share of wall_ref_s on certify-m8 or reduce-m6"

CDCL_INSTANCES = [(inst.label, "unsat") for inst in REFUTE_M6.unsat] + [
    (REFUTE_M6.sat.label, "sat")
]

# Per-layer metric -> the end-to-end metric and workload it should move.  Names,
# units and directions live in BENCHMARK.json, which has no field for this text.
MOVES = {
    "encoding.monotonicity_s": _REDUCE,
    "encoding.transitivity_s": _REDUCE,
    "encoding.item_order_leveled_s": _REDUCE,
    "encoding.not_efx_s": _REDUCE,
    "encoding.clauses": _REDUCE,
    "dimacs.write_s": "wall_ref_s on reduce-m6",
    "dimacs.write_mb": "wall_ref_s on reduce-m6",
    "dimacs.parse_s": "wall_ref_s on reduce-m6",
    "dimacs.parse_mb_per_s": "wall_ref_s on reduce-m6",
    "dimacs.parse_model_s": "wall_ref_s on certify-m8 (small share)",
    "dimacs.model_check_s": "wall_ref_s on refute-m6 (small share)",
    "simplify.propagate_s": "wall_ref_s on reduce-m6; setup_s on refute-m6",
    "simplify.subsume_s": "wall_ref_s on reduce-m6; setup_s on refute-m6",
    "simplify.units_fixed": "wall_ref_s on reduce-m6",
    "simplify.satisfied_removed": "wall_ref_s on reduce-m6",
    "simplify.subsumed_removed": "wall_ref_s on reduce-m6",
    "simplify.output_clauses": "wall_ref_s on reduce-m6",
    "simplify.subsume_hit_ratio": "wall_ref_s on reduce-m6",
}
for _label, _status in CDCL_INSTANCES:
    for _key in (f"{_status}_s", "conflicts", "decisions", "restarts", "conflicts_per_s",
                 "decisions_per_s"):
        MOVES[f"cdcl.{_label}.{_key}"] = _CDCL
MOVES.update({
    "decoding.decode_s": "wall_ref_s on certify-m8 and refute-m6 (small share)",
    "verification.scan_s": _CERTIFY,
    "verification.scan_jobs_s": _CERTIFY,
    "verification.allocations": _CERTIFY,
    "verification.allocations_per_s": _CERTIFY,
    "verification.parallel_efficiency": _CERTIFY,
    "verification.mms_s": _CERTIFY,
    "submodular.realize_s": _SMALL,
    "submodular.check_s": _SMALL,
    "submodular.extend_s": _SMALL,
    "three_agent.solve_s": _SMALL,
    "three_agent.iterations": _SMALL,
    "three_agent.tefx": _SMALL,
    "three_agent.ef1_eefx": _SMALL,
    "smtlib.emit_s": _SMALL,
})
MOVES.update({f"self.{layer}_s": "wall_ref_s" for layer in (*LAYERS, "glue")})
MOVES.update({f"setup.{layer}_s": "setup_s" for layer in (*LAYERS, "glue")})
MOVES.update({
    "trace.wall_s": "wall_s (traced passes)",
    "trace.untraced_wall_s": "wall_s (untraced passes of the traced run)",
    "trace.overhead_s": "none: median over adjacent pairs of traced minus untraced pass",
    "trace.spans": "none: spans recorded per traced pass",
})


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def scan_seconds_and_allocations(spans: list[Span]) -> tuple[float, int]:
    scans = [s for s in spans if s.name in ("verification.scan", "verification.scan_jobs")]
    return sum(s.seconds for s in scans), sum(s.counts["allocations"] for s in scans)


def pass_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""

    def seconds(name: str, tag: str | None = None) -> float:
        return sum(s.seconds for s in spans if s.name == name and tag in (None, s.tag))

    def count(name: str, key: str, tag: str | None = None) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name and tag in (None, s.tag))

    own = own_seconds(spans)
    v: dict[str, float] = {}
    for family in ("monotonicity", "transitivity", "not_efx"):
        v[f"encoding.{family}_s"] = seconds(f"encoding.{family}")
    v["encoding.item_order_leveled_s"] = seconds("encoding.item_order") + seconds("encoding.leveled")
    v["encoding.clauses"] = sum(count(f"encoding.{f}", "clauses") for f in FAMILIES)

    v["dimacs.write_s"] = sum(own[s.id] for s in spans if s.name == "dimacs.write")
    v["dimacs.write_mb"] = count("dimacs.write", "bytes") / 1e6
    v["dimacs.parse_s"] = seconds("dimacs.parse")
    v["dimacs.parse_mb_per_s"] = _rate(count("dimacs.parse", "bytes") / 1e6, v["dimacs.parse_s"])
    v["dimacs.parse_model_s"] = seconds("dimacs.parse_model")
    v["dimacs.model_check_s"] = seconds("dimacs.model_check")

    v["simplify.propagate_s"] = seconds("simplify.propagate")
    v["simplify.subsume_s"] = seconds("simplify.subsume")
    for key in ("units_fixed", "satisfied_removed", "subsumed_removed", "output_clauses"):
        v[f"simplify.{key}"] = count("simplify.preprocess", key)
    entering = v["simplify.output_clauses"] + v["simplify.subsumed_removed"]
    v["simplify.subsume_hit_ratio"] = _rate(v["simplify.subsumed_removed"], entering)

    for label, status in CDCL_INSTANCES:
        solve_s = seconds("cdcl.solve", label)
        v[f"cdcl.{label}.{status}_s"] = solve_s
        for key in ("conflicts", "decisions", "restarts"):
            v[f"cdcl.{label}.{key}"] = count("cdcl.solve", key, label)
        v[f"cdcl.{label}.conflicts_per_s"] = _rate(v[f"cdcl.{label}.conflicts"], solve_s)
        v[f"cdcl.{label}.decisions_per_s"] = _rate(v[f"cdcl.{label}.decisions"], solve_s)

    v["decoding.decode_s"] = seconds("decoding.decode")
    scan_s, allocations = scan_seconds_and_allocations(spans)
    v["verification.scan_s"] = seconds("verification.scan")
    v["verification.scan_jobs_s"] = seconds("verification.scan_jobs")
    v["verification.allocations"] = allocations
    v["verification.allocations_per_s"] = _rate(allocations, scan_s)
    v["verification.parallel_efficiency"] = _rate(
        seconds("verification.scan", "dummy"), jobs * seconds("verification.scan_jobs", "dummy")
    )
    v["verification.mms_s"] = seconds("verification.mms")

    v["submodular.realize_s"] = seconds("submodular.realize")
    v["submodular.check_s"] = seconds("submodular.check")
    v["submodular.extend_s"] = seconds("submodular.extend")
    v["three_agent.solve_s"] = seconds("three_agent.solve")
    v["three_agent.iterations"] = count("three_agent.solve", "iterations")
    v["three_agent.tefx"] = count("three_agent.solve", "tEFX")
    v["three_agent.ef1_eefx"] = count("three_agent.solve", "EF1&EEFX")
    v["smtlib.emit_s"] = seconds("smtlib.emit")

    for layer, own in self_times(spans).items():
        v[f"self.{layer}_s"] = own
    v["trace.spans"] = len(spans)
    return v


def per_layer_values(traced: list[list[Span]], setup: list[Span],
                     pairs: list[tuple[float, float]], jobs: int) -> dict[str, float]:
    """Medians over traced passes, set-up self times, and the tracing overhead.

    `pairs` holds (untraced, traced) wall times of adjacent passes of the
    traced run; the overhead is the median of their differences, so that a
    drift in machine speed over the run does not enter it.
    """
    per_pass = [pass_metrics(spans, jobs) for spans in traced]
    values = {key: median(p[key] for p in per_pass) for key in per_pass[0]}
    for layer, own in self_times(setup).items():
        values[f"setup.{layer}_s"] = own
    values["trace.wall_s"] = median(t for _, t in pairs)
    values["trace.untraced_wall_s"] = median(u for u, _ in pairs)
    values["trace.overhead_s"] = median(t - u for u, t in pairs)
    return {name: values[name] for name in MOVES}
