"""efxlab benchmark: one closed-loop client running fixed batch workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload reduce-m6 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16 --trace 1

Each run sets the workload up several times (re-importing efxlab each time),
then makes timed passes one after another until --seconds have gone by and
at least MIN_PASSES have been made.  Every output of every pass is checked
against frozen figures; a pass with a wrong output is counted in `failed` and
its time is left out.

The end-to-end times are given at a reference host speed (see hostspeed.py):
wall_ref_s is the median of the rescaled pass times and setup_s the median
of the rescaled set-up times.  The measured times are printed beside them.
Traced passes and set-ups read no host speed, so that the readings stay out
of their spans.

With --trace 0 the last line carries the end-to-end metrics.  With --trace 1
the set-up is traced once, passes come in blocks of four (untraced, traced,
traced, untraced), the last line carries the per-layer metrics (medians over
traced passes, and the tracing overhead as the median of traced minus
untraced over adjacent pairs), and the spans are written to
perfbench/out/trace-<workload>-seed<seed>.jsonl.

Only the standard library is used; efxlab is imported from src/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from hostspeed import HostClock, host_loop_ms
from metrics import MOVES, per_layer_values, scan_seconds_and_allocations
from tracing import Span, Tracer, instrumented
from workloads import (
    CERTIFY_M8,
    REDUCE_M6,
    REFUTE_M6,
    Certify,
    Checks,
    Reduce,
    Refute,
    worker_count,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("reduce-m6", "refute-m6", "certify-m8")
# Set-up runs at least SETUP_MIN_REPEATS times, then again until SETUP_SECONDS
# have been spent on it (at most SETUP_MAX_REPEATS times); setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_MAX_REPEATS = 25
# Passes run until --seconds have gone by, and at least MIN_PASSES of them, so
# that wall_ref_s never rests on a single pass (a pass takes 10-19 s).
MIN_PASSES = 2
MODULES = ("cdcl", "decoding", "dimacs", "encoding", "fairness", "simplify", "smtlib",
           "submodular", "three_agent", "valuations", "verification")


def make_workload(name: str):
    if name == "reduce-m6":
        return Reduce(REDUCE_M6, str(OUT))
    if name == "refute-m6":
        return Refute(REFUTE_M6)
    return Certify(CERTIFY_M8)


def load_library() -> SimpleNamespace:
    """Import efxlab afresh, so that every set-up pays for its imports."""
    for name in [n for n in sys.modules if n == "efxlab" or n.startswith("efxlab.")]:
        del sys.modules[name]
    importlib.import_module("efxlab")
    return SimpleNamespace(**{m: importlib.import_module(f"efxlab.{m}") for m in MODULES})


def _times(root: Span, clock: HostClock, traced: bool) -> tuple[float, float]:
    """Measured time and time at the reference speed; a traced stretch has no
    host readings, so its time is its span's and it has no rescaled time."""
    return (root.seconds, 0.0) if traced else (clock.seconds, clock.ref_seconds)


def set_up(workload, seed: int, tracer: Tracer, traced: bool):
    """Returns the library, the workload's inputs, and the set-up's times."""
    tracer.run = "setup"
    gc.collect()  # a set-up does not pay for collecting the previous one's garbage
    clock = HostClock()
    with tracer.span("setup") as root:
        with nullcontext() if traced else clock.timing():
            lib = load_library()
            with instrumented(lib, tracer) if traced else nullcontext():
                state = workload.setup(lib, seed, tracer)
    return lib, state, *_times(root, clock, traced)


def timed_pass(workload, lib, state, tracer: Tracer, checks: Checks, run: str,
               traced: bool) -> tuple[float, float, bool]:
    """One pass; returns its times and whether every output was right."""
    tracer.run = run
    failed_before = checks.failed
    gc.collect()  # start every pass from a collected heap, outside the timing
    clock = HostClock()
    with tracer.span("pass") as root:
        with instrumented(lib, tracer) if traced else clock.timing():
            try:
                workload.run(lib, state, tracer, checks, traced)
            except Exception as exc:  # a raising call is a failed output, not a crash
                traceback.print_exc(file=sys.stderr)
                checks.holds(f"{run} raised", False, repr(exc))
    return *_times(root, clock, traced), checks.failed == failed_before


def measure(workload, seed: int, seconds: float, trace: bool, tracer: Tracer,
            checks: Checks, report: list[str]) -> dict[str, float]:
    setups: list[float] = []  # measured
    ref_setups: list[float] = []  # at the reference speed
    while not setups or not trace and (len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX_REPEATS
    )):
        lib = state = None  # each set-up starts without the previous one's inputs
        lib, state, setup_s, ref_setup_s = set_up(workload, seed, tracer, traced=trace)
        setups.append(setup_s)
        ref_setups.append(ref_setup_s)
    report.append("set-up samples (measured): " + ", ".join(f"{s:.4f}" for s in setups))
    if not trace:
        report.append("set-up samples (reference speed): "
                      + ", ".join(f"{s:.4f}" for s in ref_setups))

    walls: list[float] = []
    ref_walls: list[float] = []
    pairs: list[tuple[float, float]] = []  # (untraced, traced) wall times of adjacent passes
    traced_runs: list[str] = []
    last_wall, last_ok = 0.0, False
    start = perf_counter()
    index = 0
    # A trace run makes blocks of four passes, untraced, traced, traced, untraced,
    # so that a steady drift in machine speed cancels out of the overhead.
    while index < MIN_PASSES or (trace and index % 4) or perf_counter() - start < seconds:
        traced = trace and index % 4 in (1, 2)
        run = f"pass-{index}"
        wall, ref_wall, ok = timed_pass(workload, lib, state, tracer, checks, run, traced)
        report.append(f"{run}: {wall:.4f} s"
                      + (" traced" if traced else f" ({ref_wall:.4f} s at the reference speed)")
                      + ("" if ok else " (wrong output: time left out)"))
        if ok and traced:
            traced_runs.append(run)
        elif ok:
            walls.append(wall)
            ref_walls.append(ref_wall)
        if trace and index % 2 == 1 and ok and last_ok:
            pairs.append((last_wall, wall) if traced else (wall, last_wall))
        last_wall, last_ok = wall, ok
        index += 1

    if trace:
        if not pairs:
            return {}
        return per_layer_values([tracer.in_run(run) for run in traced_runs],
                                tracer.in_run("setup"), pairs, worker_count())
    if not walls:
        return {}
    values = {
        "wall_ref_s": median(ref_walls),
        "setup_s": median(ref_setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report.extend(_wall_summary("wall_s", walls))
    report.extend(_wall_summary("wall_ref_s", ref_walls))
    if isinstance(workload, Reduce):
        report.append(f"clauses_per_s: {workload.clauses_per_pass / median(walls):.1f} clauses/s"
                      f" ({workload.clauses_per_pass} clauses per pass)")
    if isinstance(workload, Certify):
        passes = [s for s in tracer.spans if s.run != "setup"]
        scan_s, allocations = scan_seconds_and_allocations(passes)
        report.append(f"allocations_per_s: {allocations / scan_s:.1f} allocations/s"
                      f" ({allocations} allocations over {scan_s:.4f} s of scans)")
    return values


def _wall_summary(name: str, samples: list[float]) -> list[str]:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    lines = [f"{name}: median {median(ordered):.4f} s over {n} passes"]
    if n - 11 > (n - 1) / 2:
        lines.append(f"{name}: p{100 * (n - 11) // (n - 1)} {ordered[n - 11]:.4f} s")
    else:
        lines.append(f"{name}: no percentile above the median has 10 samples beyond it"
                     f" ({n} passes)")
    return lines


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:  # no git program
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"


def provenance(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": worker_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "host_loop_ms_start": host_loop_ms(),
        "commit": _git_commit(),
    }


def run_one(args: argparse.Namespace) -> int:
    OUT.mkdir(exist_ok=True)
    prov = provenance(args)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-trace{args.trace}")
    checks = Checks()
    report: list[str] = []
    values = measure(make_workload(args.workload), args.seed, args.seconds, bool(args.trace),
                     tracer, checks, report)
    prov["loadavg_end"] = list(os.getloadavg())
    prov["host_loop_ms_end"] = host_loop_ms()
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(str(trace_path))
        report.append(f"spans written to {trace_path.relative_to(ROOT)}")

    print("provenance: " + json.dumps(prov))
    for line in report:
        print(line)
    for message in checks.messages:
        print(f"WRONG OUTPUT: {message}")
    print(f"fail_ratio: {checks.failed / max(checks.attempted, 1):.6f} ratio"
          f" ({checks.failed} of {checks.attempted} checked outputs)")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    table = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table if m["name"] in values}
    for name, metric in metrics.items():
        moves = f"  [moves {MOVES[name]}]" if args.trace else ""
        print(f"{name}: {metric['value']:.6g} {metric['unit']}{moves}")
    print(json.dumps({
        "correct": checks.failed == 0 and bool(values),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so that peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            return 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "efxlab" / "__init__.py").is_file():
        print(f"efxlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
