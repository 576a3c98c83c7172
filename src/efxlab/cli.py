"""Batch command-line front end for the reproduction workflows.

Every subcommand is a thin adapter over the library modules; no fairness,
encoding or file-format logic lives here.  An artifact goes to its `-o` path
through `_create`, the one place where "-" means stdout; then the report
goes to stderr, so that stdout holds the artifact alone.  A file path is
written under a temporary name and takes the artifact only when the command
succeeds, so a failing command leaves it as it was.  Exit codes: 0 on
success, also when the reader of stdout closes it early (as `head` does);
1 on a domain failure (for example an EFX allocation found under
--expect-none, or a solver that ran out of budget); 2 on usage, I/O or
memory errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from collections.abc import Callable, Iterator, Sequence
from typing import TextIO

from . import acceptance, cdcl, smtlib, three_agent, verification
from .bitset import goods
from .decoding import (
    decode_valuations,
    dump_dyadic,
    dump_rank_blocks,
    dump_value_blocks,
    load_dyadic,
    load_rank_blocks,
    load_valuations,
)
from .dimacs import CnfFormula, parse_dimacs, parse_model, read_integer, stream_dimacs, write_model
from .encoding import EncodeOptions, clause_counts, good_count, write_dimacs_stream
from .errors import EfxLabError, IndexOutOfRange, NotUtf8Text
from .simplify import preprocess
from .submodular import extend_counterexample, is_submodular, submodular_realize

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


@contextlib.contextmanager
def _open(path: str) -> Iterator[TextIO]:
    """The file at `path` (stdin for "-") open for reading UTF-8 text.

    Bytes that do not decode raise NotUtf8Text wherever the reading stops.
    Stdin is switched to strict decoding, since in UTF-8 mode Python reads
    it with ``surrogateescape`` and would pass bad bytes on as text, and to
    universal newlines, so that it ends a line at a lone carriage return as a
    file does.
    """
    if path == "-":
        sys.stdin.reconfigure(errors="strict", newline=None)
        opened = contextlib.nullcontext(sys.stdin)
    else:
        opened = open(path, "r", encoding="utf-8")
    with opened as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise NotUtf8Text(f"{path}: not UTF-8 text: byte 0x{bad:02x} ({exc.reason})") from None


def _read(path: str) -> str:
    with _open(path) as handle:
        return handle.read()


def _parse_dimacs_file(path: str) -> CnfFormula:
    """Parse a DIMACS file a piece at a time, without holding its whole text."""
    with _open(path) as handle:
        return parse_dimacs(handle)


@contextlib.contextmanager
def _create(path: str) -> Iterator[TextIO]:
    """Stdout for "-" (left open), else UTF-8 text that becomes the file at `path`.

    A path that names the file stdout writes to, as /dev/stdout does, is
    taken as "-", so the artifact goes where stdout goes, pipe or appended
    file included.  A regular file is written beside its target under a
    temporary name, with the target's permissions, and moved onto it when
    the block ends; on an exception the temporary file is removed and
    `path` is left as it was.  Anything else that exists at `path`, such as
    /dev/null or a named pipe, is written in place.
    """
    try:
        found = None if path == "-" else os.stat(path)
    except FileNotFoundError:
        found = None
    if path == "-" or found is not None and _is_stdout(found):
        yield sys.stdout
        return
    if found is not None and not stat.S_ISREG(found.st_mode):
        with open(path, "w", encoding="utf-8") as out:
            yield out
        return
    target = os.path.realpath(path)
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        out = open(temp, "x", encoding="utf-8")
    except OSError as exc:
        exc.filename = path  # name the path the user gave
        raise
    try:
        with out:
            if found is not None:
                os.chmod(temp, stat.S_IMODE(found.st_mode))
            yield out
        os.replace(temp, target)
    except BaseException:
        os.remove(temp)
        raise


def _is_stdout(found: os.stat_result) -> bool:
    """Whether `found` is the file behind stdout's descriptor; a stdout without one, such
    as a test's capture, is no file."""
    try:
        return os.path.samestat(found, os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        return False


def _report_to(out: TextIO | None) -> TextIO:
    """The stream for a command's report: stderr if its artifact went to stdout."""
    return sys.stderr if out is sys.stdout else sys.stdout


def _print_report(payload: dict, as_json: bool, file: TextIO) -> None:
    """`payload` as indented JSON, or as one `key: value` line per entry."""
    if as_json:
        print(json.dumps(payload, indent=2), file=file)
        return
    for key, value in payload.items():
        print(f"{key}: {value}", file=file)


def _print_stats(stats, as_json: bool, file: TextIO) -> None:
    if as_json:
        payload = {
            "m": stats.m,
            "level_k": stats.level_k,
            "item_order": stats.item_order,
            "variables": stats.variables,
            "families": stats.family_counts,
            "total_clauses": stats.total_clauses,
            "notes": stats.notes,
        }
        _print_report(payload, True, file)
        return
    counts = {"variables": stats.variables, **stats.family_counts, "total clauses": stats.total_clauses}
    _print_report(counts, False, file)
    for note in stats.notes:
        print(f"note: {note}", file=file)


def cmd_encode(args: argparse.Namespace) -> int:
    opts = EncodeOptions(args.m, args.level, args.item_order)
    comment = f"no-EFX encoding: m={args.m} level_k={args.level} item_order={args.item_order}"
    with _create(args.output) as out:
        stats = write_dimacs_stream(opts, out, [comment])
    _print_stats(stats, args.json, _report_to(out))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    stats = clause_counts(EncodeOptions(args.m, args.level, args.item_order))
    _print_stats(stats, args.json, sys.stdout)
    return EXIT_OK


def cmd_preprocess(args: argparse.Namespace) -> int:
    # no local name for the parsed formula, so that preprocess can release it
    result = preprocess(_parse_dimacs_file(args.input))
    payload = {
        "input_clauses": result.stats.input_clauses,
        "propagated_units": result.stats.propagated_units,
        "subsumed_removed": result.stats.subsumed_removed,
        "output_clauses": result.stats.output_clauses,
        "fixed_variables": len(result.fixed),
        "unsat": result.unsat,
    }
    out = None
    if args.output:
        # the written file re-adds the fixed assignments as unit clauses so
        # it stands alone; output_clauses counts the residual without them
        standalone = result.as_standalone_formula()
        payload["written_clauses"] = len(standalone.clauses)
        with _create(args.output) as out:
            stream_dimacs(out, standalone.num_vars, len(standalone.clauses), standalone.clauses)
    _print_report(payload, args.json, _report_to(out))
    return EXIT_OK


def cmd_sat(args: argparse.Namespace) -> int:
    formula = _parse_dimacs_file(args.input)
    result = cdcl.solve(formula, conflict_budget=args.budget)
    if result.status is cdcl.SolveStatus.SATISFIABLE:
        assert result.assignment is not None
        print("s SATISFIABLE")
        print(write_model(result.assignment), end="")
        return EXIT_OK
    if result.status is cdcl.SolveStatus.UNSATISFIABLE:
        print("s UNSATISFIABLE")
        return EXIT_OK
    print("s UNKNOWN")
    return EXIT_DOMAIN


def cmd_decode(args: argparse.Namespace) -> int:
    assignment = parse_model(_read(args.input))
    valuations = decode_valuations(assignment, good_count(assignment.num_vars))
    with _create(args.output) as out:
        out.write(dump_rank_blocks(valuations))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    valuations = load_valuations(_read(args.vals))
    report = verification.verify(valuations, jobs=args.jobs)
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(), end="")
    if args.expect_none and report.efx_count != 0:
        return EXIT_DOMAIN
    if args.expect_some and report.efx_count == 0:
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_submodular(args: argparse.Namespace) -> int:
    valuations = load_rank_blocks(_read(args.vals))
    if not 0 <= args.agent < len(valuations):
        raise IndexOutOfRange(f"agent {args.agent} outside 0..{len(valuations) - 1}")
    with _create(args.output) as out:
        out.write(dump_dyadic(submodular_realize(valuations[args.agent])))
    return EXIT_OK


def cmd_check_submodular(args: argparse.Namespace) -> int:
    ok, witness = is_submodular(load_dyadic(_read(args.input)))
    if ok:
        print("submodular")
        return EXIT_OK
    small, large, good = witness
    print(f"not submodular: adding good {good} gains more on {large} than on its subset {small}")
    return EXIT_DOMAIN


def cmd_extend(args: argparse.Namespace) -> int:
    base = load_rank_blocks(_read(args.vals))
    extended = extend_counterexample(base, args.agents)
    with _create(args.output) as out:
        out.write(dump_value_blocks(extended))
    return EXIT_OK


def cmd_solve3(args: argparse.Namespace) -> int:
    valuations = load_rank_blocks(_read(args.vals))
    result = three_agent.solve_three(valuations)
    if args.json:
        payload = {
            "tag": result.tag,
            "bundles": list(result.bundles),
            "iterations": result.iterations,
            "certificates": (
                {str(agent): list(parts) for agent, parts in result.certificates.items()}
                if result.certificates
                else None
            ),
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"tag: {result.tag}")
    for agent, bundle in enumerate(result.bundles):
        print(f"agent {agent}: bundle {bundle} (goods {list(goods(bundle))})")
    print(f"iterations: {result.iterations}")
    if result.certificates:
        for agent, parts in sorted(result.certificates.items()):
            print(f"certificate agent {agent}: parts {list(parts)}")
    return EXIT_OK


def cmd_smt(args: argparse.Namespace) -> int:
    text, stats = smtlib.emit_smtlib(args.m)
    with _create(args.output) as out:
        out.write(text)
    payload = {key: getattr(stats, key) for key in ("m", "constants", "disjuncts", "inequalities")}
    _print_report(payload, args.json, _report_to(out))
    return EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> int:
    skip = acceptance.SLOW_CHECKS if args.quick else frozenset()
    results = []
    for result in acceptance.run_all(jobs=args.jobs, skip=skip):
        results.append(result)
        print(result.line())
        if args.verbose or not result.passed:
            for detail in result.details:
                print(f"    {detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_DOMAIN if failed else EXIT_OK


def _shared(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one option for every subcommand that shares it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The `efxlab` parser.  An option that several subcommands take is declared
    once, in a parent parser, and every integer option reads its argument by
    `read_integer`, the rule for integers in files."""
    parser = argparse.ArgumentParser(
        prog="efxlab",
        description="Encode, solve, verify, and construct around EFX existence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, func: Callable[[argparse.Namespace], int], summary: str, *parents: argparse.ArgumentParser
    ) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=summary, parents=parents)
        subparser.register("type", int, read_integer)  # `type=int` reads by the file rule
        subparser.set_defaults(func=func)
        return subparser

    source = _shared("-i", "--input", required=True, help="input path (- for stdin)")
    output = _shared("-o", "--output", default="-", help="output path (- for stdout)")
    vals = _shared("--vals", required=True, help="valuation file")
    as_json = _shared("--json", action="store_true", help="print the report as JSON")
    goods_m = _shared("-m", type=int, required=True, help="number of goods")
    level = _shared("-k", "--level", type=int, default=None, help="level threshold")
    level.add_argument("--item-order", action="store_true", help="pin agent 0's singleton order")

    command("encode", cmd_encode, "write the no-EFX CNF in DIMACS format", goods_m, level, output, as_json)
    command("stats", cmd_stats, "per-family clause counts without writing a file", goods_m, level, as_json)

    pre = command(
        "preprocess", cmd_preprocess, "unit propagation + subsumption on a DIMACS file", source, as_json
    )
    # the one optional artifact: without -o, preprocess writes no formula
    pre.add_argument("-o", "--output", default=None, help="also write the reduced formula here")

    sat = command("sat", cmd_sat, "run the embedded CDCL solver on a DIMACS file", source)
    sat.add_argument("--budget", type=int, default=None, help="conflict budget")

    command("decode", cmd_decode, "turn a model (v lines) into valuation blocks", source, output)

    verify = command("verify", cmd_verify, "exhaustively scan all allocations of an instance", vals, as_json)
    expect = verify.add_mutually_exclusive_group()
    expect.add_argument("--expect-none", action="store_true", help="exit 1 if any EFX allocation exists")
    expect.add_argument("--expect-some", action="store_true", help="exit 1 if no EFX allocation exists")
    verify.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per usable CPU (default: 1, serial)")

    sub_sm = command(
        "submodular", cmd_submodular, "dyadic submodular realization of one valuation", vals, output
    )
    sub_sm.add_argument("--agent", type=int, default=0)

    command("check-submodular", cmd_check_submodular, "diminishing-returns check of a dyadic dump", source)

    extend = command("extend", cmd_extend, "extend the 8-good instance to n >= 4 agents", vals, output)
    extend.add_argument("-n", "--agents", type=int, required=True)

    command("solve3", cmd_solve3, "run the constructive three-agent algorithm", vals, as_json)
    command("smt", cmd_smt, "emit the QF_LRA encoding as SMT-LIB 2", goods_m, output, as_json)

    selfcheck = command("selfcheck", cmd_selfcheck, "run the acceptance suite")
    selfcheck.add_argument("--quick", action="store_true", help="skip the slow criteria")
    selfcheck.add_argument("--jobs", type=int, default=verification.usable_cpus())
    selfcheck.add_argument("-v", "--verbose", action="store_true")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`efxlab encode -m 4 | head -1`):
        # stop quietly, and send what Python flushes at exit to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except EfxLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
