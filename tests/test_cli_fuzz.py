"""Seeded mutation fuzzing of the file readers through `cli.main`, in this process.

Each run mutates a valid input file (flipped, dropped or duplicated bytes and
lines, truncation, bytes that are not UTF-8, huge or signed numbers) and
runs one command on it.  The contract: exit 0, 1 or 2, at most one
`error:` line, and no traceback.  Tier-1 runs `SEED` for `RUNS` inputs (a
few seconds); for a longer search run this file as a script, with ``src``
on the path: ``python tests/test_cli_fuzz.py --seed 7 --seconds 600``
prints each failing input shrunk to a minimal one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import re
import resource
import tempfile
import time
from itertools import count, islice
from pathlib import Path

from efxlab import cli
from efxlab.decoding import dump_dyadic, dump_rank_blocks, dump_value_blocks
from efxlab.dimacs import assignment_from_ranks, write_dimacs, write_model
from efxlab.encoding import EncodeOptions, encode_formula, var_id
from efxlab.submodular import submodular_realize
from efxlab.valuations import random_monotone_rank_valuation

SEED = 31
RUNS = 2100  # past run 2061, the first finding of this seed (see PINNED)

VALUATIONS = [random_monotone_rank_valuation(3, seed) for seed in (1, 2, 3)]
REALIZED = [submodular_realize(v) for v in VALUATIONS]
MODEL = write_model(assignment_from_ranks([v.rank for v in VALUATIONS], lambda i, a, b: var_id(i, a, b, 3)))
CNF = write_dimacs(encode_formula(EncodeOptions(3)))

# command, then its arguments around the input path, and the valid input it mutates
COMMANDS = {
    "preprocess": (["preprocess", "-i"], [], CNF),
    "sat": (["sat", "-i"], ["--budget", "20"], CNF),
    "decode": (["decode", "-i"], [], MODEL),
    "verify": (["verify", "--vals"], ["--jobs", "1"], dump_value_blocks(REALIZED)),
    "solve3": (["solve3", "--vals"], [], dump_rank_blocks(VALUATIONS)),
    "check-submodular": (["check-submodular", "-i"], [], dump_dyadic(REALIZED[0])),
}

# at least 2^63 in size, or small and signed: no mutated count asks for a mid-size table
NUMBERS = [b"18446744073709551616", b"-9223372036854775809", b"99999999999999999999999", b"-1", b"+3", b"-0"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True) or [b""]


def _flip(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1 :]


def _drop(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + data[at + 1 :]


def _duplicate(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[: at + 1] + data[at:]


def _drop_line(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _duplicate_line(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"".join(lines[: at + 1] + lines[at:])


def _truncate(data: bytes, rng: random.Random) -> bytes:
    return data[: rng.randrange(len(data))]


def _not_utf8(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice(NOT_UTF8) + data[at:]


def _number(data: bytes, rng: random.Random) -> bytes:
    """A number replaced, half the time one of the first four, where the headers are."""
    found = list(re.finditer(rb"[+-]?\d+", data))
    if not found:
        return data
    match = rng.choice(found[:4] if rng.random() < 0.5 else found)
    return data[: match.start()] + rng.choice(NUMBERS) + data[match.end() :]


MUTATIONS = [_flip, _drop, _duplicate, _drop_line, _duplicate_line, _truncate, _not_utf8, _number]


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        if not data:
            break
        data = rng.choice(MUTATIONS)(data, rng)
    return data


def run_cli(command: str, data: bytes, directory: Path) -> str | None:
    """Run `command` on `data`; None if the run keeps the contract, else what broke it."""
    before, after, _ = COMMANDS[command]
    path = directory / "input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*before, str(path), *after])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any escaping exception breaks the contract
        return f"{type(exc).__name__}: {exc}"
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if len(errors) > 1:
        return f"{len(errors)} error lines"
    if "Traceback" in err.getvalue():
        return "traceback on stderr"
    return None


def cases(seed: int):
    """Endless seeded (command, mutated input) pairs, the commands taking turns."""
    rng = random.Random(seed)
    names = sorted(COMMANDS)
    for run in count():
        command = names[run % len(names)]
        yield command, mutate(COMMANDS[command][2].encode(), rng)


def shrink(command: str, data: bytes, directory: Path) -> bytes:
    """`data` with chunks, then single bytes, removed while the contract still breaks."""
    chunk = max(1, len(data) // 2)
    while chunk:
        at = 0
        while at < len(data):
            smaller = data[:at] + data[at + chunk :]
            if run_cli(command, smaller, directory) is not None:
                data = smaller
            else:
                at += chunk
        chunk //= 2
    return data


# Minimal inputs of past findings: each must keep the contract.
PINNED = [
    # more variables than a list can index: an OverflowError escaped `sat` (seed 31, run 2061)
    ("sat", b"p cnf 18446744073709551616 0\n"),
]


def test_pinned_inputs_keep_the_contract(tmp_path):
    for command, data in PINNED:
        assert run_cli(command, data, tmp_path) is None, (command, data)


def test_seeded_mutations_keep_the_contract(tmp_path):
    found = [
        (command, data[:200], fault)
        for command, data in islice(cases(SEED), RUNS)
        if (fault := run_cli(command, data, tmp_path)) is not None
    ]
    assert found == []


def test_unmutated_inputs_succeed(tmp_path):
    for command in COMMANDS:
        assert run_cli(command, COMMANDS[command][2].encode(), tmp_path) is None


def main() -> None:
    parser = argparse.ArgumentParser(description="Fuzz the file readers of the efxlab command line.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args()
    # shrinking a huge count passes through mid-size ones: cap this process's memory at 1 GiB,
    # so that asking for more ends in MemoryError instead of taking the memory
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    deadline = time.monotonic() + args.seconds
    with tempfile.TemporaryDirectory() as directory:
        for run, (command, data) in enumerate(cases(args.seed)):
            if time.monotonic() > deadline:
                print(f"{run} inputs")
                return
            if (fault := run_cli(command, data, Path(directory))) is not None:
                print(run, command, fault, shrink(command, data, Path(directory)), flush=True)


if __name__ == "__main__":
    main()
