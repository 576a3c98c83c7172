"""CNF formula container, and the one reader and writer of DIMACS and `v` lines.

`stream_dimacs` writes every DIMACS text the package produces, with one `%d`
line format per clause width; `write_dimacs` is its string form.
`parse_dimacs` reads DIMACS back, from a text or a file, a batch of lines at
a time.  `write_model` writes the `v` lines that `parse_model` reads.  A
literal, a header count or a model literal is an optional sign and ASCII
decimal digits, nothing else; `read_integer` is that rule, and the valuation
files and the command line's integer options are read by it too.
"""

from __future__ import annotations

import io
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import gt
from typing import IO

from .bitset import check_good_count
from .errors import (
    AgentCountOutOfRange,
    ArityMismatch,
    DuplicateAssignment,
    GoodCountOutOfRange,
    HeaderMismatch,
    LiteralOutOfRange,
    MalformedLiteral,
    MissingTerminator,
)

Clause = tuple[int, ...]

# Characters of a text or file that `parse_dimacs` splits into lines at once.
TEXT_CHUNK = 1 << 16
# Lines that `parse_dimacs` reads as one batch.
BATCH_LINES = 1 << 11
# Clauses formatted per `write` call by `stream_dimacs`.
WRITE_BATCH = 8192


@dataclass
class CnfFormula:
    num_vars: int
    clauses: list[Clause]

    def check_literals(self) -> None:
        """Raises LiteralOutOfRange, naming the first bad literal, unless every
        literal is nonzero and of magnitude at most `num_vars`."""
        lits = set(chain.from_iterable(self.clauses))
        if 0 not in lits and (not lits or -self.num_vars <= min(lits) and max(lits) <= self.num_vars):
            return
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise LiteralOutOfRange(f"literal {lit} invalid for {self.num_vars} variables")


@dataclass
class Assignment:
    """Tri-state assignment: variables absent from `values` are unassigned."""

    num_vars: int
    values: dict[int, bool] = field(default_factory=dict)

    def satisfies(self, formula: CnfFormula) -> bool:
        """Whether every clause holds a true literal; unassigned ones are not true."""
        true_lits = {var if val else -var for var, val in self.values.items()}
        return not any(map(true_lits.isdisjoint, formula.clauses))


def _text_chunks(text: str) -> Iterator[str]:
    """`text` cut into pieces of about `TEXT_CHUNK` characters at line ends.

    Every piece but the last ends just after a line feed, which ends a line
    (alone or after a carriage return), so the pieces' `splitlines` are the
    text's, and only one piece's list of lines is held at once.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + TEXT_CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


def _file_chunks(file: IO[str]) -> Iterator[str]:
    """`file` read in pieces of about `TEXT_CHUNK` characters, each completed
    to the end of its line by `readline`, so the pieces' `splitlines` are the
    whole text's, and only one piece is held at once."""
    while piece := file.read(TEXT_CHUNK):
        yield piece + file.readline()


def _decimal(text: str) -> bool:
    """Whether `text` is ASCII without "_", so that `int()` reads a
    whitespace-free piece of it only if that is an optional sign and decimal
    digits; `int()` alone also takes "1_0" and non-ASCII digits such as "١".
    """
    return text.isascii() and "_" not in text


def read_integer(token: str) -> int:
    """`token` as an int if it is an optional sign and ASCII digits, else ValueError.

    A token split from a line has no whitespace around it; a command-line
    argument may, and `int()` would skip it.
    """
    if not _decimal(token) or token.strip() != token:
        raise ValueError(token)
    return int(token)


def parse_dimacs(source: str | IO[str]) -> CnfFormula:
    """Parse DIMACS CNF; `c` comment and blank lines ignored, header validated
    against the body.

    `source` is the whole text or an open text file, never held whole: a
    file is read `TEXT_CHUNK` characters at a time.  Either is split into
    lines as by `str.splitlines`, which also breaks at a form feed, say, and
    read `BATCH_LINES` lines at a time.  A literal is an optional sign and
    ASCII digits.  Errors name the 1-based line.

    Literals come from a table from token text to literal, cleared at every
    header (a header may lower the variable count).  A token met for the
    first time also looks up its value's plain spelling, `str(value)`, and
    takes that entry's int if there is one, so equal literals share one int
    object however they are written ("300", "+300", "0300"), and the table
    keeps str keys only.  A batch of clauses of one width after the header
    is read at once (`_read_batch`); any other batch, or one with a token
    that fails the checks, line by line (`_read_lines`), which raises the
    errors.
    """
    header: tuple[int, int] | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    table: dict[str, int] = {}  # token text -> checked non-zero literal

    chunks = _text_chunks(source) if isinstance(source, str) else _file_chunks(source)
    lines = chain.from_iterable(map(str.splitlines, chunks))
    lineno = 1
    for batch in iter(lambda: list(islice(lines, BATCH_LINES)), []):
        if header is None or pending or not _read_batch(batch, header[0], clauses, table):
            header = _read_lines(batch, lineno, header, clauses, pending, table)
        lineno += len(batch)

    if header is None:
        raise HeaderMismatch("missing 'p cnf' header")
    if pending:
        raise MissingTerminator("final clause lacks the 0 terminator")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise HeaderMismatch(f"header says {num_clauses} clauses, body has {len(clauses)}")
    return CnfFormula(num_vars, clauses)


def _read_batch(batch: list[str], num_vars: int, clauses: list[Clause], table: dict[str, int]) -> bool:
    """Append the clauses of `batch` if its tokens are clauses of one width
    w >= 1, each closed by "0", and every token not in `table` is a literal
    in range (then added to it, with its plain spelling).  Otherwise change
    nothing and return False.
    """
    tokens = " ".join(batch).split()
    if not tokens or tokens[-1] != "0":
        return False
    width = tokens.index("0")
    step = width + 1
    count, extra = divmod(len(tokens), step)
    if not width or extra or tokens[width::step].count("0") != count:
        return False
    del tokens[width::step]  # a "0" left is caught below: it is never in the table, nor learned
    start = len(clauses)
    lookup = table.__getitem__
    try:
        clauses.extend(zip(*[map(lookup, tokens)] * width))
    except KeyError:  # tokens not seen since the header: check them together
        del clauses[start:]
        new = list(set(tokens).difference(table))
        if not _decimal("".join(new)):
            return False
        try:
            values = list(map(int, new))
        except ValueError:
            return False
        if 0 in values or max(map(abs, values)) > num_vars:
            return False
        shared = table.setdefault
        table.update(zip(new, [shared(str(value), value) for value in values]))
        clauses.extend(zip(*[map(lookup, tokens)] * width))
    return True


def _read_lines(
    batch: list[str],
    lineno: int,
    header: tuple[int, int] | None,
    clauses: list[Clause],
    pending: list[int],
    table: dict[str, int],
) -> tuple[int, int] | None:
    """Read `batch`, whose first line is line `lineno`, one token at a time.

    Returns the header in force after it.  A token in the table is a checked
    literal; any other goes through the token rule, then is a terminator
    "0" (never in the table) or a literal that passes the range check.
    """
    for lineno, raw in enumerate(batch, start=lineno):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0][0]
        if head == "c":
            continue
        if head == "p":
            header = _header(tokens, lineno, raw)
            table.clear()
            continue
        if header is None:
            raise HeaderMismatch(f"line {lineno}: clause before header")
        for token in tokens:
            lit = table.get(token)
            if lit is None:
                try:
                    lit = read_integer(token)
                except ValueError as exc:
                    raise MalformedLiteral(f"line {lineno}: bad literal {token!r}") from exc
                if lit == 0:
                    clauses.append(tuple(pending))
                    pending.clear()
                    continue
                if abs(lit) > header[0]:
                    raise LiteralOutOfRange(
                        f"line {lineno}: literal {lit} exceeds {header[0]} variables"
                    )
                lit = table[token] = table.setdefault(str(lit), lit)
            pending.append(lit)
    return header


def _header(parts: list[str], lineno: int, raw: str) -> tuple[int, int]:
    """Variable and clause counts of a `p cnf <vars> <clauses>` line."""
    if parts[:2] != ["p", "cnf"] or len(parts) != 4:
        raise HeaderMismatch(f"line {lineno}: malformed header {raw!r}")
    try:
        num_vars, num_clauses = read_integer(parts[2]), read_integer(parts[3])
    except ValueError as exc:
        raise HeaderMismatch(f"line {lineno}: non-integer header counts") from exc
    if num_vars < 0 or num_clauses < 0:
        raise HeaderMismatch(f"line {lineno}: negative header counts")
    return num_vars, num_clauses


def stream_dimacs(
    out: IO[str], num_vars: int, num_clauses: int, clauses: Iterable[Clause], comments: Iterable[str] = ()
) -> int:
    """Write DIMACS to `out`: comments, the header, one line per clause.

    `clauses` is pulled `WRITE_BATCH` at a time, never held whole.  Returns
    how many were written, for a caller that counted them beforehand.
    """
    for comment in comments:
        out.write(f"c {comment}\n")
    out.write(f"p cnf {num_vars} {num_clauses}\n")
    formats: list[str] = []  # formats[w] is the line of a clause of width w
    written = 0
    clauses = iter(clauses)
    while batch := list(islice(clauses, WRITE_BATCH)):
        out.write(_clause_lines(batch, formats))
        written += len(batch)
    return written


def _clause_lines(batch: list[Clause], formats: list[str]) -> str:
    """The lines of `batch`, adding the formats of widths not seen before."""
    try:
        return "".join([formats[len(clause)] % clause for clause in batch])
    except IndexError:  # a clause wider than any so far: only then find the widest
        formats.extend("%d " * width + "0\n" for width in range(len(formats), max(map(len, batch)) + 1))
        return _clause_lines(batch, formats)


def write_dimacs(formula: CnfFormula) -> str:
    """Normalized DIMACS text of `formula`, as `stream_dimacs` writes it."""
    out = io.StringIO()
    stream_dimacs(out, formula.num_vars, len(formula.clauses), formula.clauses)
    return out.getvalue()


def write_model(assignment: Assignment) -> str:
    """`v` lines of the assigned literals in variable order, 20 a line, the
    last ending in the 0 (`v 0` alone if none), as `parse_model` reads them."""
    literals = [var if value else -var for var, value in sorted(assignment.values.items())]
    rows = [literals[start : start + 20] for start in range(0, len(literals), 20)] or [[]]
    rows[-1].append(0)
    return "".join(" ".join(["v", *map(str, row)]) + "\n" for row in rows)


def iter_model_literals(text: str) -> Iterator[int]:
    """Signed literals from SAT-competition style `v` lines, until the 0.

    A literal is an optional sign and ASCII digits; errors name the line.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line.startswith("v"):
            continue
        read = int if _decimal(line) else read_integer  # one check for a whole plain line
        for token in line[1:].split():
            try:
                lit = read(token)
            except ValueError as exc:
                raise MalformedLiteral(f"line {lineno}: bad model literal {token!r}") from exc
            if lit == 0:
                return
            yield lit
    raise MissingTerminator("model lines lack the 0 terminator")


def parse_model(text: str, num_vars: int | None = None) -> Assignment:
    """Assignment from solver output.

    Accepts single- or multi-line `v` blocks (an optional `s SATISFIABLE`
    line is ignored). Repeating a literal is allowed; assigning both
    polarities raises DuplicateAssignment.
    """
    values: dict[int, bool] = {}
    max_var = 0
    for lit in iter_model_literals(text):
        var = abs(lit)
        if num_vars is not None and var > num_vars:
            raise LiteralOutOfRange(f"model literal {lit} exceeds {num_vars} variables")
        polarity = lit > 0
        if values.get(var, polarity) != polarity:
            raise DuplicateAssignment(f"variable {var} assigned both polarities")
        values[var] = polarity
        max_var = max(max_var, var)
    return Assignment(num_vars if num_vars is not None else max_var, values)


def assignment_from_ranks(
    rank_tables: list[tuple[int, ...]], var_of: Callable[[int, int, int], int]
) -> Assignment:
    """Every comparison `v_i(A) < v_i(B)` of the rank tables, as the ids 1 .. len(values).

    `var_of(i, a, b)` must number x(i, a, b) for a < b as `encoding.var_id` does:
    agent-major, and row a of an agent, the comparisons of set a with every
    set b > a, is the run of consecutive ids that follows the row before it.
    So a row costs two `var_of` calls, for its first and its last id, and is
    filled in one step.  No tables raise `AgentCountOutOfRange`, tables of
    unequal length `ArityMismatch`, a length that is not 2^m for a supported m
    `GoodCountOutOfRange`, and a row that `var_of` does not number as the next
    run of ids `LiteralOutOfRange`.
    """
    if not rank_tables:
        raise AgentCountOutOfRange("need at least one rank table")
    n_sets = len(rank_tables[0])
    if any(len(rank) != n_sets for rank in rank_tables):
        raise ArityMismatch(f"rank tables of unequal length: {[len(rank) for rank in rank_tables]}")
    if n_sets.bit_count() != 1:
        raise GoodCountOutOfRange(f"a rank table of {n_sets} entries is not one per set of m goods")
    check_good_count(n_sets.bit_length() - 1)
    values: dict[int, bool] = {}
    start = 1
    for agent, rank in enumerate(rank_tables):
        for a in range(n_sets - 1):
            end = start + n_sets - 1 - a  # row a is x(agent, a, b) for b = a+1 .. n_sets-1
            if var_of(agent, a, a + 1) != start or var_of(agent, a, n_sets - 1) != end - 1:
                raise LiteralOutOfRange(f"x({agent}, {a}, b) for b > {a} must be the ids {start}..{end - 1}")
            values.update(zip(range(start, end), map(gt, rank[a + 1 :], repeat(rank[a]))))
            start = end
    return Assignment(len(values), values)
