"""CNF formula container, and the one reader and writer of DIMACS and `v` lines.

`stream_dimacs` writes every DIMACS text the package produces, with one `%d`
line format per clause width; `write_dimacs` is its string form.
`parse_dimacs` reads DIMACS back, from a text or a file, a batch of lines at
a time, into a `ClauseStore`: one array of literals, as MiniSat keeps its
clauses in one arena (Eén & Sörensson, SAT 2003), instead of a tuple per
clause.  `write_model` writes the `v` lines that `parse_model` reads.  A
literal, a header count or a model literal is an optional sign and ASCII
decimal digits, nothing else; `read_integer` is that rule, and the valuation
files and the command line's integer options are read by it too.
"""

from __future__ import annotations

import io
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import eq, gt
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


class ClauseStore(Sequence[Clause]):
    """Clauses of a parsed formula: one `array('i')` of their literals, in
    order, plus run-length clause widths (a width, and how many clauses of
    that width come next).

    It iterates, indexes, has a length and compares equal as the list of
    tuples it stands for; a list of the same clauses compares equal to it.
    Every literal it yields goes through one table, `shared`, so equal
    literals are one int object, in every tuple and every pass.  `runs`
    gives the clauses one run of equal width at a time.  Indexing walks the
    runs, so it suits the odd lookup, not a loop.
    """

    __slots__ = ("literals", "shared", "_widths", "_counts")

    def __init__(self) -> None:
        self.literals = array("i")
        self.shared: dict[int, int] = {}  # each literal of the store -> its one int object
        self._widths = array("i")  # per run, its clause width; runs are maximal
        self._counts = array("q")  # per run, its number of clauses

    def append(self, clause: list[int]) -> None:
        """Add `clause`, whose literals must be in `shared`."""
        self.literals.fromlist(clause)
        self._add_run(len(clause), 1)

    def append_run(self, width: int, literals: list[int]) -> None:
        """Add clauses of `width` >= 1 literals each, whose literals, in
        order, are `literals`, which must be in `shared`."""
        self.literals.fromlist(literals)
        self._add_run(width, len(literals) // width)

    def _add_run(self, width: int, count: int) -> None:
        if self._widths and self._widths[-1] == width:
            self._counts[-1] += count
        else:
            self._widths.append(width)
            self._counts.append(count)

    def runs(self) -> Iterator[tuple[int, Iterator[Clause]]]:
        """Each run of clauses of one width, in order: the width, and the
        clauses as tuples of shared literals, made as they are read."""
        get = self.shared.__getitem__
        view = memoryview(self.literals)
        start = 0
        for width, count in zip(self._widths, self._counts):
            end = start + width * count
            yield width, (zip(*[map(get, view[start:end])] * width) if width else repeat((), count))
            start = end

    def __iter__(self) -> Iterator[Clause]:
        return chain.from_iterable(clauses for _, clauses in self.runs())

    def __len__(self) -> int:
        return sum(self._counts)

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += len(self)
        start = 0
        for width, count in zip(self._widths, self._counts):
            if 0 <= index < count:
                at = start + index * width
                return tuple(map(self.shared.__getitem__, self.literals[at : at + width]))
            index -= count
            start += width * count
        raise IndexError("clause index out of range")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ClauseStore):
            return (self.literals, self._widths, self._counts) == (other.literals, other._widths, other._counts)
        if isinstance(other, list):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ClauseStore({list(self)!r})"


@dataclass
class CnfFormula:
    """`clauses` is any sequence of clauses: a list of tuples, or the
    `ClauseStore` that `parse_dimacs` fills."""

    num_vars: int
    clauses: Sequence[Clause]

    def literals(self) -> Iterable[int]:
        """Every literal of every clause, in order: a store's array itself."""
        if isinstance(self.clauses, ClauseStore):
            return self.clauses.literals
        return chain.from_iterable(self.clauses)

    def check_literals(self) -> None:
        """Raises LiteralOutOfRange, naming the first bad literal, unless every
        literal is nonzero and of magnitude at most `num_vars`."""
        lits = self.literals()
        if not isinstance(lits, array):
            lits = set(lits)
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
    """Parse DIMACS CNF into a `ClauseStore`; `c` comment and blank lines
    ignored, header validated against the body.

    `source` is the whole text or an open text file, never held whole: a
    file is read `TEXT_CHUNK` characters at a time.  Either is split into
    lines as by `str.splitlines`, which also breaks at a form feed, say, and
    read `BATCH_LINES` lines at a time.  A literal is an optional sign and
    ASCII digits.  A later header may change the variable count, but not to
    below a variable already read.  Errors name the 1-based line.

    Literals come from a table from token text to literal.  A token met for
    the first time takes its value's int from the store's `shared` table if
    there is one, so equal literals share one int object however they are
    written ("300", "+300", "0300").  Since no header lowers the count below
    a literal read, every token in the table stays in range.  A batch of
    clauses of one width after the header is read at once (`_read_batch`);
    any other batch, or one with a token that fails the checks, line by line
    (`_read_lines`), which raises the errors.
    """
    header: tuple[int, int] | None = None
    clauses = ClauseStore()
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


def _read_batch(batch: list[str], num_vars: int, clauses: ClauseStore, table: dict[str, int]) -> bool:
    """Add the clauses of `batch` if its tokens are clauses of one width
    w >= 1, each closed by "0", and every token not in `table` is a literal
    in range (then added to it, and its value to `clauses.shared`).
    Otherwise change nothing and return False.
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
    lookup = table.__getitem__
    try:
        literals = list(map(lookup, tokens))
    except KeyError:  # tokens not seen yet: check them together
        new = list(set(tokens).difference(table))
        if not _decimal("".join(new)):
            return False
        try:
            values = list(map(int, new))
        except ValueError:
            return False
        if 0 in values or max(map(abs, values)) > num_vars:
            return False
        table.update(zip(new, map(clauses.shared.setdefault, values, values)))
        literals = list(map(lookup, tokens))
    clauses.append_run(width, literals)
    return True


def _read_lines(
    batch: list[str],
    lineno: int,
    header: tuple[int, int] | None,
    clauses: ClauseStore,
    pending: list[int],
    table: dict[str, int],
) -> tuple[int, int] | None:
    """Read `batch`, whose first line is line `lineno`, one token at a time.

    Returns the header in force after it.  A token in the table is a checked
    literal; any other goes through the token rule, then is a terminator
    "0" (never in the table) or a literal that passes the range check.
    """
    shared = clauses.shared
    for lineno, raw in enumerate(batch, start=lineno):
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0][0]
        if head == "c":
            continue
        if head == "p":
            num_vars = header[0] if header else 0  # no literal read so far exceeds it
            header = _header(tokens, lineno, raw)
            top = max(map(abs, shared)) if header[0] < num_vars and shared else 0
            if top > header[0]:
                raise HeaderMismatch(
                    f"line {lineno}: header lowers the variable count to {header[0]}, below variable {top} already read"
                )
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
                    clauses.append(pending)
                    pending.clear()
                    continue
                if abs(lit) > header[0]:
                    raise LiteralOutOfRange(
                        f"line {lineno}: literal {lit} exceeds {header[0]} variables"
                    )
                lit = table[token] = shared.setdefault(lit, lit)
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
