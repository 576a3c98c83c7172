"""Turning SAT models into valuations, and the valuation text formats.

Model decoding counts wins: the rank of a set is the number of sets it beats
under the assignment's comparison variables.  An agent's variables are
consecutive ids in pair order, so they are read in one pass and each set's
comparisons with the later sets are one slice of them, counted for both
sides at once.  A rank collision certifies that the comparison relation is
not a total order; only then are single comparisons read through
`encoding.var_id`, to extract a witnessing 3-cycle for the error.

Text formats, each of which states its own shape:

* plain blocks ("ThreeVals"): n consecutive blocks of 2^m lines, each line
  ``<set-number> <m-bit bitstring> <rank>``; within a block the ranks are
  0 .. 2^m - 1 in increasing order. The leftmost bitstring character is bit
  m-1. m is the width of the first bitstring, n the line count over 2^m.
* generalized blocks: an ``n m`` header line followed by n blocks of 2^m
  lines ``<set-number> <bitstring> <value>`` sorted by set number; values are
  arbitrary non-negative integers (used for degenerate extension instances).
  `load_valuations` tells the two block forms apart by that header.
* dyadic dump: 2^m lines ``<set-number> <non-negative decimal integer>``,
  read back as a `RealValuation`, which checks itself when it is made.

An integer field is an optional sign and ASCII digits, as in DIMACS
(`dimacs.read_integer`).
"""

from __future__ import annotations

from importlib import resources
from operator import add

from .bitset import bitstring, check_good_count, parse_bitstring
from .dimacs import Assignment, read_integer
from .encoding import NUM_AGENTS, num_variables, var_id
from .errors import (
    BitstringMismatch,
    IncompleteAssignment,
    LineCountMismatch,
    MalformedValuationLine,
    NotATotalOrder,
    RankNotIncreasing,
)
from .valuations import RankValuation, RealValuation


def decode_valuations(assignment: Assignment, m: int) -> list[RankValuation]:
    """Rank valuations of all three agents from a full comparison assignment.

    rank_i(A) = number of sets B with "v_i(B) < v_i(A)" under the assignment.
    An agent's variables are consecutive ids in pair order, so set a's row
    of comparisons with the sets b > a is one slice of them: a wins where it
    is False, each b where it is True.  Raises IncompleteAssignment for the
    first missing variable in pair order, NotATotalOrder (with a witness
    3-cycle) if ranks collide, and MonotonicityViolated if the order
    contradicts the subset order.
    """
    check_good_count(m)
    n_sets = 1 << m
    pairs = num_variables(m) // NUM_AGENTS
    valuations = []
    for agent in range(NUM_AGENTS):
        first = var_id(agent, 0, 1, m)
        values = list(map(assignment.values.get, range(first, first + pairs)))
        if None in values:
            raise IncompleteAssignment(first + values.index(None))
        rank = [0] * n_sets
        start = 0
        for a in range(n_sets - 1):
            row = values[start : start + n_sets - 1 - a]  # x(a, b) for b = a+1 .. n_sets-1
            start += len(row)
            rank[a] += len(row) - sum(row)
            rank[a + 1 :] = map(add, rank[a + 1 :], row)
        seen = [-1] * n_sets
        for mask, r in enumerate(rank):
            if seen[r] != -1:
                raise NotATotalOrder(_find_three_cycle(values, agent, m, seen[r], mask))
            seen[r] = mask
        valuations.append(RankValuation(m, tuple(rank)))
    return valuations


def _find_three_cycle(
    values: list[bool], agent: int, m: int, a: int, b: int
) -> tuple[int, int, int]:
    """Given equal-rank sets a and b, find x < y < z < x in the agent's relation."""
    first = var_id(agent, 0, 1, m)

    def less(x: int, y: int) -> bool:  # v(x) < v(y), read through var_id
        var = var_id(agent, x, y, m)
        return values[var - first] if var > 0 else not values[-var - first]

    low, high = (a, b) if less(a, b) else (b, a)
    for c in range(1 << m):
        if c not in (a, b) and less(high, c) and less(c, low):
            return (high, c, low)  # high < c < low < high
    raise AssertionError("rank collision without a 3-cycle")


# -- line parsing -----------------------------------------------------------------

def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(1-based line number, fields) of every non-blank line."""
    lines = enumerate(text.splitlines(), 1)
    return [(number, line.split()) for number, line in lines if line.strip()]


def _fields(row: tuple[int, list[str]], width: int) -> list[str]:
    number, fields = row
    if len(fields) != width:
        raise MalformedValuationLine(f"line {number}: need {width} fields, got {len(fields)}")
    return fields


def _parse_line(row: tuple[int, list[str]], m: int | None = None) -> tuple[int, int]:
    """The integers of a ``<a> <b>`` line, or of a ``<set> <bitstring> <b>`` line given m."""
    number = row[0]
    fields = _fields(row, 2 if m is None else 3)
    try:
        first, last = read_integer(fields[0]), read_integer(fields[-1])
    except ValueError:
        text = " ".join(fields)
        raise MalformedValuationLine(f"line {number}: a field of {text!r} is not an integer") from None
    bits = fields[1]
    if m is not None and (len(bits) != m or bits.strip("01") or parse_bitstring(bits) != first):
        raise BitstringMismatch(f"line {number}: set {first} does not match bitstring {bits}")
    return first, last


# -- plain rank blocks ---------------------------------------------------------

def load_bundled_counterexample() -> list[RankValuation]:
    """The three 8-good valuations shipped with the package."""
    text = resources.files("efxlab.data").joinpath("counterexample8.txt").read_text()
    return load_rank_blocks(text)


def load_valuations(text: str) -> list[RankValuation] | list[RealValuation]:
    """Value blocks if the first non-blank line is an ``n m`` header, else rank blocks.

    A two-field first line whose second field is a 0/1 string as wide as the
    next line's bitstring is a rank line short of its rank, not a header: no
    supported m is written that way.
    """
    lines = (line.split() for line in text.splitlines() if line.strip())
    first, second = next(lines, []), next(lines, [])
    header = len(first) == 2 and not (
        len(second) > 1 and not first[1].strip("01") and len(first[1]) == len(second[1])
    )
    return load_value_blocks(text) if header else load_rank_blocks(text)


def load_rank_blocks(text: str) -> list[RankValuation]:
    """Rank blocks over the m goods of the first bitstring, n = line count / 2^m."""
    rows = _rows(text)
    if not rows:
        raise LineCountMismatch("no valuation lines")
    m = len(_fields(rows[0], 3)[1])
    check_good_count(m)
    n_sets = 1 << m
    if len(rows) % n_sets:
        raise LineCountMismatch(f"{len(rows)} lines are not whole blocks of {n_sets}")
    valuations = []
    for block in range(len(rows) // n_sets):
        rank = [0] * n_sets
        for offset in range(n_sets):
            mask, r = _parse_line(rows[block * n_sets + offset], m)
            if r != offset:
                raise RankNotIncreasing(
                    f"block {block}: rank {r} at position {offset}, expected {offset}"
                )
            rank[mask] = r
        valuations.append(RankValuation(m, tuple(rank)))
    return valuations


def dump_rank_blocks(valuations: list[RankValuation]) -> str:
    lines = []
    for val in valuations:
        for r, mask in enumerate(val.order()):
            lines.append(f"{mask} {bitstring(mask, val.m)} {r}")
    return "\n".join(lines) + "\n"


# -- generalized value blocks --------------------------------------------------

def load_value_blocks(text: str) -> list[RealValuation]:
    rows = _rows(text)
    if not rows or len(rows[0][1]) != 2:
        raise LineCountMismatch("missing 'n m' header line")
    n, m = _parse_line(rows[0])
    check_good_count(m)
    if n < 1:
        raise LineCountMismatch(f"need at least one valuation block, got n={n}")
    n_sets = 1 << m
    if len(rows) != 1 + n * n_sets:
        raise LineCountMismatch(f"expected {1 + n * n_sets} lines, got {len(rows)}")
    valuations = []
    for block in range(n):
        values: list[int] = [0] * n_sets
        for offset in range(n_sets):
            mask, value = _parse_line(rows[1 + block * n_sets + offset], m)
            if mask != offset:
                raise LineCountMismatch(f"block {block}: expected set {offset}, got {mask}")
            values[mask] = value
        valuations.append(RealValuation(m, tuple(values)))
    return valuations


def dump_value_blocks(valuations: list[RealValuation]) -> str:
    n, m = len(valuations), valuations[0].m
    lines = [f"{n} {m}"]
    for val in valuations:
        for mask in range(1 << m):
            lines.append(f"{mask} {bitstring(mask, m)} {val.values[mask]}")
    return "\n".join(lines) + "\n"


# -- dyadic dumps ----------------------------------------------------------------

def dump_dyadic(v: RealValuation) -> str:
    return "\n".join(f"{mask} {value}" for mask, value in enumerate(v.values)) + "\n"


def load_dyadic(text: str) -> RealValuation:
    rows = _rows(text)
    m = (len(rows) - 1).bit_length()
    if len(rows) != 1 << m:
        raise LineCountMismatch(f"line count {len(rows)} is not a power of two")
    check_good_count(m)
    values = [0] * len(rows)
    for offset, row in enumerate(rows):
        mask, value = _parse_line(row)
        if mask != offset:
            raise LineCountMismatch(f"expected set {offset}, got {mask}")
        values[mask] = value
    return RealValuation(m, tuple(values))
