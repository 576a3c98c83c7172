import functools
import io
import random
import re
from itertools import product

import pytest

from efxlab import dimacs, encoding
from efxlab.decoding import decode_valuations, load_bundled_counterexample
from efxlab.dimacs import (
    Assignment,
    CnfFormula,
    assignment_from_ranks,
    parse_dimacs,
    parse_model,
    write_dimacs,
    write_model,
)
from efxlab.encoding import NUM_AGENTS, EncodeOptions, EncodeStats, encode_formula, var_id
from efxlab.errors import (
    DuplicateAssignment,
    HeaderMismatch,
    LiteralOutOfRange,
    MalformedLiteral,
    MissingTerminator,
)
from efxlab.valuations import random_monotone_rank_valuation


def test_parse_single_unit_clause():
    formula = parse_dimacs("p cnf 1 1\n1 0\n")
    assert formula.num_vars == 1
    assert formula.clauses == [(1,)]


def test_parse_ignores_comments_and_blank_lines():
    text = "c a comment\n\np cnf 3 2\nc another\n1 -2 0\n-1 3 0\n"
    formula = parse_dimacs(text)
    assert formula.clauses == [(1, -2), (-1, 3)]


def test_parse_accepts_clauses_spanning_lines():
    formula = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
    assert formula.clauses == [(1, 2, 3)]


def test_header_mismatch_detected():
    with pytest.raises(HeaderMismatch):
        parse_dimacs("p cnf 2 2\n1 0\n")


def test_missing_terminator_detected():
    with pytest.raises(MissingTerminator):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_malformed_literal_detected():
    with pytest.raises(MalformedLiteral):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


def test_out_of_range_literal_detected():
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 2 1\n1 3 0\n")


def test_write_parse_roundtrip_on_normalized_text():
    formula = CnfFormula(4, [(1, -2), (3, 4, -1), (-4,)])
    text = write_dimacs(formula)
    again = parse_dimacs(text)
    assert again.num_vars == formula.num_vars
    assert again.clauses == formula.clauses
    assert write_dimacs(again) == text


def test_both_writers_give_identical_bytes(monkeypatch):
    clauses = [(), (-3,), (1, -2, 3, -4, 5, -6, 7, -8)]
    opts = EncodeOptions(4, None, False)
    stats = EncodeStats(4, None, False, 8, {"test": len(clauses)})
    monkeypatch.setattr(encoding, "clause_counts", lambda _: stats)
    monkeypatch.setattr(encoding, "encode", lambda _: iter(clauses))
    out = io.StringIO()
    encoding.write_dimacs_stream(opts, out, ["c1"])
    assert out.getvalue() == "c c1\n" + write_dimacs(CnfFormula(8, clauses))
    assert out.getvalue().endswith("p cnf 8 3\n0\n-3 0\n1 -2 3 -4 5 -6 7 -8 0\n")


WIDE = (
    "1 -2 3 -4 5 -6 7 -8 9 -10 11 -12 13 -14 15 -16 17 -18 19 -20 "
    "21 -22 23 -24 25 -26 27 -28 29 -30 31 -32 33 -34 35 -36 37 -38 39 -40 0\n"
)


@pytest.mark.parametrize("batch", [1, 2, dimacs.WRITE_BATCH])
def test_write_dimacs_bytes_at_every_clause_width(monkeypatch, batch):
    # 40 literals is wider than any encoder family's 2m
    wide = tuple(lit if lit % 2 else -lit for lit in range(1, 41))
    monkeypatch.setattr(dimacs, "WRITE_BATCH", batch)
    assert write_dimacs(CnfFormula(40, [])) == "p cnf 40 0\n"
    text = write_dimacs(CnfFormula(40, [(), (7,), wide, (-1, 2), wide, ()]))
    assert text == "p cnf 40 6\n0\n7 0\n" + WIDE + "-1 2 0\n" + WIDE + "0\n"


def test_stream_writer_checks_the_emitted_count(monkeypatch):
    counted = encoding.clause_counts

    def one_fewer(opts):
        stats = counted(opts)
        stats.family_counts["not_efx"] -= 1
        return stats

    monkeypatch.setattr(encoding, "clause_counts", one_fewer)
    with pytest.raises(AssertionError, match="^counting pre-pass predicted 710 clauses, emitted 711$"):
        encoding.write_dimacs_stream(EncodeOptions(4, 2, True), io.StringIO())


@pytest.mark.parametrize("num_vars", [0, 1, 19, 20, 21, 40, 41])
def test_write_model_inverts_parse_model(num_vars):
    assignment = Assignment(num_vars, {var: var % 3 != 1 for var in range(1, num_vars + 1)})
    text = write_model(assignment)
    assert parse_model(text, num_vars) == assignment
    full_lines = (num_vars - 1) // 20 if num_vars else 0
    widths = [20] * full_lines + [num_vars - 20 * full_lines + 1]  # the last line adds the 0
    rows = [line.split() for line in text.splitlines()]
    assert [row[0] for row in rows] == ["v"] * len(widths)
    assert [len(row) - 1 for row in rows] == widths
    assert text.endswith(" 0\n")


def test_parse_model_single_line():
    assignment = parse_model("v 1 -2 0\n")
    assert assignment.values == {1: True, 2: False}


def test_parse_model_multi_line_block_matches_single_line():
    single = parse_model("s SATISFIABLE\nv 1 -2 3 0\n")
    multi = parse_model("s SATISFIABLE\nv 1\nv -2 3\nv 0\n")
    assert single.values == multi.values


def test_parse_model_repeats_are_idempotent_but_conflicts_raise():
    assert parse_model("v 1 1 0\n").values == {1: True}
    with pytest.raises(DuplicateAssignment):
        parse_model("v 1 -1 0\n")


def test_parse_model_range_check():
    with pytest.raises(LiteralOutOfRange):
        parse_model("v 5 0\n", num_vars=4)


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 1_0 0\n", "line 1: bad model literal '1_0'"),
        ("s SATISFIABLE\nv 1 -2\nv \u0663 0\n", "line 3: bad model literal '\u0663'"),
        ("v 1 +-2 0\n", "line 1: bad model literal '+-2'"),
    ],
)
def test_parse_model_takes_only_signed_ascii_digits(text, message):
    with pytest.raises(MalformedLiteral) as caught:
        parse_model(text)
    assert str(caught.value) == message


def test_parse_model_requires_terminator():
    with pytest.raises(MissingTerminator):
        parse_model("v 1 -2\n")


def test_assignment_satisfies():
    formula = CnfFormula(2, [(1, 2), (-1, 2)])
    assert Assignment(2, {1: True, 2: True}).satisfies(formula)
    assert not Assignment(2, {1: True, 2: False}).satisfies(formula)


def test_assignment_satisfies_matches_per_literal_definition():
    # reference: a clause holds iff one of its literals is true; an unassigned
    # variable's literals are neither true nor false, and an empty clause never holds
    rng = random.Random(7)
    outcomes = set()
    for _ in range(500):
        num_vars = rng.randint(1, 6)
        clauses = [
            tuple(rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(0, 4)))
            for _ in range(rng.randint(0, 6))
        ]
        formula = CnfFormula(num_vars, clauses)
        assigned = rng.sample(range(1, num_vars + 1), rng.randint(0, num_vars))
        assignment = Assignment(num_vars, {var: rng.random() < 0.5 for var in assigned})
        want = all(any(assignment.values.get(abs(lit)) == (lit > 0) for lit in clause) for clause in clauses)
        assert assignment.satisfies(formula) == want
        outcomes.add(want)
    assert outcomes == {True, False}
    assert not Assignment(1, {1: True}).satisfies(CnfFormula(1, [(1,), ()]))
    assert not Assignment(2, {1: False}).satisfies(CnfFormula(2, [(-2, 1)]))


@pytest.mark.parametrize(
    "clauses, message",
    [
        ([(1, 0)], "literal 0 invalid for 3 variables"),
        ([(1, -2)] * 500 + [(3, 0), (-9,)], "literal 0 invalid for 3 variables"),
        ([(1, -2)] * 500 + [(2, -4), (0,)], "literal -4 invalid for 3 variables"),
        ([(1, -2)] * 500 + [(3, 2, 7)], "literal 7 invalid for 3 variables"),
    ],
)
def test_check_literals_names_the_first_bad_literal(clauses, message):
    with pytest.raises(LiteralOutOfRange) as caught:
        CnfFormula(3, clauses).check_literals()
    assert str(caught.value) == message


def test_check_literals_accepts_every_literal_in_range():
    CnfFormula(3, [(1, -1), (3,), (-3, 2), ()]).check_literals()
    CnfFormula(0, []).check_literals()
    CnfFormula(0, [()]).check_literals()


# -- the table-driven parser against the per-token parser it replaced ---------

DECIMAL = re.compile(r"[+-]?[0-9]+")  # a literal or count: an optional sign, ASCII digits


def _decimal_int(token):
    if not DECIMAL.fullmatch(token):
        raise ValueError(token)
    return int(token)


def reference_parse_dimacs(text):
    """The per-token parser: the token rule, `int()` and the range check on every
    token, over the lines of `text` as `str.splitlines` splits it; a header may
    not lower the variable count below a variable already read."""
    num_vars = num_clauses = None
    clauses, pending = [], []
    top = 0  # the largest variable read
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if parts[:2] != ["p", "cnf"] or len(parts) != 4:
                raise HeaderMismatch(f"line {lineno}: malformed header {raw!r}")
            try:
                num_vars, num_clauses = _decimal_int(parts[2]), _decimal_int(parts[3])
            except ValueError as exc:
                raise HeaderMismatch(f"line {lineno}: non-integer header counts") from exc
            if num_vars < 0 or num_clauses < 0:
                raise HeaderMismatch(f"line {lineno}: negative header counts")
            if top > num_vars:
                raise HeaderMismatch(
                    f"line {lineno}: header lowers the variable count to {num_vars}, below variable {top} already read"
                )
            continue
        if num_vars is None:
            raise HeaderMismatch(f"line {lineno}: clause before header")
        for token in line.split():
            try:
                lit = _decimal_int(token)
            except ValueError as exc:
                raise MalformedLiteral(f"line {lineno}: bad literal {token!r}") from exc
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > num_vars:
                    raise LiteralOutOfRange(f"line {lineno}: literal {lit} exceeds {num_vars} variables")
                pending.append(lit)
                top = max(top, abs(lit))
    if num_vars is None or num_clauses is None:
        raise HeaderMismatch("missing 'p cnf' header")
    if pending:
        raise MissingTerminator("final clause lacks the 0 terminator")
    if len(clauses) != num_clauses:
        raise HeaderMismatch(f"header says {num_clauses} clauses, body has {len(clauses)}")
    return CnfFormula(num_vars, clauses)


def _outcome(parse, source):
    try:
        formula = parse(source)
    except Exception as exc:  # the parsers must agree on the type and message
        return type(exc), str(exc)
    return formula.num_vars, formula.clauses


def _spell(rng, lit):
    """A token for `lit`: mostly plain, sometimes with a plus sign or zero padding."""
    pick = rng.random()
    if pick < 0.05 and lit > 0:
        return f"+{lit}"
    if pick < 0.1:
        return f"{'-' if lit < 0 else ''}00{abs(lit)}"
    return str(lit)


def _scattered(rng, num_vars, count):
    """`count` clauses of widths 0-4 laid out at random: several to a line,
    spanning lines, "-0"/"00" terminators, blank and comment lines between."""
    lines, line = [], []
    for _ in range(count):
        lits = [rng.choice((1, -1)) * rng.randint(1, num_vars) for _ in range(rng.randint(0, 4))]
        for token in [_spell(rng, lit) for lit in lits] + [rng.choice(["0"] * 8 + ["-0", "00"])]:
            line.append(token)
            if rng.random() < 0.1:  # the clause goes on on the next line
                lines.append(" ".join(line))
                line = []
        if rng.random() < 0.7:  # else the next clause shares the line
            lines.append(rng.choice([" ", "  ", "\t"]).join(line))
            line = []
        if rng.random() < 0.1:
            if line:
                lines.append(" ".join(line))
                line = []
            lines.append(rng.choice(["", "   ", "c mid-body 1 2 0", "c"]))
    if line:
        lines.append(" ".join(line))
    return lines


def _run(rng, num_vars, count):
    """`count` clauses of one width, one to a line and closed by "0", as a
    batch must be to be read at once; maybe one clause ends in "-0" or "00"
    and one spans two lines, perhaps across the end of a batch."""
    width = rng.randint(1, 4)
    spelled = [_spell(rng, lit) for lit in range(-num_vars, num_vars + 1) for _ in range(10) if lit]
    tokens = rng.choices(spelled, k=count * width)
    lines = [" ".join(tokens[start:start + width]) + " 0" for start in range(0, len(tokens), width)]
    odd = rng.randrange(3 * count)  # when below count, the clause that ends in "-0" or "00"
    if odd < count:
        lines[odd] = lines[odd][:-1] + rng.choice(["-0", "00"])
    split = rng.randrange(3 * count)  # when below count, the clause that spans two lines
    if split < count:
        cut = rng.randint(1, width)
        clause = lines[split].split()
        lines[split:split + 1] = [" ".join(clause[:cut]), " ".join(clause[cut:])]
    return lines


def _random_lines(rng, longest_run):
    """Valid DIMACS lines in varied layouts; a second header may lower the variable count.

    Each section's body mixes scattered clauses with runs of `longest_run / 2`
    to `longest_run` clauses of one width.
    """
    sections = [rng.randint(1, 12)]
    if rng.random() < 0.4:
        sections.append(rng.randint(1, sections[0]))
    bodies = []
    for num_vars in sections:
        body = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                body += _run(rng, num_vars, rng.randint(longest_run // 2, longest_run))
            else:
                body += _scattered(rng, num_vars, rng.randint(0, 12))
        bodies.append(body)
    # every clause ends in one of the three terminators, and no other token is a zero
    total = sum(token in ("0", "-0", "00") for body in bodies for line in body
                if not line.startswith("c") for token in line.split())
    lines = ["c random formula"] if rng.random() < 0.5 else []
    for num_vars, body in zip(sections, bodies):
        lines.append(f"p cnf {num_vars} {total}")
        lines += body
    return lines


def _plant(rng, line, token):
    """`line` with `token` put in: in place of a token before the last (which
    keeps a run's clause width) or inserted anywhere."""
    tokens = line.split()
    if len(tokens) > 1 and rng.random() < 0.5:
        tokens[rng.randrange(len(tokens) - 1)] = token
    else:
        tokens.insert(rng.randrange(len(tokens) + 1), token)
    return " ".join(tokens)


def _break(rng, lines, faults=7):
    """`lines` with one fault: a bad or out-of-range token, a lost terminator,
    then (for `faults` above 3) a bad header.

    A bad token goes into the second half of the body, so that it comes
    after several batches that are read at once."""
    lines = list(lines)
    body = [i for i, line in enumerate(lines) if line.split() and line.split()[0][0] not in "cp"]
    late = body[len(body) // 2:]
    headers = [i for i, line in enumerate(lines) if line.startswith("p")]
    fault = rng.randrange(faults)
    if fault == 0 and body:  # a malformed token
        i = rng.choice(late)
        token = rng.choice(["x", "1.5", "--2", "1-", "0x1", "1_0", "-1_0", "\u0661", "2\u0663", "\uff11"])
        lines[i] = _plant(rng, lines[i], token)
    elif fault == 1 and body:  # a literal past the count, maybe past a lower header's only
        i = rng.choice(late)
        counts = [int(lines[h].split()[2]) for h in headers if h < i]
        lit = rng.choice((1, -1)) * rng.randint(counts[-1] + 1, max(counts) + 1)
        lines[i] = _plant(rng, lines[i], str(lit))
    elif fault == 2 and body:  # the last terminator lost
        i = body[-1]
        lines[i] = " ".join(lines[i].split()[:-1] + ["1"])
    elif fault == 3:
        i = rng.choice(headers)
        lines[i] = rng.choice(
            ["p cnf 3", "p cnf x 1", "p dnf 3 1", "p cnf -1 0", "p cnf 2 -1", "p cnf 1_0 1", "p cnf 3 \u0661"]
        )
    elif fault == 4:
        lines.insert(0, rng.choice(["1 2 0", "0"]))
    elif fault == 5:
        i = headers[-1]
        num_vars, count = lines[i].split()[2:]
        lines[i] = f"p cnf {num_vars} {int(count) + rng.choice((-1, 1))}"
    else:
        lines = [line for line in lines if not line.startswith("p")]
    return lines


def _random_texts(count, newlines=("\n", "\r\n", "\r", "\x0c", " "), longest_run=16, faults=7):
    rng = random.Random(20261018)
    for _ in range(count):
        lines = _random_lines(rng, longest_run)
        if rng.random() < 0.5:
            lines = _break(rng, lines, faults)
        ends = rng.choices(newlines, k=len(lines))
        yield "".join(line + end for line, end in zip(lines, ends))


def _count_batches(monkeypatch):
    """Counts of batches read at once and line by line from now on."""
    seen = {"at_once": 0, "by_line": 0}
    read_batch, read_lines = dimacs._read_batch, dimacs._read_lines

    def counted_batch(*args):
        done = read_batch(*args)
        seen["at_once"] += done
        return done

    def counted_lines(*args):
        seen["by_line"] += 1
        return read_lines(*args)

    monkeypatch.setattr(dimacs, "_read_batch", counted_batch)
    monkeypatch.setattr(dimacs, "_read_lines", counted_lines)
    return seen


@functools.cache
def _cases(*texts_args, **texts_kwargs):
    """`_random_texts(...)`, each text with the reference outcome."""
    texts = _random_texts(*texts_args, **texts_kwargs)
    return [(text, _outcome(reference_parse_dimacs, text)) for text in texts]


def _parse_as_the_reference(cases):
    """Check that each text, and the same text as a file, parse as the
    reference parses the text; the number of texts that raised."""
    raised = 0
    for text, want in cases:
        assert _outcome(parse_dimacs, text) == want, text
        assert _outcome(parse_dimacs, io.StringIO(text, newline="")) == want, text
        raised += isinstance(want[0], type)
    return raised


@pytest.mark.parametrize("batch", [1, 7, dimacs.BATCH_LINES])
@pytest.mark.parametrize("chunk", [1, 7, dimacs.TEXT_CHUNK])
def test_parse_matches_the_per_token_parser(monkeypatch, chunk, batch):
    monkeypatch.setattr(dimacs, "TEXT_CHUNK", chunk)
    monkeypatch.setattr(dimacs, "BATCH_LINES", batch)
    batches = _count_batches(monkeypatch)
    # runs of clauses of one width many batches long, faults late in the body:
    # most batches are read at once, and errors come after several of them
    _parse_as_the_reference(_cases(3, ("\n", "\r\n", "\r"), longest_run=6 * batch + 64, faults=3))
    assert batches["at_once"] > 2 * batches["by_line"]
    raised = _parse_as_the_reference(_cases(1500))
    assert 300 < raised < 1200  # both valid and broken texts were tried


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_parse_from_lines_matches_parse_from_text(newline):
    for text in _random_texts(800, newlines=(newline,)):
        want = _outcome(parse_dimacs, text)
        assert _outcome(parse_dimacs, io.StringIO(text)) == want, text
        assert _outcome(parse_dimacs, io.StringIO(text, newline=None)) == want, text


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("p cnf 5 2\n5 0\np cnf 3 2\n5 0\n", HeaderMismatch,
         "line 3: header lowers the variable count to 3, below variable 5 already read"),
        ("p cnf 5 2\n-5 1 0\np cnf 3 2\n1 -5 0\n", HeaderMismatch,
         "line 3: header lowers the variable count to 3, below variable 5 already read"),
        ("p cnf 5 3\n5 1 0\np cnf 3 3\n1 2 0\n-1 3 0\n", HeaderMismatch,
         "line 3: header lowers the variable count to 3, below variable 5 already read"),
        ("p cnf 5 2\n-2 1 0\n-5 0\np cnf 6 2\np cnf 4 2\n", HeaderMismatch,
         "line 5: header lowers the variable count to 4, below variable 5 already read"),
        ("p cnf 5 2\n1 0\np cnf 3 2\n5 0\n", LiteralOutOfRange, "line 4: literal 5 exceeds 3 variables"),
        ("p cnf 3 1\n4 0\n", LiteralOutOfRange, "line 2: literal 4 exceeds 3 variables"),
        ("p cnf 3 2\n1 0\n2 0 x 0\n", MalformedLiteral, "line 3: bad literal 'x'"),
        ("0\np cnf 3 1\n", HeaderMismatch, "line 1: clause before header"),
        ("p cnf -3 0\n", HeaderMismatch, "line 1: negative header counts"),
        ("c\np cnf 3 -1\n", HeaderMismatch, "line 2: negative header counts"),
        ("p cnf 3\r\n", HeaderMismatch, "line 1: malformed header 'p cnf 3'"),
        ("p cnf 12 2\n1_0 -2 0\n\u0661 0\n", MalformedLiteral, "line 2: bad literal '1_0'"),
        ("p cnf 12 2\n1 -2 0\n\u0661 0\n", MalformedLiteral, "line 3: bad literal '\u0661'"),
        ("c\np cnf 1_0 2\n", HeaderMismatch, "line 2: non-integer header counts"),
        ("p cnf 2 1\n1 -2 0\n%\n", MalformedLiteral, "line 3: bad literal '%'"),
        ("p cnf 2 1\n1 -2 0\n%\n0\n", MalformedLiteral, "line 3: bad literal '%'"),  # a SATLIB trailer
    ],
)
def test_parse_errors_name_the_line(text, error, message):
    for source in (text, io.StringIO(text)):
        with pytest.raises(error) as caught:
            parse_dimacs(source)
        assert str(caught.value) == message


def test_inner_zero_ends_a_clause_on_a_line_of_known_tokens():
    text = "p cnf 4 5\n1 -2 0\n1 0 -2 0\n1 -2 0 3\n4 0\n"
    assert parse_dimacs(text).clauses == [(1, -2), (1,), (-2,), (1, -2), (3, 4)]


def test_equal_literals_share_one_object(monkeypatch):
    formula = encode_formula(EncodeOptions(4, 2, True))
    text = write_dimacs(formula)
    spanning = text.replace(" 0\n", "\n0\n")  # every clause spans two lines
    for batch in (7, dimacs.BATCH_LINES):  # literals met again in later batches, or in the same
        monkeypatch.setattr(dimacs, "BATCH_LINES", batch)
        for source in (text, spanning, io.StringIO(text)):
            parsed = parse_dimacs(source)
            assert parsed.clauses == formula.clauses
            first = {}
            for clause in parsed.clauses:
                for lit in clause:
                    assert first.setdefault(lit, lit) is lit
            assert max(first) > 256  # beyond the ints Python caches itself


def test_equal_literals_spelled_differently_share_one_object(monkeypatch):
    text = "p cnf 300 6\n300 0\n+300 0\n0300 0\n-300 0\n-0300 0\n-00300 0\n"
    for batch in (2, dimacs.BATCH_LINES):  # later batches read at once, or all line by line
        monkeypatch.setattr(dimacs, "BATCH_LINES", batch)
        for source in (text, io.StringIO(text)):
            literals = [lit for (lit,) in parse_dimacs(source).clauses]
            assert literals == [300] * 3 + [-300] * 3
            assert literals[0] is literals[1] is literals[2]
            assert literals[3] is literals[4] is literals[5]


def test_batches_of_one_clause_width_are_read_at_once(monkeypatch):
    out = io.StringIO()
    encoding.write_dimacs_stream(EncodeOptions(5, 4, True), out)
    text = out.getvalue()
    lines = text.splitlines()
    size = dimacs.BATCH_LINES
    batches = [lines[start:start + size] for start in range(0, len(lines), size)]
    # only the header's batch and those where one clause family gives way to
    # another, of another width, need reading line by line
    by_line = sum(
        any(line[0] in "cp" for line in batch) or len({len(line.split()) for line in batch}) > 1
        for batch in batches
    )
    assert len(batches) > 4 * by_line
    for source in (text, io.StringIO(text)):
        seen = _count_batches(monkeypatch)
        assert parse_dimacs(source).clauses == encode_formula(EncodeOptions(5, 4, True)).clauses
        assert seen == {"at_once": len(batches) - by_line, "by_line": by_line}


class _CountedFile(io.StringIO):
    """A text file that records how far into it it was asked to read."""

    asked = 0

    def read(self, size=-1):
        return self._counted(super().read(size))

    def readline(self, size=-1):
        return self._counted(super().readline(size))

    def _counted(self, text):
        self.asked = self.tell()
        return text


@pytest.mark.parametrize("batch", [7, dimacs.BATCH_LINES])
def test_a_stream_is_read_no_further_than_the_batch_of_a_bad_line(monkeypatch, batch):
    monkeypatch.setattr(dimacs, "BATCH_LINES", batch)
    line = "1 -2 0\n"
    for chunk, bad in product((1, 100, dimacs.TEXT_CHUNK), (2, 3 * batch, 3 * batch + 1, 5 * batch + 2)):
        monkeypatch.setattr(dimacs, "TEXT_CHUNK", chunk)
        # the lines up to the end of the bad line's batch, and at most one piece beyond them
        ahead = bad + batch + chunk // len(line) + 1
        body = ("1 x 0\n" if lineno == bad else line for lineno in range(2, ahead + 10 * batch))
        text = "p cnf 3 1\n" + "".join(body)
        file = _CountedFile(text)
        with pytest.raises(MalformedLiteral, match=f"^line {bad}: bad literal 'x'$"):
            parse_dimacs(file)
        assert text.count("\n", 0, file.asked) <= ahead


def test_a_form_feed_ends_a_line_in_a_text_and_in_a_file():
    text = "c note\fp cnf 1 1\n1 0\n"
    for source in (text, io.StringIO(text)):
        parsed = parse_dimacs(source)
        assert (parsed.num_vars, parsed.clauses) == (1, [(1,)])


def test_negative_header_counts_are_rejected():
    with pytest.raises(HeaderMismatch, match="line 2: negative header counts"):
        parse_dimacs("c vars\np cnf -3 0\n")
    with pytest.raises(HeaderMismatch, match="line 1: negative header counts"):
        parse_dimacs("p cnf 3 -1\n")


def reference_assignment_from_ranks(rank_tables, var_of):
    """The definition `assignment_from_ranks` must meet: one `var_of` call per pair a < b."""
    values = {}
    n_sets = len(rank_tables[0])
    for agent, rank in enumerate(rank_tables):
        for a in range(n_sets):
            for b in range(a + 1, n_sets):
                values[var_of(agent, a, b)] = rank[a] < rank[b]
    return Assignment(len(values), values)


def _rank_tables(m, seed):
    """The shipped m=8 counterexample for seed None, else a seeded random triple."""
    if seed is None:
        return [v.rank for v in load_bundled_counterexample()]
    return [random_monotone_rank_valuation(m, seed + j).rank for j in range(NUM_AGENTS)]


@pytest.mark.parametrize("m, seed", [(8, None)] + [(m, 10 * m + s) for m in range(3, 8) for s in (1, 2)])
def test_rows_build_the_assignment_of_the_per_pair_definition(m, seed):
    ranks = _rank_tables(m, seed)
    built = assignment_from_ranks(ranks, lambda i, a, b: var_id(i, a, b, m))
    reference = reference_assignment_from_ranks(ranks, lambda i, a, b: var_id(i, a, b, m))
    assert built.values == reference.values
    assert list(built.values) == list(reference.values)
    assert built.num_vars == reference.num_vars
    decoded = decode_valuations(parse_model(write_model(built), built.num_vars), m)
    assert [v.rank for v in decoded] == ranks


def test_assignment_from_ranks_calls_var_of_at_most_twice_per_row():
    calls = 0

    def counted_var_id(agent, a, b):
        nonlocal calls
        calls += 1
        return var_id(agent, a, b, 8)

    assignment_from_ranks(_rank_tables(8, None), counted_var_id)
    rows = NUM_AGENTS * ((1 << 8) - 1)  # every set but the last has a row of larger sets
    assert calls <= 2 * rows == 1_530
