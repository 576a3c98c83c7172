import io
import random

import pytest

from efxlab import dimacs, encoding
from efxlab.dimacs import (
    Assignment,
    CnfFormula,
    parse_dimacs,
    parse_model,
    write_dimacs,
)
from efxlab.encoding import EncodeOptions, EncodeStats, encode_formula
from efxlab.errors import (
    DuplicateAssignment,
    HeaderMismatch,
    LiteralOutOfRange,
    MalformedLiteral,
    MissingTerminator,
)


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
    text = write_dimacs(formula, comments=["round trip"])
    again = parse_dimacs(text)
    assert again.num_vars == formula.num_vars
    assert again.clauses == formula.clauses
    assert write_dimacs(again, comments=["round trip"]) == text


def test_both_writers_give_identical_bytes(monkeypatch):
    clauses = [(), (-3,), (1, -2, 3, -4, 5, -6, 7, -8)]
    opts = EncodeOptions(4, None, False)
    stats = EncodeStats(4, None, False, 8, {"test": len(clauses)})
    monkeypatch.setattr(encoding, "clause_counts", lambda _: stats)
    monkeypatch.setattr(encoding, "encode", lambda _: iter(clauses))
    out = io.StringIO()
    encoding.write_dimacs_stream(opts, out, ["c1"])
    assert out.getvalue() == write_dimacs(CnfFormula(8, clauses), ["c1"])
    assert out.getvalue().endswith("p cnf 8 3\n0\n-3 0\n1 -2 3 -4 5 -6 7 -8 0\n")


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


def test_parse_model_requires_terminator():
    with pytest.raises(MissingTerminator):
        parse_model("v 1 -2\n")


def test_assignment_satisfies():
    formula = CnfFormula(2, [(1, 2), (-1, 2)])
    assert Assignment(2, {1: True, 2: True}).satisfies(formula)
    assert not Assignment(2, {1: True, 2: False}).satisfies(formula)


# -- the table-driven parser against the per-token parser it replaced ---------


def reference_parse_dimacs(text):
    """The per-token parser: `int()` and the range check on every token."""
    num_vars = num_clauses = None
    clauses, pending = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if parts[:2] != ["p", "cnf"] or len(parts) != 4:
                raise HeaderMismatch(f"line {lineno}: malformed header {raw!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise HeaderMismatch(f"line {lineno}: non-integer header counts") from exc
            if num_vars < 0 or num_clauses < 0:
                raise HeaderMismatch(f"line {lineno}: negative header counts")
            continue
        if num_vars is None:
            raise HeaderMismatch(f"line {lineno}: clause before header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError as exc:
                raise MalformedLiteral(f"line {lineno}: bad literal {token!r}") from exc
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > num_vars:
                    raise LiteralOutOfRange(f"line {lineno}: literal {lit} exceeds {num_vars} variables")
                pending.append(lit)
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


def _random_lines(rng):
    """Valid DIMACS lines in varied layouts; a second header may lower the variable count."""
    sections = [(rng.randint(1, 12), rng.randint(0, 12))]
    if rng.random() < 0.4:
        sections.append((rng.randint(1, sections[0][0]), rng.randint(0, 8)))
    total = sum(count for _, count in sections)
    lines = ["c random formula"] if rng.random() < 0.5 else []
    for num_vars, count in sections:
        lines.append(f"p cnf {num_vars} {total}")
        line = []
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
                lines.append(rng.choice(["", "   ", "c mid-body 1 2 0", "%"]))
        if line:
            lines.append(" ".join(line))
    return lines


def _break(rng, lines):
    """`lines` with one fault: a bad or out-of-range token, a lost terminator, a bad header."""
    lines = list(lines)
    body = [i for i, line in enumerate(lines) if line.split() and line.split()[0][0] not in "cp%"]
    headers = [i for i, line in enumerate(lines) if line.startswith("p")]
    fault = rng.randrange(7)
    if fault == 0 and body:  # a malformed token
        i = rng.choice(body)
        tokens = lines[i].split()
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(["x", "1.5", "--2", "1-", "0x1"]))
        lines[i] = " ".join(tokens)
    elif fault == 1 and body:  # a literal past the count, maybe one cached before a lower header
        i = rng.choice(body)
        counts = [int(lines[h].split()[2]) for h in headers if h < i]
        lit = rng.choice((1, -1)) * rng.randint(counts[-1] + 1, max(counts) + 1)
        tokens = lines[i].split()
        tokens.insert(rng.randrange(len(tokens) + 1), str(lit))
        lines[i] = " ".join(tokens)
    elif fault == 2 and body:  # the last terminator lost
        i = body[-1]
        lines[i] = " ".join(lines[i].split()[:-1] + ["1"])
    elif fault == 3:
        i = rng.choice(headers)
        lines[i] = rng.choice(["p cnf 3", "p cnf x 1", "p dnf 3 1", "p cnf -1 0", "p cnf 2 -1"])
    elif fault == 4:
        lines.insert(0, rng.choice(["1 2 0", "0"]))
    elif fault == 5:
        i = headers[-1]
        num_vars, count = lines[i].split()[2:]
        lines[i] = f"p cnf {num_vars} {int(count) + rng.choice((-1, 1))}"
    else:
        lines = [line for line in lines if not line.startswith("p")]
    return lines


def _random_texts(count, newlines=("\n", "\r\n", "\r", "\x0c", " ")):
    rng = random.Random(20261018)
    for _ in range(count):
        lines = _random_lines(rng)
        if rng.random() < 0.5:
            lines = _break(rng, lines)
        ends = [rng.choice(newlines) for _ in lines]
        yield "".join(line + end for line, end in zip(lines, ends))


@pytest.mark.parametrize("chunk", [1, 7, dimacs.TEXT_CHUNK])
def test_parse_matches_the_per_token_parser(monkeypatch, chunk):
    monkeypatch.setattr(dimacs, "TEXT_CHUNK", chunk)
    raised = 0
    for text in _random_texts(1500):
        want = _outcome(reference_parse_dimacs, text)
        assert _outcome(parse_dimacs, text) == want, text
        raised += isinstance(want[0], type)
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
        ("p cnf 5 2\n5 0\np cnf 3 2\n5 0\n", LiteralOutOfRange, "line 4: literal 5 exceeds 3 variables"),
        ("p cnf 5 2\n-5 1 0\np cnf 3 2\n1 -5 0\n", LiteralOutOfRange, "line 4: literal -5 exceeds 3 variables"),
        ("p cnf 3 1\n4 0\n", LiteralOutOfRange, "line 2: literal 4 exceeds 3 variables"),
        ("p cnf 3 2\n1 0\n2 0 x 0\n", MalformedLiteral, "line 3: bad literal 'x'"),
        ("0\np cnf 3 1\n", HeaderMismatch, "line 1: clause before header"),
        ("p cnf -3 0\n", HeaderMismatch, "line 1: negative header counts"),
        ("c\np cnf 3 -1\n", HeaderMismatch, "line 2: negative header counts"),
        ("p cnf 3\r\n", HeaderMismatch, "line 1: malformed header 'p cnf 3'"),
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


def test_equal_literals_share_one_object():
    formula = encode_formula(EncodeOptions(4, 2, True))
    text = write_dimacs(formula)
    spanning = text.replace(" 0\n", "\n0\n")  # every clause spans two lines
    for source in (text, spanning, io.StringIO(text)):
        parsed = parse_dimacs(source)
        assert parsed.clauses == formula.clauses
        first = {}
        for clause in parsed.clauses:
            for lit in clause:
                assert first.setdefault(lit, lit) is lit
        assert max(first) > 256  # beyond the ints Python caches itself


def test_negative_header_counts_are_rejected():
    with pytest.raises(HeaderMismatch, match="line 2: negative header counts"):
        parse_dimacs("c vars\np cnf -3 0\n")
    with pytest.raises(HeaderMismatch, match="line 1: negative header counts"):
        parse_dimacs("p cnf 3 -1\n")
