"""Previously published reference figures for this encoding, used in reports.

The reported experiments on this problem published variable counts, generated
clause totals, and post-reduction clause totals for a handful of (m, k,
item-order) configurations.  The stats report compares our exact counts
against those figures and flags disagreements instead of silently matching
them; two published figures are arithmetically inconsistent with the stated
formulas and are annotated as such.

`CLAUSE_ROWS` and `PUBLISHED_VARIABLE_COUNTS` are the one table of these
figures, and `variable_count_disagrees` and `clause_total_verdict` the one
judgement of a count: the stats notes and acceptance criteria 2 and 3 read it.

The m=8 row was published under k=8 and is counted at k=6, the level that
reproduces it.  The k=6 formula reduces to exactly the published
8,138,126 clauses, against 11,118,719 at k=7 and 11,768,738 at k=8, and k=m-2
is the rule of the m=7 row (k=5).  Its generated total, 29,002,318, is one
digit off the published 29,202,318, which no level can give: every family but
item order is a multiple of 3, and item order adds C(8,2) = 28, so a total is
1 (mod 3) while 29,202,318 is 0 (mod 3).  Whether that figure is a slip or
counts clauses the reduction removes is not settled by the figures alone; it
is kept as published and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClauseRow:
    """One published row of clause figures: generated and reduced totals.

    `level_k` is the level the row was published under, and `counted_k` the
    level that reproduces it where that differs.  `generated` is set where
    the published total is inconsistent with the clause structure: the row
    then asks for that exact total and for `clause_total_verdict`
    "inconsistent", which the stats notes flag.
    """

    m: int
    level_k: int
    item_order: bool
    total: int
    reduced: int
    counted_k: int | None = None
    generated: int | None = None

    @property
    def counted_level(self) -> int:
        return self.level_k if self.counted_k is None else self.counted_k


CLAUSE_ROWS = (
    ClauseRow(6, 5, False, 461_835, 110_520),
    ClauseRow(6, 4, False, 189_723, 47_310),
    ClauseRow(6, 4, True, 189_735, 43_813),
    ClauseRow(7, 5, True, 2_596_677, 680_779),
    ClauseRow(8, 8, True, 29_202_318, 8_138_126, counted_k=6, generated=29_002_318),
)

# (m, level_k, item_order) as counted -> the published row it reproduces.
_ROW_COUNTED_AS = {(row.m, row.counted_level, row.item_order): row for row in CLAUSE_ROWS}

PUBLISHED_VARIABLE_COUNTS: dict[int, int] = {6: 6_084, 7: 24_384, 8: 97_920}

# Tolerance for calling a generated-clause total a match.
CLAUSE_TOTAL_TOLERANCE = 0.0002


def variable_count_disagrees(m: int, computed: int) -> bool:
    return PUBLISHED_VARIABLE_COUNTS.get(m, computed) != computed


def variable_count_notes(m: int, computed: int) -> list[str]:
    if not variable_count_disagrees(m, computed):
        return []
    return [
        f"variable count {computed} = 3*P*(P-1)/2 with P=2^{m} disagrees with the "
        f"previously reported {PUBLISHED_VARIABLE_COUNTS[m]}; the formula value is used"
    ]


def clause_total_verdict(row: ClauseRow, counts: dict[str, int]) -> str:
    """The verdict on `row`: "match", "within" or "OUTSIDE" the tolerance, or "inconsistent"."""
    total = sum(counts.values())
    if total == row.total:
        return "match"
    if (row.total - counts["item_order"]) % 3:
        return "inconsistent"
    return "within" if abs(total - row.total) / row.total <= CLAUSE_TOTAL_TOLERANCE else "OUTSIDE"


def clause_total_notes(
    m: int, level_k: int | None, item_order: bool, counts: dict[str, int]
) -> list[str]:
    row = _ROW_COUNTED_AS.get((m, level_k, item_order))
    if row is None:
        return []
    verdict = clause_total_verdict(row, counts)
    published, total = row.total, sum(counts.values())
    if verdict == "match":
        return [f"generated-clause total matches the previously reported {published}"]
    delta = total - published
    families = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
    if verdict == "inconsistent":
        ours, theirs = str(total), str(published)
        one_digit = len(ours) == len(theirs) and sum(a != b for a, b in zip(ours, theirs)) == 1
        return [
            f"previously reported total {published} is inconsistent with this clause "
            f"structure at any level: every family but item order is a multiple of 3 "
            f"and item order has {counts['item_order']} clauses, so a total is "
            f"{counts['item_order'] % 3} (mod 3), but {published} is {published % 3} "
            f"(mod 3); the generated total {total} differs from it by {delta:+d}"
            + (", in one digit" if one_digit else "")
            + f"; per-family counts: {families}"
        ]
    return [
        f"generated-clause total {total} differs from the previously reported "
        f"{published} by {delta:+d} ({abs(delta) / published:.4%}, {verdict} the "
        f"{CLAUSE_TOTAL_TOLERANCE:.2%} tolerance); per-family counts: {families}"
    ]
