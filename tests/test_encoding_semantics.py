"""Dual-route soundness checks of the no-EFX encoding.

For three goods the space of rank valuations is small enough to enumerate
completely (48 monotone orders of the 8 subsets), so the SAT route and a
brute-force route can confirm each other: every valuation triple admits an
EFX allocation, hence every variant of the encoding must be unsatisfiable,
and forcing any concrete triple into the encoding as units must stay
unsatisfiable.  The satisfiable direction is covered by forcing the bundled
8-good instance into the no-EFX clauses (see test_cdcl).
"""

import hashlib
import io

from efxlab.allocations import enumerate_bundle_tuples
from efxlab.cdcl import SolveStatus, solve
from efxlab.dimacs import CnfFormula, parse_dimacs
from efxlab.encoding import (
    EncodeOptions,
    encode,
    encode_formula,
    num_variables,
    var_id,
    write_dimacs_stream,
)
from efxlab.smtlib import emit_smtlib


def all_rank_tables(m: int) -> list[tuple[int, ...]]:
    """Every monotone bijection from subsets of [m] to ranks, by backtracking."""
    n_sets = 1 << m
    tables: list[tuple[int, ...]] = []
    rank = [-1] * n_sets
    placed: list[int] = []

    def extend() -> None:
        if len(placed) == n_sets:
            tables.append(tuple(rank))
            return
        for mask in range(n_sets):
            if rank[mask] >= 0:
                continue
            if any(rank[sub] < 0 for sub in range(n_sets) if sub != mask and sub & ~mask == 0):
                continue
            rank[mask] = len(placed)
            placed.append(mask)
            extend()
            placed.pop()
            rank[mask] = -1

    extend()
    return tables


def has_efx_allocation(tables: tuple[tuple[int, ...], ...], allocations) -> bool:
    for bundles in allocations:
        ok = True
        for agent in range(3):
            own_value = tables[agent][bundles[agent]]
            for j in range(3):
                if j == agent or not ok:
                    continue
                other = bundles[j]
                rest = other
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if tables[agent][other ^ bit] > own_value:
                        ok = False
                        break
        if ok:
            return True
    return False


def test_three_goods_have_exactly_48_rank_valuations():
    assert len(all_rank_tables(3)) == 48


def test_every_three_good_triple_admits_efx():
    tables = all_rank_tables(3)
    allocations = list(enumerate_bundle_tuples(3, 3))
    for a in tables:
        for b in tables:
            for c in tables:
                assert has_efx_allocation((a, b, c), allocations)


def test_encoding_variants_unsat_for_three_goods():
    for opts in (
        EncodeOptions(3, None, False),
        EncodeOptions(3, None, True),
        EncodeOptions(3, 1, True),
        EncodeOptions(3, 2, False),
    ):
        assert solve(encode_formula(opts)).status is SolveStatus.UNSATISFIABLE


def test_forcing_any_concrete_triple_keeps_the_encoding_unsat():
    tables = all_rank_tables(3)
    base = encode_formula(EncodeOptions(3, None, False))
    for pick in (0, 7, 20, 33, 47):
        triple = (tables[pick], tables[(pick * 5 + 1) % 48], tables[(pick * 11 + 2) % 48])
        units = []
        for agent, table in enumerate(triple):
            for a in range(8):
                for b in range(a + 1, 8):
                    var = var_id(agent, a, b, 3)
                    units.append((var,) if table[a] < table[b] else (-var,))
        formula = CnfFormula(base.num_vars, units + base.clauses)
        assert solve(formula).status is SolveStatus.UNSATISFIABLE


def test_stream_output_reparses_to_the_same_clause_list():
    opts = EncodeOptions(4, 2, True)
    buffer = io.StringIO()
    write_dimacs_stream(opts, buffer)
    parsed = parse_dimacs(buffer.getvalue())
    assert parsed.num_vars == num_variables(4)
    assert parsed.clauses == list(encode(opts))


# sha256 of the emitted text, frozen so that a refactor of the encoder or of
# the SMT writer must leave every byte unchanged.
DIMACS_DIGESTS = {
    EncodeOptions(4): "0f8002670b8fc2c991f9ddb5d3c04eb6e82df2aa4c05e378a8271618c996b9cd",
    EncodeOptions(4, 2, True): "441311868a97944f340cdc06b089fb08c20d0a1605b9ee5dc1827754f3c14010",
    EncodeOptions(5, 3, True): "474dd6fc68a0eff3aa4da802e257b9f92219ae27fc5190569e47e87506e9e178",
}
SMT_DIGESTS = {
    3: "b0f977e94fc38ca8723e7b9ee9a34057c74c3995161b2f59e728c3f062af4cbd",
    4: "f3bc3f97c914737380fb4662d9efa2f659c92874e8652939345afd962699f4a7",
    5: "1f63ca91ccca0fe958d6ebf090e3519d8607f62155edad5efc4feda3c3f1d440",
    6: "709d711cfe561e3feda0a5c462ae751e6269dc4e29ba1ba35dd070db8bde8533",
    7: "e25498a701650fe87d31a90f958784520f785222bdfa659476393f76d84775d3",
    8: "fd5a5ccb46f33cc8d630f2e1fba45dfb8bc5237db9ef5bef7d17dfa234c970ba",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_emission_is_byte_reproducible():
    opts = EncodeOptions(3, 4, True)
    digests = set()
    for _ in range(2):
        buffer = io.StringIO()
        write_dimacs_stream(opts, buffer, comments=["determinism probe"])
        digests.add(_sha256(buffer.getvalue()))
    assert len(digests) == 1

    for opts, digest in DIMACS_DIGESTS.items():
        buffer = io.StringIO()
        write_dimacs_stream(opts, buffer)
        assert _sha256(buffer.getvalue()) == digest, opts
    for m, digest in SMT_DIGESTS.items():
        assert _sha256(emit_smtlib(m)[0]) == digest, m
