"""Toolkit for the EFX existence question at desk scale.

The pipeline encodes "no EFX allocation exists" for three agents as CNF or
SMT over rank valuations, reduces the CNF (unit propagation, subsumption),
solves it with a small CDCL solver, decodes a model into valuations,
verifies an instance by scanning every allocation, and constructs a tEFX
or EF1-and-EEFX allocation for any three agents.  Submodular realizations
and extensions to more agents complete the counterexample.
"""

from .allocations import Allocation, count_allocations
from .decoding import (
    decode_valuations,
    dump_rank_blocks,
    load_bundled_counterexample,
    load_rank_blocks,
)
from .encoding import EncodeOptions, clause_counts, encode_formula, num_variables, var_id
from .fairness import (
    eefx_certificate,
    is_ef1_feasible,
    is_efx,
    is_efx_feasible,
    is_tefx_feasible,
    strongly_envies,
    violated_condition_count,
)
from .submodular import (
    add_dummy_goods,
    extend_counterexample,
    is_submodular,
    submodular_realize,
)
from .three_agent import (
    TriSolveResult,
    equalize_for_valuation,
    minimal_satisfying_subset,
    solve_three,
    transfer_split,
)
from .valuations import (
    RankValuation,
    RealValuation,
    leveled,
    random_monotone_rank_valuation,
    rank_valuation_from_order,
)
from .verification import VerifyReport, find_mms_violations, marginal_values, verify

__all__ = [
    "Allocation",
    "EncodeOptions",
    "RankValuation",
    "RealValuation",
    "TriSolveResult",
    "VerifyReport",
    "add_dummy_goods",
    "clause_counts",
    "count_allocations",
    "decode_valuations",
    "dump_rank_blocks",
    "eefx_certificate",
    "encode_formula",
    "equalize_for_valuation",
    "extend_counterexample",
    "find_mms_violations",
    "is_ef1_feasible",
    "is_efx",
    "is_efx_feasible",
    "is_submodular",
    "is_tefx_feasible",
    "leveled",
    "load_bundled_counterexample",
    "load_rank_blocks",
    "marginal_values",
    "minimal_satisfying_subset",
    "num_variables",
    "random_monotone_rank_valuation",
    "rank_valuation_from_order",
    "solve_three",
    "strongly_envies",
    "submodular_realize",
    "transfer_split",
    "var_id",
    "verify",
    "violated_condition_count",
]
