"""Exception types raised across the library.

Every class here is raised by some module, except `EfxLabError`, the one base
class, which the command line catches.  The DIMACS, model and valuation-file
errors derive from it directly, with no base of their own that nothing catches.
"""

from __future__ import annotations


class EfxLabError(Exception):
    """Base class for all library errors."""


# -- arguments -----------------------------------------------------------------

class GoodCountOutOfRange(EfxLabError, ValueError):
    """A number of goods lies outside the range an operation supports.

    The good count m is negative, or outside the supported range where an operation
    needs one (`bitset.check_good_count`); a table length is not 2^m for such an m
    (`dimacs.assignment_from_ranks`); or a set size, such as the result size of
    `verification.marginal_values`, lies outside 1..m.
    """


class AgentCountOutOfRange(EfxLabError, ValueError):
    """The number of agents n lies outside the range an operation supports.

    Every scan needs 1 <= n <= m; the counterexample extension needs n >= 4.
    """


class JobCountOutOfRange(EfxLabError, ValueError):
    """A scan was asked to run on fewer than one job."""


class LevelOutOfRange(EfxLabError, ValueError):
    """A level threshold k lies outside 0..m+1."""


class BudgetOutOfRange(EfxLabError, ValueError):
    """A conflict budget is negative."""


# -- valuations ---------------------------------------------------------------

class NotAPermutation(EfxLabError):
    """A subset order / rank table does not cover every subset exactly once."""


class MonotonicityViolated(EfxLabError):
    """A valuation ranks a proper subset at or above one of its supersets."""

    def __init__(self, subset: int, superset: int) -> None:
        super().__init__(f"subset {subset} ranked at or above superset {superset}")
        self.subset = subset
        self.superset = superset


class InvalidValues(EfxLabError, ValueError):
    """A value table has the wrong length, a non-zero empty set or a negative value."""


# -- fairness -----------------------------------------------------------------

class OverlappingBundles(EfxLabError, ValueError):
    """Two sets that must be disjoint share a good (`bitset.disjoint_union`)."""


class ArityMismatch(EfxLabError, ValueError):
    """Number of valuations does not match the allocation's agent count."""


class IndexOutOfRange(EfxLabError, ValueError):
    """An index outside its range: a bundle or agent of an allocation, an agent of a
    comparison variable or the same set twice in one (`encoding.var_id`), or a good."""


class BadPartitionInput(EfxLabError, ValueError):
    """A set that holds goods outside the m goods, a negative set included
    (`bitset.disjoint_union`), or an allocation's bundles that miss a good."""


# -- input text ---------------------------------------------------------------

class NotUtf8Text(EfxLabError):
    """An input file holds bytes that are not UTF-8 text."""


# -- DIMACS / models ----------------------------------------------------------

class HeaderMismatch(EfxLabError):
    """DIMACS header counts disagree with the body."""


class MalformedLiteral(EfxLabError):
    """A token is not a valid signed literal."""


class MissingTerminator(EfxLabError):
    """A clause line does not end with the 0 terminator."""


class DuplicateAssignment(EfxLabError):
    """A model assigns the same variable both polarities."""


class LiteralOutOfRange(EfxLabError):
    """A literal refers to a variable beyond the declared count, or a numbering of
    comparison variables puts a row elsewhere than the next ids
    (`dimacs.assignment_from_ranks`)."""


# -- decoding -----------------------------------------------------------------

class IncompleteAssignment(EfxLabError):
    """The assignment leaves a comparison variable undecided."""

    def __init__(self, var: int) -> None:
        super().__init__(f"variable {var} is unassigned")
        self.var = var


class NotATotalOrder(EfxLabError):
    """The decoded comparison relation contains a cycle."""

    def __init__(self, cycle: tuple[int, int, int]) -> None:
        super().__init__(f"comparison 3-cycle among sets {cycle}")
        self.cycle = cycle


class LineCountMismatch(EfxLabError):
    pass


class MalformedValuationLine(EfxLabError):
    """A line has the wrong number of fields or a field that is not an integer."""


class BitstringMismatch(EfxLabError):
    pass


class RankNotIncreasing(EfxLabError):
    pass


# -- three-agent algorithm ----------------------------------------------------

class PredicateFailsOnPool(EfxLabError):
    """minimal_satisfying_subset was called with a predicate false on the pool."""


class SetupViolated(EfxLabError):
    """`three_agent.transfer_split` was entered without v(first) > v(third)."""


class InvariantBroken(EfxLabError):
    """An internal loop invariant failed; indicates a bug, never expected."""


class NonTermination(EfxLabError):
    """The three-agent loop exceeded its partition-count bound."""
