"""Bitmask arithmetic over sets of goods.

A set of goods is an ``m``-bit mask: bit ``i`` is set iff good ``g_i`` is in
the set.  Set numbers therefore coincide with the binary value of the
bitstring whose leftmost character is bit ``m-1``, and numeric order refines
the subset order (``A`` a proper subset of ``B`` implies ``A < B``).
`cover_table` holds the lattice's one-good steps, built once per m.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache

from .errors import BadPartitionInput, GoodCountOutOfRange, LevelOutOfRange, OverlappingBundles

MIN_GOODS = 3
MAX_GOODS = 16


def check_good_count(m: int) -> None:
    if not MIN_GOODS <= m <= MAX_GOODS:
        raise GoodCountOutOfRange(f"good count m={m} outside supported range [{MIN_GOODS}, {MAX_GOODS}]")


def check_level(k: int, m: int) -> None:
    """A level threshold k of m goods lies in 0 .. m + 1 (see `valuations.leveled`)."""
    if not 0 <= k <= m + 1:
        raise LevelOutOfRange(f"level threshold k={k} outside 0..{m + 1}")


def disjoint_union(m: int, sets: Sequence[int]) -> int:
    """The union of disjoint sets of the m goods, checked in turn: m < 0 raises `GoodCountOutOfRange`
    (`full_set`), a set outside the m goods `BadPartitionInput`, a good in two `OverlappingBundles`."""
    full, union, shared = full_set(m), 0, 0
    for mask in sets:
        if not 0 <= mask <= full:
            raise BadPartitionInput(f"set {mask} holds goods outside the {m} goods")
        shared |= union & mask
        union |= mask
    if shared:
        raise OverlappingBundles(f"sets {tuple(sets)} share goods")
    return union


def full_set(m: int) -> int:
    """The set of all m goods; a negative m raises `GoodCountOutOfRange`."""
    if m < 0:
        raise GoodCountOutOfRange(f"good count m={m} is negative")
    return (1 << m) - 1


def cardinality(mask: int) -> int:
    return mask.bit_count()


def is_proper_subset(a: int, b: int) -> bool:
    return a != b and a & ~b == 0


def goods(mask: int) -> Iterator[int]:
    """Good indices in the mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def singleton_bits(mask: int) -> Iterator[int]:
    """Single-bit masks contained in the mask, ascending."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


@cache
def cover_table(m: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(above, below): ``above[S]`` holds the sets S + g over the goods g not in S,
    ``below[S]`` the sets S - g over the goods g in S, both by ascending g.

    Each has m * 2^(m-1) entries, and ``len(below[S])`` is the cardinality of S.
    Entries are read from one list of the set numbers, so that sets above 256
    share one int object each (m=16: ~15 MB instead of ~48 MB).
    """
    sets = list(range(1 << m))
    bits = [1 << g for g in range(m)]
    above = tuple(tuple([sets[s | bit] for bit in bits if not s & bit]) for s in sets)
    below = tuple(tuple([sets[s ^ bit] for bit in bits if s & bit]) for s in sets)
    return above, below


def submasks(mask: int) -> list[int]:
    """The list of all subsets of the mask (including 0 and the mask itself), ascending.

    Doubling over the goods of the mask, lowest first: each good adds a copy
    of the list so far with that good set, so entry k holds the goods of the
    mask that the bits of k pick.
    """
    subs = [0]
    while mask:
        low = mask & -mask
        subs += [sub | low for sub in subs]
        mask ^= low
    return subs


def bitstring(mask: int, m: int) -> str:
    """m-character bitstring, leftmost character is bit m-1."""
    return format(mask, f"0{m}b")


def parse_bitstring(text: str) -> int:
    return int(text, 2)
