"""Word problem for embeddable graph groups.

On a graph with a commuting partition the group is a direct product of a
free-abelian factor (the p0 vertices) with one free factor per part, so a
word is trivial exactly when its signed letter counts on p0 vanish and its
projection onto every part freely reduces to the empty word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Collection, Iterable, NamedTuple

from .graphs import Graph
from .partition import CommutingPartition, canonical_partition


class Letter(NamedTuple):
    """One signed generator occurrence: ``vertex`` with sign +1 or -1."""

    vertex: int
    sign: int


Word = tuple[Letter, ...]

_SIGNED_INT = re.compile(r"[+-]?[0-9]+")


def word(pairs: Iterable[tuple[int, int]]) -> Word:
    """Build a word from (vertex, sign) pairs, checking the signs."""
    letters = []
    for vertex, sign in pairs:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        letters.append(Letter(vertex, sign))
    return tuple(letters)


def inverse(w: Word) -> Word:
    return tuple(Letter(v, -s) for v, s in reversed(w))


def project(w: Word, block: Collection[int]) -> Word:
    """The subsequence of letters whose vertex lies in the block."""
    members = block if isinstance(block, (set, frozenset)) else frozenset(block)
    return tuple(letter for letter in w if letter.vertex in members)


def free_reduce(w: Word) -> Word:
    """Freely reduce by cancelling adjacent inverse pairs.

    A single stack pass suffices: each popped pair exposes at most one new
    cancellation, which the next letter's comparison picks up.
    """
    out: list[Letter] = []
    for letter in w:
        if out and out[-1].vertex == letter.vertex and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class NormalForm:
    """Coordinates of a word in Z^|p0| x F_|P1| x ... x F_|Pk|.

    ``abelian_exponents`` lists (vertex, net exponent) for every p0 vertex in
    ascending vertex order; ``part_words`` holds the freely reduced
    projection onto each part, in the partition's part order.
    """

    abelian_exponents: tuple[tuple[int, int], ...]
    part_words: tuple[Word, ...]

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for _, e in self.abelian_exponents) and not any(self.part_words)


def _check_word(g: Graph, w: Word) -> None:
    for letter in w:
        if not 0 <= letter.vertex < g.n:
            raise ValueError(f"letter vertex {letter.vertex} is outside 0..{g.n - 1}")
        if letter.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")


def normal_form(g: Graph, w: Word) -> NormalForm:
    """Normal form of w in the graph group of g.

    Raises ValueError when g contains the forbidden pattern (the group is
    then no direct product of free groups and this solver does not apply) or
    when w uses letters outside g's generators.
    """
    _check_word(g, w)
    p = canonical_partition(g)
    if not isinstance(p, CommutingPartition):
        raise ValueError(
            "word problem is only solved for graphs avoiding the forbidden "
            f"pattern; found edge ({p.a}, {p.b}) with vertex {p.c} adjacent "
            "to neither endpoint"
        )
    exps = {v: 0 for v in p.p0}
    for letter in w:
        if letter.vertex in exps:
            exps[letter.vertex] += letter.sign
    part_words = tuple(free_reduce(project(w, part)) for part in p.parts)
    return NormalForm(tuple(sorted(exps.items())), part_words)


def is_trivial(g: Graph, w: Word) -> bool:
    """Does w represent the identity of the graph group of g?"""
    return normal_form(g, w).is_identity


def parse_word(text: str, n: int) -> Word:
    """Parse the command-line word syntax: whitespace-separated signed
    1-based generator numbers, e.g. ``"1 3 -1 -3"``, each an optional ASCII
    sign and ASCII digits (not ``1_0``).  Zero is forbidden."""
    letters = []
    for token in text.split():
        try:
            if not _SIGNED_INT.fullmatch(token):
                raise ValueError
            k = int(token)
        except ValueError:
            raise ValueError(f"word token {token!r} is not a signed integer") from None
        if k == 0:
            raise ValueError("word tokens are signed 1-based generator numbers; 0 is invalid")
        vertex = abs(k) - 1
        if vertex >= n:
            raise ValueError(f"generator {abs(k)} exceeds the vertex count {n}")
        letters.append(Letter(vertex, 1 if k > 0 else -1))
    return tuple(letters)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`: signed 1-based generator numbers."""
    return " ".join(str((letter.vertex + 1) * letter.sign) for letter in w)
