"""Word problem for embeddable graph groups.

On a graph with a commuting partition the group is a direct product of a
free-abelian factor (the p0 vertices) with one free factor per part, so a
word is trivial exactly when its signed letter counts on p0 vanish and its
projection onto every part freely reduces to the empty word.

A :class:`GroupModel` reads both off in one pass over the word, with one
free-reduction stack per part and one more for all of p0, whose net
exponents are summed from what is left on it: O(|w|) after an O(n) build.
Its letter table, compiled on the first word and kept on the model, maps
each generator and inverse to its stack and to the model's own letter and
inverse, so each letter costs one lookup and an identity test.
:func:`normal_form` compiles each graph object to its model (or forbidden
triple) once and keeps it on that object, so it lives as long as the graph.
"""

from __future__ import annotations

from typing import NamedTuple

from .classify import canonical_partition
from .graphio import _SIGNED_INT, _echo
from .graphs import CommutingPartition, ForbiddenTriple, Graph, _block_masks, _Record

__all__ = (
    "GroupModel", "Letter", "NormalForm", "Word", "format_word", "group_model", "is_trivial",
    "normal_form", "parse_word",
)


class Letter(NamedTuple):
    """One signed generator occurrence: ``vertex`` with sign +1 or -1."""

    vertex: int
    sign: int


Word = tuple[Letter, ...]


class NormalForm(_Record):
    """Coordinates of a word in Z^|p0| x F_|P1| x ... x F_|Pk|.

    ``abelian_exponents`` lists (vertex, net exponent) for every p0 vertex in
    ascending vertex order; ``part_words`` holds the freely reduced
    projection onto each part, in the partition's part order.
    """

    abelian_exponents: tuple[tuple[int, int], ...]
    part_words: tuple[Word, ...]

    def __init__(self, abelian_exponents, part_words) -> None:
        fields = self.__dict__  # one per word: see the graphs module on why by hand
        fields["abelian_exponents"] = abelian_exponents
        fields["part_words"] = part_words

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for _, e in self.abelian_exponents) and not any(self.part_words)


class GroupModel(_Record):
    """Z^|p0| x F_|P1| x ... x F_|Pk| of a commuting partition of 0..n-1.

    ``owner[v]`` is the index of v's part in the partition's part order, or
    -1 when v lies in p0; ``p0`` lists the p0 vertices ascending.
    """

    owner: tuple[int, ...]
    p0: tuple[int, ...]
    part_count: int

    def normal_form(self, w: Word) -> NormalForm:
        """Normal form of w; raises ValueError at the first letter that is no
        generator of the model's graph or whose sign is not +1 or -1.  A
        letter is looked up by value, so ``(0.0, 1)`` is ``Letter(0, 1)``, a
        letter that has no hash (a list) raises TypeError, and the part
        words hold the model's own letters."""
        table = vars(self).get("_letters")
        if table is None:  # Letter(v, +-1) -> (stack index, that letter, its inverse)
            table = vars(self)["_letters"] = {}
            for v, i in enumerate(self.owner):
                x, inv = Letter(v, 1), Letter(v, -1)
                i = self.part_count if i < 0 else i  # p0 shares one stack, after the parts
                table[x], table[inv] = (i, x, inv), (i, inv, x)
        stacks: list[list[Letter]] = [[] for _ in range(self.part_count + 1)]
        try:
            for i, x, inv in map(table.get, w):
                stack = stacks[i]
                if stack and stack[-1] is inv:
                    stack.pop()
                else:
                    stack.append(x)
        except TypeError:  # a letter outside the table fails to unpack (or to hash)
            for letter in w:  # raise the first bad letter's own error
                _check_word(len(self.owner), (letter,))  # ValueError: vertex or sign
                if letter not in table:  # TypeError: no hash
                    self.owner[letter[0]]  # TypeError: a vertex such as 0.5 is no index
            raise
        exps = dict.fromkeys(self.p0, 0)
        for v, s in stacks.pop():  # cancelling v v^-1 there changed no net exponent
            exps[v] += s
        return NormalForm(tuple(exps.items()), tuple(map(tuple, stacks)))


def _check_word(n: int, w: Word) -> None:
    for v, s in w:
        if not 0 <= v < n:
            raise ValueError(f"letter vertex {v} is outside 0..{n - 1}")
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s}")


def group_model(outcome: CommutingPartition | ForbiddenTriple) -> GroupModel:
    """The model of an outcome of :func:`canonical_partition`.  A forbidden
    triple raises ValueError: the group is then no direct product of free
    groups and this solver does not apply.  So do blocks that do not
    partition 0..n-1, n being the number of vertices they hold."""
    if isinstance(outcome, ForbiddenTriple):
        raise ValueError(
            "word problem is only solved for graphs avoiding the forbidden "
            f"pattern; found edge ({outcome.a}, {outcome.b}) with vertex "
            f"{outcome.c} adjacent to neither endpoint"
        )
    n = len(outcome.p0) + sum(map(len, outcome.parts))
    _block_masks(outcome.blocks(), n)
    owner = [-1] * n
    for i, part in enumerate(outcome.parts):
        for v in part:
            owner[v] = i
    return GroupModel(tuple(owner), tuple(sorted(outcome.p0)), len(outcome.parts))


def normal_form(g: Graph, w: Word) -> NormalForm:
    """Normal form of w in the graph group of g.  Raises ValueError when w
    uses letters outside g's generators, and otherwise when g contains the
    forbidden pattern."""
    model = vars(g).get("_word_model")
    if model is None:  # kept on the object: found without hashing g, freed with g
        model = canonical_partition(g)
        if isinstance(model, CommutingPartition):
            model = group_model(model)
        vars(g)["_word_model"] = model
    if isinstance(model, ForbiddenTriple):
        _check_word(g.n, w)  # a bad letter is reported before the pattern
        group_model(model)  # raises ValueError naming the pattern
    return model.normal_form(w)


def is_trivial(g: Graph, w: Word) -> bool:
    """Does w represent the identity of the graph group of g?"""
    return normal_form(g, w).is_identity


def parse_word(text: str, n: int) -> Word:
    """Parse the command-line word syntax: whitespace-separated signed
    1-based generator numbers, e.g. ``"1 3 -1 -3"``, each an optional ASCII
    sign and ASCII digits (not ``1_0``).  Zero is forbidden."""
    letters = []
    for token in text.split():
        if not _SIGNED_INT.fullmatch(token):
            raise ValueError(f"word token {_echo(token, repr)} is not a signed integer")
        digits = token.lstrip("+-0")
        if not digits:
            raise ValueError("word tokens are signed 1-based generator numbers; 0 is invalid")
        # the length test comes first: int() refuses over 4300 digits
        if len(digits) > len(str(n)) or int(digits) > n:
            raise ValueError(f"generator {_echo(digits)} exceeds the vertex count {n}")
        letters.append(Letter(int(digits) - 1, -1 if token[0] == "-" else 1))
    return tuple(letters)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`: signed 1-based generator numbers."""
    return " ".join(str((letter.vertex + 1) * letter.sign) for letter in w)
