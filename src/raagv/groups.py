"""Direct-product structure of an embeddable graph group.

A graph with a commuting partition has graph group Z^|p0| x F_|P1| x ... x
F_|Pk|: the universal vertices generate a central free-abelian factor and
each part generates a free factor of rank equal to its size.  Every group of
that shape embeds into Thompson's group V, and the forbidden triple is the
only obstruction, so ``verdict`` settles embeddability outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import canonical_partition
from .graphs import CommutingPartition, ForbiddenTriple, Graph, _bits


@dataclass(frozen=True)
class GroupDecomposition:
    """Rank data for Z^abelian_rank x F_r1 x F_r2 x ...

    ``decompose`` produces the raw form (one free rank per part, in part
    order).  ``canonical_form`` folds rank-1 free factors into the abelian
    part and sorts the rest descending, which makes equality of
    decompositions meaningful.
    """

    abelian_rank: int
    free_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.abelian_rank < 0:
            raise ValueError("abelian rank must be nonnegative")
        if any(r < 1 for r in self.free_ranks):
            raise ValueError("free ranks must be positive")

    @property
    def total_rank(self) -> int:
        return self.abelian_rank + sum(self.free_ranks)


def decompose(p: CommutingPartition) -> GroupDecomposition:
    """Rank data read off a commuting partition: |p0| plus the part sizes."""
    return GroupDecomposition(len(p.p0), tuple(len(part) for part in p.parts))


def canonical_form(d: GroupDecomposition) -> GroupDecomposition:
    """Fold F_1 factors into the abelian rank and sort free ranks descending.

    Idempotent, and preserves the total rank.
    """
    ones = d.free_ranks.count(1)
    rest = sorted((r for r in d.free_ranks if r > 1), reverse=True)
    return GroupDecomposition(d.abelian_rank + ones, tuple(rest))


def format_decomposition(d: GroupDecomposition) -> str:
    """Render as ``Z^a x F_r1 x F_r2 x ...``, omitting Z^a when a = 0 and
    collapsing the trivial group to ``1``."""
    pieces = []
    if d.abelian_rank > 0:
        pieces.append(f"Z^{d.abelian_rank}")
    pieces.extend(f"F_{r}" for r in d.free_ranks)
    return " x ".join(pieces) if pieces else "1"


@dataclass(frozen=True)
class Embeddable:
    partition: CommutingPartition
    group: GroupDecomposition


@dataclass(frozen=True)
class NotEmbeddable:
    witness: ForbiddenTriple


Verdict = Embeddable | NotEmbeddable


def verdict(g: Graph) -> Verdict:
    """Decide whether the graph group of g embeds into Thompson's group V.

    Routes through the canonical partition; an Embeddable verdict carries the
    partition together with the canonical decomposition, a NotEmbeddable one
    carries the least forbidden triple.
    """
    outcome = canonical_partition(g)
    if isinstance(outcome, CommutingPartition):
        return Embeddable(outcome, canonical_form(decompose(outcome)))
    return NotEmbeddable(outcome)


def emit_presentation(g: Graph) -> str:
    """Standard presentation text: generators x0..x{n-1}, one commutation
    relation per edge, edges in lexicographic order."""
    gens = ",".join(f"x{v}" for v in range(g.n))
    rels = []
    for u, row in enumerate(g.adj):
        xu = f"x{u}"
        rels.extend([f"{xu}x{v}=x{v}{xu}" for v in _bits(row >> u + 1 << u + 1)])
    return f"⟨{gens} | {','.join(rels)}⟩"
