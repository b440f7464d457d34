"""Direct-product structure of an embeddable graph group.

A graph with a commuting partition has graph group Z^|p0| x F_|P1| x ... x
F_|Pk|: the universal vertices generate a central free-abelian factor and
each part generates a free factor of rank equal to its size.  Every group of
that shape embeds into Thompson's group V, and the forbidden triple is the
only obstruction, so ``verdict`` settles embeddability outright: it names
the group in its canonical form, which ``format_decomposition`` renders, or
returns the least ``ForbiddenTriple`` as the negative verdict itself.
"""

from __future__ import annotations

from .classify import canonical_partition
from .graphs import CommutingPartition, ForbiddenTriple, Graph, _bits, _Record

__all__ = (
    "Embeddable", "GroupDecomposition", "Verdict", "emit_presentation", "format_decomposition",
    "verdict",
)


class GroupDecomposition(_Record):
    """Rank data for Z^abelian_rank x F_r1 x F_r2 x ...

    ``verdict`` builds it in canonical form: F_1 = Z is folded into the
    abelian rank and the free ranks are at least 2, in descending order, so
    equal groups have equal decompositions.
    """

    abelian_rank: int
    free_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.abelian_rank < 0:
            raise ValueError("abelian rank must be nonnegative")
        if any(r < 1 for r in self.free_ranks):
            raise ValueError("free ranks must be positive")


def format_decomposition(d: GroupDecomposition) -> str:
    """Render as ``Z^a x F_r1 x F_r2 x ...``, omitting Z^a when a = 0 and
    collapsing the trivial group to ``1``."""
    pieces = []
    if d.abelian_rank > 0:
        pieces.append(f"Z^{d.abelian_rank}")
    pieces.extend(f"F_{r}" for r in d.free_ranks)
    return " x ".join(pieces) if pieces else "1"


class Embeddable(_Record):
    """A positive verdict: the commuting partition and the group it names."""

    partition: CommutingPartition
    group: GroupDecomposition


Verdict = Embeddable | ForbiddenTriple


def verdict(g: Graph) -> Verdict:
    """Decide whether the graph group of g embeds into Thompson's group V.

    Routes through the canonical partition; an Embeddable verdict carries the
    partition together with the canonical decomposition, and a negative
    verdict is the least forbidden triple itself.
    """
    outcome = canonical_partition(g)
    if isinstance(outcome, CommutingPartition):
        ranks = sorted(map(len, outcome.parts), reverse=True)
        free = tuple(r for r in ranks if r > 1)
        # F_1 = Z: a one-vertex part (only the one-vertex graph has one) adds to the abelian rank
        return Embeddable(outcome, GroupDecomposition(len(outcome.p0) + len(ranks) - len(free), free))
    return outcome


def emit_presentation(g: Graph) -> str:
    """Standard presentation text: generators x0..x{n-1}, one commutation
    relation per edge, edges in lexicographic order."""
    gens = ",".join(f"x{v}" for v in range(g.n))
    # the relation of edge (u, v) is x{u} + swaps[v] + x{u}, so a row joins its
    # swaps with x{u},x{u}
    swaps = [f"x{v}=x{v}" for v in range(g.n)]
    rels = []
    for u, row in enumerate(g.adj):
        if upper := row >> u + 1 << u + 1:
            xu = f"x{u}"
            rels.append(xu + f"{xu},{xu}".join(map(swaps.__getitem__, _bits(upper))) + xu)
    return f"⟨{gens} | {','.join(rels)}⟩"
