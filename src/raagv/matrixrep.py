"""Independent word evaluator over exact integer matrices.

Words are evaluated in a faithful linear model of the direct-product group:
a net exponent per p0 vertex and a 2x2 integer matrix product per part.  A
part maps its j-th vertex (ascending, from j = 0) to A^j B A^-j, where
A = [[1,2],[0,1]] and B = [[1,0],[2,1]] generate a free group of rank two
and their conjugates freely generate a free subgroup of any finite rank.
The table from signed letters to matrices is filled in closed form:
A^j B A^-j = [[1+4j, -8j^2], [2, 1-4j]], inverse [[1-4j, 8j^2], [-2, 1+4j]].
The table and the sorted p0 order are built once per partition object and
kept on that object.  One pass buckets the letters by part; every factor of a
bucket is multiplied in full, in order, in exact integers.  A bucket of at
most ``_FOLD_MAX`` letters is folded left to right in one loop; a longer one
goes through a balanced pairwise product tree, which pairs factors of similar
size instead of growing one running product a letter at a time.  Short words
leave short buckets, where the tree's lists per level cost more than its
balance saves.

Nothing here touches the free reduction of ``words`` that this module is
used to cross-check; only the raw letters and the partition go in.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest

from .graphs import CommutingPartition, _block_masks
from .words import Word

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))

# Buckets up to this length are folded left to right, longer ones go through
# the product tree.  The path is chosen by bucket length, a property of the
# input: a short word (tens of letters over several parts) leaves a few
# letters per bucket, where the tree's lists per level cost more than its
# balance saves; a long word (thousands of letters) leaves long buckets, where
# the tree keeps the big-integer products balanced.  The benchmark's
# word_certify runs both sides: its short ops have buckets of 1 to about 17
# letters, most under 10, and its long ops of about 900 to 1,200.  16 was
# measured: 8 saves less on short words, 32 no more.
_FOLD_MAX = 16


@dataclass(frozen=True)
class MatrixImage:
    """Image of a word: p0 exponents (vertex ascending) and one matrix per part."""

    exponents: tuple[tuple[int, int], ...]
    part_matrices: tuple[Matrix, ...]

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for _, e in self.exponents) and all(
            m == IDENTITY for m in self.part_matrices
        )


def evaluate_word(p: CommutingPartition, w: Word) -> MatrixImage:
    """Evaluate the raw word in the linear model attached to the partition.
    Raises ValueError when the blocks do not partition 0..n-1, n being the
    number of vertices they hold, or at a letter outside the model."""
    kept = vars(p).get("_oracle_table")
    if kept is None:  # (vertex, sign) -> (part index, generator a, b, c, d); the p0 order
        _block_masks(p.blocks(), len(p.p0) + sum(map(len, p.parts)))
        table = {}
        for i, part in enumerate(p.parts):
            for j, v in enumerate(sorted(part)):
                t, q = 4 * j, 8 * j * j
                table[v, 1] = (i, (1 + t, -q, 2, 1 - t))
                table[v, -1] = (i, (1 - t, q, -2, 1 + t))
        kept = vars(p)["_oracle_table"] = table, tuple(sorted(p.p0))
    table, p0 = kept
    exps = dict.fromkeys(p0, 0)
    buckets: defaultdict[int, list[tuple[int, ...]]] = defaultdict(list)  # parts the word meets
    for letter in w:
        entry = table.get(letter)
        if entry is not None:
            buckets[entry[0]].append(entry[1])
            continue
        vertex, sign = letter
        if vertex in exps and sign in (1, -1):
            exps[vertex] += sign
        elif vertex in exps or any(vertex in part for part in p.parts):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        else:
            raise ValueError(f"letter vertex {vertex} is not covered by the partition")
    mats = [IDENTITY] * len(p.parts)
    for i, ms in buckets.items():
        if len(ms) <= _FOLD_MAX:  # a running product, left to right
            it = iter(ms)
            a, b, c, d = next(it)
            for e, f, g, h in it:
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        else:
            while len(ms) > 1:  # adjacent pairs, in order; an odd tail pairs with the identity
                it = iter(ms)
                ms = [
                    (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                    for (a, b, c, d), (e, f, g, h) in zip_longest(it, it, fillvalue=(1, 0, 0, 1))
                ]
            [(a, b, c, d)] = ms
        mats[i] = ((a, b), (c, d))
    return MatrixImage(tuple(exps.items()), tuple(mats))
