"""Independent word evaluator over exact integer matrices.

Words are evaluated in a faithful linear model of the direct-product group:
a net exponent per p0 vertex and a 2x2 integer matrix product per part.  A
part maps its j-th vertex (ascending, from j = 0) to A^j B A^-j, where
A = [[1,2],[0,1]] and B = [[1,0],[2,1]] generate a free group of rank two
and their conjugates freely generate a free subgroup of any finite rank
(Sanov).  A^j = [[1,2j],[0,1]] and B^s = [[1,0],[2s,1]] are elementary, so
the table from signed letters keeps only each letter's part and the pair
(2j, 2s); p0 letters map to one more bucket.  The table and the p0 zero
exponents (vertex ascending) are built once per partition object and kept on
that object.

One pass buckets the letters of the parts the word meets.  Each bucket is
folded in runs of ``_RUN`` letters, where the A powers of neighbouring
letters merge: a run costs two column operations per letter, and its
product goes into a balanced pairwise product tree, which pairs products of
similar size instead of growing one running product a letter at a time.
Every factor is multiplied in full, in order, in exact integers.

Nothing here touches the free reduction of ``words`` that this module is
used to cross-check; only the raw letters and the partition go in.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice, zip_longest

from .graphs import CommutingPartition, _block_masks, _Record
from .words import Word

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))

_RUN = 16  # letters folded into one product before the tree; 8 to 32 measured the same


class MatrixImage(_Record):
    """Image of a word: p0 exponents (vertex ascending) and one matrix per part."""

    exponents: tuple[tuple[int, int], ...]
    part_matrices: tuple[Matrix, ...]

    def __init__(self, exponents, part_matrices) -> None:
        fields = self.__dict__  # one per word: see the graphs module on why by hand
        fields["exponents"] = exponents
        fields["part_matrices"] = part_matrices

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
    if kept is None:  # (vertex, sign) -> (part index, (2j, 2 sign)) or (k, itself); p0 zeros
        _block_masks(p.blocks(), len(p.p0) + sum(map(len, p.parts)))
        table = {}
        for i, part in enumerate(p.parts):
            for j, v in enumerate(sorted(part)):
                table[v, 1], table[v, -1] = (i, (2 * j, 2)), (i, (2 * j, -2))
        k = len(p.parts)  # p0 letters share one bucket, after the parts
        for v in p.p0:
            table[v, 1], table[v, -1] = (k, (v, 1)), (k, (v, -1))
        kept = vars(p)["_oracle_table"] = table, tuple((v, 0) for v in sorted(p.p0))
    table, exps = kept
    buckets: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)  # parts the word meets
    try:
        for i, f in map(table.get, w):
            buckets[i].append(f)
    except TypeError:  # a letter outside the table fails to unpack (or to hash)
        _raise_bad_letter(p, table, w)
        raise
    p0_letters = buckets.pop(len(p.parts), None)
    if p0_letters:  # else the kept zero exponents serve as they are
        counts = dict(exps)
        for v, s in p0_letters:
            counts[v] += s
        exps = tuple(counts.items())
    mats = [IDENTITY] * len(p.parts)
    for i, fs in buckets.items():
        # a part letter's pair (2j, 2s) stands for A^j B^s A^-j, and within a
        # run the A powers of neighbouring letters merge: the first letter
        # gives M = A^j B^s, each later one M.A^(j - j') (j' the previous j)
        # and M.B^s, one column operation each, and M.A^-j ends the run
        ms = []
        it = iter(fs)
        for q, s in it:
            a, b, c, d = 1 + q * s, q, s, 1
            for t, s in islice(it, _RUN - 1):
                e = t - q
                b += e * a
                d += e * c
                a += s * b
                c += s * d
                q = t
            ms.append((a, b - q * a, c, d - q * c))
        while len(ms) > 1:  # adjacent pairs, in order; an odd tail pairs with the identity
            it = iter(ms)
            ms = [
                (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
                for (a, b, c, d), (e, f, g, h) in zip_longest(it, it, fillvalue=(1, 0, 0, 1))
            ]
        [(a, b, c, d)] = ms
        mats[i] = ((a, b), (c, d))
    return MatrixImage(exps, tuple(mats))


def _raise_bad_letter(p: CommutingPartition, table: dict, w: Word) -> None:
    """Raise ValueError at the first letter of w outside the table; return
    if there is none.  A letter that has no hash or no two items raises
    what hashing or unpacking it raises."""
    for letter in w:
        if letter in table:
            continue
        vertex, sign = letter
        if vertex in p.p0 or any(vertex in part for part in p.parts):
            raise ValueError(f"letter sign must be +1 or -1, got {sign}")
        raise ValueError(f"letter vertex {vertex} is not covered by the partition")
