"""Seeded benchmark inputs and the answers known from how each was built.

Nothing in this module calls the program under test.  Graphs are held as one
adjacency bitmask per vertex; block structures, least witnesses, expected
outputs and word triviality all follow from the construction, so a wrong
answer from the program cannot agree with its own reference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Blocks:
    """A commuting block structure as built: universal vertices, then parts.

    Singleton parts are kept as generated; their vertex is joined to every
    other vertex, so the program must report it in p0.
    """

    n: int
    p0: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]

    def owner(self) -> list[int]:
        """Block id per vertex: 0 for p0, i + 1 for part i."""
        own = [0] * self.n
        for i, part in enumerate(self.parts):
            for v in part:
                own[v] = i + 1
        return own

    def canonical(self) -> tuple[list[int], list[list[int]]]:
        """Expected (p0, parts): singleton parts folded into p0, parts
        ordered by their least vertex."""
        p0 = sorted([*self.p0, *(part[0] for part in self.parts if len(part) == 1)])
        parts = sorted(sorted(part) for part in self.parts if len(part) > 1)
        return p0, parts

    def adjacency(self) -> list[int]:
        full = (1 << self.n) - 1
        adj = [full ^ (1 << v) for v in range(self.n)]
        for part in self.parts:
            mask = 0
            for v in part:
                mask |= 1 << v
            for v in part:
                adj[v] = full ^ mask
        return adj


def random_blocks(rng: random.Random, n: int, parts: int, singletons: int, p0: int) -> Blocks:
    """p0 universal vertices, some singleton parts, and ``parts`` parts of at
    least two vertices each, over a shuffled vertex order.  The part sizes
    differ by at most one, so the seed moves vertices between blocks but
    leaves the amount of work alone."""
    if parts < 1 or p0 + singletons + 2 * parts > n:
        raise ValueError("need at least one part and enough vertices for the blocks")
    verts = list(range(n))
    rng.shuffle(verts)
    universal = verts[:p0]
    single = verts[p0 : p0 + singletons]
    rest = verts[p0 + singletons :]
    all_parts = [[v] for v in single] + [rest[i::parts] for i in range(parts)]
    return Blocks(
        n,
        tuple(sorted(universal)),
        tuple(tuple(sorted(g)) for g in sorted(all_parts, key=min)),
    )


def join_inside_largest_part(b: Blocks, adj: list[int]) -> tuple[int, int, int]:
    """Join the two largest vertices a < b of the largest part P in place.

    That edge is then the only one with a vertex adjacent to neither end, so
    the least witness is (a, b, min(P minus {a, b})).
    """
    part = max(b.parts, key=len)
    if len(part) < 3:
        raise ValueError("the largest part needs at least three vertices")
    a, c = part[-2], part[-1]
    adj[a] |= 1 << c
    adj[c] |= 1 << a
    return a, c, min(v for v in part if v not in (a, c))


def random_adjacency(rng: random.Random, n: int) -> list[int]:
    """G(n, 1/2): each pair joined with probability one half."""
    adj = [0] * n
    for u in range(n):
        upper = rng.getrandbits(n) >> (u + 1) << (u + 1)
        adj[u] |= upper
        for v in bits(upper):
            adj[v] |= 1 << u
    return adj


def bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    s = bin(mask)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def least_witness(n: int, adj: list[int]) -> tuple[int, int, int] | None:
    """Least (a, b, c) with (a, b) an edge, a < b, and c adjacent to neither."""
    full = (1 << n) - 1
    for a in range(n):
        for b in bits(adj[a] >> (a + 1)):
            b += a + 1
            free = full & ~(adj[a] | adj[b] | 1 << a | 1 << b)
            if free:
                return a, b, (free & -free).bit_length() - 1
    return None


def is_pattern_free(n: int, adj: list[int]) -> bool:
    """True when non-adjacency (with equality) is an equivalence relation,
    i.e. the complement is a disjoint union of cliques."""
    full = (1 << n) - 1
    members: dict[int, int] = {}
    for v in range(n):
        closed = full & ~adj[v]
        if not closed >> v & 1:
            return False
        members[closed] = members.get(closed, 0) | 1 << v
    return all(mask == m for mask, m in members.items())


def edge_list_text(n: int, adj: list[int]) -> str:
    """The documented edge-list format, edges in lexicographic order."""
    names = [str(v) for v in range(n)]
    lines = [f"n {n}"]
    for u in range(n):
        upper = bits(adj[u] >> (u + 1))
        if upper:
            head = f"e {u} "
            lines.append("\n".join(head + names[u + 1 + i] for i in upper))
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> tuple[int, list[int]] | None:
    """Strict reader for the program's own edge-list output: numeric labels,
    edges (u, v) with u < v in strictly increasing lexicographic order.
    Returns None on any deviation."""
    lines = text.split("\n")
    if not lines[0].startswith("n ") or lines[-1] != "":
        return None
    try:
        n = int(lines[0][2:])
        adj = [0] * n
        last = (-1, -1)
        for line in lines[1:-1]:
            tag, su, sv = line.split(" ")
            edge = (int(su), int(sv))
            if tag != "e" or not last < edge or not 0 <= edge[0] < edge[1] < n:
                return None
            adj[edge[0]] |= 1 << edge[1]
            adj[edge[1]] |= 1 << edge[0]
            last = edge
    except ValueError:
        return None
    return n, adj


def graph6_text(n: int, adj: list[int]) -> str:
    """graph6, single-byte size form: upper-triangle bits column by column."""
    if not 0 <= n <= 62:
        raise ValueError("single-byte graph6 needs n <= 62")
    flags = [adj[u] >> v & 1 for v in range(1, n) for u in range(v)]
    flags += [0] * (-len(flags) % 6)
    out = [chr(n + 63)]
    for i in range(0, len(flags), 6):
        val = 0
        for f in flags[i : i + 6]:
            val = val << 1 | f
        out.append(chr(val + 63))
    return "".join(out) + "\n"


def group_text(abelian_rank: int, free_ranks: list[int]) -> str:
    pieces = [f"Z^{abelian_rank}"] if abelian_rank else []
    pieces += [f"F_{r}" for r in free_ranks]
    return " x ".join(pieces) or "1"


def classify_json_positive(b: Blocks) -> dict:
    """The expected ``classify --json`` object for a graph built from b."""
    p0, parts = b.canonical()
    ranks = sorted((len(p) for p in parts), reverse=True)
    return {
        "embeddable": True,
        "witness": None,
        "partition": {"p0": p0, "parts": parts},
        "group": {"abelian_rank": len(p0), "free_ranks": ranks},
        "canonical": group_text(len(p0), ranks),
    }


def classify_json_negative(witness: tuple[int, int, int]) -> dict:
    a, b, c = witness
    return {
        "embeddable": False,
        "witness": {"edge": [a, b], "nonadjacent": c},
        "partition": None,
        "group": None,
        "canonical": None,
    }


def decompose_digest(b: Blocks, adj: list[int]) -> str:
    """sha256 of the expected ``decompose`` output for a graph built from b."""
    p0, parts = b.canonical()
    ranks = sorted((len(p) for p in parts), reverse=True)
    gens = ",".join(f"x{v}" for v in range(b.n))
    rels = ",".join(
        f"x{u}x{v}=x{v}x{u}" for u in range(b.n) for v in (u + 1 + i for i in bits(adj[u] >> (u + 1)))
    )
    text = f"{group_text(len(p0), ranks)}\npresentation: ⟨{gens} | {rels}⟩\n"
    return hashlib.sha256(text.encode()).hexdigest()


def commuting_pair(rng: random.Random, owner: list[int]) -> tuple[int, int]:
    """Two distinct adjacent vertices: in different blocks or one in p0."""
    if 0 not in owner and len(set(owner)) < 2:
        raise ValueError("a single part has no adjacent pair")
    n = len(owner)
    while True:
        x, y = rng.randrange(n), rng.randrange(n)
        if x != y and (owner[x] != owner[y] or owner[x] == 0):
            return x, y


def make_word(
    rng: random.Random, owner: list[int], length: int, trivial: bool
) -> list[tuple[int, int]]:
    """About ``length`` letters (vertex, sign) whose triviality is known by
    construction: u . core . u^-1, where core is a product of commutators of
    adjacent generators taking a third of the letters, preceded by one
    generator when the word must be nontrivial (u g u^-1 is never 1)."""
    n = len(owner)
    core = [] if trivial else [(rng.randrange(n), rng.choice((1, -1)))]
    for _ in range(length // 12):
        x, y = commuting_pair(rng, owner)
        core += [(x, 1), (y, 1), (x, -1), (y, -1)]
    u = [(rng.randrange(n), rng.choice((1, -1))) for _ in range((length - len(core)) // 2)]
    return u + core + [(v, -s) for v, s in reversed(u)]
