"""Exact monochromatic clique search and the per-vertex covering verifier.

Cliques are walked depth first over neighbourhood bitmasks, always extending
by the smallest candidate, so they come in lexicographic order.  Witnesses
take one such walk per colour, pruned to the vertices still uncovered: each
vertex gets the first clique that contains it, its lexicographically
smallest.  That walk records each witness once, when it is first reached,
so its list is already the per-vertex-lex family, sorted and distinct, and
the witness report and the family are both read from it.  The witness walk
skips what cannot give a new witness: the sibling of a smallest candidate
adjacent to all the others (a swap puts each of its cliques' vertices in a
smaller clique under that candidate), children with too few candidates or
no uncovered vertex, and, below covered vertices only, every candidate
adjacent to no uncovered candidate (its cliques hold no uncovered vertex).
It reads the last level's cliques off in closed form, and tests a leaf
with the same candidates as the last one only once.  Both walks keep
their own stack, so k is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import and_, ge, or_
from typing import Mapping, Sequence

from .bounds import _integers
from .graphs import EdgeColouredGraph, canonical_json

__all__ = [
    "ALL_CLIQUES",
    "PER_VERTEX_LEX",
    "CliqueFamily",
    "EnablingReport",
    "NotEnabling",
    "choose_family",
    "enumerate_cliques",
    "find_clique_containing",
    "verify_enabling",
]

PER_VERTEX_LEX = "per-vertex-lex"
ALL_CLIQUES = "all-cliques"


class NotEnabling(ValueError):
    """The graph does not put every vertex in the required cliques."""


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:  # from the top: bit_length then one xor beats mask & -mask
        v = mask.bit_length() - 1
        out.append(v)
        mask ^= 1 << v
    out.reverse()
    return out


def _lex_witnesses(
    adj: Sequence[int], n: int, k: int, wanted: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each wanted vertex's lexicographically smallest size-k clique: the
    distinct ones in lexicographic order, and each vertex's index among them,
    -1 for a vertex not wanted or in no such clique.

    One depth-first walk, always extending by the smallest candidate, visits
    the cliques within the wanted vertices' closed neighbourhoods in
    lexicographic order.  A node is live while it has at least ``need``
    candidates and its chosen vertices and candidates hold a vertex of
    ``left``, the wanted vertices still without a witness.  As ``left`` only
    shrinks, each clique reached is the first one containing each vertex of
    ``left`` in it: they take it as their witness and leave.  So every clique
    recorded is new, and the list comes out sorted.  Six rules cut steps:

    - If ``need >= 2`` and the smallest candidate w is adjacent to every
      other candidate, the walk takes w and drops the sibling branch.  Take
      a clique in that branch and a vertex v of it: putting w in place of a
      member other than v gives a lexicographically smaller clique through
      v under w, so v has left before the sibling is reached.
    - A child that is not live is skipped for the next candidate at the
      same level, with nothing pushed or popped: it holds no new witness.
    - At such a skip, if no chosen vertex is in ``left``, the candidates
      outside the closed neighbourhoods of the candidates in ``left`` are
      dropped at once: a clique through one of them holds no vertex of
      ``left``, now or later, as ``left`` only shrinks.  Siblings already
      on the stack keep their own candidates.
    - With ``need == 1`` every candidate completes a clique: the first
      one's serves the chosen vertices and it, each later one only itself.
    - A node with exactly ``need`` candidates is a leaf, one clique test.
    - A leaf with the same candidates as the last one reuses its members
      and its test's outcome, as both depend on the candidates alone.

    The stack holds the live siblings still to visit, each with its depth,
    mask and union, so k is not bounded by Python's recursion limit.
    """
    if k < 1:
        raise ValueError(f"clique size must be positive, got {k}")
    cliques: list[tuple[int, ...]] = []
    index = [-1] * n
    closed = [a | 1 << v for v, a in enumerate(adj)]
    cand, left, mask, need = wanted, wanted, 0, k  # mask: the vertices of chosen
    if wanted != (1 << n) - 1:  # with every vertex wanted, cand holds them all
        for v in _members(wanted):
            cand |= adj[v]
    leaf, rest = -1, None  # the last leaf's candidates, and its members if a clique
    chosen: list[int] = []
    stack: list[tuple[int, int, int, int]] = []  # (depth, cand, mask | cand, mask)
    size = cand.bit_count()
    live = size >= need and cand & left
    while True:
        if live:
            if need > 1 and size > need:
                low = cand & -cand
                cand ^= low  # now only vertices after w
                size -= 1
                w = low.bit_length() - 1
                sub = cand & adj[w]
                if sub != cand:  # w misses a candidate: the sibling may matter
                    count = sub.bit_count()
                    if count < need - 1 or not (mask | low | sub) & left:
                        # w's child is dead.  Below covered vertices only, drop
                        # each candidate that no uncovered candidate reaches.
                        if not mask & left:
                            reach = map(closed.__getitem__, _members(cand & left))
                            cand &= reduce(or_, reach, 0)
                            size = cand.bit_count()
                        live = size >= need and (mask | cand) & left
                        continue
                    if (mask | cand) & left:
                        stack.append((len(chosen), cand, mask | cand, mask))
                    cand, size = sub, count
                chosen.append(w)
                mask |= low
                need -= 1
                continue
            if need == 1:
                low = cand & -cand
                hits = (mask | low) & left
                if hits:
                    left ^= hits
                    for v in _members(hits):
                        index[v] = len(cliques)
                    cliques.append((*chosen, low.bit_length() - 1))
                for v in _members(cand & left):
                    index[v] = len(cliques)
                    cliques.append((*chosen, v))
                left &= ~cand
            else:
                if cand != leaf:
                    leaf, rest = cand, _members(cand)
                    if reduce(and_, map(closed.__getitem__, rest), cand) != cand:
                        rest = None
                if rest is not None:
                    hits = (mask | cand) & left
                    left ^= hits
                    for v in _members(hits):
                        index[v] = len(cliques)
                    cliques.append((*chosen, *rest))
            if not left:
                break
        while stack:
            depth, cand, union, mask = stack.pop()
            if union & left:
                break
        else:
            break
        del chosen[depth:]
        need, size, live = k - depth, cand.bit_count(), True
    return cliques, index


def find_clique_containing(
    g: EdgeColouredGraph, colour: int, v: int, k: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest size-k colour-c clique containing v, or None.

    Vertex sets are compared as sorted sequences; members smaller than v are
    allowed and preferred.
    """
    _integers(colour, v, k)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    cliques, _ = _lex_witnesses(g.adjacency(colour), g.n, k, 1 << v)
    return cliques[0] if cliques else None


def enumerate_cliques(
    g: EdgeColouredGraph, colour: int, k: int
) -> list[tuple[int, ...]]:
    """All size-k cliques of one colour, in lexicographic order."""
    _integers(colour, k)
    if k < 1:
        raise ValueError(f"clique size must be positive, got {k}")
    adj = g.adjacency(colour)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    stack: list[int] = []  # the candidates left at each level above
    cand, need = (1 << g.n) - 1, k
    while True:
        if cand.bit_count() >= need:
            if need > 1:
                low = cand & -cand
                cand ^= low  # now only vertices after the one chosen
                stack.append(cand)
                w = low.bit_length() - 1
                chosen.append(w)
                cand &= adj[w]
                need -= 1
                continue
            while cand:
                low = cand & -cand
                out.append((*chosen, low.bit_length() - 1))
                cand ^= low
        if not stack:
            return out
        cand = stack.pop()
        chosen.pop()
        need += 1


@dataclass(frozen=True)
class EnablingReport:
    """Outcome of checking that every vertex lies in a size-k clique of each
    target colour."""

    targets: tuple[tuple[int, int], ...]
    ok: bool
    witnesses: Mapping[tuple[int, int], tuple[int, ...] | None]
    first_failure: tuple[int, int] | None

    def to_json_dict(self) -> dict:
        wit = {
            f"{v},{c}": (list(w) if w is not None else None)
            for (v, c), w in self.witnesses.items()
        }
        return {
            "ok": self.ok,
            "witnesses": wit,
            "first_failure": list(self.first_failure) if self.first_failure else None,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def _check_targets(g: EdgeColouredGraph, targets: Sequence[tuple[int, int]]) -> None:
    seen = set()
    for colour, k in targets:
        if type(colour) is not int or type(k) is not int:
            raise ValueError(f"target ({colour!r}, {k!r}) is not a pair of ints")
        if not 0 <= colour < g.r:
            raise ValueError(f"colour {colour} outside range 0..{g.r - 1}")
        if k < 1:
            raise ValueError(f"clique target must be positive, got {k}")
        if colour in seen:
            raise ValueError(f"colour {colour} appears twice in targets")
        seen.add(colour)
    if not targets:
        raise ValueError("need at least one (colour, k) target")


def verify_enabling(
    g: EdgeColouredGraph, targets: Sequence[tuple[int, int]]
) -> EnablingReport:
    """Search a witness clique for every (vertex, target colour) pair.

    The report carries one witness (or None) per pair; ok is true when no
    witness is missing, and first_failure records the first missing pair in
    scan order (targets in the given order, vertices ascending).
    """
    _check_targets(g, targets)
    witnesses: dict[tuple[int, int], tuple[int, ...] | None] = {}
    first_failure = None
    for colour, k in targets:
        cliques, index = _lex_witnesses(g.adjacency(colour), g.n, k, (1 << g.n) - 1)
        cliques.append(None)  # so index -1, a vertex in no clique, reads None
        witnesses.update(zip(zip(range(g.n), repeat(colour)),
                             map(cliques.__getitem__, index)))
        if first_failure is None and -1 in index:
            first_failure = (index.index(-1), colour)
    return EnablingReport(
        targets=tuple((c, k) for c, k in targets),
        ok=first_failure is None,
        witnesses=witnesses,
        first_failure=first_failure,
    )


@dataclass(frozen=True, eq=False)
class CliqueFamily:
    """A finite family of size-k cliques of one colour."""

    colour: int
    k: int
    cliques: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for c in self.cliques:
            if not isinstance(c, tuple) or any(map(ge, c, c[1:])):
                raise ValueError(f"clique {c!r} is not a sorted duplicate-free tuple")
            if len(c) != self.k:
                raise ValueError(f"clique {c!r} has size {len(c)}, expected {self.k}")

    @property
    def covered(self) -> dict[int, int]:
        """Each covered vertex's designated clique: the index of the first
        clique that holds it.  Under either ``choose_family`` policy that is
        the vertex's lexicographically smallest clique of the colour, as the
        family holds that clique and lists its cliques in lexicographic order."""
        last_wins = {v: i for i, c in reversed([*enumerate(self.cliques)]) for v in c}
        return dict(sorted(last_wins.items()))


def choose_family(
    g: EdgeColouredGraph, colour: int, k: int, policy: str = PER_VERTEX_LEX
) -> CliqueFamily:
    """Build the clique family used by the measure computations.

    ``per-vertex-lex`` collects, for each vertex, the lexicographically
    smallest size-k clique of the colour containing it; ``all-cliques``
    enumerates every size-k clique of the colour.  Either way the cliques
    come in lexicographic order.  Under either policy a vertex in no such
    clique raises NotEnabling, naming the smallest one.
    """
    _integers(colour, k)
    if policy == PER_VERTEX_LEX:
        cliques, index = _lex_witnesses(g.adjacency(colour), g.n, k, (1 << g.n) - 1)
        # The walk's index reads -1 at a vertex in no clique.
        uncovered = [index.index(-1)] if -1 in index else []
    elif policy == ALL_CLIQUES:
        cliques = enumerate_cliques(g, colour, k)
        uncovered = set(range(g.n)).difference(*cliques)
    else:
        raise ValueError(f"unknown family policy {policy!r}")
    if uncovered:
        raise NotEnabling(
            f"vertex {min(uncovered)} lies in no size-{k} clique of colour {colour}"
        )
    return CliqueFamily(colour, k, tuple(cliques))
