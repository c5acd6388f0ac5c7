"""Exact monochromatic clique search and the per-vertex covering verifier.

Cliques are found by branch and bound over neighbourhood bitmasks, always
extending by the smallest admissible vertex, so the first clique reached is
the lexicographically smallest one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .graphs import EdgeColouredGraph

__all__ = [
    "ALL_CLIQUES",
    "PER_VERTEX_LEX",
    "CliqueFamily",
    "EnablingReport",
    "choose_family",
    "enumerate_cliques",
    "find_clique_containing",
    "verify_enabling",
]

PER_VERTEX_LEX = "per-vertex-lex"
ALL_CLIQUES = "all-cliques"


def find_clique_containing(
    g: EdgeColouredGraph, colour: int, v: int, k: int
) -> tuple[int, ...] | None:
    """Lexicographically smallest size-k colour-c clique containing v, or None.

    Vertex sets are compared as sorted sequences; members smaller than v are
    allowed and preferred.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    if k < 1:
        raise ValueError(f"clique size must be positive, got {k}")
    if k == 1:
        return (v,)
    adj = g.adjacency(colour)
    vbit = 1 << v
    target = k

    def extend(chosen: list[int], cand: int, have_v: bool) -> tuple[int, ...] | None:
        if len(chosen) == target:
            return tuple(chosen) if have_v else None
        if not have_v and not cand & vbit:
            return None
        while cand:
            if cand.bit_count() < target - len(chosen):
                return None
            low = cand & -cand
            w = low.bit_length() - 1
            chosen.append(w)
            got = extend(chosen, cand & adj[w] & ~(low | (low - 1)), have_v or w == v)
            if got is not None:
                return got
            chosen.pop()
            cand ^= low
            if not have_v and w == v:
                return None
        return None

    universe = (adj[v] | vbit) & ((1 << g.n) - 1)
    return extend([], universe, False)


def enumerate_cliques(
    g: EdgeColouredGraph, colour: int, k: int
) -> list[tuple[int, ...]]:
    """All size-k cliques of one colour, in lexicographic order."""
    if k < 1:
        raise ValueError(f"clique size must be positive, got {k}")
    adj = g.adjacency(colour)
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def extend(cand: int, need: int) -> None:
        if need == 0:
            out.append(tuple(chosen))
            return
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            w = low.bit_length() - 1
            chosen.append(w)
            extend(cand & adj[w] & ~(low | (low - 1)), need - 1)
            chosen.pop()
            cand ^= low

    extend((1 << g.n) - 1, k)
    return out


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
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _check_targets(g: EdgeColouredGraph, targets: Sequence[tuple[int, int]]) -> None:
    seen = set()
    for colour, k in targets:
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
        for v in range(g.n):
            w = find_clique_containing(g, colour, v, k)
            witnesses[(v, colour)] = w
            if w is None and first_failure is None:
                first_failure = (v, colour)
    return EnablingReport(
        targets=tuple((c, k) for c, k in targets),
        ok=first_failure is None,
        witnesses=witnesses,
        first_failure=first_failure,
    )


@dataclass(frozen=True, eq=False)
class CliqueFamily:
    """A finite family of size-k cliques of one colour, with the designated
    clique of each covered vertex."""

    colour: int
    k: int
    cliques: tuple[tuple[int, ...], ...]
    covered: Optional[Mapping[int, int]] = None

    def __post_init__(self) -> None:
        for i, c in enumerate(self.cliques):
            if tuple(sorted(set(c))) != c:
                raise ValueError(f"clique {c!r} is not a sorted duplicate-free tuple")
            if len(c) != self.k:
                raise ValueError(f"clique {c!r} has size {len(c)}, expected {self.k}")
        for v, i in (self.covered or {}).items():
            if not 0 <= i < len(self.cliques):
                raise ValueError(f"designated clique index {i} out of range")
            if v not in self.cliques[i]:
                raise ValueError(f"vertex {v} not in its designated clique")


def _lex_family(
    colour: int, k: int, found: Mapping[int, tuple[int, ...]]
) -> CliqueFamily:
    """The per-vertex-lex family from each vertex's lexicographically smallest
    clique: the distinct cliques in sorted order, each vertex designated its
    own."""
    cliques = tuple(sorted(set(found.values())))
    index = {c: i for i, c in enumerate(cliques)}
    return CliqueFamily(colour, k, cliques, {v: index[w] for v, w in found.items()})


def choose_family(
    g: EdgeColouredGraph, colour: int, k: int, policy: str = PER_VERTEX_LEX
) -> CliqueFamily:
    """Build the clique family used by the measure computations.

    ``per-vertex-lex`` collects, for each vertex, the lexicographically
    smallest size-k clique of the colour containing it (raising ValueError if
    some vertex has none); ``all-cliques`` enumerates every size-k clique of
    the colour.
    """
    if policy == PER_VERTEX_LEX:
        found: dict[int, tuple[int, ...]] = {}
        for v in range(g.n):
            w = find_clique_containing(g, colour, v, k)
            if w is None:
                raise ValueError(
                    f"vertex {v} lies in no size-{k} clique of colour {colour}"
                )
            found[v] = w
        return _lex_family(colour, k, found)
    if policy == ALL_CLIQUES:
        cliques = tuple(enumerate_cliques(g, colour, k))
        covered = {}
        for i, c in enumerate(cliques):
            for v in c:
                covered.setdefault(v, i)
        return CliqueFamily(colour, k, cliques, covered)
    raise ValueError(f"unknown family policy {policy!r}")
