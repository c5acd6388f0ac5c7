"""Edge-coloured complete graphs stored as a flat colour sequence.

The colour of every unordered pair {u, v} is stored in a fixed
upper-triangular order: (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
Below 257 colours the store is one immutable ``bytes`` object, one byte a
pair; from 257 on it is a tuple of ints.  ``colours`` reads it as a tuple
copied afresh on every read, O(n^2), so look pairs up with ``colour_of``.
All lookups are exact integer operations; the JSON form round-trips
byte-for-byte.  Colour classes are read one way, from bytes: neighbour
bitmasks of every colour but the last come from one byte matrix of pair
colours per graph, one ``translate`` and n ``int(row, 2)`` a colour, and the
last colour's are what the others leave, as every pair has exactly one
colour.  From 257 colours on, each class is read as colour 0 of a two-colour
byte graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from operator import xor
from typing import Iterable, Iterator, Sequence

__all__ = [
    "EdgeColouredGraph",
    "build",
    "canonical_json",
    "from_simple_graph",
    "monochromatic_complete",
    "pair_count",
    "pair_index",
    "pairs",
    "vertex_set",
]


def canonical_json(doc) -> str:
    """The one JSON spelling every document uses: sorted keys, no spaces."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def pair_count(n: int) -> int:
    """Number of unordered vertex pairs of a complete graph on n vertices."""
    return n * (n - 1) // 2


def pair_index(n: int, u: int, v: int) -> int:
    """Position of the pair {u, v} in the canonical colour sequence."""
    if u == v:
        raise ValueError(f"no edge from vertex {u} to itself")
    if u > v:
        u, v = v, u
    if u < 0 or v >= n:
        raise ValueError(f"pair ({u}, {v}) out of range for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pairs(n: int) -> Iterator[tuple[int, int]]:
    """All unordered pairs in canonical order."""
    for u in range(n):
        for v in range(u + 1, n):
            yield u, v


def vertex_set(members: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate and normalise a collection of vertices to a sorted tuple."""
    out = sorted(members)
    for v in out:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise ValueError(f"duplicate vertex {a}")
    return tuple(out)


def _pair_matrix(n: int, codes: bytes) -> bytearray:
    """The n-by-n matrix of codes[pair_index(n, u, v)] at (u, v) and (v, u), 255
    on the diagonal, reversed whole: vertex u's row is row n-1-u, from n-1 down."""
    matrix = bytearray(b"\xff") * (n * n)
    codes, start = memoryview(codes), 0
    for u in range(n):  # pairs (u, u+1..n-1): part of row u and of column u
        seg = codes[start : start + n - 1 - u]
        matrix[u * n + u + 1 : (u + 1) * n] = seg
        matrix[(u + 1) * n + u :: n] = seg
        start += n - 1 - u
    return matrix[::-1]


@dataclass(frozen=True, init=False, repr=False)
class EdgeColouredGraph:
    """A complete graph on vertices 0..n-1 whose edges carry colours 0..r-1.

    ``EdgeColouredGraph(n, r, colours)`` takes the pair colours in pair
    order as any sequence of ints and stores them as bytes below 257 colours,
    as a tuple from 257 on; graphs of equal n, r and colours compare and hash
    equal whatever sequence type they were built from."""

    n: int
    r: int
    _store: bytes | tuple[int, ...]
    _adjacency: dict = field(compare=False)

    def __init__(self, n: int, r: int, colours: Sequence[int]) -> None:
        if type(n) is not int or type(r) is not int:
            raise ValueError("graph fields n and r must be integers")
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if r < 1:
            raise ValueError(f"need at least one colour, got r={r}")
        expected = pair_count(n)
        if len(colours) != expected:
            raise ValueError(
                f"colour sequence has length {len(colours)}, "
                f"expected {expected} for n={n}"
            )
        # Passes that run in C, not a Python loop: every graph built is checked.
        if type(colours) is bytes:
            # What deleting the bytes 0..r-1 leaves is out of range.
            outside = colours.translate(None, bytes(range(min(r, 256))))
            if outside:
                raise ValueError(f"colour {max(outside)} outside range 0..{r - 1}")
        else:
            strays = sorted(t.__name__ for t in set(map(type, colours)) - {int})
            if strays:
                raise ValueError(f"colours must be integers, got {', '.join(strays)}")
            used = set(colours)  # at most r values, so min and max are cheap
            lo, hi = min(used, default=0), max(used, default=0)
            if lo < 0 or hi >= r:
                bad = lo if lo < 0 else hi
                raise ValueError(f"colour {bad} outside range 0..{r - 1}")
        # bytes(b) of a bytes b is b itself; a bytearray is copied, so a
        # later write to it leaves the graph as it was.
        store = bytes(colours) if r <= 256 else tuple(colours)
        object.__setattr__(self, "n", n)  # frozen: fields are set here only
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_adjacency", {})

    def __repr__(self) -> str:
        return f"EdgeColouredGraph(n={self.n}, r={self.r}, colours={self._store!r})"

    @property
    def colours(self) -> tuple[int, ...]:
        """The pair colours in pair order, as a tuple built on every read."""
        return tuple(self._store)

    def colour_of(self, u: int, v: int) -> int:
        """Colour of the edge {u, v}; symmetric in its arguments."""
        return self._store[pair_index(self.n, u, v)]

    def adjacency(self, colour: int) -> tuple[int, ...]:
        """Per-vertex neighbour bitmasks of one colour class, cached.

        On a byte store the first call reads colours 0..r-2 from one
        ``_pair_matrix``, one ``translate`` and n ``int(row, 2)`` a colour,
        and gives colour r-1 what they leave: every pair has exactly one
        colour, and the diagonal byte 255 is never one of 0..r-2.  A tuple
        store reads colour c as colour 0 of the two-colour byte graph whose
        pairs of colour c are 0 and all others 1."""
        if not 0 <= colour < self.r:
            raise ValueError(f"colour {colour} outside range 0..{self.r - 1}")
        cache, n, store = self._adjacency, self.n, self._store
        if colour in cache:
            return cache[colour]
        if type(store) is bytes:
            matrix, starts = _pair_matrix(n, store), range(n * n - n, -1, -n)
            rest = (((1 << n) - 1) ^ (1 << u) for u in range(n))
            for c in range(self.r - 1):
                # As ASCII digits, int(row, 2) has bit v set where (u, v) has c.
                digits = matrix.translate(b"0" * c + b"1" + b"0" * (255 - c))
                cache[c] = tuple(int(digits[i : i + n], 2) for i in starts)
                rest = map(xor, rest, cache[c])
            cache[self.r - 1] = tuple(rest)
        else:
            flags = bytes(c != colour for c in store)
            cache[colour] = EdgeColouredGraph(n, 2, flags).adjacency(0)
        return cache[colour]

    def is_monochromatic_clique(self, members: Iterable[int], colour: int) -> bool:
        """Whether every pair inside ``members`` has the given colour.

        Sets of size 0 or 1 qualify vacuously for any colour.
        """
        ms = vertex_set(members, self.n)
        if not 0 <= colour < self.r:
            raise ValueError(f"colour {colour} outside range 0..{self.r - 1}")
        return all(self.colour_of(u, v) == colour for u, v in combinations(ms, 2))

    def permute_colours(self, perm: Sequence[int]) -> "EdgeColouredGraph":
        """Relabel colours by a bijection ``perm`` (colour c becomes perm[c])."""
        if sorted(perm) != list(range(self.r)) or set(map(type, perm)) != {int}:
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.r - 1}")
        store = self._store
        if type(store) is bytes:
            store = store.translate(bytes(perm).ljust(256, b"\0"))
        else:
            store = tuple(perm[c] for c in store)
        return EdgeColouredGraph(self.n, self.r, store)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "r": self.r, "colours": list(self._store)}

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EdgeColouredGraph":
        try:
            n, r, colours = doc["n"], doc["r"], doc["colours"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph document missing field: {exc}") from None
        return cls(n, r, colours)

    @classmethod
    def from_json(cls, text: str) -> "EdgeColouredGraph":
        return cls.from_json_dict(json.loads(text))


def build(n: int, r: int, colours: Sequence[int]) -> EdgeColouredGraph:
    """Construct a graph from an explicit colour sequence in canonical order."""
    return EdgeColouredGraph(n, r, colours)


def from_simple_graph(n: int, edges: Iterable[tuple[int, int]]) -> EdgeColouredGraph:
    """Two-colour a complete graph: listed edges get colour 0, the rest colour 1."""
    cols = bytearray(b"\x01") * pair_count(n)
    for u, v in edges:
        cols[pair_index(n, u, v)] = 0
    return EdgeColouredGraph(n, 2, bytes(cols))


def monochromatic_complete(n: int, r: int = 2, colour: int = 0) -> EdgeColouredGraph:
    """Complete graph with every edge in one colour; handy for small tests."""
    if not 0 <= colour < r:
        raise ValueError(f"colour {colour} outside range 0..{r - 1}")
    one = bytes([colour]) if colour < 256 else (colour,)
    return EdgeColouredGraph(n, r, one * pair_count(n))
