"""Exhaustive decision procedure for small (k1, k2)-enabling graphs.

Graphs on n labelled vertices are enumerated as edge bitmasks in ascending
order: bit e set means pair e (in canonical order) gets colour 0, clear means
colour 1.  ``exists_enabling`` decides whether one is enabling (every vertex
in a colour-0 k1-clique and a colour-1 k2-clique) at a given n, and ``min_n``
locates the least n.

Masks split into top, mid and low bit fields, and degrees are packed eight
bits per vertex.  For each top value the live mid blocks form one bitset,
the AND over vertices v of a mid window picked by v's top-field degree:
block h is live when v's degree from the top and mid fields lies in
[k1-1 - l, n-k2], l being the most the low field can add, so a top value
whose edges already put some vertex outside the degree window [k1-1, n-k2]
gets no live block.  Only live blocks are walked, in ascending order, and dead
ones are counted in bulk.  In a live block, the 2**low leaves inside the
window form one bitset, the AND over vertices v of a leaf window picked by
v's degree from the upper fields; both kinds of window come from one
builder that grows a field one edge of v at a time.  The clique cover is
bitsets too: each k-subset of the vertices holds at the leaves where its
low-field edges have the colour, once its upper-field edges do, so a
vertex's covered leaves are one OR over its live subsets, ANDed into the
block's bitset.  A vertex whose cover empties the bitset moves to the front
of its top value's table, so the next block tries it first; as an AND does
not depend on its order, that changes only the work.  A target k <= 2 needs
no subsets: for k = 2 the window gives each vertex an edge of that colour.
A mask counts as pruned exactly when it fails the window; on a witness,
only masks up to it count, so the counters do not depend on the field
widths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .bounds import LemmaViolation, two_colour_lower
from .cliques import verify_enabling
from .graphs import canonical_json, from_simple_graph, pairs as graph_pairs
from .lp import _integers

__all__ = ["SearchReport", "exists_enabling", "min_n"]

MAX_EDGE_BITS = 63
PROGRESS_STEP = 1 << 20

_LOW_CAP = 11
_MID_CAP = 12


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one exhaustive scan at a fixed vertex count."""

    k1: int
    k2: int
    n: int
    found: bool
    witness: Optional[tuple[tuple[int, int], ...]]
    graphs_enumerated: int
    graphs_pruned: int
    elapsed_seconds: float

    def to_json_dict(self, include_timings: bool = False) -> dict:
        doc = {
            "k1": self.k1,
            "k2": self.k2,
            "n": self.n,
            "found": self.found,
            "witness": None
            if self.witness is None
            else [list(e) for e in self.witness],
            "graphs_enumerated": self.graphs_enumerated,
            "graphs_pruned": self.graphs_pruned,
        }
        if include_timings:
            doc["elapsed_seconds"] = self.elapsed_seconds
        return doc

    def to_json(self, include_timings: bool = False) -> str:
        return canonical_json(self.to_json_dict(include_timings))


def _span_degrees(pairs: list[tuple[int, int]], lo: int, width: int) -> list[int]:
    """Packed degrees (eight-bit lane v = vertex v) for each value of bits
    [lo, lo+width); the values with bit e set extend those below 2**e."""
    degs = [0]
    for u, v in pairs[lo : lo + width]:
        step = (1 << (8 * u)) + (1 << (8 * v))
        degs += [d + step for d in degs]
    return degs


def _value_degrees(pairs: list[tuple[int, int]], lo: int, value: int) -> int:
    deg = 0
    while value:
        low = value & -value
        u, v = pairs[lo + low.bit_length() - 1]
        deg += (1 << (8 * u)) + (1 << (8 * v))
        value ^= low
    return deg


def _edge_leaves(low: int) -> list[int]:
    """Per low-field edge e, the 2**low-bit set of the leaves holding e: high
    bit first, each run of 2**(e+1) leaves opens with bit e set."""
    return [
        int(("1" * (1 << e) + "0" * (1 << e)) * (1 << (low - e - 1)), 2)
        for e in range(low)
    ]


def _leaf_windows(
    n: int,
    pairs: list[tuple[int, int]],
    edges: list[int],
    mind: int,
    maxd: int,
    rest: int = 0,
) -> list[tuple[int, list[int]]]:
    """(8v, win) per vertex v, over the 2**len(edges) values (leaves) of one
    field whose edges are pairs[:len(edges)]: bit leaf of win[hv] is set when
    hv, v's degree from the fields above, plus v's degree in leaf lies in
    [mind - rv, maxd], rv being lane v of rest, the most degree v can still
    gain from the fields below (none below the low field)."""
    windows = []
    for v in range(n):
        # The leaves giving v degree d, grown one field edge at a time.
        by_degree = [(1 << (1 << len(edges))) - 1] + [0] * (n - 1)
        for has, pair in zip(edges, pairs):
            if v in pair:
                below = [0, *by_degree]
                by_degree = [d & ~has | e & has for d, e in zip(by_degree, below)]
        least = mind - (rest >> 8 * v & 255)
        windows.append((8 * v, [
            sum(by_degree[max(0, least - hv):max(0, maxd - hv + 1)])
            for hv in range(n)
        ]))
    return windows


def _pick(windows: list[tuple[int, list[int]]], deg: int, bits: int) -> int:
    """bits ANDed with each vertex's window entry for its lane of deg."""
    for shift, win in windows:
        bits &= win[deg >> shift & 255]
    return bits


def _cover_table(
    n: int, pairs: list[tuple[int, int]], edges: list[int], k: int, colour: int
) -> list[list[tuple[int, int]]]:
    """Per vertex v, highest label first, a pair (fixed, leaves) for each
    k-subset C holding v: fixed masks C's edges in the upper fields, and
    leaves the leaves in which all of C's low-field edges have ``colour``."""
    # k = 1 asks nothing and k = 2 an edge of the colour at each vertex, which
    # the window [k1-1, n-k2] gives: d0 >= 1 if k1 = 2, n-1-d0 >= 1 if k2 = 2.
    if k <= 2:
        return []
    low = len(edges)
    every = (1 << (1 << low)) - 1
    has_colour = [every ^ has if colour else has for has in edges]
    index = {p: e for e, p in enumerate(pairs)}
    subsets = []
    for clique in combinations(range(n), k):
        fixed = 0
        leaves = every
        for p in combinations(clique, 2):
            e = index[p]
            if e < low:
                leaves &= has_colour[e]
            else:
                fixed |= 1 << (e - low)
        subsets.append((clique, fixed, leaves))
    return [
        [(fixed, leaves) for clique, fixed, leaves in subsets if v in clique]
        for v in reversed(range(n))
    ]


def _restrict(
    table: list[list[tuple[int, int]]], absent: int, keep: int
) -> list[list[tuple[int, int]]]:
    """The table for one top-field value: pairs with no fixed edge in absent,
    their fixed masks cut to keep, and pairs of equal masks merged."""
    out = []
    for subsets in table:
        merged: dict[int, int] = {}
        for fixed, leaves in subsets:
            if not fixed & absent:
                merged[fixed & keep] = merged.get(fixed & keep, 0) | leaves
        out.append(list(merged.items()))
    return out


def _covered(table: list[list[tuple[int, int]]], absent: int, good: int) -> int:
    """The leaves of good in which every vertex lies in a clique of the
    table's colour, when absent masks the fixed edges lacking that colour.
    A vertex whose cover empties good moves to the front of the table, so
    the next call tries it first; an AND does not depend on its order."""
    for i, subsets in enumerate(table):
        cover = 0
        for fixed, leaves in subsets:
            if not fixed & absent:
                cover |= leaves
        good &= cover
        if not good:
            table.insert(0, table.pop(i))
            break
    return good


def _report(
    n: int,
    k1: int,
    k2: int,
    mask: Optional[int],
    pairs: list[tuple[int, int]],
    enumerated: int,
    pruned: int,
    t0: float,
) -> SearchReport:
    witness = None
    if mask is not None:
        witness = tuple(pairs[e] for e in range(len(pairs)) if mask >> e & 1)
        g = from_simple_graph(n, witness)
        if not verify_enabling(g, ((0, k1), (1, k2))).ok:
            raise LemmaViolation(
                f"the scan's witness on n={n} is not ({k1}, {k2})-enabling"
            )
    return SearchReport(
        k1=k1,
        k2=k2,
        n=n,
        found=mask is not None,
        witness=witness,
        graphs_enumerated=enumerated,
        graphs_pruned=pruned,
        elapsed_seconds=time.perf_counter() - t0,
    )


def exists_enabling(
    n: int,
    k1: int,
    k2: int,
    *,
    progress: Optional[Callable[[int], None]] = None,
) -> SearchReport:
    """Scan all edge bitmasks on n vertices for a (k1, k2)-enabling graph.

    Returns the first witness in ascending bitmask order, or found=False
    after covering the whole space; ``progress``, when given, is called with
    each multiple of 2**20 that the mask count passes, after every block of
    up to 2**23 masks.  An n, k1 or k2 that is not an int, a bool included,
    raises ValueError before any table is built.
    """
    _integers(n, k1, k2)
    if n < 1 or k1 < 1 or k2 < 1:
        raise ValueError(f"n and targets must be positive, got {(n, k1, k2)}")
    nbits = n * (n - 1) // 2
    if nbits > MAX_EDGE_BITS:
        raise ValueError(
            f"n={n} needs {nbits} edge bits; exhaustive mode stops at "
            f"{MAX_EDGE_BITS}"
        )

    t0 = time.perf_counter()
    pairs = list(graph_pairs(n))
    total = 1 << nbits
    mind = max(0, k1 - 1)
    maxd = min(n - 1, n - k2)

    if mind > maxd:
        return _report(n, k1, k2, None, pairs, total, total, t0)

    top = max(0, nbits - _LOW_CAP - _MID_CAP)
    low = min(_LOW_CAP, nbits - top)
    mid = nbits - top - low
    mdeg = _span_degrees(pairs, low, mid)
    lmax = _value_degrees(pairs, 0, (1 << low) - 1)
    edges = _edge_leaves(low)
    windows = _leaf_windows(n, pairs, edges, mind, maxd)
    # Bit h of a mid window is block h: v's degree from the top and mid
    # fields fits [mind - lmax_v, maxd], so some leaf may still fit.
    mwindows = _leaf_windows(n, pairs[low:], _edge_leaves(mid), mind, maxd, lmax)
    cover0 = _cover_table(n, pairs, edges, k1, 0)
    cover1 = _cover_table(n, pairs, edges, k2, 1)

    nlow = 1 << low
    nmid = 1 << mid
    every = (1 << nlow) - 1
    enumerated = 0
    pruned = 0
    next_tick = PROGRESS_STEP

    for t in range(1 << top):
        tdeg = _value_degrees(pairs, low + mid, t)
        blocks = _pick(mwindows, tdeg, (1 << nmid) - 1)
        # One top value's tables at a time: drop the last ones before the
        # cut.  ~t and ~h mark the edges lacking colour 0.
        live0 = live1 = None
        if blocks:
            live0 = _restrict(cover0, ~t << mid, nmid - 1)
            live1 = _restrict(cover1, t << mid, nmid - 1)
        seen = 0  # the live blocks walked so far
        bits = f"{blocks:b}"[::-1]  # bits[h] == "1" for each live block h
        h = bits.find("1")
        while h >= 0:
            ok = _pick(windows, tdeg + mdeg[h], every)
            good = ok and _covered(live0, ~h, ok)
            good = good and _covered(live1, h, good)
            if good:
                # The lowest leaf of good is the first enabling mask; below
                # block h lie seen live blocks and h - seen dead ones.
                leaf = (good & -good).bit_length() - 1
                enumerated += h * nlow + leaf + 1
                pruned += (h - seen) * nlow
                pruned += leaf + 1 - (ok & ((2 << leaf) - 1)).bit_count()
                mask = (t << (mid + low)) | (h << low) | leaf
                return _report(n, k1, k2, mask, pairs, enumerated, pruned, t0)
            seen += 1
            pruned += nlow - ok.bit_count()
            h = bits.find("1", h + 1)
        enumerated += nmid * nlow
        pruned += (nmid - seen) * nlow
        if progress is not None and enumerated >= next_tick:
            while next_tick <= enumerated:
                progress(next_tick)
                next_tick += PROGRESS_STEP

    if enumerated != total:
        raise LemmaViolation(f"the scan covered {enumerated} of {total} masks")
    return _report(n, k1, k2, None, pairs, enumerated, pruned, t0)


def min_n(
    k1: int,
    k2: int,
    n_max: int,
    *,
    trusted_bounds: bool = False,
    progress: Optional[Callable[[int], None]] = None,
) -> Optional[int]:
    """Least n <= n_max carrying a (k1, k2)-enabling graph, None if none.

    Scans upward from max(k1, k2); with trusted_bounds the scan starts at
    the proven lower bound instead of re-deriving it, which changes nothing
    but the work done.  A k1, k2 or n_max that is not an int, a bool
    included, raises ValueError before any scan.
    """
    report = _least_witness(k1, k2, n_max, trusted_bounds, progress)
    return None if report is None else report.n


def _least_witness(
    k1: int,
    k2: int,
    n_max: int,
    trusted_bounds: bool,
    progress: Optional[Callable[[int], None]],
) -> Optional[SearchReport]:
    """The report of ``min_n``'s scan at its least n, None if none."""
    _integers(k1, k2, n_max)
    if k1 < 1 or k2 < 1 or n_max < 1:
        raise ValueError(f"targets and n_max must be positive, got {(k1, k2, n_max)}")
    start = max(k1, k2)
    if trusted_bounds:
        start = max(start, two_colour_lower(k1, k2))
    for n in range(start, n_max + 1):
        report = exists_enabling(n, k1, k2, progress=progress)
        if report.found:
            return report
    return None
