"""Exhaustive decision procedure for small (k1, k2)-enabling graphs.

Graphs on n labelled vertices are enumerated as edge bitmasks in ascending
order: bit e set means pair e (in canonical order) gets colour 0, clear means
colour 1.  ``exists_enabling`` decides whether one is enabling (every vertex
in a colour-0 k1-clique and a colour-1 k2-clique) at a given n, and ``min_n``
locates the least n.

Masks split into top, mid and low bit fields, and degrees are packed eight
bits per vertex: one add-and-mask skips a top or mid block whose fixed fields
already put some vertex outside the degree window [k1-1, n-k2].  In a
surviving block, the leaves inside the window form one bitset, the AND over
vertices v of a table entry picked by v's degree from the upper fields, and
only its leaves reach the clique checks.  A mask counts as pruned exactly
when it fails the window; on a witness, only masks up to it count, so the
counters do not depend on the field widths.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .bounds import LemmaViolation, two_colour_lower
from .cliques import verify_enabling
from .graphs import from_simple_graph, pairs as graph_pairs

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
        return json.dumps(
            self.to_json_dict(include_timings), sort_keys=True, separators=(",", ":")
        )


def _span_tables(
    n: int, pairs: list[tuple[int, int]], lo: int, width: int
) -> tuple[list[int], list[int]]:
    """Per-value packed degrees and packed adjacency for bits [lo, lo+width).

    Degrees use eight-bit lanes (lane v = vertex v); adjacency uses n-bit
    rows at stride n.  Entry x extends entry x without its lowest bit.
    """
    degs = [0] * (1 << width)
    adjs = [0] * (1 << width)
    for x in range(1, 1 << width):
        low = x & -x
        u, v = pairs[lo + low.bit_length() - 1]
        rest = x ^ low
        degs[x] = degs[rest] + (1 << (8 * u)) + (1 << (8 * v))
        adjs[x] = adjs[rest] | (1 << (u * n + v)) | (1 << (v * n + u))
    return degs, adjs


def _leaf_windows(
    n: int, ldeg: list[int], mind: int, maxd: int
) -> list[tuple[int, list[int]]]:
    """(8v, win) per vertex v: bit leaf of win[hv] is set when hv, v's degree
    from the upper fields, plus v's degree in leaf lies in [mind, maxd]."""
    windows = []
    for shift in range(0, 8 * n, 8):
        by_degree = [0] * n
        for leaf, d in enumerate(ldeg):
            by_degree[d >> shift & 255] |= 1 << leaf
        windows.append((shift, [
            sum(by_degree[max(0, mind - hv):max(0, maxd - hv + 1)])
            for hv in range(n)
        ]))
    return windows


def _value_contrib(
    n: int, pairs: list[tuple[int, int]], lo: int, value: int
) -> tuple[int, int]:
    deg = 0
    adj = 0
    while value:
        low = value & -value
        u, v = pairs[lo + low.bit_length() - 1]
        deg += (1 << (8 * u)) + (1 << (8 * v))
        adj |= (1 << (u * n + v)) | (1 << (v * n + u))
        value ^= low
    return deg, adj


def _make_cover_check(n: int, k: int) -> Callable[[int], bool]:
    """Checker for "every vertex lies in a k-clique" on packed adjacency."""
    row_mask = (1 << n) - 1
    if k <= 1:
        return lambda adj: True

    if k == 2:
        # Row v is nonzero exactly when its top bit is set or adding all ones
        # to its other n-1 bits carries into it; no carry leaves the row.
        rest = (row_mask >> 1) * sum(1 << (v * n) for v in range(n))
        tops = sum(1 << (v * n + n - 1) for v in range(n))
        return lambda adj: ((adj & rest) + rest | adj) & tops == tops

    if k == 3:

        def check3(adj: int) -> bool:
            covered = 0
            # Ascending masks give the pairs among high labels colour 0 last,
            # so on colour 0 those vertices fail most often: try them first.
            for v in reversed(range(n)):
                if covered >> v & 1:
                    continue
                av = (adj >> (v * n)) & row_mask
                t = av
                while t:
                    low = t & -t
                    t ^= low
                    common = (adj >> ((low.bit_length() - 1) * n)) & av
                    if common:
                        covered |= (1 << v) | low | common
                        break
                else:
                    return False
            return True

        return check3

    def checkk(adj: int) -> bool:
        rows = [(adj >> (v * n)) & row_mask for v in range(n)]

        def grow(chosen: int, cand: int, need: int) -> int:
            """Mask of a clique: chosen plus need pairwise adjacent
            vertices of cand, or 0 when there is none."""
            if need == 0:
                return chosen
            while cand:
                if cand.bit_count() < need:
                    return 0
                low = cand & -cand
                cand ^= low
                clique = grow(chosen | low, cand & rows[low.bit_length() - 1], need - 1)
                if clique:
                    return clique
            return 0

        covered = 0
        for v in range(n):
            if covered >> v & 1:
                continue
            clique = grow(1 << v, rows[v], k - 1)
            if not clique:
                return False
            covered |= clique
        return True

    return checkk


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
    the running mask count about every 2**20 graphs.
    """
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
    ldeg, ladj = _span_tables(n, pairs, 0, low)
    mdeg, madj = _span_tables(n, pairs, low, mid)
    windows = _leaf_windows(n, ldeg, mind, maxd)

    check1 = _make_cover_check(n, k1)
    check2 = _make_cover_check(n, k2)
    full_adj = _value_contrib(n, pairs, 0, total - 1)[1]

    lanes = sum(1 << (8 * v) for v in range(n))
    high = lanes << 7
    over = (127 - maxd) * lanes
    under = (128 - mind) * lanes
    lmax = ldeg[-1]
    lmmax = lmax + mdeg[-1]

    nlow = 1 << low
    nmid = 1 << mid
    every = (1 << nlow) - 1
    enumerated = 0
    pruned = 0
    next_tick = PROGRESS_STEP

    for t in range(1 << top):
        tdeg, tadj = _value_contrib(n, pairs, low + mid, t)
        if ((tdeg + over) & high) or ((tdeg + lmmax + under) & high) != high:
            enumerated += nmid * nlow
            pruned += nmid * nlow
            if progress is not None and enumerated >= next_tick:
                while next_tick <= enumerated:
                    progress(next_tick)
                    next_tick += PROGRESS_STEP
            continue
        for h in range(nmid):
            hdeg = tdeg + mdeg[h]
            if ((hdeg + over) & high) or ((hdeg + lmax + under) & high) != high:
                enumerated += nlow
                pruned += nlow
            else:
                hadj = tadj | madj[h]
                ok = every
                for shift, win in windows:
                    ok &= win[hdeg >> shift & 255]
                bits = f"{ok:b}"[::-1]
                leaf = bits.find("1")
                while leaf >= 0:
                    adj = hadj | ladj[leaf]
                    if check1(adj) and check2(full_adj ^ adj):
                        enumerated += leaf + 1
                        pruned += leaf + 1 - bits.count("1", 0, leaf + 1)
                        mask = (t << (mid + low)) | (h << low) | leaf
                        return _report(
                            n, k1, k2, mask, pairs, enumerated, pruned, t0
                        )
                    leaf = bits.find("1", leaf + 1)
                enumerated += nlow
                pruned += nlow - ok.bit_count()
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
    but the work done.
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
