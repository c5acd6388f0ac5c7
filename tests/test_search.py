import itertools
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

import enabling
from enabling.bounds import two_colour_lower
from enabling.cliques import verify_enabling
from enabling.constructions import two_colour_extremal
from enabling.graphs import from_simple_graph, pairs
from enabling import search
from enabling.search import (
    _LOW_CAP,
    _MID_CAP,
    SearchReport,
    _cover_table,
    _covered,
    _edge_leaves,
    _leaf_windows,
    _pick,
    _restrict,
    _span_degrees,
    _value_degrees,
    exists_enabling,
    min_n,
)


def oracle_first_witness(n, k1, k2):
    """Check every bitmask with the generic verifier; no pruning, no tricks."""
    plist = list(pairs(n))
    for mask in range(1 << len(plist)):
        edges = [plist[e] for e in range(len(plist)) if mask >> e & 1]
        g = from_simple_graph(n, edges)
        if verify_enabling(g, ((0, k1), (1, k2))).ok:
            return mask
    return None


def test_first_witness_matches_oracle_for_2_2():
    # frozen from the oracle: mask 12 = edges (0,3),(1,2), a perfect matching
    assert oracle_first_witness(4, 2, 2) == 12
    rep = exists_enabling(4, 2, 2)
    assert rep.found
    assert rep.witness == ((0, 3), (1, 2))
    assert rep.graphs_enumerated == 13
    assert rep.graphs_enumerated - 1 == rep.graphs_pruned


@pytest.mark.parametrize(
    "n,k1,k2",
    [(2, 2, 2), (3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 2, 3), (5, 3, 3), (4, 1, 2)],
)
def test_found_flag_and_first_witness_match_oracle(n, k1, k2):
    expected = oracle_first_witness(n, k1, k2)
    rep = exists_enabling(n, k1, k2)
    if expected is None:
        assert not rep.found
        assert rep.witness is None
        assert rep.graphs_enumerated == 1 << (n * (n - 1) // 2)
    else:
        assert rep.found
        plist = list(pairs(n))
        mask = sum(1 << plist.index(e) for e in rep.witness)
        assert mask == expected
        assert rep.graphs_enumerated == expected + 1


def test_trivial_one_vertex_case():
    rep = exists_enabling(1, 1, 1)
    assert rep.found and rep.witness == ()


def test_search_matches_brute_force_reference_small_grid():
    for n in range(1, 6):
        plist = list(pairs(n))
        for k1 in range(1, 5):
            for k2 in range(1, 5):
                expected = oracle_first_witness(n, k1, k2)
                rep = exists_enabling(n, k1, k2)
                assert rep.found == (expected is not None), (n, k1, k2)
                if expected is None:
                    assert rep.witness is None
                    assert rep.graphs_enumerated == 1 << len(plist)
                else:
                    assert rep.witness == tuple(
                        e for i, e in enumerate(plist) if expected >> i & 1
                    )
                    assert rep.graphs_enumerated == expected + 1


def brute_force_cover(n, plist, mask, k, colour):
    """Whether every vertex lies in a k-clique of colour on the full mask."""
    edges = {e for i, e in enumerate(plist) if (mask >> i & 1) != colour}
    covered = set()
    for c in itertools.combinations(range(n), k):
        if all(e in edges for e in itertools.combinations(c, 2)):
            covered.update(c)
    return len(covered) == n


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_block_cover_matches_brute_force(k):
    """A block's covered-leaf bitset equals the cover test run leaf by leaf,
    for random field splits, upper-field values and both colours; for k = 2,
    the leaves the degree window keeps are exactly the covered ones."""
    rng = random.Random(k)
    for _ in range(40):
        n = rng.randint(max(4, k), 8)
        plist = list(pairs(n))
        low = rng.randint(1, min(7, len(plist)))
        mid = rng.randint(0, len(plist) - low)
        top = len(plist) - low - mid
        density = rng.choice([0.5, 0.8, 0.95])
        for colour in (0, 1):
            upper = sum(
                1 << i for i in range(mid + top) if (rng.random() < density) != colour
            )
            good = (1 << (1 << low)) - 1
            edges = _edge_leaves(low)
            if k == 2:
                hdeg = _value_degrees(plist, low, upper)
                mind, maxd = (1, n - 1) if colour == 0 else (0, n - 2)
                for shift, win in _leaf_windows(n, plist, edges, mind, maxd):
                    good &= win[hdeg >> shift & 255]
            table = _cover_table(n, plist, edges, k, colour)
            # The upper-field edges lacking the colour, top then mid field.
            absent = upper ^ ((1 << (mid + top)) - 1) if colour == 0 else upper
            live = _restrict(table, absent >> mid << mid, (1 << mid) - 1)
            got = _covered(live, absent & ((1 << mid) - 1), good)
            expected = sum(
                1 << leaf
                for leaf in range(1 << low)
                if brute_force_cover(n, plist, upper << low | leaf, k, colour)
            )
            assert got == expected, (n, k, colour, low, mid, upper)


def test_covered_answers_stay_exact_as_the_table_reorders():
    """Many calls on one restricted table, as the scan makes for the blocks
    of one top value: each call moves the vertex that emptied the leaves to
    the front, and every answer still equals the leaf-by-leaf cover test."""
    rng = random.Random(30)
    reordered = 0
    for _ in range(12):
        n = rng.randint(6, 7)
        k = rng.randint(3, 4)
        colour = rng.randint(0, 1)
        plist = list(pairs(n))
        low = rng.randint(2, 5)
        mid = rng.randint(2, 6)
        top = len(plist) - low - mid
        t = rng.randrange(1 << top)
        table = _cover_table(n, plist, _edge_leaves(low), k, colour)
        absent = ~t if colour == 0 else t
        live = _restrict(table, absent << mid, (1 << mid) - 1)
        entries = sorted(map(id, live))
        for _ in range(40):
            h = rng.randrange(1 << mid)
            good = rng.getrandbits(1 << low)
            before = [id(e) for e in live]
            got = _covered(live, ~h if colour == 0 else h, good)
            reordered += [id(e) for e in live] != before
            upper = t << mid | h
            expected = sum(
                1 << leaf
                for leaf in range(1 << low)
                if good >> leaf & 1
                and brute_force_cover(n, plist, upper << low | leaf, k, colour)
            )
            assert got == expected, (n, k, colour, low, mid, upper)
        assert sorted(map(id, live)) == entries  # reordered, never changed
    assert reordered > 0


def test_mid_windows_keep_exactly_the_blocks_the_lane_test_keeps():
    """For each top value, the AND of the mid windows is the set of mid
    blocks that pass the per-block packed-lane test the scan used to run."""
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(4, 9)
        k1 = rng.randint(1, n)
        k2 = rng.randint(1, n + 1 - k1)
        plist = list(pairs(n))
        nbits = len(plist)
        top = max(0, nbits - _LOW_CAP - _MID_CAP)
        low = min(_LOW_CAP, nbits - top)
        if rng.random() < 0.5:  # other splits the windows must serve too
            low = rng.randint(1, min(_LOW_CAP, nbits))
            top = nbits - low - rng.randint(0, min(_MID_CAP, nbits - low))
        mid = nbits - top - low
        mind, maxd = k1 - 1, n - k2
        lmax = _value_degrees(plist, 0, (1 << low) - 1)
        mdeg = _span_degrees(plist, low, mid)
        mwindows = _leaf_windows(n, plist[low:], _edge_leaves(mid), mind, maxd, lmax)
        lanes = sum(1 << (8 * v) for v in range(n))
        high = lanes << 7
        over = (127 - maxd) * lanes
        under = (128 - mind) * lanes
        for t in {0, (1 << top) - 1, *(rng.randrange(1 << top) for _ in range(6))}:
            tdeg = _value_degrees(plist, low + mid, t)
            expected = 0
            for h in range(1 << mid):
                hdeg = tdeg + mdeg[h]
                if not ((hdeg + over) & high or (hdeg + lmax + under) & high != high):
                    expected |= 1 << h
            got = _pick(mwindows, tdeg, (1 << (1 << mid)) - 1)
            assert got == expected, (n, k1, k2, low, mid, t)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exists_enabling(7, 3.0, 3),
        lambda: exists_enabling(7.0, 3, 3),
        lambda: exists_enabling(7, True, 3),
        lambda: exists_enabling(7, 3, False),
        lambda: min_n(3.0, 3, 7),
        lambda: min_n(3, True, 7),
        lambda: min_n(3, 3, 7.0),
        lambda: min_n(3, 3, True, trusted_bounds=True),
    ],
)
def test_search_refuses_non_int_arguments_before_any_work(call, monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built for a refused argument")

    for name in ("_span_degrees", "_leaf_windows", "_cover_table"):
        monkeypatch.setattr(search, name, no_tables)
    with pytest.raises(ValueError, match=r"^(3\.0|7\.0|True|False) is not an int$"):
        call()


def reference_degree_bins(n, ldeg):
    """Per vertex v, the leaves binned leaf by leaf by v's degree in them."""
    bins = []
    for shift in range(0, 8 * n, 8):
        by_degree = [0] * n
        for leaf, d in enumerate(ldeg):
            by_degree[d >> shift & 255] |= 1 << leaf
        bins.append((shift, by_degree))
    return bins


def test_leaf_windows_match_the_per_leaf_reference():
    """For every n the search takes and every window mind <= maxd, on the
    low field exists_enabling uses; the packed degree table, too, matches
    its value-by-value form."""
    for n in range(1, 12):
        plist = list(pairs(n))
        low = min(11, len(plist))
        ldeg = _span_degrees(plist, 0, low)
        assert ldeg == [_value_degrees(plist, 0, leaf) for leaf in range(1 << low)]
        bins = reference_degree_bins(n, ldeg)
        edges = _edge_leaves(low)
        for mind in range(n):
            for maxd in range(mind, n):
                expected = [
                    (shift, [
                        sum(by_degree[max(0, mind - hv):max(0, maxd - hv + 1)])
                        for hv in range(n)
                    ])
                    for shift, by_degree in bins
                ]
                got = _leaf_windows(n, plist, edges, mind, maxd)
                assert got == expected, (n, mind, maxd)


def test_pruned_count_matches_degree_window_oracle():
    """graphs_pruned counts the masks, up to the witness when one is found,
    with some red degree outside [k1-1, n-k2]."""
    for n in range(1, 7):
        plist = list(pairs(n))
        spans = []
        for mask in range(1 << len(plist)):
            deg = [0] * n
            for e, (u, v) in enumerate(plist):
                if mask >> e & 1:
                    deg[u] += 1
                    deg[v] += 1
            spans.append((min(deg), max(deg)))
        for k1 in range(1, 5):
            for k2 in range(1, 5):
                rep = exists_enabling(n, k1, k2)
                last = len(spans) - 1
                if rep.found:
                    last = sum(1 << plist.index(e) for e in rep.witness)
                assert rep.graphs_enumerated == last + 1
                outside = sum(
                    lo < k1 - 1 or hi > n - k2 for lo, hi in spans[: last + 1]
                )
                assert rep.graphs_pruned == outside, (n, k1, k2)


@pytest.mark.parametrize(
    "n,k1,k2,counts",
    [
        (8, 3, 3, (True, 850018, 819748)),
        (9, 2, 5, (True, 104641, 102329)),
        (7, 3, 3, (False, 2097152, 1740412)),
        (7, 2, 4, (False, 2097152, 1930570)),
        (8, 2, 6, (False, 268435456, 268369278)),
        (10, 3, 4, (True, 119521730, 118273143)),
    ],
)
def test_search_counters_are_pinned(n, k1, k2, counts):
    rep = exists_enabling(n, k1, k2)
    assert (rep.found, rep.graphs_enumerated, rep.graphs_pruned) == counts
    if (n, k1, k2) == (10, 3, 4):
        assert rep.witness == (
            (0, 1), (0, 7), (0, 8), (0, 9), (1, 7), (1, 8), (1, 9),
            (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
        )


@pytest.mark.parametrize("k1,k2", [(2, 3), (2, 4)])
def test_construction_meets_the_exhaustive_minimum_on_non_square_pairs(k1, k2):
    n = two_colour_lower(k1, k2)
    assert not exists_enabling(n - 1, k1, k2).found
    g = two_colour_extremal(k1, k2)
    assert g.n == n
    assert verify_enabling(g, ((0, k1), (1, k2))).ok


def test_witnesses_verify_and_counts_are_complete():
    rep = exists_enabling(6, 2, 3)
    assert rep.found
    g = from_simple_graph(6, rep.witness)
    assert verify_enabling(g, ((0, 2), (1, 3))).ok


def test_min_n_values():
    assert min_n(2, 2, 6) == 4
    assert min_n(2, 3, 8) == 6
    assert min_n(3, 2, 8) == 6  # symmetry via complementation
    assert min_n(2, 2, 3) is None


def test_min_n_trusted_bounds_agrees():
    assert min_n(2, 3, 8, trusted_bounds=True) == 6
    assert min_n(2, 2, 6, trusted_bounds=True) == 4


def test_progress_callback_fires_on_big_scans():
    ticks = []
    rep = exists_enabling(7, 3, 3, progress=ticks.append)
    assert not rep.found
    assert ticks == [1 << 20, 1 << 21]  # full scan, one line per 2^20 masks
    # n = 8 splits the scan into 32 top blocks; those pruned whole tick too.
    ticks = []
    assert not exists_enabling(8, 2, 6, progress=ticks.append).found
    assert ticks == [i << 20 for i in range(1, 257)]


def test_rejects_oversized_and_invalid_input():
    with pytest.raises(ValueError):
        exists_enabling(12, 2, 2)  # 66 edge bits
    with pytest.raises(ValueError):
        exists_enabling(0, 2, 2)
    with pytest.raises(ValueError):
        min_n(2, 2, 0)


def test_report_json_shape():
    rep = exists_enabling(4, 2, 2)
    doc = rep.to_json_dict()
    assert doc["witness"] == [[0, 3], [1, 2]]
    assert "elapsed_seconds" not in doc
    assert "elapsed_seconds" in rep.to_json_dict(include_timings=True)


def test_impossible_targets_short_circuit():
    # k1 + k2 > n + 1 leaves no feasible degree, so every mask is pruned
    rep = exists_enabling(4, 4, 4)
    assert not rep.found and rep.witness is None
    assert rep.graphs_enumerated == rep.graphs_pruned == 64



def test_search_guards_survive_optimisation_flag():
    """A witness the verifier rejects, and a scan that misses masks, raise
    LemmaViolation under python -O instead of being reported."""
    code = textwrap.dedent(
        """
        import builtins
        from enabling import search
        from enabling.bounds import LemmaViolation
        from enabling.cliques import EnablingReport

        assert False, "asserts must be stripped in this run"
        real = search.verify_enabling
        search.verify_enabling = lambda g, t: EnablingReport(t, False, {}, (0, 0))
        try:
            search.exists_enabling(4, 2, 2)
        except LemmaViolation as exc:
            print("rejected:", exc)
        search.verify_enabling = real
        # Shadow the module's range so the scan skips its one top-level block.
        search.range = lambda *a: range(0) if a == (1,) else builtins.range(*a)
        try:
            search.exists_enabling(3, 2, 2)
        except LemmaViolation as exc:
            print("rejected:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(enabling.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert out == [
        "rejected: the scan's witness on n=4 is not (2, 2)-enabling",
        "rejected: the scan covered 0 of 8 masks",
    ]


@pytest.mark.parametrize("n,k1,k2", [(4, 2, 2), (4, 2, 3)])
def test_search_report_json_is_its_dict_sorted_and_unspaced(n, k1, k2):
    report = exists_enabling(n, k1, k2)
    for timings in (False, True):
        text = report.to_json(timings)
        assert json.loads(text) == report.to_json_dict(timings)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert ("elapsed_seconds" in text) is timings
