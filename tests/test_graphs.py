import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from enabling import graphs
from enabling.graphs import (
    EdgeColouredGraph,
    build,
    from_simple_graph,
    monochromatic_complete,
    pair_count,
    pair_index,
    pairs,
    vertex_set,
)


def test_pair_order_is_row_major():
    assert list(pairs(4)) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_pair_index_matches_enumeration_order():
    for n in range(2, 9):
        for e, (u, v) in enumerate(pairs(n)):
            assert pair_index(n, u, v) == e
        assert pair_count(n) == n * (n - 1) // 2


def test_pair_index_rejects_bad_pairs():
    with pytest.raises(ValueError):
        pair_index(5, 3, 3)
    with pytest.raises(ValueError):
        pair_index(5, 0, 5)
    # argument order does not matter
    assert pair_index(5, 4, 2) == pair_index(5, 2, 4)


def test_vertex_set_sorts_and_validates():
    assert vertex_set([3, 1, 2], 5) == (1, 2, 3)
    with pytest.raises(ValueError):
        vertex_set([1, 1], 5)
    with pytest.raises(ValueError):
        vertex_set([5], 5)


def test_build_validates_colour_list():
    with pytest.raises(ValueError):
        build(4, 2, [0] * 5)
    with pytest.raises(ValueError):
        build(4, 2, [0, 0, 0, 0, 0, 2])
    with pytest.raises(ValueError):
        build(3, 0, [])


def test_build_rejects_colours_that_are_not_integers():
    # A float or bool colour would break canonical JSON: [1.0, 0, 1] would
    # serialise as 1.0 and read back as a different byte string.
    # A bad value hidden behind an equal integer ([1, 0, True]) is found too.
    for bad in ([1.0, 0, 1], [1, 0, True], [0, 1, 1.0], ["1", 0, 1], [0, 1, None]):
        with pytest.raises(ValueError, match="must be integers"):
            build(3, 2, bad)
    with pytest.raises(ValueError, match="must be integers"):
        EdgeColouredGraph.from_json('{"n": 3, "r": 2, "colours": [1.0, 0, 1]}')
    with pytest.raises(ValueError, match="colour -1 outside"):
        build(3, 2, [-1, 0, 1])
    for doc in ('{"n": true, "r": 1, "colours": []}', '{"n": 2, "r": 1.0, "colours": [0]}'):
        with pytest.raises(ValueError, match="n and r must be integers"):
            EdgeColouredGraph.from_json(doc)
    text = build(3, 2, [1, 0, 1]).to_json()
    assert EdgeColouredGraph.from_json(text).to_json() == text
    assert build(1, 1, []).colours == ()


def test_colour_of_is_symmetric():
    g = build(4, 2, [0, 1, 1, 0, 1, 0])
    for u, v in pairs(4):
        assert g.colour_of(u, v) == g.colour_of(v, u)


def test_adjacency_bitmasks_agree_with_colour_of():
    g = build(5, 3, [i % 3 for i in range(10)])
    for c in range(3):
        adj = g.adjacency(c)
        for u in range(5):
            for v in range(5):
                expected = u != v and g.colour_of(u, v) == c
                assert bool(adj[u] >> v & 1) == expected


def reference_adjacency(n, colours, c):
    """Neighbour bitmasks of colour c, pair by pair."""
    masks = [0] * n
    for (u, v), colour in zip(pairs(n), colours):
        if colour == c:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return tuple(masks)


@given(
    # Up to 256 colours one byte matrix serves every colour; from 257 on
    # each colour is read from a two-colour graph.  Draw both sides of that
    # limit, and one colour.
    st.tuples(st.integers(1, 12), st.sampled_from((1, 2, 255, 256, 257, 300))).flatmap(
        lambda nr: st.tuples(
            st.just(nr[0]),
            st.just(nr[1]),
            st.lists(
                st.integers(0, nr[1] - 1),
                min_size=pair_count(nr[0]),
                max_size=pair_count(nr[0]),
            ),
        )
    )
)
def test_adjacency_matches_a_pair_by_pair_reference(case):
    n, r, colours = case
    g = build(n, r, colours)
    for c in range(r):
        assert g.adjacency(c) == reference_adjacency(n, colours, c)


@pytest.mark.parametrize("r", [257, 1 << 16, (1 << 16) + 1, 1 << 64, (1 << 64) + 1, 1 << 70])
def test_wide_colours_match_the_pair_by_pair_reference(r):
    """Colours that need two or more bytes, or more than 64 bits, match the
    pair-by-pair reference; colours sharing a low byte or a low word with
    the one asked for (c ^ 1, c ^ 256, c ^ 2**64) land in other classes."""
    rng = random.Random(r)
    n = 14
    picks = [0, 1, 255, 256, r - 1, r // 2, r // 2 ^ 1, r // 2 ^ 256]
    if r > 1 << 64:
        picks += [r - 1 ^ 1 << 64, 1 << 64 | 5, 5]
    picks = sorted({c for c in picks if c < r})
    colours = [rng.choice(picks) for _ in range(pair_count(n))]
    g = build(n, r, colours)
    for c in [*picks, r - 2]:
        assert g.adjacency(c) == reference_adjacency(n, colours, c), c


def adjacency_from_colour_of(g, c):
    """Neighbour bitmasks of colour c, one colour_of lookup a pair."""
    return tuple(
        sum(1 << v for v in range(g.n) if v != u and g.colour_of(u, v) == c)
        for u in range(g.n)
    )


@given(st.integers(1, 30), st.integers(1, 5), st.data())
def test_every_colour_including_the_last_matches_colour_of(n, r, data):
    """The last colour's rows are what the other colours leave; asked for
    first or last, they match a pair-by-pair construction."""
    colours = data.draw(
        st.lists(st.integers(0, r - 1), min_size=pair_count(n), max_size=pair_count(n))
    )
    g = build(n, r, colours)
    for c in data.draw(st.permutations(range(r))):
        assert g.adjacency(c) == adjacency_from_colour_of(g, c)


def test_each_colour_at_256_colours_matches_colour_of():
    rng = random.Random(256)
    g = build(24, 256, [rng.randrange(256) for _ in range(pair_count(24))])
    for c in (0, 1, 254, 255, *g.colours[:5]):
        assert g.adjacency(c) == adjacency_from_colour_of(g, c)


@pytest.mark.parametrize("r", [2, 255, 256, 257, 300])
def test_adjacency_fills_one_matrix_per_graph_in_any_order(r, monkeypatch):
    """Every colour, asked for in a shuffled order and twice over, matches
    the reference.  Up to 256 colours the store is bytes, and the first
    request fills the one matrix all colours are read from, with byte 255 on
    its diagonal: at 256 colours that byte is colour 255, the one read as
    what the others leave.  From 257 on each colour is read from a two-colour
    byte graph of its own, which fills its matrix once."""
    fills = []
    real = graphs._pair_matrix
    monkeypatch.setattr(
        graphs, "_pair_matrix", lambda *args: fills.append(args) or real(*args)
    )
    rng = random.Random(r)
    n = 30
    # Every colour appears, 255 among them from r = 256 on.
    colours = list(range(r)) + [rng.randrange(r) for _ in range(pair_count(n) - r)]
    rng.shuffle(colours)
    g = build(n, r, colours)
    order = list(range(r)) * 2
    rng.shuffle(order)
    for c in order:
        assert g.adjacency(c) == reference_adjacency(n, colours, c), c
    assert len(fills) == (1 if r <= 256 else r)


def test_is_monochromatic_clique_against_bruteforce():
    g = build(6, 2, [(i * 7 + 3) % 2 for i in range(15)])
    for k in range(1, 5):
        for members in itertools.combinations(range(6), k):
            for c in range(2):
                expected = all(
                    g.colour_of(u, v) == c for u, v in itertools.combinations(members, 2)
                )
                assert g.is_monochromatic_clique(members, c) == expected


def test_singletons_and_empty_are_cliques_of_every_colour():
    g = monochromatic_complete(4, r=2, colour=0)
    assert g.is_monochromatic_clique([2], 1)
    assert g.is_monochromatic_clique([], 1)


def test_monochromatic_complete():
    g = monochromatic_complete(5, r=3, colour=2)
    assert g.colours == (2,) * 10
    assert g.is_monochromatic_clique(range(5), 2)


def test_from_simple_graph_maps_edges_to_colour_zero():
    g = from_simple_graph(4, [(0, 1), (2, 3)])
    assert g.colour_of(0, 1) == 0
    assert g.colour_of(2, 3) == 0
    assert g.colour_of(0, 2) == 1
    assert g.r == 2


def test_permute_colours_swaps_witness_structure():
    g = build(4, 2, [0, 1, 1, 0, 1, 0])
    h = g.permute_colours([1, 0])
    for u, v in pairs(4):
        assert h.colour_of(u, v) == 1 - g.colour_of(u, v)
    with pytest.raises(ValueError):
        g.permute_colours([0, 0])


def test_json_round_trip_is_identity():
    g = build(5, 4, [i % 4 for i in range(10)])
    again = EdgeColouredGraph.from_json(g.to_json())
    assert again == g
    doc = json.loads(g.to_json())
    assert set(doc) == {"n", "r", "colours"}


def test_from_json_rejects_malformed_documents():
    with pytest.raises(ValueError):
        EdgeColouredGraph.from_json('{"n": 4, "r": 2}')
    with pytest.raises(ValueError):
        EdgeColouredGraph.from_json('{"n": 4, "r": 2, "colours": [0,0,0]}')


@given(st.integers(2, 8), st.integers(1, 4), st.data())
def test_random_graphs_round_trip_and_validate(n, r, data):
    colours = data.draw(
        st.lists(st.integers(0, r - 1), min_size=pair_count(n), max_size=pair_count(n))
    )
    g = build(n, r, colours)
    assert EdgeColouredGraph.from_json_dict(g.to_json_dict()) == g
    # every pair is assigned exactly the colour from the input list
    for e, (u, v) in enumerate(pairs(n)):
        assert g.colour_of(u, v) == colours[e]


def test_permute_colours_relabels_a_tuple_store():
    rng = random.Random(257)
    r, n = 300, 7
    cols = [rng.randrange(r) for _ in range(pair_count(n))]
    g = EdgeColouredGraph(n, r, cols)
    perm = list(range(r))
    rng.shuffle(perm)
    h = g.permute_colours(perm)
    assert type(h._store) is tuple
    assert h.colours == tuple(perm[c] for c in cols)
    inverse = sorted(range(r), key=perm.__getitem__)
    assert h.permute_colours(inverse) == g
    with pytest.raises(ValueError, match="is not a permutation of 0..299"):
        g.permute_colours(perm[:-1])


def test_a_graph_needs_a_vertex():
    with pytest.raises(ValueError, match=r"^need at least one vertex, got n=0$"):
        EdgeColouredGraph(0, 2, ())


@pytest.mark.parametrize("colour", [-1, 2])
def test_an_out_of_range_colour_is_refused(colour):
    g = monochromatic_complete(3)
    with pytest.raises(ValueError, match=rf"^colour {colour} outside range 0..1$"):
        g.is_monochromatic_clique([0, 1], colour)
    with pytest.raises(ValueError, match=rf"^colour {colour} outside range 0..1$"):
        monochromatic_complete(3, r=2, colour=colour)
