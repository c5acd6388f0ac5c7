"""The graph's colour store: one byte a pair below 257 colours, the same
graph from every input form, and no reader that copies it whole."""

import json
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from enabling import certificates, cli, cliques
from enabling.constructions import two_colour_extremal
from enabling.graphs import EdgeColouredGraph, pair_count

# Both sides of the one-byte limit, and one colour.
COLOUR_COUNTS = (1, 2, 255, 256, 257, 300)


def colourings(n_min=1):
    """(n, r, colours) with colours a list of pair_count(n) ints in 0..r-1."""
    return st.tuples(st.integers(n_min, 12), st.sampled_from(COLOUR_COUNTS)).flatmap(
        lambda nr: st.tuples(
            st.just(nr[0]),
            st.just(nr[1]),
            st.lists(st.integers(0, nr[1] - 1),
                     min_size=pair_count(nr[0]), max_size=pair_count(nr[0])),
        )
    )


def input_forms(colours):
    """Every sequence type that can hold these colours."""
    forms = [list(colours), tuple(colours)]
    if all(type(c) is int and 0 <= c < 256 for c in colours):
        forms += [bytes(colours), bytearray(colours)]
    return forms


@given(colourings())
def test_every_input_form_builds_the_same_graph(case):
    n, r, colours = case
    graphs = [EdgeColouredGraph(n, r, form) for form in input_forms(colours)]
    first = graphs[0]
    for g in graphs:
        assert g == first and hash(g) == hash(first)
        assert g.colours == tuple(colours)
        assert g.to_json() == first.to_json()
        for c in range(r):
            assert g.adjacency(c) == first.adjacency(c), c


@given(colourings(n_min=2), st.data())
def test_a_bad_colour_gets_one_message_from_every_form(case, data):
    n, r, colours = case
    bad = data.draw(st.one_of(
        st.integers(r, r + 300), st.integers(-300, -1), st.booleans(), st.floats()
    ))
    colours[data.draw(st.integers(0, len(colours) - 1))] = bad
    messages = set()
    for form in input_forms(colours):
        with pytest.raises(ValueError) as info:
            EdgeColouredGraph(n, r, form)
        messages.add(str(info.value))
    assert len(messages) == 1


@given(colourings())
def test_writing_to_a_bytearray_after_the_build_leaves_the_graph(case):
    n, r, colours = case
    assume(max(colours, default=0) < 256)
    buf = bytearray(colours)
    g = EdgeColouredGraph(n, r, buf)
    buf[:] = bytes((c + 1) % 256 for c in buf)
    assert g == EdgeColouredGraph(n, r, colours)
    assert g.colours == tuple(colours)


def test_the_extremal_build_holds_one_byte_a_pair():
    """n = 2000: a tuple store holds 8 bytes a pair, and its build peaks
    above 10."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        g = two_colour_extremal(501, 501)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = pair_count(g.n)
    assert g.n == 2000
    assert held - before <= 1.5 * m
    assert peak - before < 5 * m


def test_no_reader_copies_the_colours_tuple(tmp_path, monkeypatch):
    """Each read of ``colours`` copies all n(n-1)/2 pairs: a method that
    read it per lookup would cost O(n^2) a call."""
    g = two_colour_extremal(3, 4)
    targets = ((0, 3), (1, 4))
    path = tmp_path / "g.json"
    path.write_text(g.to_json())

    def copied(self):
        raise AssertionError("read the colours tuple")

    monkeypatch.setattr(EdgeColouredGraph, "colours", property(copied))
    assert g.colour_of(1, 0) in (0, 1)
    assert g.is_monochromatic_clique([0, 1], 0)
    assert g.permute_colours([1, 0]).permute_colours([1, 0]) == g
    assert [len(g.adjacency(c)) for c in (0, 1)] == [g.n, g.n]
    assert EdgeColouredGraph.from_json(g.to_json()) == g
    assert cliques.verify_enabling(g, targets).ok
    doc = json.loads(certificates.certify(g, targets).to_json())
    assert certificates.check_certificate(g, doc) == []
    for argv in (["verify", "--targets", "0:3,1:4"], ["export-dot"]):
        assert cli.main([*argv, "--graph", str(path)]) == 0, argv
