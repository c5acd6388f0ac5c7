import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from enabling.cliques import (
    ALL_CLIQUES,
    PER_VERTEX_LEX,
    CliqueFamily,
    NotEnabling,
    _lex_witnesses,
    choose_family,
    enumerate_cliques,
    find_clique_containing,
    verify_enabling,
)
from enabling.constructions import (
    integer_extremal_pairs,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import (
    build,
    from_simple_graph,
    monochromatic_complete,
    pair_count,
    pair_index,
    pairs,
)


def p4_graph():
    # red path 0-1-2-3, blue complement
    return build(4, 2, [0, 1, 1, 0, 1, 0])


def brute_cliques(g, colour, k):
    out = []
    for members in itertools.combinations(range(g.n), k):
        if g.is_monochromatic_clique(members, colour):
            out.append(members)
    return out


def random_graph_strategy(max_n=8, max_r=3):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, max_r).flatmap(
                lambda r: st.tuples(
                    st.just(r),
                    st.lists(
                        st.integers(0, r - 1),
                        min_size=pair_count(n),
                        max_size=pair_count(n),
                    ),
                )
            ),
        )
    )


def test_find_clique_on_path_graph():
    g = p4_graph()
    assert find_clique_containing(g, 0, 0, 2) == (0, 1)
    assert find_clique_containing(g, 0, 0, 3) is None
    assert find_clique_containing(g, 1, 0, 2) == (0, 2)
    assert find_clique_containing(g, 0, 2, 1) == (2,)


def test_find_clique_on_prime_grid():
    g = prime_slope(3)
    # the colour of slope 1 joins (0,0) to (1,1) and (2,2)
    got = find_clique_containing(g, 1, 0, 3)
    assert got == (0, 4, 8)


def test_find_clique_rejects_bad_arguments():
    g = p4_graph()
    with pytest.raises(ValueError):
        find_clique_containing(g, 0, 4, 2)
    with pytest.raises(ValueError):
        find_clique_containing(g, 0, 0, 0)
    with pytest.raises(ValueError):
        find_clique_containing(g, 2, 0, 2)


@pytest.mark.parametrize("colour,v,k,bad", [
    (0, True, 3, "True"), (0, 1, 3.0, "3.0"), (True, 1, 3, "True"), (0, 1.0, 3, "1.0"),
])
def test_find_clique_refuses_what_is_not_an_int(colour, v, k, bad):
    # A bool read as 0 or 1 and a float size used to return a clique, and a
    # float vertex raised TypeError.
    with pytest.raises(ValueError, match=rf"^{bad} is not an int$"):
        find_clique_containing(p4_blowup(8), colour, v, k)


def test_enumerate_cliques_on_path_graph():
    g = p4_graph()
    assert enumerate_cliques(g, 0, 2) == [(0, 1), (1, 2), (2, 3)]
    assert enumerate_cliques(g, 1, 2) == [(0, 2), (0, 3), (1, 3)]
    assert enumerate_cliques(g, 0, 3) == []
    assert enumerate_cliques(g, 0, 1) == [(0,), (1,), (2,), (3,)]


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy(), st.integers(1, 4))
def test_enumeration_matches_bruteforce(drawn, k):
    n, (r, colours) = drawn
    g = build(n, r, colours)
    for colour in range(r):
        assert enumerate_cliques(g, colour, k) == brute_cliques(g, colour, k)


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy(), st.integers(1, 4))
def test_find_returns_lex_least_witness_or_none(drawn, k):
    n, (r, colours) = drawn
    g = build(n, r, colours)
    for colour in range(r):
        all_k = brute_cliques(g, colour, k)
        for v in range(n):
            through_v = [c for c in all_k if v in c]
            got = find_clique_containing(g, colour, v, k)
            if through_v:
                assert got == min(through_v)
            else:
                assert got is None


def test_verify_enabling_on_path_graph():
    rep = verify_enabling(p4_graph(), ((0, 2), (1, 2)))
    assert rep.ok
    assert rep.first_failure is None
    assert rep.witnesses[(0, 0)] == (0, 1)
    assert len(rep.witnesses) == 8


def test_verify_reports_first_failure_in_scan_order():
    g = monochromatic_complete(5, r=2, colour=0)
    rep = verify_enabling(g, ((0, 5), (1, 2)))
    assert not rep.ok
    assert rep.first_failure == (0, 1)
    assert rep.witnesses[(0, 1)] is None
    assert rep.witnesses[(0, 0)] == (0, 1, 2, 3, 4)


def test_verify_extremal_instance():
    g = two_colour_extremal(3, 9)
    assert verify_enabling(g, ((0, 3), (1, 9))).ok


def test_verify_rejects_duplicate_or_unknown_colours():
    g = p4_graph()
    with pytest.raises(ValueError):
        verify_enabling(g, ((0, 2), (0, 2)))
    with pytest.raises(ValueError):
        verify_enabling(g, ((2, 2),))


def test_verify_ok_flag_invariant_under_relabelling():
    g = p4_graph()
    # relabel vertices 0..3 -> 3..0 by rebuilding the colour list
    perm = [3, 2, 1, 0]
    cols = [0] * 6
    for (u, v), c in zip(itertools.combinations(range(4), 2), g.colours):
        a, b = sorted((perm[u], perm[v]))
        e = a * (2 * 4 - a - 1) // 2 + (b - a - 1)
        cols[e] = c
    h = build(4, 2, cols)
    assert verify_enabling(h, ((0, 2), (1, 2))).ok


def test_report_json_shape():
    doc = verify_enabling(p4_graph(), ((0, 2), (1, 2))).to_json_dict()
    txt = json.dumps(doc, sort_keys=True)
    assert json.loads(txt)["ok"] is True
    assert doc["witnesses"]["0,0"] == [0, 1]
    assert doc["first_failure"] is None


def test_choose_family_per_vertex_lex_on_path():
    fam = choose_family(p4_graph(), 0, 2, PER_VERTEX_LEX)
    assert fam.cliques == ((0, 1), (1, 2), (2, 3))
    assert fam.covered == {0: 0, 1: 0, 2: 1, 3: 2}


def test_choose_family_all_cliques_is_superset():
    g = two_colour_extremal(2, 2)
    lex = choose_family(g, 1, 2, PER_VERTEX_LEX)
    full = choose_family(g, 1, 2, ALL_CLIQUES)
    assert set(lex.cliques) <= set(full.cliques)
    assert set(full.cliques) == {
        c for c in (tuple(x) for x in brute_cliques(g, 1, 2))
    }


def test_choose_family_unique_clique_either_policy():
    g = monochromatic_complete(4, r=2, colour=0)
    for policy in (PER_VERTEX_LEX, ALL_CLIQUES):
        fam = choose_family(g, 0, 4, policy)
        assert fam.cliques == ((0, 1, 2, 3),)


@pytest.mark.parametrize(
    "cliques,message",
    [
        pytest.param(([0, 1],),
                     "clique [0, 1] is not a sorted duplicate-free tuple", id="list"),
        pytest.param(((1, 0),),
                     "clique (1, 0) is not a sorted duplicate-free tuple", id="unsorted"),
        pytest.param(((1, 1),),
                     "clique (1, 1) is not a sorted duplicate-free tuple", id="duplicate"),
        pytest.param(((0, 1, 2),),
                     "clique (0, 1, 2) has size 3, expected 2", id="size"),
    ],
)
def test_clique_family_rejects_malformed_cliques(cliques, message):
    with pytest.raises(ValueError) as err:
        CliqueFamily(0, 2, cliques)
    assert str(err.value) == message


@pytest.mark.parametrize("policy", [PER_VERTEX_LEX, ALL_CLIQUES])
@pytest.mark.parametrize("colour,k,bad", [(0, True, "True"), (0, 3.0, "3.0"), (True, 3, "True")])
def test_choose_family_refuses_what_is_not_an_int(colour, k, bad, policy):
    with pytest.raises(ValueError, match=rf"^{bad} is not an int$"):
        choose_family(p4_blowup(8), colour, k, policy)


def test_choose_family_fails_if_a_vertex_is_uncovered():
    g = p4_graph()
    with pytest.raises(ValueError):
        choose_family(g, 0, 3, PER_VERTEX_LEX)


@pytest.mark.parametrize("g,colour,k,message", [
    (p4_graph(), 0, 3, "vertex 0 lies in no size-3 clique of colour 0"),
    (two_colour_extremal(3, 3), 0, 4, "vertex 4 lies in no size-4 clique of colour 0"),
    (build(4, 2, (1, 0, 1, 0, 1, 0)), 1, 2, "vertex 2 lies in no size-2 clique of colour 1"),
])
def test_both_policies_refuse_a_colour_that_leaves_a_vertex_uncovered(g, colour, k, message):
    # all-cliques raises too, naming the same smallest uncovered vertex,
    # rather than returning a family that misses it.
    for policy in (PER_VERTEX_LEX, ALL_CLIQUES):
        with pytest.raises(NotEnabling) as err:
            choose_family(g, colour, k, policy)
        assert str(err.value) == message


def lex_least_witnesses(g, colour, k):
    """Each vertex's lexicographically smallest size-k clique, or None, by
    brute force over all k-sets."""
    all_k = brute_cliques(g, colour, k)
    return [min((c for c in all_k if v in c), default=None) for v in range(g.n)]


@settings(max_examples=80, deadline=None)
@given(random_graph_strategy(), st.data())
def test_one_walk_per_colour_gives_each_vertex_its_lex_least_clique(drawn, data):
    n, (r, colours) = drawn
    g = build(n, r, colours)
    targets = tuple(
        (c, data.draw(st.integers(1, 4), label=f"k{c}"))
        for c in data.draw(st.permutations(range(r)), label="order")
    )
    rep = verify_enabling(g, targets)
    wits = {colour: lex_least_witnesses(g, colour, k) for colour, k in targets}
    # same witnesses, inserted targets as given and vertices ascending
    expected = [((v, c), w) for c, _ in targets for v, w in enumerate(wits[c])]
    assert list(rep.witnesses.items()) == expected
    missing = [pair for pair, w in expected if w is None]
    assert rep.first_failure == (missing[0] if missing else None)
    assert rep.ok == (not missing)
    for colour, k in targets:
        wit = wits[colour]
        if None in wit:
            text = f"^vertex {wit.index(None)} lies in no size-{k} clique of colour {colour}$"
            with pytest.raises(ValueError, match=text):
                choose_family(g, colour, k, PER_VERTEX_LEX)
            continue
        fam = choose_family(g, colour, k, PER_VERTEX_LEX)
        assert fam.cliques == tuple(sorted(set(wit)))
        # Under both policies each vertex's first clique is its lex-least one.
        for fam in (fam, choose_family(g, colour, k, ALL_CLIQUES)):
            assert [fam.cliques[fam.covered[v]] for v in range(n)] == wit


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    cols = [0] * pair_count(g.n)
    for (u, v), c in zip(pairs(g.n), g.colours):
        cols[pair_index(g.n, perm[u], perm[v])] = c
    return build(g.n, g.r, cols)


@pytest.mark.parametrize("k1,k2,seed", [(2, 10, 0), (5, 5, 1), (5, 17, 2)])
def test_single_vertex_search_agrees_with_the_walk(k1, k2, seed):
    g = relabelled(two_colour_extremal(k1, k2), seed)
    rep = verify_enabling(g, ((0, k1), (1, k2)))
    assert rep.ok
    for colour, k in ((0, k1), (1, k2)):
        for v in range(g.n):
            assert find_clique_containing(g, colour, v, k) == rep.witnesses[v, colour]


def test_clique_size_beyond_the_recursion_limit():
    g = monochromatic_complete(1100)
    everyone = tuple(range(1100))
    assert find_clique_containing(g, 0, 5, 1050) == everyone[:1050]
    assert find_clique_containing(g, 0, 1099, 1050) == everyone[:1049] + (1099,)
    rep = verify_enabling(g, ((0, 1100),))
    assert rep.ok and set(rep.witnesses.values()) == {everyone}
    fam = choose_family(g, 0, 1100, PER_VERTEX_LEX)
    assert fam.cliques == (everyone,)
    assert len(choose_family(g, 0, 1050, PER_VERTEX_LEX).cliques) == 51
    assert enumerate_cliques(g, 0, 1100) == [everyone]
    assert enumerate_cliques(g, 0, 1099)[-1] == everyone[1:]


def reference_lex_witnesses(adj, n, k, wanted):
    """The witness walk as it was before it returned the family: each wanted
    vertex's lexicographically smallest size-k clique, or None."""
    out = [None] * n
    closed = [a | 1 << v for v, a in enumerate(adj)]
    cand, left, mask, need = wanted, wanted, 0, k
    for v in range(n):
        if wanted >> v & 1:
            cand |= adj[v]
    chosen, stack = [], []
    while True:
        if not need:
            cand = 0
        size = cand.bit_count()
        if size >= need and (mask | cand) & left:
            if size > need:
                low = cand & -cand
                cand ^= low
                stack.append(cand)
                w = low.bit_length() - 1
                chosen.append(w)
                mask |= low
                cand &= adj[w]
                need -= 1
                continue
            rest = [v for v in range(n) if cand >> v & 1]
            if all(closed[v] & cand == cand for v in rest):
                clique = (*chosen, *rest)
                hits = (mask | cand) & left
                left ^= hits
                for v in range(n):
                    if hits >> v & 1:
                        out[v] = clique
                if not left:
                    break
        if not stack:
            break
        cand = stack.pop()
        mask ^= 1 << chosen.pop()
        need += 1
    return out


def assert_walk_matches_reference(g, colour, k, wanted):
    adj = g.adjacency(colour)
    expected = reference_lex_witnesses(adj, g.n, k, wanted)
    cliques, index = _lex_witnesses(adj, g.n, k, wanted)
    assert [cliques[i] if i >= 0 else None for i in index] == expected
    assert cliques == sorted({w for w in expected if w is not None})
    assert all(index[v] == -1 for v in range(g.n) if not wanted >> v & 1)
    if wanted != (1 << g.n) - 1:
        return
    report = verify_enabling(g, ((colour, k),))
    assert list(report.witnesses.items()) == [((v, colour), w) for v, w in enumerate(expected)]
    if None in expected:
        assert report.first_failure == (expected.index(None), colour)
        return
    # The family is the distinct witnesses sorted, each vertex designated its own.
    fam = choose_family(g, colour, k, PER_VERTEX_LEX)
    assert fam.cliques == tuple(sorted(set(expected)))
    assert fam.covered == {v: fam.cliques.index(w) for v, w in enumerate(expected)}


@settings(max_examples=300, deadline=None)
@given(random_graph_strategy(max_n=12), st.data())
def test_walk_yields_the_family_of_the_reference_witnesses(drawn, data):
    n, (r, colours) = drawn
    g = build(n, r, colours)
    colour = data.draw(st.integers(0, r - 1), label="colour")
    k = data.draw(st.integers(1, 4), label="k")
    wanted = data.draw(st.integers(0, (1 << n) - 1), label="wanted")
    assert_walk_matches_reference(g, colour, k, wanted)
    assert_walk_matches_reference(g, colour, k, (1 << n) - 1)


def test_walk_yields_the_family_of_the_reference_witnesses_on_the_sweep():
    for k1, k2 in integer_extremal_pairs(200):
        g = relabelled(two_colour_extremal(k1, k2), 3)
        assert_walk_matches_reference(g, 0, k1, (1 << g.n) - 1)
        assert_walk_matches_reference(g, 1, k2, (1 << g.n) - 1)


def everyone_and_the_last(n):
    """Every vertex wanted, then only the last one."""
    return (1 << n) - 1, 1 << (n - 1)


def test_walk_matches_the_reference_where_every_candidate_is_universal():
    # Each skipped sibling branch here still holds cliques, all of them
    # through vertices already covered.
    for n in range(1, 21):
        g = monochromatic_complete(n)
        for k in range(1, n + 2):
            for wanted in everyone_and_the_last(n):
                assert_walk_matches_reference(g, 0, k, wanted)


def test_walk_matches_the_reference_on_p4_blowups():
    for n in range(4, 31):
        g = p4_blowup(n)
        for colour in (0, 1):
            for k in range(1, n // 4 + 3):
                for wanted in everyone_and_the_last(n):
                    assert_walk_matches_reference(g, colour, k, wanted)


def test_walk_matches_the_reference_on_relabelled_extremal_graphs():
    for k1, k2 in integer_extremal_pairs(60):
        g = relabelled(two_colour_extremal(k1, k2), 5)
        for colour, k in ((0, k1), (1, k2)):
            for wanted in everyone_and_the_last(g.n):
                assert_walk_matches_reference(g, colour, k, wanted)


def test_walk_matches_the_reference_on_identity_labelled_extremal_graphs():
    # As built, each colour class sits in long runs of consecutive vertices,
    # where the walk drops most candidates in bulk and meets repeated leaves.
    for k1, k2 in integer_extremal_pairs(120):
        g = two_colour_extremal(k1, k2)
        for colour, k in ((0, k1), (1, k2)):
            for wanted in everyone_and_the_last(g.n):
                assert_walk_matches_reference(g, colour, k, wanted)


def test_consecutive_leaves_with_the_same_candidates_that_are_no_clique():
    # The square 0-2-1-4 and the triangle 3-4-5: the leaves under 0 and
    # under 1 both have candidates {2, 4}, not an edge, and the next leaf,
    # {3, 4, 5} with nothing chosen, is a clique.
    g = from_simple_graph(6, [(0, 2), (0, 4), (1, 2), (1, 4), (3, 4), (3, 5), (4, 5)])
    assert find_clique_containing(g, 0, 3, 3) == (3, 4, 5)
    assert find_clique_containing(g, 0, 0, 3) is None
    for wanted in everyone_and_the_last(6):
        assert_walk_matches_reference(g, 0, 3, wanted)


def test_candidates_dropped_in_bulk_stay_in_the_siblings_on_the_stack():
    # Under 0, after the witness (0, 2, 5), the child of 3 is dead and no
    # chosen vertex is uncovered, so 5 goes: the one uncovered candidate
    # left, 4, is not adjacent to it.  The branch under 1, pushed before,
    # keeps 5, which gives 1 its witness (1, 2, 5).
    g = from_simple_graph(6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 5)])
    cliques, index = _lex_witnesses(g.adjacency(0), 6, 3, (1 << 6) - 1)
    assert cliques == [(0, 2, 5), (1, 2, 5)]
    assert index == [0, 1, 0, -1, -1, 0]
    for wanted in everyone_and_the_last(6):
        assert_walk_matches_reference(g, 0, 3, wanted)


def test_a_sibling_without_wanted_candidates_still_serves_a_chosen_vertex():
    # With 0 chosen, the branch under 1 holds no clique ({2, 3} is not an
    # edge), so 0's witness is in the sibling branch, whose candidates
    # 2..5 are none of them wanted.
    g = from_simple_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                              (1, 2), (1, 3), (3, 4), (3, 5), (4, 5)])
    assert find_clique_containing(g, 0, 0, 4) == (0, 3, 4, 5)
    for wanted in (1, (1 << 6) - 1):
        assert_walk_matches_reference(g, 0, 4, wanted)


def test_enumerate_cliques_refuses_size_zero():
    with pytest.raises(ValueError, match=r"^clique size must be positive, got 0$"):
        enumerate_cliques(monochromatic_complete(3), 0, 0)


@pytest.mark.parametrize("colour,k,bad", [(0, True, "True"), (0, 3.0, "3.0"), (True, 3, "True")])
def test_enumerate_cliques_refuses_what_is_not_an_int(colour, k, bad):
    with pytest.raises(ValueError, match=rf"^{bad} is not an int$"):
        enumerate_cliques(p4_blowup(8), colour, k)


@pytest.mark.parametrize("targets,text", [
    (((0, 3),), '{"first_failure":null,"ok":true,'
                '"witnesses":{"0,0":[0,1,2],"1,0":[0,1,2],"2,0":[0,1,2]}}'),
    (((0, 2), (1, 2)), '{"first_failure":[0,1],"ok":false,"witnesses":{"0,0":[0,1],'
                       '"0,1":null,"1,0":[0,1],"1,1":null,"2,0":[0,2],"2,1":null}}'),
])
def test_enabling_report_json_text(targets, text):
    assert verify_enabling(monochromatic_complete(3), targets).to_json() == text
