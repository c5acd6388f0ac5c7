"""compute_delta solves its LP on the colour-refinement quotient; these
tests hold it to a full-size solve and to the full-size audit."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

import enabling
from enabling import certificates, lp
from enabling.certificates import compute_delta, construct_mu, mu_vertex_masses
from enabling.cliques import (
    ALL_CLIQUES, CliqueFamily, choose_family, enumerate_cliques)
from enabling.constructions import p4_blowup
from enabling.graphs import EdgeColouredGraph, monochromatic_complete, pair_count
from enabling.lp import AuditFailure, LPSolution, solve_lp_exact


@st.composite
def symmetric_families(draw):
    """A random family closed under a random vertex permutation, so that its
    refinement often has cells of more than one member; the permutation is
    an automorphism of the family and is returned with it."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    subsets = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    perm = draw(st.permutations(range(n)))
    cliques: set[tuple[int, ...]] = set()
    for q in draw(st.lists(subsets, min_size=1, max_size=3)):
        while tuple(sorted(q)) not in cliques:
            cliques.add(tuple(sorted(q)))
            q = [perm[v] for v in q]
    return n, CliqueFamily(0, k, tuple(sorted(cliques))), perm


def _full_size_delta(n, cliques):
    """The LP compute_delta reduces, solved at full size."""
    rows = [([-1 if v in c else 0 for v in range(n)] + [1], 0) for c in cliques]
    rows.append(([1] * n + [0], 1))
    return solve_lp_exact([0] * n + [1], rows).value


@settings(max_examples=200, deadline=None)
@given(symmetric_families())
def test_quotient_solve_matches_the_full_size_lp(case):
    n, fam, perm = case
    g = monochromatic_complete(n, r=1)
    delta, lam, duals = compute_delta(g, fam)
    assert delta == _full_size_delta(n, fam.cliques)
    assert sum(lam.weights) == 1
    assert min(lam.mass(c) for c in fam.cliques) == delta
    assert all(lam.weights[v] == lam.weights[perm[v]] for v in range(n))
    mu = construct_mu(g, fam, delta, duals)
    assert max(mu_vertex_masses(n, fam, mu)) <= delta


@settings(max_examples=200, deadline=None)
@given(symmetric_families())
def test_refinement_is_equitable_and_keeps_automorphic_members_together(case):
    n, fam, perm = case
    vcell, ccell = certificates._refine(n, fam.cliques)
    assert sorted(set(vcell)) == list(range(max(vcell) + 1))
    assert sorted(set(ccell)) == list(range(max(ccell) + 1))
    seen: dict = {}
    for c, b in zip(fam.cliques, ccell):
        seen.setdefault(("clique", b), set()).add(tuple(sorted(vcell[v] for v in c)))
    for v in range(n):
        cells = tuple(sorted(b for c, b in zip(fam.cliques, ccell) if v in c))
        seen.setdefault(("vertex", vcell[v]), set()).add(cells)
    assert all(len(s) == 1 for s in seen.values())
    index = {c: i for i, c in enumerate(fam.cliques)}
    for v in range(n):
        assert vcell[v] == vcell[perm[v]]
    for c, b in zip(fam.cliques, ccell):
        assert ccell[index[tuple(sorted(perm[v] for v in c))]] == b


def test_a_partition_that_is_not_equitable_fails_the_audit(monkeypatch):
    # One cell per side on the path a-b-c-d: the quotient believes every
    # vertex lies in equally many edges, and the lifted duals overload b.
    g = p4_blowup(4)
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    monkeypatch.setattr(
        certificates, "_refine", lambda n, cliques: ([0] * n, [0] * len(cliques))
    )
    with pytest.raises(AuditFailure, match="dual constraint"):
        compute_delta(g, fam)


def _merge(cells, a, b):
    ids: dict = {}
    return [ids.setdefault(a if c == b else c, len(ids)) for c in cells]


@settings(max_examples=200, deadline=None)
@given(symmetric_families(), st.data())
def test_a_coarsened_partition_gives_audit_failure_or_the_exact_delta(case, data):
    n, fam, _ = case
    vcell, ccell = certificates._refine(n, fam.cliques)
    side = data.draw(st.sampled_from(["vertex", "clique"]))
    cells = vcell if side == "vertex" else ccell
    assume(max(cells) > 0)
    a, b = data.draw(st.lists(st.integers(0, max(cells)), min_size=2, max_size=2,
                              unique=True))
    merged = _merge(cells, a, b)
    coarse = (merged, ccell) if side == "vertex" else (vcell, merged)
    g = monochromatic_complete(n, r=1)
    with patch.object(certificates, "_refine", lambda *args: coarse):
        try:
            delta, lam, duals = compute_delta(g, fam)
        except AuditFailure:
            return
    # The audit passed, so the lifted answer must be the true optimum.
    assert delta == _full_size_delta(n, fam.cliques)
    assert min(lam.mass(c) for c in fam.cliques) == delta
    assert max(mu_vertex_masses(n, fam, construct_mu(g, fam, delta, duals))) <= delta


def test_asymmetric_family_refines_to_singletons():
    # The edges of the tree 0-1-2-3-4-5 with a leaf 6 on vertex 2: it has no
    # automorphism, so every cell is a singleton and the quotient is the
    # full LP, solved on the same single path.
    cliques = ((0, 1), (1, 2), (2, 3), (2, 6), (3, 4), (4, 5))
    vcell, ccell = certificates._refine(7, cliques)
    assert sorted(vcell) == list(range(7)) and sorted(ccell) == list(range(6))
    delta, _, _ = compute_delta(monochromatic_complete(7, r=1),
                                CliqueFamily(0, 2, cliques))
    assert delta == _full_size_delta(7, cliques)


def _full_lp_audit(n, cliques, lam, delta, duals, mass_dual):
    """The reference: the whole LP built as one sparse row per clique plus
    the mass row, and handed to lp's generic optimality audit."""
    m = len(cliques)
    rows = [{**dict.fromkeys(c, -1), n: 1} for c in cliques]
    rows.append(dict.fromkeys(range(n), 1))
    ones = [1] * (m + 1)
    full = lp._Problem([0] * n + [1], 1, rows, [0] * m + [1], ones)
    lp._certify_optimal(full, lam + [delta], duals + [mass_dual], delta)


def _audit_text(fn):
    """The AuditFailure text fn raises, or None when it passes."""
    try:
        fn()
    except AuditFailure as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(symmetric_families(), st.data())
def test_the_shape_audit_fails_exactly_where_the_full_lp_audit_does(case, data):
    n, fam, _ = case
    cliques = fam.cliques
    vcell, ccell = certificates._refine(n, cliques)
    partition = data.draw(st.sampled_from(["refined", "coarsened", "discrete"]))
    if partition == "discrete":
        vcell, ccell = list(range(n)), list(range(len(cliques)))
    elif partition == "coarsened":
        side = data.draw(st.sampled_from([0, 1]))
        cells = (vcell, ccell)[side]
        if max(cells) > 0:
            a, b = data.draw(st.lists(st.integers(0, max(cells)), min_size=2,
                                      max_size=2, unique=True))
            merged = _merge(cells, a, b)
            vcell, ccell = (merged, ccell) if side == 0 else (vcell, merged)
    p, q = max(vcell) + 1, max(ccell) + 1
    # One entry of the quotient solution moved up or down: with the discrete
    # partition that is one vertex weight or one clique dual at full size.
    entry = data.draw(st.sampled_from(["none", "lam", "dual", "mass"]))
    index = data.draw(st.integers(0, max(p, q) - 1))
    step = Fraction(data.draw(st.sampled_from([-2, -1, 1, 2])),
                    data.draw(st.integers(1, 16)))
    seen = []

    def perturbed_solve(objective, constraints):
        sol = solve_lp_exact(objective, constraints)
        primal, dual = list(sol.primal), list(sol.dual)
        if entry == "lam":
            primal[index % p] += step
        elif entry == "dual":
            dual[index % q] += step
        elif entry == "mass":
            dual[q] += step
        seen.append(LPSolution(sol.value, tuple(primal), tuple(dual)))
        return seen[-1]

    g = monochromatic_complete(n, r=1)
    with patch.object(certificates, "_refine", lambda *args: (vcell, ccell)), \
            patch.object(certificates, "solve_lp_exact", perturbed_solve):
        got = _audit_text(lambda: compute_delta(g, fam))
    (sol,) = seen
    size = Counter(ccell)
    lam = [sol.primal[a] for a in vcell]
    duals = [sol.dual[b] / size[b] for b in ccell]
    want = _audit_text(
        lambda: _full_lp_audit(n, cliques, lam, sol.value, duals, sol.dual[q]))
    assert got == want


def test_the_full_size_audit_survives_optimisation_flag():
    """A partition that is not equitable still raises AuditFailure under
    python -O, which strips asserts."""
    code = textwrap.dedent(
        """
        from enabling import certificates
        from enabling.cliques import ALL_CLIQUES, choose_family
        from enabling.constructions import p4_blowup
        from enabling.lp import AuditFailure

        assert False, "asserts must be stripped in this run"
        g = p4_blowup(4)
        fam = choose_family(g, 0, 2, ALL_CLIQUES)
        certificates._refine = lambda n, cliques: ([0] * n, [0] * len(cliques))
        try:
            certificates.compute_delta(g, fam)
        except AuditFailure as exc:
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
    assert out == ["rejected: dual constraint violated"]


def _reference_refine(n, cliques):
    """Colour refinement with every round taken in full, the first two too:
    the reference for the closed-form start of ``_refine``."""
    member_of = [[] for _ in range(n)]
    for i, c in enumerate(cliques):
        for v in c:
            member_of[v].append(i)
    cells, counts = [[0] * len(cliques), [0] * n], [1, 1]
    for step in itertools.count():
        side = step % 2
        other = cells[1 - side].__getitem__
        ids: dict = {}
        cells[side] = [
            ids.setdefault((own, tuple(sorted(map(other, nbrs)))), len(ids))
            for own, nbrs in zip(cells[side], member_of if side else cliques)
        ]
        if step and len(ids) == counts[side]:
            return cells[1], cells[0]
        counts[side] = len(ids)


@st.composite
def mixed_incidences(draw):
    """Any vertex-clique incidence, with sets of mixed sizes in any order."""
    n = draw(st.integers(1, 9))
    sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return n, [tuple(sorted(c)) for c in draw(st.lists(sets, max_size=8))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_families().map(lambda case: (case[0], case[1].cliques)),
                 mixed_incidences()))
def test_refinement_numbers_cells_as_the_all_rounds_reference(case):
    n, cliques = case
    assert certificates._refine(n, cliques) == _reference_refine(n, cliques)


@pytest.mark.parametrize("n,cliques", [
    (1, []),  # n = 1, and an empty family
    (5, []),
    (1, [(0,)]),  # one clique
    (4, [(0, 2, 3)]),
    (6, [(0, 1), (2, 3), (4, 5)]),  # every degree 1: the early return
    (6, [(0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)]),  # degree 2, mixed sizes
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # a 5-cycle, degree 2
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # the path splits further
])
def test_refinement_edge_cases_match_the_reference(n, cliques):
    assert certificates._refine(n, cliques) == _reference_refine(n, cliques)


def _star_and_block(size):
    """Vertex 0 lies in ``size`` edges, and one clique has ``size`` vertices:
    the longest neighbour list on either side has ``size`` entries, all in
    one cell of the other side."""
    star = [(0, v) for v in range(1, size + 1)]
    block = tuple(range(size + 1, 2 * size + 1))
    return 2 * size + 2, star + [block, (2 * size, 2 * size + 1), (1,)]


@pytest.mark.parametrize("size", [2**j + d for j in range(2, 7) for d in (-1, 0, 1)])
def test_refinement_matches_the_reference_at_field_width_boundaries(size):
    # The count code's fields are as wide as the longest list's bit length:
    # 2**j - 1 entries fill a field, 2**j and 2**j + 1 need one more bit.
    n, cliques = _star_and_block(size)
    assert certificates._refine(n, cliques) == _reference_refine(n, cliques)


@pytest.mark.parametrize("n,cliques,want", [
    # Vertex 0 is listed four times by one clique, a count n = 3 has no room
    # for: n.bit_length() bits would carry it into the cell of (1, 2).
    (3, [(0, 0, 0, 0), (1, 2)], ([0, 1, 1], [0, 1])),
    # Vertex 0 lies in four edges, the longest list: fields as wide as the
    # longest clique, 2 bits, would carry it into the triangle's cell.
    (8, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6, 7)],
     ([0, 1, 1, 1, 1, 2, 2, 2], [0, 0, 0, 0, 1])),
    # The first two cliques have 5 vertices, the longest lists: as wide as a
    # vertex list, 2 bits, their second-round counts of vertex cells,
    # {0: 4, 2: 1} and {1: 5}, would both read 20.
    (12, [(0, 1, 2, 3, 9), (4, 5, 6, 7, 8), (0, 1), (2, 3), (9, 10, 11)],
     ([0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 3], [0, 1, 2, 2, 3])),
])
def test_refinement_field_width_comes_from_the_longest_list(n, cliques, want):
    assert certificates._refine(n, cliques) == _reference_refine(n, cliques) == want


def test_refinement_matches_the_reference_on_a_near_discrete_family():
    # Every size-4 clique of each colour of a random 2-colouring of K_40:
    # over a thousand clique cells, so a vertex code has over a thousand fields.
    rng = random.Random(40)
    g = EdgeColouredGraph(40, 2, tuple(rng.choices((0, 1), k=pair_count(40))))
    for colour in (0, 1):
        cliques = enumerate_cliques(g, colour, 4)
        vcell, ccell = certificates._refine(40, cliques)
        assert max(ccell) + 1 > 1000
        assert (vcell, ccell) == _reference_refine(40, cliques)
