"""compute_delta solves its LP on the colour-refinement quotient; these
tests hold it to a full-size solve and to the full-size audit."""

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from enabling import certificates
from enabling.certificates import compute_delta, construct_mu, mu_vertex_masses
from enabling.cliques import ALL_CLIQUES, CliqueFamily, choose_family
from enabling.constructions import p4_blowup
from enabling.graphs import monochromatic_complete
from enabling.lp import LE, AuditFailure, solve_lp_exact


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
    rows = [([-1 if v in c else 0 for v in range(n)] + [1], LE, 0) for c in cliques]
    rows.append(([1] * n + [0], LE, 1))
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
