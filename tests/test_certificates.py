import json
from fractions import Fraction as F

import pytest

from enabling import certificates
from enabling.certificates import (
    FamilyMeasure,
    LemmaViolation,
    NotEnabling,
    VertexMeasure,
    certify,
    check_certificate,
    check_pairwise_intersections,
    compute_delta,
    construct_mu,
    mu_vertex_masses,
    support_clique_check,
    two_colour_bound,
)
from enabling.cliques import ALL_CLIQUES, PER_VERTEX_LEX, CliqueFamily, choose_family
from enabling.constructions import (
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import build, monochromatic_complete
from enabling.lp import LPSolution


def p4():
    return p4_blowup(4)


def test_vertex_measure_validation():
    VertexMeasure((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        VertexMeasure((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        VertexMeasure((F(3, 2), F(-1, 2)))


def test_family_measure_validation():
    FamilyMeasure((F(1),))
    with pytest.raises(ValueError):
        FamilyMeasure((F(2), F(-1)))


def test_delta_on_path_graph_is_one_half():
    g = p4()
    for colour in (0, 1):
        fam = choose_family(g, colour, 2, ALL_CLIQUES)
        delta, lam = compute_delta(g, fam)
        assert delta == F(1, 2)
        assert sum(lam.weights) == 1
        assert min(lam.mass(c) for c in fam.cliques) == F(1, 2)


def test_delta_on_monochromatic_clique_is_one():
    g = monochromatic_complete(5, r=2, colour=0)
    fam = choose_family(g, 0, 5, ALL_CLIQUES)
    delta, lam = compute_delta(g, fam)
    assert delta == 1


def test_delta_never_below_uniform_floor():
    # uniform measure puts k/n on every clique, so delta >= k/n always
    for g, k in [(two_colour_extremal(3, 3), 3), (multicolour_blocks(3, 3), 3)]:
        for colour in range(g.r):
            fam = choose_family(g, colour, k, PER_VERTEX_LEX)
            delta, _ = compute_delta(g, fam)
            assert delta >= F(k, g.n)


def test_mu_masses_stay_within_delta_and_sum_to_k():
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    delta, _ = compute_delta(g, fam)
    mu = construct_mu(g, fam, delta)
    masses = mu_vertex_masses(g.n, fam, mu)
    assert mu.weights == (F(1, 2), F(0), F(1, 2))
    assert max(masses) <= delta
    assert sum(masses) == 2  # each clique has 2 vertices


def test_construct_mu_rejects_understated_delta():
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    with pytest.raises(LemmaViolation):
        construct_mu(g, fam, F(1, 4))


def test_lp_answers_are_rechecked_without_asserts(monkeypatch):
    # Both guards raise LemmaViolation, so python -O keeps them.
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    quarter = (F(1, 4),) * 4
    monkeypatch.setattr(
        certificates, "solve_lp_exact",
        lambda *args: LPSolution(F(1), quarter + (F(1),), ()),
    )
    with pytest.raises(LemmaViolation, match="does not give every clique mass 1"):
        compute_delta(g, fam)
    monkeypatch.setattr(
        certificates, "solve_lp_exact",
        lambda *args: LPSolution(F(1), (F(1), F(0), F(0)), ()),
    )
    with pytest.raises(LemmaViolation, match="exceeds delta"):
        construct_mu(g, fam, F(1, 2))


def test_pairwise_intersections():
    f1 = CliqueFamily(colour=0, k=2, cliques=((0, 1), (2, 3)), covered=None)
    f2 = CliqueFamily(colour=1, k=2, cliques=((0, 2), (1, 3)), covered=None)
    assert check_pairwise_intersections(f1, f2)
    f3 = CliqueFamily(colour=1, k=3, cliques=((0, 1, 2),), covered=None)
    assert not check_pairwise_intersections(f1, f3)
    with pytest.raises(ValueError):
        check_pairwise_intersections(f1, f1)


def test_support_clique_check_only_bites_above_half():
    g = p4()
    lam = VertexMeasure((F(1, 2), F(1, 2), F(0), F(0)))
    assert support_clique_check(g, 0, lam, F(1, 2))  # vacuous at 1/2
    assert support_clique_check(g, 0, lam, F(3, 4))  # {0,1} is a red edge
    bad = VertexMeasure((F(1, 2), F(0), F(1, 2), F(0)))
    assert not support_clique_check(g, 0, bad, F(3, 4))


def test_two_colour_bound_is_endpoint_maximum():
    # on the path graph both deltas are 1/2 and the bound is exactly n
    assert two_colour_bound(2, 2, F(1, 2), F(1, 2)) == 4
    # slack interval: max of the convex h at the two ends
    got = two_colour_bound(3, 3, F(1, 4), F(1, 4))
    h = lambda d: F(2) / d + F(2) / (1 - d)
    assert got == max(h(F(1, 4)), h(F(3, 4)))
    # extremal instance: interval collapses and the bound equals 18
    assert two_colour_bound(3, 9, F(1, 3), F(2, 3)) == 18


def test_two_colour_bound_validates_inputs():
    with pytest.raises(ValueError):
        two_colour_bound(2, 2, F(2, 3), F(2, 3))
    with pytest.raises(ValueError):
        two_colour_bound(2, 2, F(0), F(1, 2))
    with pytest.raises(ValueError):
        two_colour_bound(0, 2, F(1, 4), F(1, 4))


def test_certify_path_graph_end_to_end():
    res = certify(p4(), ((0, 2), (1, 2)))
    assert [c.delta for c in res.certificates] == [F(1, 2), F(1, 2)]
    assert [c.alpha for c in res.certificates] == [2, 2]
    assert res.bound == 4
    assert res.bound_ceiling == 4
    assert res.universal_lower == 4
    assert res.pairwise[0].delta_sum == 1
    assert res.pairwise[0].mu_product_sum == 1
    assert res.pairwise[0].max_intersection == 1


def test_certify_refuses_non_enabling_graphs():
    g = monochromatic_complete(4, r=2, colour=0)
    with pytest.raises(NotEnabling):
        certify(g, ((0, 2), (1, 2)))


def test_certify_multicolour_needs_uniform_targets():
    g = multicolour_blocks(3, 3)
    with pytest.raises(ValueError):
        certify(g, ((0, 3), (1, 3), (2, 2)))


def test_certify_multicolour_blocks():
    g = multicolour_blocks(3, 3)
    res = certify(g, tuple((c, 3) for c in range(3)))
    assert all(c.delta == F(1, 2) for c in res.certificates)
    assert res.bound <= g.n
    assert res.universal_lower is None


def test_certify_prime_grid_is_tight():
    g = prime_slope(3)
    res = certify(g, tuple((c, 3) for c in range(4)))
    assert all(c.delta == F(1, 3) for c in res.certificates)
    assert res.bound == 9 == g.n


def test_certificate_json_round_trip_and_recheck():
    g = two_colour_extremal(3, 3)
    res = certify(g, ((0, 3), (1, 3)), policy=PER_VERTEX_LEX)
    doc = json.loads(res.to_json())
    assert check_certificate(g, doc) == []


def test_recheck_flags_corrupted_certificates():
    g = p4()
    res = certify(g, ((0, 2), (1, 2)))
    doc = json.loads(res.to_json())

    tampered = json.loads(json.dumps(doc))
    tampered["certificates"][0]["delta"] = {"num": "2", "den": "3"}
    assert check_certificate(g, tampered)

    tampered = json.loads(json.dumps(doc))
    tampered["certificates"][0]["mu"][0] = {"num": "1", "den": "1"}
    assert check_certificate(g, tampered)

    tampered = json.loads(json.dumps(doc))
    tampered["certificates"][1]["cliques"][0] = [0, 1]  # a red edge, not blue
    assert check_certificate(g, tampered)

    tampered = json.loads(json.dumps(doc))
    tampered["bound"]["value"] = {"num": "5", "den": "1"}
    assert check_certificate(g, tampered)

    # a certificate for the wrong graph is rejected outright
    other = monochromatic_complete(4, r=2, colour=0)
    assert check_certificate(other, doc)


def test_recheck_catches_wrong_graph_size():
    g = p4()
    res = certify(g, ((0, 2), (1, 2)))
    doc = json.loads(res.to_json())
    bigger = p4_blowup(5)
    issues = check_certificate(bigger, doc)
    assert issues and "certificate is for" in issues[0]
