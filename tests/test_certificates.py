import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import enabling
from enabling import certificates, cliques
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
from enabling.cliques import (
    ALL_CLIQUES,
    PER_VERTEX_LEX,
    CliqueFamily,
    choose_family,
    verify_enabling,
)
from enabling.constructions import (
    integer_extremal_pairs,
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import build, monochromatic_complete
from enabling.lp import AuditFailure, LPSolution


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
        delta, lam, _ = compute_delta(g, fam)
        assert delta == F(1, 2)
        assert sum(lam.weights) == 1
        assert min(lam.mass(c) for c in fam.cliques) == F(1, 2)


def test_delta_on_monochromatic_clique_is_one():
    g = monochromatic_complete(5, r=2, colour=0)
    fam = choose_family(g, 0, 5, ALL_CLIQUES)
    delta, lam, _ = compute_delta(g, fam)
    assert delta == 1


def test_delta_never_below_uniform_floor():
    # uniform measure puts k/n on every clique, so delta >= k/n always
    for g, k in [(two_colour_extremal(3, 3), 3), (multicolour_blocks(3, 3), 3)]:
        for colour in range(g.r):
            fam = choose_family(g, colour, k, PER_VERTEX_LEX)
            delta, _, _ = compute_delta(g, fam)
            assert delta >= F(k, g.n)


def test_mu_masses_stay_within_delta_and_sum_to_k():
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    delta, _, duals = compute_delta(g, fam)
    mu = construct_mu(g, fam, delta, duals)
    masses = mu_vertex_masses(g.n, fam, mu)
    assert mu.weights == (F(1, 2), F(0), F(1, 2))
    assert max(masses) <= delta
    assert sum(masses) == 2  # each clique has 2 vertices


def test_construct_mu_rejects_understated_delta():
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    delta, _, duals = compute_delta(g, fam)
    assert delta == F(1, 2)
    with pytest.raises(LemmaViolation):
        construct_mu(g, fam, F(1, 4), duals)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_construct_mu_rejects_understated_delta_whatever_the_duals(data):
    # Every probability measure on the family puts mass at least the exact
    # delta on some vertex, so no choice of duals lets a smaller delta pass.
    n, fam, mu, _ = data.draw(families_with_measures())
    g = monochromatic_complete(n, r=1)
    delta, _, duals = compute_delta(g, fam)
    below = delta * data.draw(st.fractions(0, 1, max_denominator=30).filter(
        lambda e: 0 < e < 1))
    for weights in (duals, mu.weights):
        with pytest.raises(LemmaViolation, match="exceeds delta"):
            construct_mu(g, fam, below, weights)


def test_lp_answers_are_rechecked_without_asserts(monkeypatch):
    # The full-size audit raises AuditFailure and the mu cap LemmaViolation,
    # so python -O keeps both.  The family's quotient has vertex cells
    # {0, 3}, {1, 2} and clique cells {(0, 1), (2, 3)}, {(1, 2)}.
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    quarter = (F(1, 4),) * 2
    for answer, problem in [
        (LPSolution(F(1), quarter + (F(1),), (F(1), F(0), F(1))), "primal"),
        (LPSolution(F(1, 4), quarter + (F(1, 4),), (F(1, 4), F(0), F(1, 4))),
         "dual constraint"),
    ]:
        monkeypatch.setattr(certificates, "solve_lp_exact", lambda *args: answer)
        with pytest.raises(AuditFailure, match=problem):
            compute_delta(g, fam)
    with pytest.raises(LemmaViolation, match="exceeds delta"):
        construct_mu(g, fam, F(1, 2), (F(1), F(0), F(0)))


def _cli_bench_families():
    """Every colour's all-cliques family on the graphs the CLI bench certifies."""
    built = [(multicolour_blocks(r, k), [(c, k) for c in range(r)])
             for r in range(2, 5) for k in range(2, 7)]
    built += [(prime_slope(p), [(c, p) for c in range(p + 1)]) for p in (2, 3, 5, 7)]
    built += [(two_colour_extremal(k1, k2), [(0, k1), (1, k2)])
              for k1, k2 in integer_extremal_pairs(24)]
    return [(g, choose_family(g, c, k, ALL_CLIQUES)) for g, ts in built for c, k in ts]


def test_construct_mu_matches_the_per_clique_fraction_reference():
    # The reference divides each clique's dual by their Fraction sum.
    def reference(duals):
        total = sum(duals)
        return tuple(y / total for y in duals)

    rng = random.Random(16)
    for g, fam in _cli_bench_families():
        delta, _, duals = compute_delta(g, fam)
        assert construct_mu(g, fam, delta, duals).weights == reference(duals)
        m = len(fam.cliques)
        drawn = [F(rng.choice((0, rng.randint(1, 9))), rng.randint(1, 12))
                 for _ in range(m)]
        one = [F(0)] * m
        for duals in (drawn, one):
            duals[rng.randrange(m)] = F(rng.randint(1, 9), rng.randint(1, 12))
            # No vertex carries more than 1 under a probability measure.
            assert construct_mu(g, fam, F(1), duals).weights == reference(duals)


def test_construct_mu_keeps_its_error_texts():
    g = p4()
    fam = choose_family(g, 0, 2, ALL_CLIQUES)
    assert len(fam.cliques) == 3
    for duals in ((), (F(1),) * 2, (F(1),) * 4, (F(0),) * 3, (F(1), F(-2), F(0))):
        with pytest.raises(ValueError) as exc:
            construct_mu(g, fam, F(1, 2), duals)
        assert str(exc.value) == "need one dual per clique, with a positive sum"
    with pytest.raises(ValueError, match="^weights must be nonnegative and sum to 1$"):
        construct_mu(g, fam, F(1), (F(2), F(-1), F(0)))
    with pytest.raises(ValueError, match="^delta must be positive, got 0$"):
        construct_mu(g, fam, F(0), (F(1),) * 3)
    with pytest.raises(LemmaViolation, match="exceeds delta=1/4"):
        construct_mu(g, fam, F(1, 4), (F(1),) * 3)


def test_pairwise_intersections():
    f1 = CliqueFamily(colour=0, k=2, cliques=((0, 1), (2, 3)))
    f2 = CliqueFamily(colour=1, k=2, cliques=((0, 2), (1, 3)))
    assert check_pairwise_intersections(f1, f2)
    f3 = CliqueFamily(colour=1, k=3, cliques=((0, 1, 2),))
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


class _Support:
    """A stand-in measure with a given support, empty included."""

    def __init__(self, members):
        self.members = tuple(members)

    def support(self):
        return self.members


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 3),
    st.lists(st.integers(0, 2), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    st.sets(st.integers(0, n - 1), max_size=n))))
def test_support_clique_check_agrees_with_the_pairwise_clique_test(case):
    n, r, cols, support = case
    g = build(n, r, [c % r for c in cols])
    members = sorted(support)
    for colour in range(r):
        expected = g.is_monochromatic_clique(members, colour)
        assert support_clique_check(g, colour, _Support(members), F(2, 3)) == expected
        if members:
            lam = VertexMeasure(tuple(F(v in support, len(members)) for v in range(n)))
            assert support_clique_check(g, colour, lam, F(3, 5)) == expected


def test_support_clique_check_survives_optimisation_flag():
    code = textwrap.dedent(
        """
        from fractions import Fraction as F
        from enabling.certificates import VertexMeasure, support_clique_check
        from enabling.constructions import p4_blowup

        assert False, "asserts must be stripped in this run"
        g = p4_blowup(4)
        for weights in ((1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1)):
            lam = VertexMeasure(tuple(F(w, sum(weights)) for w in weights))
            print(support_clique_check(g, 0, lam, F(3, 4)))
        """
    )
    src = os.path.dirname(os.path.dirname(enabling.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert out == ["True", "False", "True"]


def test_two_colour_bound_is_endpoint_maximum():
    # on the path graph both deltas are 1/2 and the bound is exactly n
    assert two_colour_bound(2, 2, F(1, 2), F(1, 2)) == 4
    # slack interval: max of the convex h at the two ends
    got = two_colour_bound(3, 3, F(1, 4), F(1, 4))
    h = lambda d: F(2) / d + F(2) / (1 - d)
    assert got == max(h(F(1, 4)), h(F(3, 4)))
    # extremal instance: interval collapses and the bound equals 18
    assert two_colour_bound(3, 9, F(1, 3), F(2, 3)) == 18


@settings(max_examples=300, deadline=None)
@given(
    k1=st.integers(1, 60),
    k2=st.integers(1, 60),
    data=st.data(),
)
def test_two_colour_bound_is_the_larger_endpoint_value(k1, k2, data):
    unit = st.fractions(min_value=0, max_value=1, max_denominator=200)
    d1 = data.draw(unit.filter(lambda d: 0 < d < 1), label="delta1")
    collapsed = data.draw(st.booleans(), label="collapsed")
    d2 = 1 - d1 if collapsed else data.draw(
        unit.filter(lambda d: 0 < d <= 1 - d1), label="delta2"
    )
    h = lambda d: F(k1 - 1) / d + F(k2 - 1) / (1 - d)
    got = two_colour_bound(k1, k2, d1, d2)
    assert got == max(h(d1), h(1 - d2))
    # h is convex, so no point of the interval beats the larger endpoint.
    t = data.draw(unit, label="t")
    assert got >= h(d1 + t * (1 - d2 - d1))


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


@pytest.mark.parametrize("g, target, bound", [
    (monochromatic_complete(5, r=1), (0, 5), 5),
    (two_colour_extremal(2, 5), (1, 5), F(15, 2)),
])
def test_a_single_target_certifies_with_bound_k_over_delta(g, target, bound):
    # One colour has no pair, so no mean-alpha floor: here delta > 1/2, and
    # the bound k/delta is at most n because delta >= k/n.
    for policy in (PER_VERTEX_LEX, ALL_CLIQUES):
        res = certify(g, (target,), policy)
        assert res.bound == target[1] / res.certificates[0].delta == bound
        assert check_certificate(g, json.loads(res.to_json())) == []


def test_every_single_target_of_the_small_extremal_graphs_certifies():
    for k1, k2 in integer_extremal_pairs(27):
        g = two_colour_extremal(k1, k2)
        for target in ((0, k1), (1, k2)):
            for policy in (PER_VERTEX_LEX, ALL_CLIQUES):
                res = certify(g, (target,), policy)
                assert check_certificate(g, json.loads(res.to_json())) == []


@pytest.mark.parametrize("targets, message", [
    (((0, 0),), "clique target must be positive, got 0"),
    ((), "need at least one (colour, k) target"),
])
def test_verify_and_certify_refuse_a_target_below_one_or_none(targets, message):
    for check in (verify_enabling, certify):
        with pytest.raises(ValueError) as exc:
            check(p4(), targets)
        assert str(exc.value) == message


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
    _set_entry(tampered["certificates"][0]["mu"], 0, {"num": "1", "den": "1"})
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


@pytest.mark.parametrize(
    "g,targets",
    [
        (two_colour_extremal(3, 3), ((0, 3), (1, 3))),
        (two_colour_extremal(2, 10), ((0, 2), (1, 10))),
        (two_colour_extremal(5, 5), ((0, 5), (1, 5))),
        (multicolour_blocks(3, 3), tuple((c, 3) for c in range(3))),
        (multicolour_blocks(2, 4), tuple((c, 4) for c in range(2))),
        (prime_slope(3), tuple((c, 3) for c in range(4))),
        (prime_slope(5), tuple((c, 5) for c in range(6))),
    ],
)
def test_certify_builds_the_per_vertex_lex_family_of_choose_family(g, targets):
    # certify takes each family from choose_family, which builds it straight
    # from one witness walk; the result must equal a separate call's.
    res = certify(g, targets, policy=PER_VERTEX_LEX)
    for cert, (colour, k) in zip(res.certificates, targets):
        fam = choose_family(g, colour, k, PER_VERTEX_LEX)
        assert cert.family.cliques == fam.cliques
        assert cert.family.covered == fam.covered


def _rational(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _pack(entries):
    """Format 2's form of a list of rational dicts, built entry by entry:
    the distinct values by first appearance and each entry's position."""
    keys = [(d["num"], d["den"]) for d in entries]
    slots = list(dict.fromkeys(keys))
    return {"values": [{"num": a, "den": b} for a, b in slots],
            "index": [slots.index(key) for key in keys]}


def _expand(vector):
    """The entries of a format-2 measure vector, one rational dict each."""
    return [dict(vector["values"][i]) for i in vector["index"]]


def _set_entry(vector, i, rational):
    """Give entry i of a format-2 vector a value of its own."""
    vector["values"].append(rational)
    vector["index"][i] = len(vector["values"]) - 1


def _set_clique(vertices):
    def mutate(doc):
        doc["certificates"][0]["cliques"][0] = vertices
    return mutate


def _after_a_third(bad):
    def mutate(doc):
        doc["certificates"][0]["lambda"]["values"][:2] = [{"num": "1", "den": "3"}, bad]
    return mutate


def _uncover(doc):
    # colour 0 of p4_blowup(5): the twins 0 and 1 each lie in one clique,
    # with vertex 2, of mu weight 1/4, and have equal colour-1 masses.
    # Moving the weight of (1, 2) onto (0, 2) and dropping (1, 2) leaves
    # every sum and cap intact but vertex 1 uncovered.
    cert = doc["certificates"][0]
    mu, masses = _expand(cert["mu"]), _expand(cert["mu_vertex_mass"])
    quarter, half, zero = ({"num": a, "den": b} for a, b in ("14", "12", "01"))
    assert cert["cliques"][:2] == [[0, 2], [1, 2]]
    assert mu[:2] == masses[:2] == [quarter, quarter]
    del cert["cliques"][1], mu[1]
    mu[0] = half
    masses[:2] = [half, zero]
    cert["mu"], cert["mu_vertex_mass"] = _pack(mu), _pack(masses)


# (path-graph size, mutation, an expected issue).  The first block are
# documents whose arithmetic is consistent but which do not prove the bound;
# the second block are malformed documents that must give an issue, not an
# exception.
PROBES = {
    "no certificates": (
        4, lambda d: d.update(certificates=[], pairwise=[]), "certifies no colour"
    ),
    "targets disagree": (
        4, lambda d: d.update(targets=[[0, 2], [1, 3]]), "targets do not match"
    ),
    "colour twice": (
        4,
        lambda d: d.update(
            certificates=[d["certificates"][0]] * 2,
            targets=[[0, 2], [0, 2]],
            pairwise=[],
        ),
        "certified twice",
    ),
    "missing pairwise row": (
        4, lambda d: d.update(pairwise=[]), "no pairwise row for colours (0, 1)"
    ),
    "uncovered vertex": (5, _uncover, "vertex 1 lies in none of the cliques"),
    "clique shares an edge with the other colour": (
        4,
        lambda d: d["certificates"][0]["cliques"].__setitem__(
            0, d["certificates"][1]["cliques"][0]
        ),
        "is not a colour-0 clique",
    ),
    "intersection stored as 0": (
        4,
        lambda d: d["pairwise"][0].update(max_intersection=0),
        "max intersection 0 is not 1",
    ),
    "mu product sum tampered": (
        4,
        lambda d: d["pairwise"][0].update(mu_product_sum={"num": "1", "den": "2"}),
        "pairwise (0, 1): mu product sum wrong or above 1",
    ),
    "intersection stored as 2": (
        4,
        lambda d: d["pairwise"][0].update(max_intersection=2),
        "max intersection 2 is not 1",
    ),
    "empty clique family": (
        4,
        lambda d: d["certificates"][0].update(cliques=[], mu=_pack([])),
        "vertex 0 lies in none",
    ),
    "ceiling above the bound": (
        4, lambda d: d["bound"].update(ceiling=5), "is not the ceiling"
    ),
    "universal lower understated": (
        4, lambda d: d["universal"].update(lower=3), "stored universal bound"
    ),
    "universal form nonsense": (
        4, lambda d: d["universal"].update(form="nonsense"), "stored universal bound"
    ),
    "universal missing": (4, lambda d: d.pop("universal"), "stored universal bound"),
    "unknown policy": (4, lambda d: d.update(policy="greedy"), "unknown policy"),
    "colour out of range": (
        4, lambda d: d["certificates"][1].update(colour=2), "colour 2 outside range 0..1"
    ),
    "vertex out of range": (4, _set_clique([0, 4]), "leaves 0..3"),
    "negative vertex": (4, _set_clique([-1, 0]), "leaves 0..3"),
    "repeated vertex": (4, _set_clique([1, 1]), "repeats a vertex"),
    "vertex is a string": (4, _set_clique(["0", 1]), "malformed"),
    "vertex is a float": (4, _set_clique([0.0, 1]), "malformed"),
    "vertex is a boolean": (4, _set_clique([False, True]), "malformed"),
    "zero denominator": (
        4,
        lambda d: d["certificates"][0].update(delta={"num": "1", "den": "0"}),
        "malformed",
    ),
    "negative denominator": (
        4,
        lambda d: d["certificates"][0]["lambda"]["values"].__setitem__(
            0, {"num": "-1", "den": "-2"}
        ),
        "malformed",
    ),
    "non-numeric rational": (
        4,
        lambda d: d["certificates"][0]["mu"]["values"].__setitem__(
            0, {"num": "x", "den": "2"}
        ),
        "malformed",
    ),
    # A valid 1/3 comes first in lambda's values, and the bad value after it
    # is decoded although no index entry names it.
    "memo: same num, zero den": (4, _after_a_third({"num": "1", "den": "0"}), "malformed"),
    "memo: same num, padded den": (
        4, _after_a_third({"num": "1", "den": " 3"}), "malformed"
    ),
    "memo: integer num": (4, _after_a_third({"num": 1, "den": "3"}), "malformed"),
    "numeral not a string": (
        4,
        lambda d: d["pairwise"][0].update(delta_sum={"num": 1, "den": 1}),
        "malformed",
    ),
    "fractional k": (
        4, lambda d: d["certificates"][1].update(k=2.5), "malformed"
    ),
    "missing field": (
        4, lambda d: d["certificates"][0].pop("mu"), "malformed"
    ),
    "not an object": (4, lambda d: d["certificates"].__setitem__(0, []), "malformed"),
    "universal not an object": (4, lambda d: d.update(universal=[4]), "malformed"),
    "universal lower a string": (
        4, lambda d: d["universal"].update(lower="4"), "malformed"
    ),
    "intersection a string": (
        4, lambda d: d["pairwise"][0].update(max_intersection="1"), "malformed"
    ),
}


def test_recheck_rejects_a_universal_bound_beyond_two_colours():
    g = multicolour_blocks(3, 3)
    doc = json.loads(certify(g, tuple((c, 3) for c in range(3))).to_json())
    assert "universal" not in doc and check_certificate(g, doc) == []
    doc["universal"] = {"lower": 9, "form": "9"}
    assert any("other than two colours" in i for i in check_certificate(g, doc))


def _set_alphas(alpha):
    def mutate(doc):
        for c in doc["certificates"]:
            c["alpha"] = {"num": str(alpha.numerator), "den": str(alpha.denominator)}
    return mutate


def _mix_k(doc):
    doc["certificates"][2]["k"] = doc["targets"][2][1] = 2


# Three-colour documents: (mutation, an expected issue).  The bound is
# f_max at the mean alpha, so each mutation breaks one of its premises or
# its value.
MULTICOLOUR_PROBES = {
    "tampered bound": (
        lambda d: d["bound"].update(value={"num": "7", "den": "1"}),
        "stored bound 7 != recomputed",
    ),
    "universal added": (
        lambda d: d.update(universal={"lower": 9, "form": "9"}), "other than two colours"
    ),
    "mixed k": (_mix_k, "bound cannot be recomputed: multicolour certification needs"),
    "mean alpha below 2": (
        _set_alphas(F(3, 2)), "bound cannot be recomputed: mean alpha 3/2 fell below 2"
    ),
    "zero alphas": (_set_alphas(F(0)), "bound cannot be recomputed: mean alpha 0"),
    # The bound is taken from the stored alphas, never as 1/delta.
    "zero deltas": (
        lambda d: [c.update(delta={"num": "0", "den": "1"}) for c in d["certificates"]],
        "lambda does not achieve the stated delta",
    ),
}


@pytest.mark.parametrize("name", sorted(MULTICOLOUR_PROBES))
def test_recheck_rejects_unsound_multicolour_documents(name):
    mutate, expected = MULTICOLOUR_PROBES[name]
    g = multicolour_blocks(3, 3)
    doc = json.loads(certify(g, tuple((c, 3) for c in range(3))).to_json())
    assert check_certificate(g, doc) == []
    mutate(doc)
    issues = check_certificate(g, doc)
    assert any(expected in i for i in issues), issues


@pytest.mark.parametrize("name", sorted(PROBES))
def test_recheck_rejects_unsound_and_malformed_documents(name):
    n, mutate, expected = PROBES[name]
    g = p4_blowup(n)
    doc = json.loads(certify(g, ((0, 2), (1, 2))).to_json())
    assert check_certificate(g, doc) == []
    mutate(doc)
    issues = check_certificate(g, doc)
    assert issues and all(isinstance(i, str) for i in issues)
    assert any(expected in i for i in issues), issues


@pytest.mark.parametrize(
    "bad",
    [{"num": ["1"], "den": "3"}, {"num": "1", "den": {"3": 3}}, {"num": 1, "den": "3"},
     {"num": "1", "den": " 3"}, {"num": "1", "den": "0"}, {"num": "1"}, [], "1/3"],
)
def test_memoised_decode_fails_as_the_plain_one_does(bad):
    # A measure's values are decoded once each, in either format; a bad value
    # fails as decoding it alone does, whether or not an entry names it.
    third = {"num": "1", "den": "3"}
    unpacked = certificates._unpacked
    assert unpacked({"values": [third], "index": [0, 0]}, 2, True) == [F(1, 3)] * 2
    with pytest.raises(Exception) as plain:
        certificates._unrat(bad)
    for vector, packed in (({"values": [third, bad], "index": [0, 0]}, True),
                           ([third, bad], False)):
        with pytest.raises(type(plain.value)) as memoised:
            unpacked(vector, 2, packed)
        assert str(memoised.value) == str(plain.value)


@st.composite
def colour_documents(draw):
    """One colour's certificate on a one-colour complete graph, with measures
    that are mostly exact and sometimes slightly wrong."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    subsets = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    cliques = [tuple(sorted(q)) for q in draw(st.lists(subsets, min_size=1, max_size=4))]
    weights = st.fractions(0, 2, max_denominator=12)
    mostly = st.sampled_from([True, True, True, False])

    def measure(size):
        ws = draw(st.lists(weights, min_size=size, max_size=size))
        if sum(ws) > 0 and draw(mostly):
            ws = [w / sum(ws) for w in ws]
        if ws and not draw(mostly):
            # move some mass, which keeps the total but may go negative
            ws[draw(st.integers(0, size - 1))] -= F(1, 7)
            ws[draw(st.integers(0, size - 1))] += F(1, 7)
        return ws

    lam = measure(n if draw(mostly) else n - 1)
    mu = measure(len(cliques) if draw(mostly) else len(cliques) + 1)
    masses = [F(0)] * n
    for q, w in zip(cliques, mu):
        for v in q:
            masses[v] += w
    if not draw(mostly):
        masses[draw(st.integers(0, n - 1))] += F(1, 11)
    if len(lam) == n and draw(mostly):
        delta = min(sum(lam[v] for v in q) for q in cliques)
    else:
        delta = draw(weights)
    return n, k, cliques, lam, mu, masses, delta


def _reference_issues(n, cliques, lam, mu, masses, delta):
    """The measure checks in plain Fraction arithmetic.  A vector of the wrong
    length is refused when the document is decoded."""
    if len(lam) != n or len(mu) != len(cliques):
        return {"malformed certificate"}
    found = set()
    if any(w < 0 for w in lam) or sum(lam) != 1:
        found.add("lambda is not a probability measure")
    elif min(sum(lam[v] for v in q) for q in cliques) != delta:
        found.add("lambda does not achieve the stated delta")
    if any(w < 0 for w in mu) or sum(mu) != 1:
        found.add("mu is not a probability measure")
    else:
        induced = [F(0)] * n
        for q, w in zip(cliques, mu):
            for v in q:
                induced[v] += w
        if masses != induced:
            found.add("stored mu vertex masses are wrong")
        if max(induced) > delta:
            found.add("mu vertex mass exceeds delta")
    return found


@settings(max_examples=300, deadline=None)
@given(colour_documents(), st.booleans())
def test_integer_measure_checks_match_fraction_reference(case, packed):
    n, k, cliques, lam, mu, masses, delta = case
    vector = _pack if packed else list  # format 2, or version 1's lists
    doc = {
        "n": n,
        "r": 1,
        "targets": [[0, k]],
        "policy": "all-cliques",
        "certificates": [
            {
                "colour": 0,
                "k": k,
                "cliques": [list(q) for q in cliques],
                "delta": _rational(delta),
                "alpha": _rational(1 / delta if delta else F(1)),
                "lambda": vector([_rational(w) for w in lam]),
                "mu": vector([_rational(w) for w in mu]),
                "mu_vertex_mass": vector([_rational(w) for w in masses]),
            }
        ],
        "pairwise": [],
        "bound": {"value": _rational(F(n)), "ceiling": n},
    }
    if packed:
        doc["format"] = 2
    issues = check_certificate(monochromatic_complete(n, r=1), doc)
    expected = _reference_issues(n, cliques, lam, mu, masses, delta)
    got = {name for name in _MEASURE_ISSUES if any(name in i for i in issues)}
    assert got == expected, issues


_MEASURE_ISSUES = (
    "malformed certificate",
    "lambda is not a probability measure",
    "lambda does not achieve the stated delta",
    "mu is not a probability measure",
    "stored mu vertex masses are wrong",
    "mu vertex mass exceeds delta",
)


@st.composite
def families_with_measures(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    subsets = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    cliques = sorted({tuple(sorted(q)) for q in draw(st.lists(subsets, min_size=1))})
    share = st.fractions(0, 1, max_denominator=30)
    raw = draw(st.lists(share, min_size=len(cliques), max_size=len(cliques)))
    raw[0] += 1  # a positive total
    mu = FamilyMeasure(tuple(w / sum(raw) for w in raw))
    other = draw(st.lists(share, min_size=n, max_size=n))
    return n, CliqueFamily(0, k, tuple(cliques)), mu, other


@settings(max_examples=200, deadline=None)
@given(families_with_measures())
def test_integer_masses_and_products_match_fraction_reference(case):
    n, fam, mu, other = case
    reference = [F(0)] * n
    for q, w in zip(fam.cliques, mu.weights):
        for v in q:
            reference[v] += w
    masses = mu_vertex_masses(n, fam, mu)
    assert list(masses) == reference
    product = certificates._product_sum(
        certificates._common_denominator(masses),
        certificates._common_denominator(other),
    )
    assert product == sum((a * b for a, b in zip(reference, other)), F(0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certify_refuses_the_pair_verify_names_first_under_either_policy(data):
    # All-cliques certify reads coverage from its families instead of running
    # the witness walk; it must still refuse the same (vertex, colour) first.
    n = data.draw(st.integers(2, 7))
    red = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2))
    g = build(n, 2, [0 if r else 1 for r in red])
    ks = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=2))
    targets = data.draw(st.permutations([(0, ks[0]), (1, ks[1])]))
    report = verify_enabling(g, targets)
    for policy in (ALL_CLIQUES, PER_VERTEX_LEX):
        if report.ok:
            res = certify(g, targets, policy)
            for c in res.certificates:
                assert c.mu_vertex_mass == mu_vertex_masses(g.n, c.family, c.mu)
            continue
        v, colour = report.first_failure
        k = dict(targets)[colour]
        with pytest.raises(NotEnabling) as exc:
            certify(g, targets, policy)
        assert str(exc.value) == f"vertex {v} lies in no size-{k} clique of colour {colour}"


def test_certify_keeps_its_refusal_texts_and_their_order():
    g = p4()  # colour 0 is the path 0-1-2-3, so no vertex is in a red triangle
    text = "vertex 0 lies in no size-3 clique of colour 0"
    for policy in (PER_VERTEX_LEX, ALL_CLIQUES):
        with pytest.raises(NotEnabling) as exc:
            certify(g, ((1, 2), (0, 3)), policy)
        assert str(exc.value) == text
    # The policy is refused before coverage is looked at, enabling or not.
    for targets in (((0, 2), (1, 2)), ((1, 2), (0, 3))):
        with pytest.raises(ValueError) as exc:
            certify(g, targets, "no-such-policy")
        assert type(exc.value) is ValueError
        assert str(exc.value) == "unknown family policy 'no-such-policy'"
    with pytest.raises(ValueError, match="appears twice"):  # targets come first
        certify(g, ((0, 3), (0, 3)), "no-such-policy")


def _reference_json(res):
    """to_json with every rational converted by ``_rat`` entry by entry, and
    each vector packed by comparing those strings."""
    doc = res.to_json_dict()
    for entry, c in zip(doc["certificates"], res.certificates):
        entry["delta"], entry["alpha"] = map(certificates._rat, (c.delta, c.alpha))
        entry["lambda"] = _pack([certificates._rat(w) for w in c.lam.weights])
        entry["mu"] = _pack([certificates._rat(w) for w in c.mu.weights])
        entry["mu_vertex_mass"] = _pack([certificates._rat(w) for w in c.mu_vertex_mass])
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _serialisation_cases():
    """The bench's CLI graphs under both policies, and three large extremal
    graphs under per-vertex-lex."""
    built = [(multicolour_blocks(r, k), tuple((c, k) for c in range(r)))
             for r in range(2, 5) for k in range(2, 7)]
    built += [(prime_slope(p), tuple((c, p) for c in range(p + 1))) for p in (2, 3, 5, 7)]
    built += [(two_colour_extremal(a, b), ((0, a), (1, b)))
              for a, b in integer_extremal_pairs(24)]
    cases = [(g, t, policy) for g, t in built for policy in (ALL_CLIQUES, PER_VERTEX_LEX)]
    return cases + [(two_colour_extremal(a, b), ((0, a), (1, b)), PER_VERTEX_LEX)
                    for a, b in integer_extremal_pairs(200)[-3:]]


def _rationals(doc):
    return [d for c in doc["certificates"] for key in ("lambda", "mu", "mu_vertex_mass")
            for d in c[key]["values"]]


def test_serialisation_matches_the_per_entry_reference_and_shares_no_dict():
    for g, targets, policy in _serialisation_cases():
        res = certify(g, targets, policy)
        assert res.to_json() == _reference_json(res)
        doc, fresh = res.to_json_dict(), res.to_json_dict()
        entries, expected = _rationals(doc), _rationals(fresh)
        assert len(set(map(id, entries))) == len(entries)
        for i in {0, len(entries) // 2, len(entries) - 1}:
            entries[i]["num"] = "-7"  # one rational edited in place
            assert [d["num"] for d in _rationals(doc)].count("-7") == 1
            entries[i]["num"] = expected[i]["num"]
            assert doc == fresh


def test_all_cliques_certify_searches_each_colour_once(monkeypatch):
    calls = []
    monkeypatch.setattr(cliques, "_lex_witnesses",
                        lambda *a: calls.append("witness walk"))
    real = certificates.choose_family
    monkeypatch.setattr(certificates, "choose_family",
                        lambda *a: calls.append(a[1]) or real(*a))
    g = two_colour_extremal(3, 3)
    doc = json.loads(certify(g, ((1, 3), (0, 3)), ALL_CLIQUES).to_json())
    assert calls == [1, 0] and check_certificate(g, doc) == []


# ------------------------------------------------------------ format 2


def _format_cases():
    return [
        (p4(), ((0, 2), (1, 2)), ALL_CLIQUES),
        (two_colour_extremal(3, 3), ((0, 3), (1, 3)), PER_VERTEX_LEX),
        (two_colour_extremal(2, 10), ((0, 2), (1, 10)), ALL_CLIQUES),
        (multicolour_blocks(3, 3), tuple((c, 3) for c in range(3)), PER_VERTEX_LEX),
        (prime_slope(3), tuple((c, 3) for c in range(4)), ALL_CLIQUES),
    ]


def _version_1(doc):
    """The same certificate as a version-1 document: no format key, and each
    measure vector a plain list of rationals."""
    old = json.loads(json.dumps(doc))
    del old["format"]
    for c in old["certificates"]:
        for key in ("lambda", "mu", "mu_vertex_mass"):
            c[key] = _expand(c[key])
    return old


@pytest.mark.parametrize("case", range(5))
def test_format_2_round_trip(case):
    g, targets, policy = _format_cases()[case]
    res = certify(g, targets, policy)
    text = res.to_json()
    doc = json.loads(text)
    assert doc["format"] == 2 and check_certificate(g, doc) == []
    decoded = certificates.certificate_from_json_dict(doc)
    for c, d, entry in zip(res.certificates, decoded["certificates"], doc["certificates"]):
        assert d["lambda"] == list(c.lam.weights)
        assert d["mu"] == list(c.mu.weights)
        assert d["mu_vertex_mass"] == list(c.mu_vertex_mass)
        for key in ("lambda", "mu", "mu_vertex_mass"):
            values = [(v["num"], v["den"]) for v in entry[key]["values"]]
            assert len(set(values)) == len(values)  # each value once
            assert sorted(set(entry[key]["index"])) == list(range(len(values)))
    # The bytes depend on the values alone, not on which objects are shared.
    fresh = [replace(c, lam=VertexMeasure(tuple(F(w.numerator, w.denominator)
                                                for w in c.lam.weights)),
                     mu_vertex_mass=tuple(F(w.numerator, w.denominator)
                                          for w in c.mu_vertex_mass))
             for c in res.certificates]
    assert replace(res, certificates=tuple(fresh)).to_json() == text
    assert certify(g, targets, policy).to_json() == text


@pytest.mark.parametrize("case", range(5))
def test_version_1_documents_still_check_clean(case):
    g, targets, policy = _format_cases()[case]
    doc = json.loads(certify(g, targets, policy).to_json())
    old = _version_1(doc)
    assert check_certificate(g, old) == []
    assert check_certificate(g, dict(old, format=1)) == []
    decode = certificates.certificate_from_json_dict
    assert decode(old) == decode(doc)
    # A version-1 document is checked as strictly as ever.
    old["certificates"][0]["lambda"][0] = {"num": "1", "den": "1"}
    assert any("lambda is not a probability measure" in i
               for i in check_certificate(g, old))
    old["certificates"][0]["lambda"].pop()
    assert any("malformed" in i for i in check_certificate(g, old))


INDEX_TAMPERS = {
    "out of range": lambda v: v["index"].__setitem__(0, len(v["values"])),
    "far out of range": lambda v: v["index"].__setitem__(-1, 10**30),
    "negative": lambda v: v["index"].__setitem__(0, -1),
    "bool": lambda v: v["index"].__setitem__(0, False),
    "float": lambda v: v["index"].__setitem__(0, 0.0),
    "string": lambda v: v["index"].__setitem__(0, "0"),
    "null": lambda v: v["index"].__setitem__(0, None),
    "one short": lambda v: v["index"].pop(),
    "one long": lambda v: v["index"].append(0),
    "missing index": lambda v: v.pop("index"),
    "missing values": lambda v: v.pop("values"),
    "index not a list": lambda v: v.update(index=0),
    "values an object": lambda v: v.update(values={"0": v["values"][0]}),
    "no values": lambda v: v.update(values=[]),
}


@pytest.mark.parametrize("key", ["lambda", "mu", "mu_vertex_mass"])
@pytest.mark.parametrize("name", sorted(INDEX_TAMPERS))
def test_a_tampered_measure_index_gives_an_issue(key, name):
    g = p4_blowup(5)
    doc = json.loads(certify(g, ((0, 2), (1, 2))).to_json())
    INDEX_TAMPERS[name](doc["certificates"][1][key])
    issues = check_certificate(g, doc)
    assert issues and all(isinstance(i, str) for i in issues)
    assert issues[0].startswith("malformed certificate"), issues


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["certificates"][0].update(
            {"lambda": _expand(d["certificates"][0]["lambda"])}),
        lambda d: d.update(format=3),
        lambda d: d.update(format="2"),
        lambda d: d.update(format=True),
        lambda d: d.update(format=2.0),
        lambda d: d.update(format=None),
        lambda d: d.update(format=1),
        lambda d: d.pop("format"),
    ],
    ids=["values given as a list", "format 3", "format string", "format bool",
         "format float", "format null", "format 1 with packed vectors",
         "no format with packed vectors"],
)
def test_a_document_in_the_wrong_format_gives_an_issue(mutate):
    g = p4()
    doc = json.loads(certify(g, ((0, 2), (1, 2))).to_json())
    mutate(doc)
    issues = check_certificate(g, doc)
    assert issues and all(isinstance(i, str) for i in issues)
    assert issues[0].startswith("malformed certificate"), issues


def test_the_checker_gives_the_same_issues_under_optimisation_flag():
    # No check that carries a theorem may sit in an assert: a small tamper
    # corpus gets identical issue lists with and without python -O.
    code = textwrap.dedent(
        """
        import json
        from enabling.certificates import certify, check_certificate
        from enabling.constructions import p4_blowup, two_colour_extremal

        def moved(v, i, rational):
            v["values"].append(rational)
            v["index"][i] = len(v["values"]) - 1

        TAMPERS = [
            lambda d: None,
            lambda d: d["certificates"][0].update(delta={"num": "2", "den": "3"}),
            lambda d: d["certificates"][0]["lambda"]["values"].__setitem__(
                0, {"num": "1", "den": "1"}),
            lambda d: moved(d["certificates"][0]["lambda"], 0, {"num": "1", "den": "1"}),
            lambda d: moved(d["certificates"][1]["mu"], 0, {"num": "0", "den": "1"}),
            lambda d: moved(d["certificates"][0]["mu_vertex_mass"], 1,
                            {"num": "1", "den": "1"}),
            lambda d: d["certificates"][1]["cliques"].__setitem__(0, [0, 1, 2]),
            lambda d: d["certificates"][0]["cliques"].pop(),
            lambda d: d["certificates"][0]["lambda"]["index"].__setitem__(0, 99),
            lambda d: d["certificates"][0]["mu"]["index"].__setitem__(0, True),
            lambda d: d["certificates"][0]["mu"]["index"].pop(),
            lambda d: d.update(format=7),
            lambda d: d["bound"].update(value={"num": "9", "den": "1"}),
            lambda d: d["pairwise"][0].update(max_intersection=2),
            lambda d: d["universal"].update(lower=1),
        ]
        print(__debug__)
        for g, targets in ((p4_blowup(5), ((0, 2), (1, 2))),
                           (two_colour_extremal(3, 3), ((0, 3), (1, 3)))):
            text = certify(g, targets, "per-vertex-lex").to_json()
            for tamper in TAMPERS:
                doc = json.loads(text)
                tamper(doc)
                print(json.dumps(check_certificate(g, doc)))
        """
    )
    src = os.path.dirname(os.path.dirname(enabling.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.splitlines()
        for flags in ([], ["-O"])
    ]
    assert [run[0] for run in runs] == ["True", "False"]
    assert runs[0][1:] == runs[1][1:]
    lists = [json.loads(line) for line in runs[0][1:]]
    assert len(lists) == 30 and lists[0] == lists[15] == []
    assert all(lists[1:15]) and all(lists[16:])


def test_certify_sums_each_colours_vertex_masses_once(monkeypatch):
    calls = []
    real = certificates._vertex_masses
    monkeypatch.setattr(certificates, "_vertex_masses",
                        lambda *a: calls.append(1) or real(*a))
    for g, targets, _ in _format_cases():
        for policy in (ALL_CLIQUES, PER_VERTEX_LEX):
            calls.clear()
            res = certify(g, targets, policy)
            assert len(calls) == len(targets)
            for c in res.certificates:
                assert c.mu_vertex_mass == mu_vertex_masses(g.n, c.family, c.mu)


def test_construct_mu_reads_the_same_from_plain_duals():
    for g, targets, policy in _format_cases():
        for colour, k in targets:
            fam = choose_family(g, colour, k, policy)
            delta, _, duals = compute_delta(g, fam)
            mu = construct_mu(g, fam, delta, duals)
            copy = CliqueFamily(colour, k, tuple(map(tuple, fam.cliques)))
            # certify reads mu's vertex masses from the lifted duals.
            _, nums, ints = duals.lifted
            masses = tuple(F(m, sum(nums)) for m in ints)
            assert masses == mu_vertex_masses(g.n, fam, mu)
            for plain, family in ((tuple(duals), fam), (duals, copy)):
                other = construct_mu(g, family, delta, plain)
                assert other == mu and mu_vertex_masses(g.n, family, other) == masses


# Targets whose colour or k is not an int: a bool, a float or a string.
BAD_TARGETS = [((0, True), (1, 3)), ((0.0, 3),), ((0, 3.0),), ((True, 3),), ((0, "3"),)]


@pytest.mark.parametrize("targets", BAD_TARGETS, ids=repr)
@pytest.mark.parametrize("run", [verify_enabling, certify], ids=lambda f: f.__name__)
def test_a_target_that_is_not_a_pair_of_ints_is_refused_before_any_search(
    run, targets, monkeypatch
):
    g = two_colour_extremal(3, 3)

    def no_search(self, colour):
        raise AssertionError("a clique search ran")

    monkeypatch.setattr(type(g), "adjacency", no_search)
    with pytest.raises(ValueError) as exc:
        run(g, targets)
    assert type(exc.value) is ValueError
    assert str(exc.value).endswith("is not a pair of ints")


def test_an_empty_family_has_no_delta_and_no_mu():
    g = monochromatic_complete(3)
    empty = CliqueFamily(0, 2, ())
    with pytest.raises(ValueError, match=r"^clique family is empty$"):
        compute_delta(g, empty)
    with pytest.raises(ValueError, match=r"^clique family is empty$"):
        construct_mu(g, empty, F(1, 3), ())
