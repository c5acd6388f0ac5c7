"""End to end checks for the package's headline guarantees.

Each test prints exactly one pass or fail line, so a full run reads as an
eight line report.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete; under default capture they still appear in the
captured-output section of any failure.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import enabling.lp as lp
from enabling import (
    ALL_CLIQUES,
    PER_VERTEX_LEX,
    certify,
    check_certificate,
    exists_enabling,
    f_max,
    improved_inequality,
    integer_extremal_pairs,
    min_n,
    multicolour_blocks,
    multicolour_lower,
    multicolour_upper,
    p4_blowup,
    prime_slope,
    two_colour_bound,
    two_colour_extremal,
    two_colour_lower,
    verify_enabling,
)


@contextmanager
def criterion(num: int):
    """Yield a dict; set its "note" key to the message for the pass line."""
    info = {"note": "ok"}
    try:
        yield info
    except BaseException:
        print(f"criterion {num}: FAIL - {info['note']}", flush=True)
        raise
    print(f"criterion {num}: PASS - {info['note']}", flush=True)


def test_criterion_1_extremal_graphs_meet_the_lower_bound():
    with criterion(1) as info:
        t0 = time.perf_counter()
        pairs = integer_extremal_pairs(200)
        assert pairs, "no integer pairs up to 200"
        for k1, k2 in pairs:
            g = two_colour_extremal(k1, k2)
            assert verify_enabling(g, ((0, k1), (1, k2))).ok, (k1, k2)
            assert g.n == two_colour_lower(k1, k2), (k1, k2, g.n)
        dt = time.perf_counter() - t0
        assert dt < 60.0, f"sweep took {dt:.1f}s"
        info["note"] = (
            f"{len(pairs)} extremal graphs verified, each order equals the "
            f"closed-form lower bound ({dt:.1f}s)"
        )


def test_criterion_2_exhaustive_search_confirms_small_values():
    with criterion(2) as info:
        t0 = time.perf_counter()
        rep7 = exists_enabling(7, 3, 3)
        assert not rep7.found
        assert rep7.graphs_enumerated == 2 ** 21
        rep8 = exists_enabling(8, 3, 3)
        assert rep8.found
        assert min_n(2, 2, 6) == 4
        assert min_n(2, 3, 8) == 6
        dt = time.perf_counter() - t0
        assert dt < 300.0, f"search took {dt:.1f}s"
        info["note"] = (
            f"no (3,3)-enabling colouring among all {rep7.graphs_enumerated} "
            f"on 7 vertices, one exists on 8; n(2,2)=4 and n(2,3)=6 ({dt:.1f}s)"
        )


def test_criterion_3_path_graph_certificate_is_exact():
    with criterion(3) as info:
        t0 = time.perf_counter()
        g = p4_blowup(4)
        res = certify(g, ((0, 2), (1, 2)))
        half = Fraction(1, 2)
        assert [c.delta for c in res.certificates] == [half, half]
        for c in res.certificates:
            assert max(c.mu_vertex_mass) <= c.delta
            assert sum(c.mu.weights) == 1
        assert sum(sum(c.mu.weights) for c in res.certificates) == 2
        assert two_colour_bound(2, 2, half, half) == 4
        assert res.bound == 4 == g.n
        assert res.universal_lower == 4
        dt = time.perf_counter() - t0
        assert dt < 1.0, f"certification took {dt:.3f}s"
        info["note"] = (
            f"two-coloured path on 4 vertices: delta 1/2 in both colours, "
            f"measures tight, bound 4 equals n ({dt * 1000:.0f}ms)"
        )


def test_criterion_4_certificates_for_every_construction():
    with criterion(4) as info:
        t0 = time.perf_counter()
        count = 0
        for k1, k2 in integer_extremal_pairs(200):
            g = two_colour_extremal(k1, k2)
            res = certify(g, ((0, k1), (1, k2)), policy=PER_VERTEX_LEX)
            assert res.bound <= g.n, (k1, k2)
            count += 1
        swept = 0
        for k1 in range(2, 31):
            for k2 in range(k1, 31):
                g = two_colour_extremal(k1, k2)
                res = certify(g, ((0, k1), (1, k2)), policy=PER_VERTEX_LEX)
                doc = json.loads(res.to_json())
                assert check_certificate(g, doc) == [], (k1, k2)
                assert doc["bound"]["ceiling"] == g.n, (k1, k2)
                swept += 1
        count += swept
        for r in range(2, 5):
            for k in range(2, 7):
                g = multicolour_blocks(r, k)
                res = certify(g, tuple((c, k) for c in range(r)), policy=PER_VERTEX_LEX)
                assert res.bound <= g.n, (r, k)
                count += 1
        for p in (2, 3, 5, 7):
            g = prime_slope(p)
            res = certify(g, tuple((c, p) for c in range(p + 1)), policy=PER_VERTEX_LEX)
            assert res.bound <= g.n, p
            count += 1
        dt = time.perf_counter() - t0
        assert dt < 600.0, f"sweep took {dt:.1f}s"
        info["note"] = (
            f"{count} graphs certified with exact measures and clean "
            f"pairwise checks, {swept} two-colour pairs up to (30, 30) re-checked "
            f"with bound ceiling n ({dt:.1f}s)"
        )


def test_criterion_5_four_colours_at_level_three_need_nine_vertices():
    with criterion(5) as info:
        gb = multicolour_blocks(3, 3)
        assert gb.n == 12 and gb.r == 3
        assert verify_enabling(gb, tuple((c, 3) for c in range(3))).ok
        gp = prime_slope(3)
        assert gp.n == 9 and gp.r == 4
        assert verify_enabling(gp, tuple((c, 3) for c in range(4))).ok
        assert gp.n < 2 * 4 * (3 - 1), "should beat the block construction"
        assert multicolour_lower(4, 3) == 9
        assert multicolour_upper(4, 3) == 9
        info["note"] = (
            "blocks give a 3-coloured witness on 12 vertices; slopes over GF(3) "
            "give a 4-coloured one on 9, matching the lower bound exactly"
        )


def test_criterion_6_quadratic_bound_machinery_is_sound():
    with criterion(6) as info:
        t0 = time.perf_counter()
        rng = random.Random(20260814)
        n_random = 100_000
        for _ in range(n_random):
            m = rng.randint(1, 8)
            xs = []
            for _ in range(m):
                den = rng.randint(1, 64)
                xs.append(Fraction(rng.randint(0, den), den))
            assert improved_inequality(xs) >= 0, xs
        n_binary = 0
        for m in range(1, 13):
            for bits in range(2 ** m):
                xs = [Fraction((bits >> i) & 1) for i in range(m)]
                assert improved_inequality(xs) >= 0, xs
                n_binary += 1
        grid = [Fraction(i, 16) for i in range(0, 4 * 16 + 1)]
        for r in range(2, 7):
            for k in range(2, 13):
                vals = [f_max(r, k, x) for x in grid]
                assert all(a <= b for a, b in zip(vals, vals[1:])), (r, k)
        for r in range(2, 11):
            for k in range(2, 21):
                assert f_max(r, k, 2) >= 2 * r * k - 2 * r * (r - 1), (r, k)
        dt = time.perf_counter() - t0
        assert dt < 120.0, f"checks took {dt:.1f}s"
        info["note"] = (
            f"inequality nonnegative on {n_random} random and {n_binary} binary "
            f"vectors; envelope monotone on [0,4]; block value dominated ({dt:.1f}s)"
        )


def test_criterion_8_certificate_at_eight_hundred_vertices():
    with criterion(8) as info:
        notes = []
        for k, n in ((201, 800), (251, 1000), (501, 2000)):
            g = two_colour_extremal(k, k)
            assert g.n == n
            t0 = time.perf_counter()
            res = certify(g, ((0, k), (1, k)), policy=PER_VERTEX_LEX)
            dt = time.perf_counter() - t0
            assert res.bound == res.bound_ceiling == n
            t0 = time.perf_counter()
            assert check_certificate(g, json.loads(res.to_json())) == []
            dt_check = time.perf_counter() - t0
            # The full two-LP path took about 10 s at n = 800; the quotient
            # path well under 1 s.  The bound leaves room for a slow host.
            assert dt < 5.0, f"certification at n={n} took {dt:.2f}s"
            notes.append(f"({k}, {k}) on {n} vertices in {dt:.2f}s + {dt_check:.2f}s")
        info["note"] = (
            "two_colour_extremal certified at its order and re-checked clean: "
            + ", ".join(notes) + " (certify + check)"
        )


def test_criterion_7_every_lp_solve_self_certified(monkeypatch):
    with criterion(7) as info:
        log = []
        simplex, audit = lp._simplex, lp._certify_optimal

        def spy_simplex(problem):
            x, y = simplex(problem)
            log.append(("simplex", x, y))
            return x, y

        def spy_audit(problem, x, y, value):
            log.append(("audit", x, y))
            audit(problem, x, y, value)
            log.append(("passed", x, y))

        monkeypatch.setattr(lp, "_simplex", spy_simplex)
        monkeypatch.setattr(lp, "_certify_optimal", spy_audit)
        cases = [(p4_blowup(n), ((0, n // 4 + 1), (1, n // 4 + 1))) for n in range(4, 16)]
        cases += [
            (multicolour_blocks(r, k), tuple((c, k) for c in range(r)))
            for r in (2, 3, 4) for k in (2, 3, 4, 5)
        ]
        cases += [(prime_slope(p), tuple((c, p) for c in range(p + 1))) for p in (2, 3, 5)]
        cases += [
            (two_colour_extremal(k1, k2), ((0, k1), (1, k2)))
            for k1, k2 in integer_extremal_pairs(40)
        ]
        for g, targets in cases:
            certify(g, targets, policy=PER_VERTEX_LEX)
            if g.n <= 20:
                certify(g, targets, policy=ALL_CLIQUES)
        # Each simplex answer is followed by one audit of that same (x, y),
        # which passes, before the next solve starts.
        assert log and len(log) % 3 == 0
        for i in range(0, len(log), 3):
            (s, x, y), (a, ax, ay), (p, px, py) = log[i : i + 3]
            assert (s, a, p) == ("simplex", "audit", "passed"), log[i : i + 3]
            assert ax is x and ay is y and px is x and py is y
        info["note"] = (
            f"{len(log) // 3} exact LP solves over {len(cases)} graphs, "
            f"each audited once on its own answer and passed"
        )
