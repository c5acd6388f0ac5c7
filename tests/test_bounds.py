import json
import os
import random
import re
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import enabling
from enabling.bounds import (
    f_eval,
    f_max,
    improved_inequality,
    max_enabling_level,
    multicolour_lower,
    multicolour_report,
    multicolour_upper,
    two_colour_lower,
    two_colour_report,
)
from enabling.certificates import two_colour_bound
from enabling.constructions import (
    integer_extremal_pairs,
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import monochromatic_complete


def test_two_colour_lower_known_values():
    assert two_colour_lower(2, 2) == 4
    assert two_colour_lower(3, 3) == 8
    assert two_colour_lower(5, 5) == 16
    assert two_colour_lower(3, 9) == 18
    assert two_colour_lower(9, 3) == 18
    assert two_colour_lower(2, 3) == 6  # ceil(3 + 2*sqrt(2))
    assert two_colour_lower(1, 7) == 7  # a size-7 clique needs 7 vertices
    assert two_colour_lower(1, 1) == 1


def test_two_colour_lower_is_exact_ceiling_of_the_square():
    for k1 in range(2, 40):
        for k2 in range(2, 40):
            a, b = k1 - 1, k2 - 1
            got = two_colour_lower(k1, k2)
            # compare against the ceiling computed through isqrt(4ab)
            s = a + b + (isqrt(4 * a * b) + 1 + (0 if isqrt(4 * a * b) ** 2 == 4 * a * b else 0))
            # direct check: got-1 < (sqrt(a)+sqrt(b))^2 <= got
            # i.e. (got-1-a-b)^2 < 4ab and, unless square, (got-a-b)^2 >= 4ab
            t = got - a - b
            assert (t - 1) ** 2 < 4 * a * b or t == 0
            assert t * t >= 4 * a * b


def test_symmetric_diagonal_is_4k_minus_4():
    for k in (2, 3, 10, 1000, 10**6):
        assert two_colour_lower(k, k) == 4 * k - 4


def test_max_enabling_level_conjectured_value():
    assert max_enabling_level(4) == 2
    assert max_enabling_level(7) == 2
    assert max_enabling_level(8) == 3
    assert max_enabling_level(200) == 51


def test_improved_inequality_values():
    assert improved_inequality([1, 1]) == 0
    assert improved_inequality([F(1, 2)]) == F(1, 2)
    assert improved_inequality([0, 0, 0]) == 1
    # m = 2: (1-x)(1-y) >= 0 rearranged
    assert improved_inequality([F(1, 3), F(3, 4)]) == (1 - F(1, 3)) * (1 - F(3, 4))


def test_improved_inequality_rejects_out_of_range():
    with pytest.raises(ValueError):
        improved_inequality([F(3, 2)])
    with pytest.raises(ValueError):
        improved_inequality([F(-1, 10)])


@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=8))
def test_improved_inequality_nonnegative_property(xs):
    assert improved_inequality(xs) >= 0


def test_f_eval_and_f_max_shapes():
    assert f_eval(1, 3, 2) == 6
    assert f_eval(2, 3, 2) == 8
    assert f_eval(3, 3, 2) == 6
    assert f_max(3, 3, 2) == 8
    assert f_max(1, 5, F(7, 2)) == f_eval(1, 5, F(7, 2))


def test_f_max_monotone_in_x_on_grid():
    for r in range(2, 7):
        for k in range(2, 13):
            prev = None
            for i in range(0, 4 * 16 + 1):
                x = F(i, 16)
                cur = f_max(r, k, x)
                if prev is not None:
                    assert cur >= prev
                prev = cur


def test_f_max_at_two_dominates_block_count_formula():
    for r in range(1, 11):
        for k in range(2, 21):
            assert f_max(r, k, 2) >= 2 * r * k - 2 * r * (r - 1)


def test_multicolour_bounds_known_values():
    assert multicolour_lower(2, 3) == 8
    assert multicolour_upper(2, 3) == 8
    assert multicolour_lower(4, 3) == 9
    assert multicolour_upper(4, 3) == 9  # prime grid beats the blocks
    assert multicolour_upper(3, 3) == 12
    assert multicolour_lower(3, 3) == 8


def test_multicolour_sandwich_and_trivial_floor():
    for r in range(2, 8):
        for k in range(2, 9):
            lo, hi = multicolour_lower(r, k), multicolour_upper(r, k)
            assert r * (k - 1) + 1 <= lo <= hi
            assert hi <= 2 * r * (k - 1)


def test_multicolour_lower_and_upper_are_the_report_fields():
    for r in range(2, 13):
        for k in range(2, 13):
            report = multicolour_report(r, k)
            assert (multicolour_lower(r, k), multicolour_upper(r, k)) == (
                report.lower, report.upper)


def test_multicolour_lower_integrality_guard_survives_optimisation_flag():
    """A fractional quadratic bound raises LemmaViolation under python -O
    instead of being truncated by int()."""
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from enabling import bounds

        assert False, "asserts must be stripped in this run"
        bounds.f_max = lambda r, k, x: Fraction(17, 2)
        try:
            bounds.multicolour_lower(3, 3)
        except bounds.LemmaViolation as exc:
            print("rejected:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(enabling.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    assert out == "rejected: f_max(3, 3, 2) = 17/2 is not an integer\n"


def test_two_colour_report_contents():
    rep = two_colour_report(3, 3)
    assert rep.lower == 8 and rep.upper == 8 and rep.exact == 8
    prov = dict(rep.provenance)
    assert prov["sqrt_sum_squared"] == 8
    assert prov["extremal_construction"] == 8

    rep = two_colour_report(2, 3)
    assert rep.lower == rep.upper == rep.exact == 6
    prov = dict(rep.provenance)
    assert prov["sqrt_sum_squared"] == "3 + 2*sqrt(2)"
    assert prov["sqrt_sum_ceiling"] == 6
    assert prov["extremal_construction"] == 6

    for k1 in range(2, 30):
        for k2 in range(2, 30):
            rep = two_colour_report(k1, k2)
            assert rep.exact == rep.upper == rep.lower == two_colour_lower(k1, k2)


def test_two_colour_report_handles_unit_targets():
    rep = two_colour_report(1, 7)
    assert rep.lower == rep.upper == rep.exact == 7


@pytest.mark.parametrize("k1,k2", [(0, 3), (3, 0), (-1, -1)])
def test_two_colour_bounds_reject_a_target_below_one(k1, k2):
    text = rf"^clique targets must be positive, got \({k1}, {k2}\)$"
    for bound in (two_colour_lower, two_colour_report):
        with pytest.raises(ValueError, match=text):
            bound(k1, k2)


def test_multicolour_report_contents():
    rep = multicolour_report(4, 3)
    assert rep.lower == 9 and rep.upper == 9 and rep.exact == 9
    prov = dict(rep.provenance)
    assert prov["prime_slope"] == 9

    rep = multicolour_report(3, 4)
    assert rep.exact is None
    assert rep.lower <= rep.upper


def test_report_json_has_sorted_scalar_shape():
    doc = two_colour_report(3, 9).to_json_dict()
    assert doc["lower"] == 18
    assert isinstance(doc["provenance"], list)


def _old_spellings(k1, k2):
    """The five perfect-square tests of (k1-1)(k2-1) as they were written out
    before sharing one helper."""
    a, b = k1 - 1, k2 - 1
    root4 = isqrt(4 * a * b)
    lower = max(k1, k2, a + b + root4 if root4 * root4 == 4 * a * b else a + b + root4 + 1)
    root = isqrt(a * b)
    square = a + b + 2 * root if root * root == a * b else f"{a + b} + 2*sqrt({a * b})"
    t, x, parts = root4 if root4 * root4 == 4 * a * b else root4 + 1, 1, None
    if min(k1, k2) >= 2:
        while x * (t - x) < a * b:
            x += 1
        parts = a, b, x, t - x
    pair = root * root == a * b and k1 + k2 - 2 + 2 * root
    stationary = F(a, a + root) if a > 0 and b > 0 and root * root == a * b else None
    return lower, square, parts, pair, stationary


def test_one_perfect_square_helper_keeps_every_output():
    from enabling.bounds import _sqrt_sum_squared
    from enabling.certificates import two_colour_bound
    from enabling.constructions import _extremal_parts, integer_extremal_pairs

    pairs = set(integer_extremal_pairs(60))
    for k1 in range(1, 61):
        for k2 in range(1, 61):
            lower, square, parts, pair, stationary = _old_spellings(k1, k2)
            assert two_colour_lower(k1, k2) == lower
            assert _sqrt_sum_squared(k1, k2) == square
            if parts is not None:
                assert _extremal_parts(k1, k2) == parts
            assert ((k1, k2) in pairs) == (bool(pair) and pair <= 60 and min(k1, k2) >= 2)
            # With delta1 = stationary = 1 - delta2 the interval collapses
            # to the point; otherwise the bound is at an endpoint.
            d = stationary if stationary is not None else F(1, 3)
            a, b = k1 - 1, k2 - 1
            expected = a / d + b / (1 - d)
            assert two_colour_bound(k1, k2, d, 1 - d) == expected


def test_multicolour_report_has_no_block_formula_entry():
    for r in range(2, 11):
        for k in range(2, 11):
            prov = dict(multicolour_report(r, k).provenance)
            assert "block_formula" not in prov
            assert set(prov) <= {"pigeonhole", "quadratic_at_2", "block_construction",
                                 "prime_slope"}
            # The dropped value 2rk - 2r(r-1) is f_eval(r, k, 2), so the
            # reported quadratic bound is never below it.
            assert prov["quadratic_at_2"] >= 2 * r * k - 2 * r * (r - 1) == f_eval(r, k, 2)


# Each bound function with one argument left open: a measure value, or an
# integer parameter.
MEASURE_SLOTS = {
    "f_eval": lambda x: f_eval(2, 3, x),
    "f_max": lambda x: f_max(2, 3, x),
    "improved_inequality": lambda x: improved_inequality([F(1, 2), x]),
    "two_colour_bound_delta1": lambda x: two_colour_bound(3, 3, x, F(1, 4)),
    "two_colour_bound_delta2": lambda x: two_colour_bound(3, 3, F(1, 4), x),
}
INTEGER_SLOTS = {
    "f_eval_m": lambda m: f_eval(m, 3, 1),
    "f_eval_k": lambda k: f_eval(2, k, 1),
    "f_max_r": lambda r: f_max(r, 3, 1),
    "f_max_k": lambda k: f_max(2, k, 1),
    "two_colour_bound_k1": lambda k: two_colour_bound(k, 3, F(1, 4), F(1, 4)),
    "two_colour_bound_k2": lambda k: two_colour_bound(3, k, F(1, 4), F(1, 4)),
}


@pytest.mark.parametrize("bad", [0.5, 0.1, "1/4", Decimal("0.5"), True], ids=repr)
@pytest.mark.parametrize("slot", MEASURE_SLOTS)
def test_a_measure_value_is_an_int_or_a_fraction_never_cast(slot, bad):
    # Fraction(0.1) is 3602879701896397/2**55, and Fraction("1/4") a parse.
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not an int "
                                         r"or a Fraction$"):
        MEASURE_SLOTS[slot](bad)


@pytest.mark.parametrize("bad", [0.5, 3.0, "3", Decimal(3), F(3), True], ids=repr)
@pytest.mark.parametrize("slot", INTEGER_SLOTS)
def test_an_integer_parameter_is_an_int(slot, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not an int$"):
        INTEGER_SLOTS[slot](bad)


PUBLIC_INTEGER_SLOTS = {
    "p4_blowup": p4_blowup,
    "two_colour_extremal_k1": lambda k: two_colour_extremal(k, 3),
    "two_colour_extremal_k2": lambda k: two_colour_extremal(3, k),
    "multicolour_blocks_r": lambda r: multicolour_blocks(r, 3),
    "multicolour_blocks_k": lambda k: multicolour_blocks(3, k),
    "prime_slope": prime_slope,
    "integer_extremal_pairs": integer_extremal_pairs,
    "monochromatic_complete_n": monochromatic_complete,
    "monochromatic_complete_r": lambda r: monochromatic_complete(3, r),
    "monochromatic_complete_colour": lambda c: monochromatic_complete(3, 4, c),
    "two_colour_lower_k1": lambda k: two_colour_lower(k, 3),
    "two_colour_lower_k2": lambda k: two_colour_lower(3, k),
    "two_colour_report_k1": lambda k: two_colour_report(k, 3),
    "two_colour_report_k2": lambda k: two_colour_report(3, k),
    "multicolour_report_r": lambda r: multicolour_report(r, 3),
    "multicolour_report_k": lambda k: multicolour_report(4, k),
    "max_enabling_level": max_enabling_level,
}


@pytest.mark.parametrize("bad", [3.0, True, "3"], ids=repr)
@pytest.mark.parametrize("slot", PUBLIC_INTEGER_SLOTS)
def test_every_public_integer_parameter_refuses_what_is_not_an_int(slot, bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} is not an int$"):
        PUBLIC_INTEGER_SLOTS[slot](bad)
    PUBLIC_INTEGER_SLOTS[slot](4 if slot == "p4_blowup" else 3)


def test_ints_and_fractions_keep_their_values():
    assert [MEASURE_SLOTS[s](F(1, 4)) for s in MEASURE_SLOTS] == [
        F(23, 16), F(23, 16), F(3, 8), F(32, 3), F(32, 3)]
    assert [INTEGER_SLOTS[s](3) for s in INTEGER_SLOTS] == [
        6, 5, 6, 5, F(32, 3), F(32, 3)]
    assert f_eval(2, 3, 2) == f_max(2, 3, 2) == 8 and improved_inequality([0, 1]) == 0


def _f_max_by_scan(r, k, x):
    return max(f_eval(m, k, x) for m in range(r + 1))


def test_f_max_equals_the_scan_over_every_m():
    xs = [0, 1, 2, 3, 7, -1, -2, -5, F(1, 2), F(-1, 3), F(7, 5), F(-9, 4), F(1, 7)]
    for r in range(31):
        for k in range(-3, 13):
            for x in xs:
                best = f_max(r, k, x)
                assert best == _f_max_by_scan(r, k, x), (r, k, x)
                assert type(best) is F


def test_f_max_checks_r_then_k_and_x_before_any_vertex():
    with pytest.raises(ValueError, match=r"^need r >= 0, got -1$"):
        f_max(-1, 0.5, 2)
    with pytest.raises(ValueError, match=r"^0\.5 is not an int$"):
        f_max(3, 0.5, 0)
    with pytest.raises(ValueError, match=r"^2\.0 is not an int or a Fraction$"):
        f_max(3, 2, 2.0)


def test_negative_sizes_are_refused():
    with pytest.raises(ValueError, match=r"^need m >= 0, got -1$"):
        f_eval(-1, 3, 2)
    with pytest.raises(ValueError, match=r"^need at least one vertex, got n=0$"):
        max_enabling_level(0)


def _bound_cli(*argv, timeout):
    src = os.path.dirname(os.path.dirname(enabling.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-m", "enabling.cli", "bound", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("argv,doc", [
    (["--multicolour", "1000000000", "3"],
     {"exact": None, "lower": 2000000001, "upper": 4000000000,
      "provenance": [["pigeonhole", 2000000001], ["quadratic_at_2", 8],
                     ["block_construction", 4000000000]]}),
    (["--two-colour", "1000000001", "1000000001"],
     {"exact": 4000000000, "lower": 4000000000, "upper": 4000000000,
      "provenance": [["sqrt_sum_squared", 4000000000],
                     ["extremal_construction", 4000000000]]}),
    # On the r = k + 1 line the answer rests on k being prime.
    (["--multicolour", "9999999999999938", "9999999999999937"],
     {"exact": 99999999999998740000000000003969,
      "lower": 99999999999998740000000000003969,
      "provenance": [["pigeonhole", 99999999999998740000000000003969],
                     ["quadratic_at_2", 49999999999999380000000000001922],
                     ["block_construction", 199999999999997480000000000007936],
                     ["prime_slope", 99999999999998740000000000003969]],
      "upper": 99999999999998740000000000003969}),
    (["--multicolour", "99999999999999998", "99999999999999997"],
     {"exact": 9999999999999999400000000000000009,
      "lower": 9999999999999999400000000000000009,
      "provenance": [["pigeonhole", 9999999999999999400000000000000009],
                     ["quadratic_at_2", 4999999999999999800000000000000002],
                     ["block_construction", 19999999999999998800000000000000016],
                     ["prime_slope", 9999999999999999400000000000000009]],
      "upper": 9999999999999999400000000000000009}),
], ids=["multicolour", "two-colour", "prime-line-16-digits", "prime-line-17-digits"])
def test_bound_answers_huge_parameters_in_closed_form(argv, doc):
    # A scan over m or over the part sizes would take minutes here, and a
    # primality test by trial division 5 to 20 s on the prime line.
    res = _bound_cli(*argv, timeout=5)
    assert (res.returncode, res.stderr) == (0, "")
    assert json.loads(res.stdout) == doc


def test_bound_on_the_prime_line_refuses_a_k_it_cannot_prove_prime():
    # k = 2**89 - 1 is prime, but Miller-Rabin to the bases 2..41 proves
    # primality only below 3.3 * 10**24, and the upper bound rests on it.
    k = 2**89 - 1
    res = _bound_cli("--multicolour", str(k + 1), str(k), timeout=30)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith(f"error: cannot prove {k} prime: ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_bound_on_the_prime_line_answers_for_a_proven_composite_k():
    k = 2**89 + 1  # divisible by 3
    res = _bound_cli("--multicolour", str(k + 1), str(k), timeout=30)
    assert (res.returncode, res.stderr) == (0, "")
    names = [name for name, _ in json.loads(res.stdout)["provenance"]]
    assert names == ["pigeonhole", "quadratic_at_2", "block_construction"]
