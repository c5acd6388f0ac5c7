import itertools
import os
import random
import re
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

import enabling.lp as lp
from enabling.lp import AuditFailure, Unbounded, solve_lp_exact


# --- oracle: enumerate basic feasible points of a pointed region -------------


def _solve_square(A, b):
    n = len(A)
    M = [list(map(F, row)) + [F(b[i])] for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        inv = M[col][col]
        M[col] = [x / inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def brute_lp_max(objective, constraints):
    """Best objective over all vertices of the feasible region.

    Assumes x >= 0 plus a bounding row, so the region is a polytope and the
    optimum (if the region is nonempty) sits at some vertex, i.e. at a point
    where nvars of the defining hyperplanes intersect.
    """
    nv = len(objective)
    planes = [(list(map(F, a)), F(b)) for a, b in constraints]
    for i in range(nv):
        planes.append(([F(int(i == j)) for j in range(nv)], F(0)))
    best = None
    arg = None
    for combo in itertools.combinations(range(len(planes)), nv):
        x = _solve_square([planes[i][0] for i in combo], [planes[i][1] for i in combo])
        if x is None or any(v < 0 for v in x):
            continue
        if any(sum(F(ai) * xi for ai, xi in zip(a, x)) > F(b)
               for a, b in constraints):
            continue
        val = sum(F(c) * xi for c, xi in zip(objective, x))
        if best is None or val > best:
            best, arg = val, x
    return best, arg


# --- fixed instances ---------------------------------------------------------


def test_textbook_two_variable_maximum():
    sol = solve_lp_exact([1, 1], [([1, 2], 4), ([3, 1], 6)])
    assert sol.value == F(14, 5)
    assert sol.primal == (F(8, 5), F(6, 5))


def test_beale_degenerate_instance_terminates():
    # classic cycling example; Bland's rule must reach the optimum
    sol = solve_lp_exact(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], 0),
            ([F(1, 2), -90, F(-1, 50), 3], 0),
            ([0, 0, 1, 0], 1),
        ],
    )
    assert sol.value == F(1, 20)
    assert sol.primal == (F(1, 25), F(0), F(1), F(0))
    assert sol.dual == (F(0), F(3, 2), F(1, 20))


def test_unbounded_objective_raises():
    with pytest.raises(Unbounded):
        solve_lp_exact([1, 0], [([-1, 1], 1)])


def test_zero_rhs_start_is_fine():
    sol = solve_lp_exact([1], [([1], 0)])
    assert sol.value == 0


def test_input_validation():
    with pytest.raises(ValueError):
        solve_lp_exact([1, 1], [([1], 0)])
    # The objective is held to the same numbers as the rows.
    for bad in (0.5, True, "1", Decimal(1)):
        text = f"^{re.escape(repr(bad))} is not an int or a Fraction$"
        with pytest.raises(ValueError, match=text):
            solve_lp_exact([bad], [([1], 1)])


# Every number is an int or a Fraction: anything else is refused, not cast.
REFUSED = [
    ([([1], 0.1)], "0.1 is not an int or a Fraction"),
    ([([True], 1)], "True is not an int or a Fraction"),
    ([([1], -2)], "right-hand side -2 is negative"),
    # A refused row after a valid one still refuses the whole problem.
    ([([1], 1), ([1], F(-1, 2))], "right-hand side -1/2 is negative"),
    ([([1], "1")], "'1' is not an int or a Fraction"),
    ([([Decimal("0.5")], 1)], r"Decimal\('0.5'\) is not an int or a Fraction"),
    ([([1], False)], "False is not an int or a Fraction"),
    ([([1.0], 1)], "1.0 is not an int or a Fraction"),
]


def _spy(monkeypatch):
    """Log each call of lp._simplex and lp._certify_optimal: ("simplex", x, y)
    for each answer, ("audit", x, y) as each audit starts and ("passed", x, y)
    as it returns."""
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
    return log


@pytest.mark.parametrize("constraints, match", REFUSED)
def test_rows_outside_the_packing_shape_are_refused(constraints, match, monkeypatch):
    log = _spy(monkeypatch)
    with pytest.raises(ValueError, match=match):
        solve_lp_exact([1], constraints)
    assert log == []


def test_there_is_no_minimise_switch(monkeypatch):
    log = _spy(monkeypatch)
    with pytest.raises(TypeError):
        solve_lp_exact([1], [([1], 1)], maximize=False)
    assert log == []


def test_duals_satisfy_signs_and_strong_duality():
    # The third row is slack at the optimum, so its dual is zero.
    cons = [([1, 2], 4), ([3, 1], 6), ([1, 1], 3)]
    sol = solve_lp_exact([1, 1], cons)
    assert sol.dual[0] > 0 and sol.dual[1] > 0 and sol.dual[2] == 0
    assert sum(y * F(b) for y, (_, b) in zip(sol.dual, cons)) == sol.value


def test_each_solve_is_audited_once_on_its_own_answer(monkeypatch):
    log = _spy(monkeypatch)
    sols = [
        solve_lp_exact([1], [([1], 5)]),
        solve_lp_exact([F(1, 2), 1], [([1, 1], 9), ([1, 0], 2)]),
    ]
    assert [kind for kind, _, _ in log] == ["simplex", "audit", "passed"] * 2
    for sol, solve in zip(sols, (log[:3], log[3:])):
        (_, x, y), *audit = solve
        assert all(ax is x and ay is y for _, ax, ay in audit)
        assert sol.primal == tuple(x) and sol.dual == tuple(y)


# --- randomised cross-check against the vertex oracle ------------------------


def _random_bounded_lp(rng, nv):
    rows = []
    for _ in range(rng.randint(1, 4)):
        rows.append(
            (
                [rng.randint(-3, 3) for _ in range(nv)],
                rng.randint(0, 6),
            )
        )
    rows.append(([1] * nv, rng.randint(1, 8)))  # keeps the region bounded
    obj = [rng.randint(-4, 4) for _ in range(nv)]
    return obj, rows


def _assert_duals_optimal(objective, constraints, sol):
    """Dual signs, dual feasibility and strong duality, in Fractions."""
    assert all(y >= 0 for y in sol.dual)
    for j, c in enumerate(objective):
        assert sum(y * F(a[j]) for y, (a, _) in zip(sol.dual, constraints)) >= c
    assert sum(y * F(b) for y, (_, b) in zip(sol.dual, constraints)) == sol.value


def test_random_le_systems_match_oracle():
    # Four rows through the optimum (1, 1) of a two-variable problem: a
    # degenerate vertex, ahead of the random instances.
    instances = [
        ([1, 1], [([1, -1], 0), ([1, 1], 2), ([1, 0], 1),
                  ([2, -1], 1)]),
    ]
    rng = random.Random(20260814)
    for _ in range(120):
        instances.append(_random_bounded_lp(rng, rng.randint(1, 3)))
    for obj, rows in instances:
        expected, _ = brute_lp_max(obj, rows)
        sol = solve_lp_exact(obj, rows)
        assert sol.value == expected
        _assert_duals_optimal(obj, rows, sol)


# --- the optimality audit rejects every wrong answer --------------------------

# Fraction coefficients and right-hand sides, as the mu LP has, so the audit's
# row scaling is exercised.  The middle row is slack at the optimum
# x = (2, 3/2), y = (4/3, 0, 1/3), value 7/2.
AUDIT_OBJECTIVE = [1, 1]
AUDIT_ROWS = [
    ([F(1, 2), 1], F(5, 2)),
    ([1, F(1, 3)], F(10, 3)),
    ([1, -1], F(1, 2)),
]
AUDIT_X = [F(2), F(3, 2)]
AUDIT_Y = [F(4, 3), F(0), F(1, 3)]
AUDIT_VALUE = F(7, 2)


def _audit(x=AUDIT_X, y=AUDIT_Y, value=AUDIT_VALUE):
    problem = lp._integerise(AUDIT_OBJECTIVE, AUDIT_ROWS)
    lp._certify_optimal(problem, list(x), list(y), value)


def test_audit_accepts_the_optimum():
    sol = solve_lp_exact(AUDIT_OBJECTIVE, AUDIT_ROWS)
    assert list(sol.primal) == AUDIT_X and list(sol.dual) == AUDIT_Y
    assert sol.value == AUDIT_VALUE
    _audit()


AUDIT_CASES = [
    ([F(-1), F(3, 2)], AUDIT_Y, AUDIT_VALUE, "primal variable went negative"),
    ([F(5), F(5)], AUDIT_Y, AUDIT_VALUE, "violated on a <= row"),
    # over the first row by a hair, and over the last row alone
    ([F(2), F(3, 2) + F(1, 10**9)], AUDIT_Y, AUDIT_VALUE, "violated on a <= row"),
    ([F(3), F(0)], AUDIT_Y, AUDIT_VALUE, "violated on a <= row"),
    (AUDIT_X, [F(-1), F(0), F(1, 3)], AUDIT_VALUE, "dual sign violated on a <= row"),
    (AUDIT_X, [F(4, 3), F(-1, 7), F(1, 3)], AUDIT_VALUE,
     "dual sign violated on a <= row"),
    (AUDIT_X, [F(0), F(0), F(0)], AUDIT_VALUE, "dual constraint violated"),
    (AUDIT_X, [F(4, 3), F(0), F(1, 3) - F(1, 10**9)], AUDIT_VALUE,
     "dual constraint violated"),
    # dual feasible but not optimal: a gap of 5/2
    (AUDIT_X, [F(7, 3), F(0), F(1, 3)], AUDIT_VALUE, "strong duality failed"),
    # a feasible primal that is not optimal
    ([F(1, 2), F(0)], AUDIT_Y, F(1, 2), "strong duality failed"),
    # the right pair with a misreported value
    (AUDIT_X, AUDIT_Y, AUDIT_VALUE + F(1, 6), "strong duality failed"),
    (AUDIT_X[:1], AUDIT_Y, AUDIT_VALUE, "wrong number of entries"),
]


@pytest.mark.parametrize("x, y, value, match", AUDIT_CASES)
def test_audit_rejects_wrong_solutions(x, y, value, match):
    with pytest.raises(AuditFailure, match=match):
        _audit(x, y, value)


def test_wrong_simplex_answer_fails_the_solve(monkeypatch):
    wrong = (AUDIT_X, [F(0)] * 3)
    monkeypatch.setattr(lp, "_simplex", lambda problem: wrong)
    log = _spy(monkeypatch)
    with pytest.raises(AuditFailure, match="dual constraint violated"):
        solve_lp_exact(AUDIT_OBJECTIVE, AUDIT_ROWS)
    # The wrong answer reached the audit once and did not pass it.
    assert log == [("simplex", *wrong), ("audit", *wrong)]


def test_audit_survives_optimisation_flag():
    """Under python -O the audit still rejects every case above, and a solve
    whose simplex answer is wrong raises instead of counting as certified."""
    code = textwrap.dedent(
        f"""
        from fractions import Fraction
        import enabling.lp as lp

        assert False, "asserts must be stripped in this run"
        rows = {AUDIT_ROWS!r}
        problem = lp._integerise({AUDIT_OBJECTIVE!r}, rows)
        for x, y, value, _ in {AUDIT_CASES!r}:
            try:
                lp._certify_optimal(problem, x, y, value)
            except lp.AuditFailure as exc:
                print("rejected:", exc)
            else:
                print("accepted")
        lp._simplex = lambda problem: ({AUDIT_X!r}, [Fraction(0)] * 3)
        audit, audits = lp._certify_optimal, []

        def spy(problem, x, y, value):
            audits.append("audited")
            audit(problem, x, y, value)
            audits.append("passed")

        lp._certify_optimal = spy
        try:
            lp.solve_lp_exact({AUDIT_OBJECTIVE!r}, rows)
        except lp.AuditFailure as exc:
            print("rejected:", exc)
        else:
            print("returned")
        print(audits)
        """
    )
    src = os.path.dirname(os.path.dirname(lp.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.splitlines()
    assert len(out) == len(AUDIT_CASES) + 2
    for line, (_, _, _, match) in zip(out, AUDIT_CASES):
        assert line.startswith("rejected: ") and match in line
    assert out[-2] == "rejected: dual constraint violated"
    assert out[-1] == "['audited']"


@given(
    st.lists(st.integers(-50, 50) | st.fractions(max_denominator=60), max_size=8),
    st.lists(st.integers(0, 7), max_size=16),
)
@example([], [])
def test_common_denominator_lifts_ints_and_fractions(pool, picks):
    # picks repeat objects of the pool, which are lifted once and reused.
    xs = pool + [pool[i] for i in picks if i < len(pool)]
    a, d = lp._common_denominator(xs)
    assert d == lcm(*(F(x).denominator for x in xs))
    assert len(a) == len(xs) and {type(ai) for ai in a} <= {int}
    assert all(F(ai, d) == x for ai, x in zip(a, xs))
    if not xs:
        assert (a, d) == ([], 1)
