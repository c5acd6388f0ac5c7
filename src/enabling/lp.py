"""Exact linear programming over the rationals.

Maximises a linear objective over {x >= 0 : rows . x <= rhs} with every
rhs >= 0, each row given as the pair (coefficients, rhs) and every number
as an int or a Fraction, never cast from another type.  That is the packing
shape of the clique-measure LP: x = 0 is feasible, so the all-slack basis
starts a single run of the tableau simplex with Bland's pivot rule
(smallest eligible index, ties by smallest basic variable), which
terminates on degenerate problems.  The tableau is sparse and
fraction-free: each row is a dict of its nonzero integer numerators over
its own positive denominator in lowest terms.  The objective is the last
row: a pivot eliminates it like any other row, and the duals are read from
it at the slack columns.  A pivot touches only the nonzeros of the rows
with a nonzero in the pivot column.  Nothing is rounded.

Every solve re-checks its own answer against the input rows, never the
tableau: ``_certify_optimal`` verifies primal feasibility, dual signs, dual
feasibility and strong duality with integer dot products over the
nonzeros, and raises AuditFailure, which ``python -O`` keeps, so a solve
that returns has passed its audit.  The same checks run at full size in
``certificates``, on the clique/vertex shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

__all__ = [
    "AuditFailure",
    "LPError",
    "LPSolution",
    "Unbounded",
    "solve_lp_exact",
]


class LPError(Exception):
    """Base class for solver failures."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


class AuditFailure(LPError):
    """A returned solution failed the independent optimality audit."""


@dataclass(frozen=True)
class LPSolution:
    """An optimal vertex together with matching dual multipliers.

    ``value == objective . primal == sum(dual[i] * rhs[i])`` holds exactly,
    and every dual is >= 0.
    """

    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


Constraint = tuple[Sequence, object]


class _Problem(NamedTuple):
    """A maximisation problem scaled to integers.

    Row i reads ``rows[i] . x <= rhs[i]``: the given row times
    ``den[i] > 0``, with only its nonzero coefficients stored.  The given
    objective is ``c / c_den``.
    """

    c: list[int]
    c_den: int
    rows: list[dict[int, int]]
    rhs: list[int]
    den: list[int]


def _integers(*xs) -> None:
    """Raise ValueError on any of xs whose type is not int; bools included."""
    for x in xs:
        if type(x) is not int:
            raise ValueError(f"{x!r} is not an int")


def _rationals(xs: Sequence) -> list[int | Fraction]:
    """xs as a list; an entry not an int or a Fraction raises ValueError."""
    out = list(xs)
    for x in out:
        if type(x) not in (int, Fraction):
            raise ValueError(f"{x!r} is not an int or a Fraction")
    return out


def _common_denominator(xs: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Integers a and one positive d with xs[i] == a[i] / d, so that sums and
    comparisons of the xs become integer arithmetic.  Entries often repeat one
    object (measure values, zero primals), so each distinct one is lifted once."""
    distinct = dict(zip(map(id, xs), xs))
    d = lcm(*(x.denominator for x in distinct.values()))
    lifted = {i: x.numerator * (d // x.denominator) for i, x in distinct.items()}
    return list(map(lifted.__getitem__, map(id, xs))), d


def solve_lp_exact(objective: Sequence, constraints: Sequence[Constraint]) -> LPSolution:
    """Maximise a linear objective over {x >= 0 : constraints} exactly.

    Each constraint is a pair (coefficients, rhs) for coefficients . x <= rhs,
    and every number is an int or a Fraction; any other number, or a
    negative rhs, raises ValueError.  Raises Unbounded as appropriate, and
    AuditFailure if the answer fails its own optimality audit.
    """
    c = _rationals(objective)
    problem = _integerise(c, constraints)
    x, y = _simplex(problem)
    value = sum((a * xi for a, xi in zip(c, x) if a), Fraction(0))
    _certify_optimal(problem, x, y, value)
    return LPSolution(value, tuple(x), tuple(y))


def _integerise(c: list[int | Fraction], constraints: Sequence[Constraint]) -> _Problem:
    """Validate the input and scale each row, and the objective, to integers
    by its least common denominator."""
    nvars = len(c)
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    dens: list[int] = []
    for coeffs, b in constraints:
        *coeffs, b = _rationals([*coeffs, b])
        if len(coeffs) != nvars:
            raise ValueError(
                f"constraint has {len(coeffs)} coefficients, expected {nvars}"
            )
        if b < 0:
            raise ValueError(f"right-hand side {b} is negative: every rhs must be >= 0")
        row = {j: a for j, a in enumerate(coeffs) if a}
        nums, den = _common_denominator([b, *row.values()])
        rows.append(dict(zip(row, nums[1:])))
        rhs.append(nums[0])
        dens.append(den)
    return _Problem(*_common_denominator(c), rows, rhs, dens)


def _simplex(problem: _Problem) -> tuple[list[Fraction], list[Fraction]]:
    c = problem.c
    nvars = len(c)
    m = len(problem.rows)

    # Column layout: structural, one slack per row, rhs.  Rows 0..m-1 are the
    # constraints; row m is the objective, which starts as -c.  Every rhs is
    # >= 0, so the slacks form a feasible starting basis.
    rc = nvars + m
    rows: list[dict[int, int]] = []
    for i, (row, b) in enumerate(zip(problem.rows, problem.rhs)):
        row = {**row, nvars + i: 1}
        if b:
            row[rc] = b
        rows.append(row)
    rows.append({j: -cj for j, cj in enumerate(c) if cj})
    dens = [1] * (m + 1)
    basis = list(range(nvars, rc))

    for _ in range(20000 + 200 * (m + rc)):
        enter = min((j for j, a in rows[m].items() if a < 0 and j < rc), default=-1)
        if enter < 0:
            break
        # Bland ratio test: smallest rhs/entry over positive entries, ties by
        # smallest basic variable.  Row denominators cancel in the ratio.
        # The starting ratio lb/la = 1/0 loses to any row.
        leave, lb, la = -1, 1, 0
        for i in range(m):
            a = rows[i].get(enter, 0)
            if a <= 0:
                continue
            b = rows[i].get(rc, 0)
            diff = b * la - lb * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave, lb, la = i, b, a
        if leave < 0:  # otherwise la > 0: only positive entries are kept
            raise Unbounded(f"objective unbounded along column {enter}")
        # The pivot row divided by its entry: numerators over la, whatever
        # the row's own denominator was.
        prow, p = _reduce(rows[leave], la)
        rows[leave], dens[leave] = prow, p
        for i, row in enumerate(rows):
            f = row.get(enter)
            if f and i != leave:
                rows[i], dens[i] = _eliminate(row, dens[i], prow, p, f)
        basis[leave] = enter
    else:
        raise LPError("pivot limit exceeded")

    # Primal values of the structural variables.
    x = [Fraction(0)] * nvars
    for i in range(m):
        if basis[i] < nvars:
            x[basis[i]] = Fraction(rows[i].get(rc, 0), dens[i])

    # Dual of row i is the objective row's entry at its slack column, mapped
    # back through the row scaling and the objective scaling.
    z, zden = rows[m], dens[m] * problem.c_den
    y = [Fraction(z.get(nvars + i, 0) * problem.den[i], zden) for i in range(m)]
    return x, y


def _reduce(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The same row in lowest terms."""
    if den == 1:
        return row, den
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: a // g for j, a in row.items()}, den // g


def _eliminate(
    row: dict[int, int], den: int, prow: dict[int, int], pden: int, f: int
) -> tuple[dict[int, int], int]:
    """row/den - (f/den) * prow/pden, where f is row's entry in the column
    whose pivot row, normalised to 1 there, is prow/pden."""
    new = {j: a * pden for j, a in row.items()} if pden != 1 else row.copy()
    get = new.get
    for j, b in prow.items():
        v = get(j, 0) - f * b
        if v:
            new[j] = v
        else:
            del new[j]
    return _reduce(new, den * pden)


def _certify_optimal(
    problem: _Problem, x: list[Fraction], y: list[Fraction], value: Fraction
) -> None:
    """Independent optimality proof for the maximisation problem.

    Primal feasibility, dual signs, dual feasibility and strong duality
    together certify optimality of both solutions.  x is put over one
    common denominator and y, divided by the row scales, over another, so
    every check is an integer dot product over the input's nonzeros.  Any
    failure is a solver bug, raised as AuditFailure.
    """
    if len(x) != len(problem.c) or len(y) != len(problem.rows):
        raise AuditFailure("solution has the wrong number of entries")
    xn, xden = _common_denominator(x)
    if any(xi < 0 for xi in xn):
        raise AuditFailure("primal variable went negative")
    for row, b in zip(problem.rows, problem.rhs):
        if sum(a * xn[j] for j, a in row.items()) > b * xden:
            raise AuditFailure("primal constraint violated on a <= row")
    if any(yi < 0 for yi in y):
        raise AuditFailure("dual sign violated on a <= row")

    # Row i is the given row times den[i], so its dual is y[i] / den[i].
    w = [Fraction(yi.numerator, yi.denominator * d) for yi, d in zip(y, problem.den)]
    wn, wden = _common_denominator(w)
    # sum_i y_i a_ij >= c_j, times c_den * wden.
    reduced = [0] * len(problem.c)
    for wi, row in zip(wn, problem.rows):
        if wi:
            for j, a in row.items():
                reduced[j] += wi * a
    c_den = problem.c_den
    for rj, cj in zip(reduced, problem.c):
        if rj * c_den < cj * wden:
            raise AuditFailure("dual constraint violated")

    primal = sum(cj * xj for cj, xj in zip(problem.c, xn) if cj)
    dual = sum(wi * b for wi, b in zip(wn, problem.rhs) if wi)
    if (
        primal * value.denominator != value.numerator * c_den * xden
        or dual * value.denominator != value.numerator * wden
    ):
        raise AuditFailure("strong duality failed")
