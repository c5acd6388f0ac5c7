"""Exact linear programming over the rationals.

A two-phase tableau simplex with Bland's pivot rule (smallest eligible
index, ties by smallest basic variable), which terminates on degenerate
problems.  The tableau is sparse and fraction-free: each row, and the
objective row, is a dict of its nonzero integer numerators over its own
positive denominator in lowest terms, and a pivot touches only the nonzeros
of the rows with a nonzero in the pivot column.  Nothing is rounded.

Every solve re-checks its own answer against the input rows, never the
tableau: ``_certify_optimal`` verifies primal feasibility, dual signs, dual
feasibility and strong duality with integer dot products over the
nonzeros, and raises AuditFailure, which ``python -O`` keeps.  The same
checks run at full size in ``certificates``, on the clique/vertex shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

__all__ = [
    "EQ",
    "GE",
    "LE",
    "AuditFailure",
    "Infeasible",
    "LPError",
    "LPSolution",
    "Unbounded",
    "solve_lp_exact",
]

LE = "<="
GE = ">="
EQ = "=="

_RELATIONS = (LE, GE, EQ)

# Running tally of solves and of solves whose primal/dual pair passed the
# independent optimality audit.  The two counts must always agree.
SOLVE_STATS = {"solves": 0, "certified": 0}


class LPError(Exception):
    """Base class for solver failures."""


class Infeasible(LPError):
    """The constraint system admits no nonnegative solution."""


class Unbounded(LPError):
    """The objective is unbounded over the feasible region."""


class AuditFailure(LPError):
    """A returned solution failed the independent optimality audit."""


@dataclass(frozen=True)
class LPSolution:
    """An optimal vertex together with matching dual multipliers.

    ``value == objective . primal == sum(dual[i] * rhs[i])`` holds exactly.
    For a maximisation problem the duals satisfy y >= 0 on <= rows and
    y <= 0 on >= rows; for minimisation the signs are reversed.
    """

    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]


Constraint = tuple[Sequence, str, object]


class _Problem(NamedTuple):
    """A maximisation problem scaled to integers.

    Row i reads ``rows[i] . x  rels[i]  rhs[i]``: the given row times
    ``den[i] > 0``, with only its nonzero coefficients stored.  The given
    objective is ``c / c_den``.
    """

    c: list[int]
    c_den: int
    rows: list[dict[int, int]]
    rels: list[str]
    rhs: list[int]
    den: list[int]


def _rational(x) -> int | Fraction:
    # Ints and Fractions both carry .numerator and .denominator already.
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _scale(values: Sequence, den: int) -> list[int]:
    return [a.numerator * (den // a.denominator) for a in values]


def solve_lp_exact(
    objective: Sequence, constraints: Sequence[Constraint], maximize: bool = True
) -> LPSolution:
    """Optimise a linear objective over {x >= 0 : constraints} exactly.

    Each constraint is a triple (coefficients, relation, rhs) with relation
    one of "<=", ">=", "==".  Raises Infeasible or Unbounded as appropriate,
    and AuditFailure if the answer fails its own optimality audit.
    """
    c = [_rational(x) for x in objective]
    if not maximize:
        sol = solve_lp_exact([-x for x in c], constraints, maximize=True)
        return LPSolution(-sol.value, sol.primal, tuple(-y for y in sol.dual))

    problem = _integerise(c, constraints)
    x, y = _simplex(problem)
    value = sum((a * xi for a, xi in zip(c, x) if a), Fraction(0))
    # An infeasible or unbounded run raises above and is not a solve; any
    # completed solve must certify, so the two counters stay equal.
    SOLVE_STATS["solves"] += 1
    _certify_optimal(problem, x, y, value)
    SOLVE_STATS["certified"] += 1
    return LPSolution(value, tuple(x), tuple(y))


def _integerise(c: list[int | Fraction], constraints: Sequence[Constraint]) -> _Problem:
    """Validate the input and scale each row, and the objective, to integers
    by its least common denominator."""
    nvars = len(c)
    c_den = lcm(*(a.denominator for a in c))
    rows: list[dict[int, int]] = []
    rels: list[str] = []
    rhs: list[int] = []
    dens: list[int] = []
    for coeffs, rel, b in constraints:
        # _rational, inlined: this runs once per coefficient.
        coeffs = [
            x if isinstance(x, (int, Fraction)) else Fraction(x) for x in coeffs
        ]
        if len(coeffs) != nvars:
            raise ValueError(
                f"constraint has {len(coeffs)} coefficients, expected {nvars}"
            )
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        row = {j: a for j, a in enumerate(coeffs) if a}
        b = _rational(b)
        den = lcm(b.denominator, *(a.denominator for a in row.values()))
        rows.append({j: a.numerator * (den // a.denominator) for j, a in row.items()})
        rels.append(rel)
        rhs.append(b.numerator * (den // b.denominator))
        dens.append(den)
    return _Problem(_scale(c, c_den), c_den, rows, rels, rhs, dens)


def _simplex(problem: _Problem) -> tuple[list[Fraction], list[Fraction]]:
    c = problem.c
    nvars = len(c)
    m = len(problem.rows)

    # Flip rows with negative rhs so the all-slack start is feasible; the
    # flip and the integer scaling are undone on the duals at extraction.
    sign = [-1 if b < 0 else 1 for b in problem.rhs]
    row_rel = [
        {LE: GE, GE: LE, EQ: EQ}[rel] if s < 0 else rel
        for rel, s in zip(problem.rels, sign)
    ]

    # Column layout: structural, slack/surplus, artificial, rhs.
    slack_col = [-1] * m
    art_col = [-1] * m
    next_col = nvars
    for i in range(m):
        if row_rel[i] in (LE, GE):
            slack_col[i] = next_col
            next_col += 1
    for i in range(m):
        if row_rel[i] in (GE, EQ):
            art_col[i] = next_col
            next_col += 1
    rhs_col = next_col

    tab: list[dict[int, int]] = []
    basis: list[int] = []
    for i, s in enumerate(sign):
        row = {j: s * a for j, a in problem.rows[i].items()}
        if problem.rhs[i]:
            row[rhs_col] = s * problem.rhs[i]
        if slack_col[i] >= 0:
            row[slack_col[i]] = 1 if row_rel[i] == LE else -1
        if art_col[i] >= 0:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        tab.append(row)

    state = _Tableau(tab, basis, rhs_col)
    artificials = frozenset(col for col in art_col if col >= 0)

    if artificials:
        _phase_one(state, artificials)

    # Live rows may have shrunk (redundant rows get dropped in phase one).
    costed = [
        (c[state.basis[i]], row, den)
        for i, (row, den) in enumerate(zip(state.rows, state.dens))
        if state.basis[i] < nvars and c[state.basis[i]]
    ]
    zden = lcm(*(den for _, _, den in costed))
    z: dict[int, int] = {}
    for cb, row, den in costed:
        f = cb * (zden // den)
        for j, a in row.items():
            z[j] = z.get(j, 0) + f * a
    for j, cj in enumerate(c):
        if cj:
            z[j] = z.get(j, 0) - zden * cj
    state.zrow, state.zden = _reduce({j: a for j, a in z.items() if a}, zden)

    _bland_loop(state, banned=artificials)

    # Primal values of the structural variables.
    x = [Fraction(0)] * nvars
    for i, row in enumerate(state.rows):
        if state.basis[i] < nvars:
            x[state.basis[i]] = Fraction(row.get(rhs_col, 0), state.dens[i])

    # Dual of row i is the reduced cost at its identity column, mapped back
    # through the row scaling and the objective scaling.
    y = [Fraction(0)] * m
    for i in range(m):
        if i in state.dropped:
            continue
        col = art_col[i] if art_col[i] >= 0 else slack_col[i]
        y[i] = Fraction(
            state.zrow.get(col, 0) * sign[i] * problem.den[i],
            state.zden * problem.c_den,
        )
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


class _Tableau:
    """Sparse integer rows, each over its own positive denominator."""

    def __init__(self, rows: list[dict[int, int]], basis: list[int], rhs_col: int):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.basis = basis
        self.rhs_col = rhs_col
        self.zrow: dict[int, int] | None = None
        self.zden = 1
        self.dropped: set[int] = set()
        self.row_ids = list(range(len(rows)))

    def pivot(self, r: int, col: int) -> None:
        prow = self.rows[r]
        p = prow.get(col, 0)
        if p == 0:
            raise LPError("zero pivot element")
        if p < 0:
            prow = {j: -a for j, a in prow.items()}
            p = -p
        # The pivot row divided by its entry: numerators over p.
        prow, p = _reduce(prow, p)
        self.rows[r] = prow
        self.dens[r] = p
        for i, row in enumerate(self.rows):
            f = row.get(col)
            if f and i != r:
                self.rows[i], self.dens[i] = _eliminate(row, self.dens[i], prow, p, f)
        z = self.zrow
        if z:
            f = z.get(col)
            if f:
                self.zrow, self.zden = _eliminate(z, self.zden, prow, p, f)
        self.basis[r] = col

    def drop(self, i: int) -> None:
        self.dropped.add(self.row_ids[i])
        del self.rows[i]
        del self.dens[i]
        del self.basis[i]
        del self.row_ids[i]


def _choose_row(state: _Tableau, col: int) -> int | None:
    """Bland ratio test: smallest rhs/entry over positive entries, ties by
    smallest basic variable index.  Row denominators cancel in the ratio."""
    best = None
    rc = state.rhs_col
    for i, row in enumerate(state.rows):
        a = row.get(col, 0)
        if a <= 0:
            continue
        b = row.get(rc, 0)
        if best is None:
            best = (i, b, a)
            continue
        _, bb, ba = best
        diff = b * ba - bb * a
        if diff < 0 or (diff == 0 and state.basis[i] < state.basis[best[0]]):
            best = (i, b, a)
    return None if best is None else best[0]


def _bland_loop(state: _Tableau, banned: frozenset[int]) -> None:
    limit = 20000 + 200 * (len(state.rows) + state.rhs_col)
    rc = state.rhs_col
    for _ in range(limit):
        enter = min(
            (j for j, a in state.zrow.items() if a < 0 and j < rc and j not in banned),
            default=-1,
        )
        if enter < 0:
            return
        leave = _choose_row(state, enter)
        if leave is None:
            raise Unbounded(f"objective unbounded along column {enter}")
        state.pivot(leave, enter)
    raise LPError("pivot limit exceeded")


def _phase_one(state: _Tableau, artificials: frozenset[int]) -> None:
    """Drive the artificial variables to zero, or report infeasibility."""
    # Every row is still over denominator 1 here.
    z: dict[int, int] = {j: 1 for j in artificials}
    for i, b in enumerate(state.basis):
        if b in artificials:
            for j, a in state.rows[i].items():
                z[j] = z.get(j, 0) - a
    state.zrow = {j: a for j, a in z.items() if a}

    # Artificial columns never re-enter: whenever the system is feasible it
    # has an optimum with every artificial at zero, so restricting the
    # entering choice to real columns still drives the phase-one objective
    # to zero exactly when feasibility holds.
    try:
        _bland_loop(state, banned=artificials)
    except Unbounded:
        raise LPError("phase one unbounded; this cannot happen") from None

    rc = state.rhs_col
    for i, b in enumerate(state.basis):
        if b in artificials and state.rows[i].get(rc, 0) > 0:
            raise Infeasible("artificial variable stuck at a positive value")

    # Degenerate artificials still in the basis: pivot them out on any live
    # column, or drop the row as redundant.  The phase-one objective is done.
    state.zrow = None
    for i in range(len(state.rows) - 1, -1, -1):
        if state.basis[i] not in artificials:
            continue
        col = min(
            (j for j in state.rows[i] if j < rc and j not in artificials),
            default=-1,
        )
        if col >= 0:
            state.pivot(i, col)
        else:
            state.drop(i)


def _certify_optimal(
    problem: _Problem, x: list[Fraction], y: list[Fraction], value: Fraction
) -> None:
    """Independent optimality proof for a maximisation problem.

    Primal feasibility, dual signs, dual feasibility and strong duality
    together certify optimality of both solutions.  x is put over one
    common denominator and y, divided by the row scales, over another, so
    every check is an integer dot product over the input's nonzeros.  Any
    failure is a solver bug, raised as AuditFailure.
    """
    if len(x) != len(problem.c) or len(y) != len(problem.rows):
        raise AuditFailure("solution has the wrong number of entries")
    xden = lcm(*(xi.denominator for xi in x))
    xn = _scale(x, xden)
    if any(xi < 0 for xi in xn):
        raise AuditFailure("primal variable went negative")
    for row, rel, b in zip(problem.rows, problem.rels, problem.rhs):
        slack = b * xden - sum(a * xn[j] for j, a in row.items())
        ok = slack >= 0 if rel == LE else slack <= 0 if rel == GE else slack == 0
        if not ok:
            raise AuditFailure(f"primal constraint violated on a {rel} row")

    for yi, rel in zip(y, problem.rels):
        if (rel == LE and yi < 0) or (rel == GE and yi > 0):
            raise AuditFailure(f"dual sign violated on a {rel} row")

    # Row i is the given row times den[i], so its dual is y[i] / den[i].
    w = [Fraction(yi.numerator, yi.denominator * d) for yi, d in zip(y, problem.den)]
    wden = lcm(*(wi.denominator for wi in w))
    wn = _scale(w, wden)
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
