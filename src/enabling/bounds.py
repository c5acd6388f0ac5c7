"""Closed-form lower and upper bounds on the least vertex count that forces
every vertex into a size-k monochromatic clique of each colour.

All arithmetic is exact: square roots only ever appear through integer
square-root comparisons, and the quadratic forms are evaluated in Fraction
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Sequence

from .constructions import _ceil_two_sqrt, _extremal_parts, _is_prime
from .lp import _integers, _rationals

__all__ = [
    "BoundReport",
    "LemmaViolation",
    "f_eval",
    "f_max",
    "improved_inequality",
    "max_enabling_level",
    "multicolour_lower",
    "multicolour_report",
    "multicolour_upper",
    "two_colour_lower",
    "two_colour_report",
]


class LemmaViolation(Exception):
    """A mathematically guaranteed inequality failed on concrete data."""


def two_colour_lower(k1: int, k2: int) -> int:
    """Least integer n compatible with n >= (sqrt(k1-1) + sqrt(k2-1))^2 and
    with containing a clique of each target size.

    The ceiling of 2*sqrt((k1-1)(k2-1)) is taken on integers, so it is exact
    for all inputs.  The clique-size floor max(k1, k2) only binds when
    one target is 1.
    """
    _integers(k1, k2)
    if k1 < 1 or k2 < 1:
        raise ValueError(f"clique targets must be positive, got ({k1}, {k2})")
    t, _ = _ceil_two_sqrt(k1 - 1, k2 - 1)
    return max(k1, k2, k1 + k2 - 2 + t)


def _sqrt_sum_squared(k1: int, k2: int) -> int | str:
    """(sqrt(k1-1) + sqrt(k2-1))^2 as an int when it is one, else written
    out as "a+b + 2*sqrt(ab)"."""
    a, b = k1 - 1, k2 - 1
    t, exact = _ceil_two_sqrt(a, b)
    return a + b + t if exact else f"{a + b} + 2*sqrt({a * b})"


def max_enabling_level(n: int) -> int:
    """Largest k such that some two-colouring of n vertices puts every vertex
    in a size-k clique of both colours; equals floor(n/4) + 1."""
    _integers(n)
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    return n // 4 + 1


def improved_inequality(xs: Sequence) -> Fraction:
    """Value of sum_{i<j} x_i x_j - sum_i x_i + 1 for x in [0, 1]^m.

    The value is nonnegative on the whole cube; it vanishes iff exactly one
    coordinate is 1 and the rest are 0.
    """
    vals = [Fraction(x) for x in _rationals(xs)]
    for v in vals:
        if not 0 <= v <= 1:
            raise ValueError(f"coordinate {v} outside [0, 1]")
    s = sum(vals, Fraction(0))
    sq = sum((v * v for v in vals), Fraction(0))
    return (s * s - sq) / 2 - s + 1


def f_eval(m: int, k: int, x) -> Fraction:
    """The quadratic k*m*x - (m*(m-1)/2)*x^2 in exact arithmetic; m and k
    must be ints, x an int or a Fraction."""
    _integers(m, k)
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    [x] = _rationals([x])
    return k * m * x - Fraction(m * (m - 1), 2) * x * x


def f_max(r: int, k: int, x) -> Fraction:
    """max over 0 <= m <= r of f_eval(m, k, x), which checks k and x.

    For x != 0 the quadratic is concave in m with its vertex at k/x + 1/2,
    so the maximum is at m = 0 or at an integer next to the vertex."""
    _integers(r)
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    best = f_eval(0, k, x)
    if x:
        top = Fraction(2 * k + x, 2 * x)
        for m in (floor(top), ceil(top)):
            best = max(best, f_eval(min(max(m, 0), r), k, x))
    return best


def multicolour_lower(r: int, k: int) -> int:
    """Best available lower bound for r colours and uniform clique target k:
    ``multicolour_report(r, k).lower``."""
    return multicolour_report(r, k).lower


def multicolour_upper(r: int, k: int) -> int:
    """Best available upper bound: ``multicolour_report(r, k).upper``."""
    return multicolour_report(r, k).upper


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bounds with the formula behind each candidate value."""

    lower: int
    upper: int
    exact: int | None
    provenance: tuple[tuple[str, object], ...]

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "provenance": [[name, value] for name, value in self.provenance],
        }


def two_colour_report(k1: int, k2: int) -> BoundReport:
    """Bounds for two colours with targets (k1, k2).

    The explicit construction ``two_colour_extremal`` meets the lower bound
    for every pair, so the answer is always exact.
    """
    lower = two_colour_lower(k1, k2)
    square = _sqrt_sum_squared(k1, k2)
    prov: list[tuple[str, object]] = [("sqrt_sum_squared", square)]
    if isinstance(square, str):
        prov.append(("sqrt_sum_ceiling", lower))
    if min(k1, k2) == 1:
        n = max(k1, k2)
        prov.append(("single_colour", n))
    else:
        n = sum(_extremal_parts(k1, k2))
        prov.append(("extremal_construction", n))
    return BoundReport(lower=lower, upper=n, exact=n, provenance=tuple(prov))


def multicolour_report(r: int, k: int) -> BoundReport:
    """Bounds for r colours with uniform clique target k.

    The lower candidates are pigeonhole, r(k-1)+1, and f_max(r, k, 2), the
    largest 2mk - 2m(m-1) over 0 <= m <= r; the upper candidates are the
    block construction on 2r(k-1) vertices and, when k is prime and
    r == k+1, the prime-slope one on k^2.  The bounds are the largest lower
    and the smallest upper candidate.  On the line r == k+1 the upper bound
    rests on k being prime, so a k >= ``_MR_LIMIT`` that passes every
    Miller-Rabin base of ``_is_prime``, and so is not proven prime, raises
    ValueError.
    """
    _integers(r, k)
    if r < 2 or k < 2:
        raise ValueError(f"need r >= 2 and k >= 2, got ({r}, {k})")
    quadratic = f_max(r, k, 2)
    if quadratic.denominator != 1:
        raise LemmaViolation(f"f_max({r}, {k}, 2) = {quadratic} is not an integer")
    lows = [("pigeonhole", r * (k - 1) + 1), ("quadratic_at_2", int(quadratic))]
    ups = [("block_construction", 2 * r * (k - 1))]
    if r == k + 1 and _is_prime(k):
        ups.append(("prime_slope", k * k))
    lower, upper = max(v for _, v in lows), min(v for _, v in ups)
    exact = lower if lower == upper else None
    return BoundReport(lower=lower, upper=upper, exact=exact, provenance=(*lows, *ups))
