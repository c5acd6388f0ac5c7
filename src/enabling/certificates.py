"""Exact optimality certificates for the clique-measure game.

For a clique family F of one colour, ``compute_delta`` finds

    delta = max over probability measures lam on the vertices of
            min over C in F of lam(C),

and ``construct_mu`` finds a probability measure mu on F itself whose induced
vertex masses never exceed delta.  The pair (lam, mu) certifies delta from
both sides without trusting the solver: lam achieves delta, while for any
measure lam' the average of lam'(C) under mu is at most max_v mu-mass(v), so
no measure can beat delta.

One exact LP per colour gives both: max delta subject to lam(C) >= delta
for every C and sum(lam) <= 1, whose clique duals, normalised, are mu.  It
is solved on the quotient of the colour-refinement partition of the
vertex-clique incidence, whose cells are told apart by exact count codes,
never by hashes; the lifted solution is audited at full size on the
clique/vertex shape, in integers, so soundness never rests on the reduction.

``certify`` runs the full pipeline for every target colour of a graph,
asserts the cross-colour laws (delta_i + delta_j <= 1, sum_v mu_i mu_j <= 1),
and evaluates the derived lower bound on the vertex count.  A violated law
raises LemmaViolation, which the command line maps to a distinct exit status.
The third law, that cliques of distinct colours share at most one vertex, is
derived rather than searched: a shared pair u, v would give the edge uv two
colours.  Every family covers the vertices, so the stored maximum is 1.

In the JSON document (``"format": 2``) each measure vector is its distinct
values plus one index into them per entry; ``check_certificate`` also reads
version 1's plain lists, and re-checks every fact on the expanded vectors.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, count
from math import ceil
from operator import and_
from typing import Iterable, Sequence

from .bounds import (
    LemmaViolation, _integers, _sqrt_sum_squared, f_max, two_colour_lower
)
from .cliques import (
    ALL_CLIQUES,
    PER_VERTEX_LEX,
    CliqueFamily,
    NotEnabling,
    _check_targets,
    choose_family,
)
from .graphs import EdgeColouredGraph, canonical_json
from .lp import AuditFailure, _common_denominator, _rationals, solve_lp_exact

__all__ = [
    "ColourCertificate",
    "CertificationResult",
    "FamilyMeasure",
    "PairwiseCheck",
    "VertexMeasure",
    "certificate_from_json_dict",
    "certify",
    "check_certificate",
    "check_pairwise_intersections",
    "compute_delta",
    "construct_mu",
    "mu_vertex_masses",
    "support_clique_check",
    "two_colour_bound",
]


@dataclass(frozen=True)
class VertexMeasure:
    """Probability measure on the vertices, indexed by vertex label."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_probability(self.weights)

    def mass(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.weights[v] for v in vertices), Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self.weights) if w > 0)


@dataclass(frozen=True)
class FamilyMeasure:
    """Probability measure on the cliques of a family, index-aligned."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        _check_probability(self.weights)


def _check_probability(weights: Sequence[Fraction]) -> None:
    nums, den = _common_denominator(weights)
    if min(nums, default=0) < 0 or sum(nums) != den:
        raise ValueError("weights must be nonnegative and sum to 1")


def _vertex_masses(
    n: int, cliques: Sequence[Sequence[int]], weights: Sequence[int]
) -> list[int]:
    """Integer vertex masses: the sum of weights[i] over cliques i containing
    the vertex."""
    masses = [0] * n
    for c, w in zip(cliques, weights):
        if w:
            for v in c:
                masses[v] += w
    return masses


def _mask(vertices: Iterable[int]) -> int:
    """Bitmask of non-negative vertices; a repeat carries and loses a bit."""
    return sum(map((1).__lshift__, vertices))


def _refine(n: int, cliques: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Coarsest equitable partition of the vertex-clique incidence, as a cell
    per vertex and per clique, by colour refinement: from one cell per side,
    split the sides in turn by each member's cell and the multiset of its
    neighbours' cells, until a split leaves its side's count unchanged.  A
    multiset is an exact count code, never a hash: a neighbour in cell x adds
    1 << (x * bits), and no list on either side has 2 ** bits entries, so no
    field carries into the next and equal codes mean equal multisets.  The
    first split is by clique size and, if that leaves one clique cell, the
    second by how many cliques hold each vertex, so both are taken in closed
    form.  Cells are numbered by first appearance either way."""
    member_of: list[list[int]] = [[] for _ in range(n)]
    for i, c in enumerate(cliques):
        for v in c:
            member_of[v].append(i)
    sizes: dict = {}
    cells = [[sizes.setdefault(len(c), len(sizes)) for c in cliques], [0] * n]
    counts, start = [len(sizes), 1], 1
    if len(sizes) <= 1:
        degrees: dict = {}
        cells[1] = [degrees.setdefault(len(m), len(degrees)) for m in member_of]
        if len(degrees) == 1:
            return cells[1], cells[0]
        counts[1], start = len(degrees), 2
    bits = max(map(len, chain(cliques, member_of)), default=0).bit_length()
    for step in count(start):
        side = step % 2
        code = [1 << x * bits for x in cells[1 - side]].__getitem__
        ids: dict = {}
        cells[side] = [
            ids.setdefault((own, sum(map(code, nbrs))), len(ids))
            for own, nbrs in zip(cells[side], member_of if side else cliques)
        ]
        if len(ids) == counts[side]:
            return cells[1], cells[0]
        counts[side] = len(ids)


class _Duals(tuple):
    """Clique duals; ``lifted`` holds the cliques, the duals as integers and
    their vertex masses from ``compute_delta``'s audit, for ``construct_mu``
    and ``certify``."""


def compute_delta(
    g: EdgeColouredGraph, fam: CliqueFamily
) -> tuple[Fraction, VertexMeasure, tuple[Fraction, ...]]:
    """Exact delta, a maximiser lam and the LP's clique duals.

    The quotient LP has one variable per vertex cell, one row per clique
    cell and the mass row weighted by cell sizes.  lam is lifted uniform on
    each vertex cell, and the dual Y_b of clique cell b as one Y_b / |b|
    that its cliques share; ``lp``'s audit checks then run on the pair at
    full size, on the cliques and vertices, so a partition that is not
    equitable raises AuditFailure.  The mass row is tight, so lam sums to 1.
    """
    cliques = fam.cliques
    if not cliques:
        raise ValueError("clique family is empty")
    n = g.n
    vcell, ccell = _refine(n, cliques)
    p, q = max(vcell) + 1, max(ccell) + 1
    vsize, csize = Counter(vcell), Counter(ccell)
    reps = dict(zip(ccell[::-1], cliques[::-1]))  # each clique cell's first clique
    constraints = []
    for b in range(q):
        row = [0] * p + [1]
        for v in reps[b]:
            row[vcell[v]] -= 1
        constraints.append((row, 0))
    constraints.append(([vsize[a] for a in range(p)] + [0], 1))
    sol = solve_lp_exact([0] * p + [1], constraints)
    delta = sol.value
    lam = [sol.primal[a] for a in vcell]
    per_cell = [sol.dual[b] / csize[b] for b in range(q)]
    duals = _Duals(map(per_cell.__getitem__, ccell))
    # The full-size audit, in integers on the clique/vertex shape: x is lam and
    # delta, y the clique duals, each lifted from its cell values, and top
    # the mass-row dual.
    cx, xden = _common_denominator([*sol.primal, delta])
    x = [*map(cx.__getitem__, vcell), cx[p]]
    if min(x) < 0:
        raise AuditFailure("primal variable went negative")
    if sum(x) - x[n] > xden or min(sum(map(x.__getitem__, c)) for c in cliques) < x[n]:
        raise AuditFailure("primal constraint violated on a <= row")
    cy, yden = _common_denominator(per_cell)
    y, top = list(map(cy.__getitem__, ccell)), sol.dual[q]
    if min(y) < 0 or top < 0:
        raise AuditFailure("dual sign violated on a <= row")
    masses = _vertex_masses(n, cliques, y)
    if sum(y) < yden or max(masses) * top.denominator > top.numerator * yden:
        raise AuditFailure("dual constraint violated")
    if top != delta:
        raise AuditFailure("strong duality failed")
    if delta < Fraction(fam.k, n):
        raise LemmaViolation(f"delta {delta} fell below the uniform floor {fam.k}/{n}")
    duals.lifted = cliques, y, masses
    return delta, VertexMeasure(tuple(lam)), duals


def construct_mu(
    g: EdgeColouredGraph, fam: CliqueFamily, delta: Fraction, duals: Sequence[Fraction]
) -> FamilyMeasure:
    """The clique duals of ``compute_delta``'s LP, divided by their sum: a
    probability measure on fam whose vertex masses stay within delta.  The
    duals are summed as integers, and each distinct one is divided once;
    duals straight from ``compute_delta`` bring their vertex masses along.

    Every such measure puts mass at least the exact delta on some vertex
    (average its masses under an optimal lam), so an understated delta
    raises LemmaViolation whatever duals are given.
    """
    if not fam.cliques:
        raise ValueError("clique family is empty")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    cliques, nums, masses = getattr(duals, "lifted", (None, None, None))
    if cliques is not fam.cliques:
        nums, masses = _common_denominator(duals)[0], None
    total = sum(nums)
    if len(duals) != len(fam.cliques) or total <= 0:
        raise ValueError("need one dual per clique, with a positive sum")
    share = {a: Fraction(a, total) for a in set(nums)}
    mu = FamilyMeasure(tuple(map(share.__getitem__, nums)))
    masses = masses or _vertex_masses(g.n, fam.cliques, nums)
    if max(masses) * delta.denominator > delta.numerator * total:
        raise LemmaViolation(f"a mu vertex mass exceeds delta={delta}")
    return mu


def mu_vertex_masses(
    n: int, fam: CliqueFamily, mu: FamilyMeasure
) -> tuple[Fraction, ...]:
    """Induced vertex masses sum_{C containing v} mu(C)."""
    w, den = _common_denominator(mu.weights)
    return tuple(Fraction(m, den) for m in _vertex_masses(n, fam.cliques, w))


def check_pairwise_intersections(fam1: CliqueFamily, fam2: CliqueFamily) -> bool:
    """Whether every clique of fam1 meets every clique of fam2 in at most one
    vertex.  Families must have distinct colours."""
    if fam1.colour == fam2.colour:
        raise ValueError("pairwise intersection check needs distinct colours")
    masks1, masks2 = ([_mask(c) for c in f.cliques] for f in (fam1, fam2))
    return all((m1 & m2).bit_count() <= 1 for m1 in masks1 for m2 in masks2)


def _product_sum(a: tuple[list[int], int], b: tuple[list[int], int]) -> Fraction:
    """sum_v a(v) b(v) for two vectors given over their common denominators."""
    (an, ad), (bn, bd) = a, b
    return Fraction(sum(x * y for x, y in zip(an, bn)), ad * bd)


def support_clique_check(
    g: EdgeColouredGraph, colour: int, lam: VertexMeasure, delta: Fraction
) -> bool:
    """When delta exceeds 1/2, the support of any maximiser must induce a
    single clique of the colour; below that threshold the check is vacuous."""
    if delta <= Fraction(1, 2):
        return True
    adj, support = g.adjacency(colour), lam.support()
    mask = _mask(support)  # a clique when each closed row holds all of it
    return reduce(and_, (adj[v] | 1 << v for v in support), mask) == mask


def two_colour_bound(k1: int, k2: int, delta1, delta2) -> Fraction:
    """Sharpest vertex-count bound (k1-1)/d + (k2-1)/(1-d) obtainable from
    measure values delta1, delta2 of the two colours.

    Any d in [delta1, 1-delta2] yields a valid bound, so the maximum over
    that interval is returned.  The objective is convex in d, so that
    maximum sits at an endpoint, delta1 or 1-delta2.  The targets must be
    ints, the measure values ints or Fractions.
    """
    _integers(k1, k2)
    if k1 < 1 or k2 < 1:
        raise ValueError(f"clique targets must be positive, got ({k1}, {k2})")
    d1, d2 = _rationals([delta1, delta2])
    if d1 <= 0 or d2 <= 0:
        raise ValueError("measure values must be positive")
    if d1 + d2 > 1:
        raise ValueError(f"measure values sum to {d1 + d2} > 1")
    a, b = k1 - 1, k2 - 1
    return max(a / d + b / (1 - d) for d in (d1, 1 - d2))


@dataclass(frozen=True)
class ColourCertificate:
    """Everything needed to re-check one colour's measure value by hand."""

    colour: int
    k: int
    family: CliqueFamily
    delta: Fraction
    alpha: Fraction
    lam: VertexMeasure
    mu: FamilyMeasure
    mu_vertex_mass: tuple[Fraction, ...]


@dataclass(frozen=True)
class PairwiseCheck:
    colours: tuple[int, int]
    delta_sum: Fraction
    mu_product_sum: Fraction
    max_intersection: int


@dataclass(frozen=True)
class CertificationResult:
    n: int
    r: int
    targets: tuple[tuple[int, int], ...]
    policy: str
    certificates: tuple[ColourCertificate, ...]
    pairwise: tuple[PairwiseCheck, ...]
    bound: Fraction
    bound_ceiling: int
    universal_lower: int | None
    universal_form: str | None

    def to_json_dict(self) -> dict:
        doc = {
            "format": 2,
            "n": self.n,
            "r": self.r,
            "targets": [list(t) for t in self.targets],
            "policy": self.policy,
            "certificates": [
                {
                    "colour": c.colour,
                    "k": c.k,
                    "cliques": [list(q) for q in c.family.cliques],
                    "delta": _rat(c.delta),
                    "alpha": _rat(c.alpha),
                    "lambda": _packed(c.lam.weights),
                    "mu": _packed(c.mu.weights),
                    "mu_vertex_mass": _packed(c.mu_vertex_mass),
                }
                for c in self.certificates
            ],
            "pairwise": [
                {
                    "colours": list(p.colours),
                    "delta_sum": _rat(p.delta_sum),
                    "mu_product_sum": _rat(p.mu_product_sum),
                    "max_intersection": p.max_intersection,
                }
                for p in self.pairwise
            ],
            "bound": {"value": _rat(self.bound), "ceiling": self.bound_ceiling},
        }
        if self.universal_lower is not None:
            doc["universal"] = {
                "lower": self.universal_lower,
                "form": self.universal_form,
            }
        return doc

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())


def _rat(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _packed(xs: Sequence[Fraction]) -> dict:
    """A measure vector in format 2: its distinct values by first appearance
    and each entry's position among them.  Entries share a few objects, so
    they are deduplicated by id, then by value: the output is the values'."""
    slots: dict = {}
    distinct = dict(zip(map(id, xs), xs)).items()
    where = {i: slots.setdefault(x, len(slots)) for i, x in distinct}
    return {"values": list(map(_rat, slots)),
            "index": list(map(where.__getitem__, map(id, xs)))}


_DECIMAL = re.compile(r"-?[0-9]+")


def _int(x) -> int:
    """A JSON integer; booleans, floats and strings are refused, not cast."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def _ints(xs) -> tuple[int, ...]:
    """A tuple of JSON integers; a bad entry raises as ``_int`` does."""
    out = tuple(xs)
    return out if set(map(type, out)) <= {int} else tuple(map(_int, out))


def _pair(x) -> tuple[int, int]:
    a, b = x
    return _int(a), _int(b)


def _unrat(doc: dict) -> Fraction:
    num, den = doc["num"], doc["den"]
    if not (_DECIMAL.fullmatch(num) and _DECIMAL.fullmatch(den)) or int(den) <= 0:
        raise ValueError(f"{num!r}/{den!r} is not a rational with positive denominator")
    return Fraction(int(num), int(den))


def _unpacked(doc, size: int, packed: bool) -> list[Fraction]:
    """A measure vector of ``size`` entries: format 2's values and index, or a
    version-1 list of rationals, read as values with the identity index.
    Each value is decoded once; each index entry is a JSON int within range."""
    values = doc["values"] if packed else doc
    index = _ints(doc["index"]) if packed else range(len(values))
    if type(values) is not list or len(index) != size or index and not (
            0 <= min(index) and max(index) < len(values)):
        raise ValueError(f"a measure needs {size} entries indexing a list of values")
    return list(map([*map(_unrat, values)].__getitem__, index))


def _bound(
    ks: Sequence[int], deltas: Sequence[Fraction], alphas: Sequence[Fraction]
) -> tuple[Fraction, tuple[int, str] | None]:
    """The vertex-count bound that the certified colours' targets and measure
    values give, with the closed-form universal bound when there are two.

    Two colours give ``two_colour_bound`` and the universal pair: the lower
    bound and (sqrt(k1-1) + sqrt(k2-1))^2 written out, as an integer when it
    is one.  Any other count needs one uniform target (ValueError otherwise)
    and gives f_max at the mean alpha.  From three colours up the pairwise
    delta sums put that mean at 2 or more (LemmaViolation otherwise); one
    colour has no pair, and its bound f_max(1, k, alpha) = k/delta is at
    most n, as delta >= k/n.  The alphas are taken as given, never as 1/delta.
    """
    if len(ks) == 2:
        bound = two_colour_bound(*ks, *deltas)
        return bound, (two_colour_lower(*ks), str(_sqrt_sum_squared(*ks)))
    if len(set(ks)) != 1:
        raise ValueError("multicolour certification needs a uniform clique target, "
                         f"got {sorted(set(ks))}")
    alpha_bar = sum(alphas, Fraction(0)) / len(alphas)
    if len(ks) > 2 and alpha_bar < 2:
        raise LemmaViolation(f"mean alpha {alpha_bar} fell below 2")
    return f_max(len(ks), ks[0], alpha_bar), None


def certify(
    g: EdgeColouredGraph,
    targets: Sequence[tuple[int, int]],
    policy: str = ALL_CLIQUES,
) -> CertificationResult:
    """Measure certificates for every target colour plus the derived bound.

    Raises NotEnabling when some vertex misses a required clique (from
    ``choose_family``, at the first such colour in target order), ValueError
    on malformed targets, an unknown policy or, for other than two colours,
    mixed targets, and LemmaViolation when a guaranteed inequality fails
    (which would falsify the underlying maths).
    """
    _check_targets(g, targets)
    # One clique search per colour, in target order; each raises NotEnabling
    # at its colour's first uncovered vertex.
    fams = [choose_family(g, colour, k, policy) for colour, k in targets]

    certs: list[ColourCertificate] = []
    masses = []  # each colour's integer mu vertex masses over their denominator
    for (colour, k), fam in zip(targets, fams):
        delta, lam, duals = compute_delta(g, fam)
        if not support_clique_check(g, colour, lam, delta):
            raise LemmaViolation(
                f"delta {delta} > 1/2 but the maximiser support is not a "
                f"colour-{colour} clique"
            )
        mu = construct_mu(g, fam, delta, duals)
        _, nums, ints = duals.lifted  # mu is nums over their sum
        total = sum(nums)
        masses.append((ints, total))
        share = {a: Fraction(a, total) for a in set(ints)}
        certs.append(ColourCertificate(colour, k, fam, delta, 1 / delta, lam, mu,
                                       tuple(map(share.__getitem__, ints))))

    pairwise: list[PairwiseCheck] = []
    for (ci, mi), (cj, mj) in combinations(zip(certs, masses), 2):
        dsum = ci.delta + cj.delta
        if dsum > 1:
            raise LemmaViolation(
                f"delta[{ci.colour}] + delta[{cj.colour}] = {dsum} > 1"
            )
        psum = _product_sum(mi, mj)
        if psum > 1:
            raise LemmaViolation(
                f"mu-mass product sum for colours "
                f"({ci.colour}, {cj.colour}) is {psum} > 1"
            )
        # The cliques are of this graph's own colours, so two of different
        # colours share at most one vertex; both cover V, so some share one.
        pairwise.append(PairwiseCheck((ci.colour, cj.colour), dsum, psum, 1))

    bound, universal = _bound(*zip(*((c.k, c.delta, c.alpha) for c in certs)))
    universal_lower, universal_form = universal or (None, None)
    if bound > g.n:
        raise LemmaViolation(
            f"derived bound {bound} exceeds the actual vertex count {g.n}"
        )
    return CertificationResult(
        n=g.n,
        r=g.r,
        targets=tuple((c, k) for c, k in targets),
        policy=policy,
        certificates=tuple(certs),
        pairwise=tuple(pairwise),
        bound=bound,
        bound_ceiling=ceil(bound),
        universal_lower=universal_lower,
        universal_form=universal_form,
    )


def certificate_from_json_dict(doc: dict) -> dict:
    """Decode the JSON form, format 2 or version 1 (no ``format``, or 1);
    rationals become Fractions, cliques tuples, measure vectors full lists.

    A missing field raises KeyError or TypeError.  A malformed one raises
    ValueError: counts, colours, vertices and measure indices must be JSON
    integers, an index needs one entry per vertex (per clique for mu) within
    its values, and a rational decimal strings with a positive denominator.
    """
    fmt = doc["format"] if "format" in doc else 1
    if type(fmt) is not int or fmt not in (1, 2):
        raise ValueError(f"unknown certificate format {fmt!r}")
    n, packed = _int(doc["n"]), fmt == 2
    out = {
        "n": n,
        "r": _int(doc["r"]),
        "targets": [_pair(t) for t in doc["targets"]],
        "policy": doc["policy"],
        "certificates": [],
        "pairwise": [],
        "bound": _unrat(doc["bound"]["value"]),
        "bound_ceiling": _int(doc["bound"]["ceiling"]),
        "universal": None,
    }
    if doc.get("universal") is not None:
        out["universal"] = (_int(doc["universal"]["lower"]), doc["universal"]["form"])
    for c in doc["certificates"]:
        cliques = [_ints(q) for q in c["cliques"]]
        out["certificates"].append(
            {
                "colour": _int(c["colour"]),
                "k": _int(c["k"]),
                "cliques": cliques,
                "delta": _unrat(c["delta"]),
                "alpha": _unrat(c["alpha"]),
                "lambda": _unpacked(c["lambda"], n, packed),
                "mu": _unpacked(c["mu"], len(cliques), packed),
                "mu_vertex_mass": _unpacked(c["mu_vertex_mass"], n, packed),
            }
        )
    for p in doc.get("pairwise", []):
        out["pairwise"].append(
            {
                "colours": _pair(p["colours"]),
                "delta_sum": _unrat(p["delta_sum"]),
                "mu_product_sum": _unrat(p["mu_product_sum"]),
                "max_intersection": _int(p["max_intersection"]),
            }
        )
    return out


def check_certificate(g: EdgeColouredGraph, doc: dict) -> list[str]:
    """Re-verify a stored certificate against a graph without solving.

    Returns a list of problems, empty when the certificate proves its bound;
    a malformed document gives a problem, never an exception.  Every premise
    of the bound is re-derived: each target colour is certified exactly once
    with its k; its cliques are size-k cliques of that colour covering every
    vertex; lambda achieves delta and the mu vertex masses cap it, so delta
    is exact from both sides; every colour pair has a row whose sums hold
    and whose maximum clique intersection is 1; the bound and its ceiling
    follow from the targets and the stored deltas and alphas, as ``certify``
    derives them; for two colours, and only then, the stored closed-form
    bound matches the targets; and the policy is a known one.
    Measures are compared as integers over one common denominator per vector,
    cliques as bitmasks.  The intersection is not searched: the per-colour
    checks make every clique monochromatic, which implies it.
    """
    try:
        cert = certificate_from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {type(exc).__name__}: {exc}"]
    if cert["n"] != g.n or cert["r"] != g.r:
        return [f"certificate is for n={cert['n']}, r={cert['r']}, "
                f"graph has n={g.n}, r={g.r}"]
    certs = cert["certificates"]
    if not certs:
        return ["the document certifies no colour"]
    issues: list[str] = []
    if cert["targets"] != [(c["colour"], c["k"]) for c in certs]:
        issues.append("targets do not match the certified (colour, k) pairs")
    seen: set[int] = set()
    checked = {}
    for c in certs:
        colour = c["colour"]
        if colour in seen:
            issues.append(f"colour {colour} is certified twice")
            continue
        seen.add(colour)
        if not 0 <= colour < g.r:
            issues.append(f"colour {colour} outside range 0..{g.r - 1}")
            continue
        masses = _common_denominator(c["mu_vertex_mass"])
        if _check_colour(g, c, masses, issues):
            checked[colour] = (c, masses)
    rows = set()
    for p in cert["pairwise"]:
        i, j = p["colours"]
        rows.add((min(i, j), max(i, j)))
        if i == j or i not in seen or j not in seen:
            issues.append(f"pairwise row names unknown or equal colours {(i, j)}")
            continue
        # Each colour is certified once, by size-k cliques of its own colour:
        # two cliques of colours i != j share at most one vertex, since a
        # shared pair u, v would give the edge uv both colours.  Both
        # families cover every vertex, so some pair of them shares one.
        if p["max_intersection"] != 1:
            issues.append(f"pairwise ({i}, {j}): max intersection "
                          f"{p['max_intersection']} is not 1")
        if i not in checked or j not in checked:
            continue  # the colour's own problems are listed already
        (ci, masses_i), (cj, masses_j) = checked[i], checked[j]
        if ci["delta"] + cj["delta"] != p["delta_sum"] or p["delta_sum"] > 1:
            issues.append(f"pairwise ({i}, {j}): delta sum wrong or above 1")
        psum = _product_sum(masses_i, masses_j)
        if psum != p["mu_product_sum"] or psum > 1:
            issues.append(f"pairwise ({i}, {j}): mu product sum wrong or above 1")
    for pair in combinations(sorted(seen), 2):
        if pair not in rows:
            issues.append(f"no pairwise row for colours {pair}")
    if cert["policy"] not in (ALL_CLIQUES, PER_VERTEX_LEX):
        issues.append(f"unknown policy {cert['policy']!r}")
    universal = cert["universal"]
    if len(certs) != 2 and universal is not None:
        issues.append("a universal bound is stored for other than two colours")
    try:
        expected, closed_form = _bound(
            *zip(*((c["k"], c["delta"], c["alpha"]) for c in certs)))
    except (ValueError, LemmaViolation) as exc:
        issues.append(f"bound cannot be recomputed: {exc}")
    else:
        if cert["bound"] != expected:
            issues.append(f"stored bound {cert['bound']} != recomputed {expected}")
        if len(certs) == 2 and universal != closed_form:
            issues.append(f"stored universal bound {universal} != {closed_form}")
    if cert["bound"] > g.n:
        issues.append(f"stored bound {cert['bound']} exceeds the vertex count {g.n}")
    if cert["bound_ceiling"] != ceil(cert["bound"]):
        issues.append(
            f"stored ceiling {cert['bound_ceiling']} is not the ceiling of "
            f"the bound {cert['bound']}"
        )
    return issues


def _check_colour(
    g: EdgeColouredGraph, c: dict, masses: tuple[list[int], int], issues: list[str]
) -> bool:
    """Append the problems of one colour's certificate to issues, and say
    whether its masses could be summed; masses is its stored mu vertex masses
    over their common denominator.  A malformed clique, or an empty family,
    returns False before any mass is summed."""
    n, colour, k, delta, cliques = g.n, c["colour"], c["k"], c["delta"], c["cliques"]
    closed = [a | 1 << v for v, a in enumerate(g.adjacency(colour))]
    bit, covered = {v: 1 << v for v in range(n)}.__getitem__, 0
    for q in cliques:
        try:  # a vertex outside 0..n-1 has no key, and a repeated one carries:
            mask = sum(map(bit, q))  # either way mask has fewer bits than q entries
        except KeyError:
            mask = 0
        if mask.bit_count() != len(q):
            issues.append(
                f"colour {colour}: clique {q} repeats a vertex or leaves 0..{n - 1}"
            )
            return False
        if len(q) != k:
            issues.append(f"colour {colour}: clique {q} has size {len(q)} != {k}")
        elif reduce(and_, map(closed.__getitem__, q), mask) != mask:
            issues.append(f"colour {colour}: {q} is not a colour-{colour} clique")
        covered |= mask
    uncovered = ((1 << n) - 1) & ~covered
    if uncovered:
        v = (uncovered & -uncovered).bit_length() - 1
        issues.append(f"colour {colour}: vertex {v} lies in none of the cliques")
    if not cliques:
        return False
    lam, mu = c["lambda"], c["mu"]  # the decoder gave them n and m entries
    w, den = _common_denominator(lam)
    if any(a < 0 for a in w) or sum(w) != den:
        issues.append(f"colour {colour}: lambda is not a probability measure")
    elif min(sum(map(w.__getitem__, q)) for q in cliques) * delta.denominator != (
        delta.numerator * den
    ):
        issues.append(f"colour {colour}: lambda does not achieve the stated delta")
    w, den = _common_denominator(mu)
    if any(a < 0 for a in w) or sum(w) != den:
        issues.append(f"colour {colour}: mu is not a probability measure")
    else:
        induced = _vertex_masses(n, cliques, w)
        stored, stored_den = masses
        if any(a * den != m * stored_den for a, m in zip(stored, induced)):
            issues.append(f"colour {colour}: stored mu vertex masses are wrong")
        if max(induced) * delta.denominator > delta.numerator * den:
            issues.append(
                f"colour {colour}: mu vertex mass exceeds delta, so the "
                f"stated delta cannot be optimal"
            )
    if c["alpha"] * delta != 1:
        issues.append(f"colour {colour}: alpha is not 1/delta")
    return True
