"""Explicit colourings in which every vertex lies in large cliques of each colour.

Four families are provided:

* ``p4_blowup``       - two colours, blow-up of a path on four vertices,
                        every vertex in cliques of size floor(n/4)+1 of both colours;
* ``two_colour_extremal`` - two colours, every vertex in a colour-0 clique of
                        size k1 and a colour-1 clique of size k2 on the
                        least n >= (sqrt(k1-1)+sqrt(k2-1))^2, for all k1, k2 >= 2;
* ``multicolour_blocks``  - r colours on 2r(k-1) vertices, every vertex in a
                        size-k clique of every colour;
* ``prime_slope``     - p+1 colours on p^2 vertices classified by line slope
                        over the field with p elements.
"""

from __future__ import annotations

from math import isqrt

from .graphs import EdgeColouredGraph, pair_count, pairs
from .lp import _integers

__all__ = [
    "integer_extremal_pairs",
    "multicolour_blocks",
    "p4_blowup",
    "prime_slope",
    "two_colour_extremal",
]


def p4_blowup(n: int) -> EdgeColouredGraph:
    """Blow-up of the two-coloured path a-b-c-d into four near-equal parts.

    Vertices are split into consecutive parts V1, V2, V3, V4, sized as equally
    as possible with any remainder going to the earlier parts.  Colour 0 fills
    the inside of V2 and V3 and the pairs (V1,V2), (V2,V3), (V3,V4); colour 1
    fills everything else.  Every vertex then lies in a size floor(n/4)+1
    clique of each colour.
    """
    _integers(n)
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    q, rem = divmod(n, 4)
    part = [i for i in range(4) for _ in range(q + (i < rem))]
    red = {(0, 1), (1, 1), (1, 2), (2, 2), (2, 3)}
    cols = [0 if (part[u], part[v]) in red else 1 for u, v in pairs(n)]
    return EdgeColouredGraph(n, 2, tuple(cols))


def _ceil_two_sqrt(a: int, b: int) -> tuple[int, bool]:
    """ceil(2*sqrt(a*b)) for a, b >= 0, and whether a*b is a perfect square,
    that is, whether the ceiling is 2*sqrt(a*b) itself."""
    root = isqrt(a * b)
    if root * root == a * b:
        return 2 * root, True
    return isqrt(4 * a * b) + 1, False


def _extremal_parts(k1: int, k2: int) -> tuple[int, int, int, int]:
    """(a, b, x, y) of ``two_colour_extremal``: |R| = a+x and |B| = b+y."""
    if k1 < 2 or k2 < 2:
        raise ValueError(f"need both clique targets >= 2, got ({k1}, {k2})")
    a, b = k1 - 1, k2 - 1
    t, _ = _ceil_two_sqrt(a, b)
    # The least x >= (t - sqrt(d))/2, the smaller root of x^2 - t*x + a*b, where
    # d = t^2 - 4ab; rounding sqrt(d) down to isqrt(d) leaves that ceiling as is.
    x = (t - isqrt(t * t - 4 * a * b) + 1) // 2
    return a, b, x, t - x


def two_colour_extremal(k1: int, k2: int) -> EdgeColouredGraph:
    """Two-colouring on ``two_colour_lower(k1, k2)`` vertices in which every
    vertex lies in a colour-0 clique of size k1 and a colour-1 clique of
    size k2.

    Write a = k1-1, b = k2-1, t = ceil(2*sqrt(a*b)), let x be the least
    integer with x*(t-x) >= a*b and y = t-x, so n = a+b+t.  Vertices
    0..a+x-1 form a colour-0 clique R and the next b+y a colour-1 clique B.
    B vertex j is joined in colour 0 to the R vertices j*a, ..., j*a+a-1
    (mod |R|); every other cross pair has colour 1.

    * A B vertex with its run of a vertices of R is a colour-0 clique of
      size k1, and each R vertex lies in R itself, of size a+x >= k1.
    * The runs lie end to end around R, so an R vertex is hit by at most
      ceil(a*|B|/|R|) of them.  From x*y >= a*b follows y*(a+x) >= a*(b+y),
      so that is at most y runs, and the vertex keeps at least b colour-1
      partners in the colour-1 clique B: a clique of size k2.  B itself
      has size b+y >= k2.

    The construction is this package's own; that n = two_colour_lower(k1,
    k2) is optimal for every pair is the source paper's claim.
    """
    _integers(k1, k2)
    a, b, x, y = _extremal_parts(k1, k2)
    red, blue = a + x, b + y
    # Assembled from byte rows rather than pair by pair over ``pairs``, for
    # speed: a sweep of all 248 integer extremal pairs up to n = 200 builds each.
    # The R-by-B cross colours, row u of R holding u's pairs to B.  Run j
    # starts at R vertex j*a mod |R| and, as a < |R|, wraps at most once.
    cross = bytearray(b"\x01") * (red * blue)
    for j in range(blue):
        start = j * a % red
        wrap = max(0, start + a - red)
        cross[start * blue + j : (start + a - wrap) * blue : blue] = bytes(a - wrap)
        cross[j : wrap * blue : blue] = bytes(wrap)
    rows = [bytes(red - 1 - u) + cross[u * blue : u * blue + blue] for u in range(red)]
    rows.append(b"\x01" * pair_count(blue))
    return EdgeColouredGraph(red + blue, 2, b"".join(rows))


def integer_extremal_pairs(n_max: int) -> list[tuple[int, int]]:
    """Ordered pairs (k1, k2), both >= 2, whose extremal vertex count
    (sqrt(k1-1)+sqrt(k2-1))^2 is an integer at most n_max, by that count.

    (k1-1)(k2-1) is a square exactly when k1-1 = g*u^2 and k2-1 = g*v^2, and
    the count is then g*(u+v)^2; a g with a square factor repeats a pair."""
    _integers(n_max)
    found = {(g * s * s, g * u * u + 1, g * (s - u) ** 2 + 1)
             for g in range(1, n_max // 4 + 1)
             for s in range(2, isqrt(n_max // g) + 1)
             for u in range(1, s)}
    return [(k1, k2) for _, k1, k2 in sorted(found)]


def multicolour_blocks(r: int, k: int) -> EdgeColouredGraph:
    """r-colouring of 2r(k-1) vertices, every vertex in a size-k clique of
    every colour.

    The vertices form r consecutive blocks of size 2(k-1).  Inside block i
    every edge has colour i.  Between blocks i < j, the vertex at position p
    of block i is joined in colour i to the k-1 positions p..p+k-2 (mod the
    block size) of block j and in colour j to the remaining k-1 positions.
    With m = 2(k-1), the pair u < v so has colour u // m when
    (v - u) % m <= k - 2 and colour v // m otherwise.
    """
    _integers(r, k)
    if r < 2:
        raise ValueError(f"need at least two colours, got r={r}")
    if k < 2:
        raise ValueError(f"need clique target >= 2, got k={k}")
    m = 2 * (k - 1)
    cols = [u // m if (v - u) % m <= k - 2 else v // m for u, v in pairs(r * m)]
    return EdgeColouredGraph(r * m, r, tuple(cols))


# Miller-Rabin with the prime bases 2..41 is exact below this bound, itself
# a strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Whether p is prime, by Miller-Rabin with ``_MR_BASES``.

    A base that witnesses p composite proves it at any size; a p that passes
    every base is prime below ``_MR_LIMIT`` and unproven from there on, which
    raises ValueError."""
    if p % 2 == 0 or p <= 41:
        return p in _MR_BASES
    d = p - 1
    s = (d & -d).bit_length() - 1  # p - 1 = d * 2**s with d odd
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot prove {p} prime: it passes Miller-Rabin to "
                         f"every prime base up to 41, which is proof only "
                         f"below {_MR_LIMIT}")
    return True


def prime_slope(p: int) -> EdgeColouredGraph:
    """(p+1)-colouring of the affine plane over the p-element field.

    Vertex (x, y) is encoded as x*p + y.  The edge between (x, y) and (z, w)
    gets colour (x-z)/(y-w) mod p when y != w, and colour p (the infinite
    slope) when y == w.  Each colour class splits into p parallel lines of
    size p, so every vertex lies in a size-p clique of every colour.
    Modulo p, y - w is u - v, which is 0 exactly when y == w.
    """
    _integers(p)
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    cols = [
        p if (u - v) % p == 0 else (u // p - v // p) * pow(u - v, -1, p) % p
        for u, v in pairs(p * p)
    ]
    return EdgeColouredGraph(p * p, p + 1, tuple(cols))
