import itertools
import random
from math import isqrt

import pytest

from enabling.bounds import two_colour_lower
from enabling.cliques import verify_enabling
from enabling.constructions import (
    _MR_LIMIT,
    _ceil_two_sqrt,
    _extremal_parts,
    _is_prime,
    integer_extremal_pairs,
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import pair_count, pair_index, pairs


# --- path blow-up -----------------------------------------------------------


def test_p4_blowup_smallest_is_two_coloured_path():
    g = p4_blowup(4)
    red = [(u, v) for u, v in pairs(4) if g.colour_of(u, v) == 0]
    assert red == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("n", range(4, 30))
def test_p4_blowup_reaches_the_guaranteed_level(n):
    g = p4_blowup(n)
    k = n // 4 + 1
    assert verify_enabling(g, ((0, k), (1, k))).ok


def test_p4_blowup_rejects_tiny_n():
    with pytest.raises(ValueError):
        p4_blowup(3)


# --- two-colour extremal ----------------------------------------------------


def test_params_for_perfect_square_products():
    # a, b = 2, 8, t = 2*sqrt(16) = 8, and x = y = 4 balance x*y = a*b
    assert _extremal_parts(3, 9) == (2, 8, 4, 4)


def test_params_cover_non_square_pairs():
    # a, b = 1, 2, t = ceil(2*sqrt(2)) = 3; x = 1 already gives x*(t-x) >= 2
    assert _extremal_parts(2, 3) == (1, 2, 1, 2)
    assert _extremal_parts(4, 7) == (3, 6, 3, 6)
    with pytest.raises(ValueError):
        _extremal_parts(1, 3)
    with pytest.raises(ValueError):
        two_colour_extremal(3, 1)


@pytest.mark.parametrize(
    "k1,k2", [(k1, k2) for k1 in range(2, 41) for k2 in range(2, 41)]
)
def test_extremal_graph_verifies_at_its_targets(k1, k2):
    g = two_colour_extremal(k1, k2)
    a, b = k1 - 1, k2 - 1
    assert g.n == two_colour_lower(k1, k2)
    t = g.n - a - b
    x = min(x for x in range(1, t) if x * (t - x) >= a * b)
    assert g.is_monochromatic_clique(range(a + x), 0)
    assert g.is_monochromatic_clique(range(a + x, g.n), 1)
    assert verify_enabling(g, ((0, k1), (1, k2))).ok


def test_extremal_red_side_is_a_red_clique_and_blue_side_blue():
    # (2, 3): R = {0, 1}, B = {2, 3, 4, 5}; B vertex 2+j is red to R vertex
    # j mod 2, so each R vertex keeps two blue partners in B: a blue triangle
    g = two_colour_extremal(2, 3)
    assert g.n == 6
    red = [(u, v) for u, v in pairs(6) if g.colour_of(u, v) == 0]
    assert red == [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5)]


def test_extremal_cross_degrees_match_the_algebra():
    # each B vertex is red to a run of a = k1-1 vertices of R; the runs lie
    # end to end, so an R vertex is hit floor or ceil(a*|B|/|R|) <= y times
    for k1, k2 in [(5, 5), (2, 3), (4, 7), (7, 4), (3, 20)]:
        a, b, x, y = _extremal_parts(k1, k2)
        g = two_colour_extremal(k1, k2)
        red = a + x
        for v in range(red, g.n):
            assert sum(1 for u in range(red) if g.colour_of(u, v) == 0) == a
        hits = [
            sum(1 for v in range(red, g.n) if g.colour_of(u, v) == 0)
            for u in range(red)
        ]
        lo, rem = divmod(a * (b + y), red)
        assert set(hits) <= {lo, lo + (rem > 0)}, (k1, k2)
        assert sum(hits) == a * (b + y) and max(hits) <= y, (k1, k2)


def reference_two_colour_extremal(k1, k2):
    """The construction written pair by pair: R a colour-0 clique, B a
    colour-1 clique, B vertex j joined in colour 0 to R vertices j*a, ...,
    j*a+a-1 (mod |R|)."""
    a, b, x, y = _extremal_parts(k1, k2)
    red = a + x
    n = red + b + y
    cols = [1] * pair_count(n)
    for u in range(red):
        base = u * (2 * n - u - 1) // 2 - u - 1
        for v in range(u + 1, red):
            cols[base + v] = 0
    for j in range(b + y):
        for s in range(j * a, j * a + a):
            cols[pair_index(n, s % red, red + j)] = 0
    return tuple(cols)


def test_extremal_colours_match_the_pair_by_pair_reference():
    grid = [(k1, k2) for k1 in range(2, 41) for k2 in range(2, 41)]
    for k1, k2 in grid + integer_extremal_pairs(200):
        g = two_colour_extremal(k1, k2)
        assert g.colours == reference_two_colour_extremal(k1, k2), (k1, k2)


def test_integer_extremal_pairs_against_direct_scan():
    for n_max in (-1, 0, 3, 4, 5, 40, 97, 200):
        expected = []
        for k1 in range(2, max(n_max, 60)):
            for k2 in range(2, max(n_max, 60)):
                prod = (k1 - 1) * (k2 - 1)
                root = isqrt(prod)
                if root * root != prod:
                    continue
                n = k1 + k2 - 2 + 2 * root
                if n <= n_max:
                    expected.append((n, k1, k2))
        got = integer_extremal_pairs(n_max)
        assert [(two_colour_lower(a, b), a, b) for a, b in got] == [
            (n, a, b) for n, a, b in sorted(expected)
        ]


# --- multicolour blocks -----------------------------------------------------


@pytest.mark.parametrize("r,k", [(2, 2), (2, 4), (3, 3), (4, 3), (3, 5)])
def test_blocks_verify_uniform_targets(r, k):
    g = multicolour_blocks(r, k)
    assert g.n == 2 * r * (k - 1)
    assert g.r == r
    assert verify_enabling(g, tuple((c, k) for c in range(r))).ok


def test_blocks_inside_colour_is_the_block_index():
    g = multicolour_blocks(3, 3)
    size = 4
    for i in range(3):
        block = range(i * size, (i + 1) * size)
        for u, v in itertools.combinations(block, 2):
            assert g.colour_of(u, v) == i


def test_blocks_cross_degree_split():
    # between blocks i and j each vertex gets k-1 edges of each colour
    r, k = 3, 4
    g = multicolour_blocks(r, k)
    size = 2 * (k - 1)
    for i, j in itertools.combinations(range(r), 2):
        for u in range(i * size, (i + 1) * size):
            ni = sum(
                1
                for v in range(j * size, (j + 1) * size)
                if g.colour_of(u, v) == i
            )
            assert ni == k - 1


def reference_multicolour_blocks(r, k):
    """The construction written pair by pair: blocks of size m = 2(k-1),
    colour i inside block i, and position p of block i joined in colour i
    to positions p..p+k-2 (mod m) of a later block j, in colour j to the rest."""
    m = 2 * (k - 1)
    n = r * m
    cols = [None] * pair_count(n)
    for u, v in itertools.combinations(range(n), 2):
        (i, p), (j, q) = divmod(u, m), divmod(v, m)
        near = q in {(p + s) % m for s in range(k - 1)}
        cols[pair_index(n, u, v)] = i if i == j or near else j
    return tuple(cols)


def test_blocks_colours_match_the_pair_by_pair_reference():
    for r in range(2, 7):
        for k in range(2, 7):
            g = multicolour_blocks(r, k)
            assert g.colours == reference_multicolour_blocks(r, k), (r, k)


def test_blocks_reject_degenerate_parameters():
    with pytest.raises(ValueError):
        multicolour_blocks(1, 3)
    with pytest.raises(ValueError):
        multicolour_blocks(3, 1)


# --- prime slope ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_slope_is_k_enabling_with_p_plus_one_colours(p):
    g = prime_slope(p)
    assert g.n == p * p
    assert g.r == p + 1
    assert verify_enabling(g, tuple((c, p) for c in range(p + 1))).ok


def reference_prime_slope(p):
    """The construction written pair by pair: vertex x*p + y is (x, y), and
    the pair (x, y), (z, w) has colour p when y == w, else the slope s with
    s*(y - w) == x - z mod p."""
    n = p * p
    cols = [None] * pair_count(n)
    for u, v in itertools.combinations(range(n), 2):
        (x, y), (z, w) = divmod(u, p), divmod(v, p)
        if y == w:
            cols[pair_index(n, u, v)] = p
        else:
            slopes = [s for s in range(p) if (s * (y - w) - (x - z)) % p == 0]
            (cols[pair_index(n, u, v)],) = slopes
    return tuple(cols)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_slope_colours_match_the_pair_by_pair_reference(p):
    assert prime_slope(p).colours == reference_prime_slope(p)


def test_prime_slope_colour_classes_are_parallel_line_partitions():
    p = 5
    g = prime_slope(p)
    for c in range(p + 1):
        # each colour class decomposes into p vertex-disjoint p-cliques
        seen = set()
        cliques = []
        for v in range(p * p):
            if v in seen:
                continue
            members = [v] + [
                u for u in range(p * p) if u != v and g.colour_of(u, v) == c
            ]
            assert len(members) == p
            assert g.is_monochromatic_clique(members, c)
            seen.update(members)
            cliques.append(members)
        assert len(cliques) == p


def test_prime_slope_rejects_composites():
    with pytest.raises(ValueError):
        prime_slope(6)
    with pytest.raises(ValueError):
        prime_slope(1)


def _is_prime_by_trial_division(p):
    return p >= 2 and all(p % f for f in range(2, isqrt(p) + 1))


def test_is_prime_equals_trial_division_below_two_hundred_thousand():
    assert ([p for p in range(-3, 200_000) if _is_prime(p)]
            == [p for p in range(-3, 200_000) if _is_prime_by_trial_division(p)])


@pytest.mark.parametrize("p", [
    2047,  # strong pseudoprime to base 2
    3215031751,  # to bases 2, 3, 5 and 7
    3825123056546413051,  # to bases 2 to 23
    318665857834031151167461,  # to bases 2 to 37
])
def test_is_prime_refuses_strong_pseudoprimes(p):
    assert not _is_prime(p)


@pytest.mark.parametrize("p", [
    2**89 - 1,  # a Mersenne prime
    _MR_LIMIT,  # 1287836182261 * 2575672364521, strong pseudoprime to 2..41
], ids=["M89", "MR_LIMIT"])
def test_is_prime_raises_from_the_limit_on_when_every_base_passes(p):
    with pytest.raises(ValueError, match=rf"^cannot prove {p} prime: "):
        _is_prime(p)


@pytest.mark.parametrize("p", [(2**61 - 1) * (2**89 - 1), 2**89 + 1])
def test_is_prime_proves_composites_from_the_limit_on(p):
    assert p > _MR_LIMIT
    assert _is_prime(p) is False


def _extremal_parts_by_scan(k1, k2):
    a, b = k1 - 1, k2 - 1
    t, _ = _ceil_two_sqrt(a, b)
    x = 1
    while x * (t - x) < a * b:
        x += 1
    return a, b, x, t - x


def test_extremal_parts_equal_the_scan():
    grid = [(k1, k2) for k1 in range(2, 81) for k2 in range(2, 81)]
    large = [(2, 10**6), (10**6, 2), (12345, 678), (10**5, 10**5),
             (10**5 + 1, 10**5 + 2), (99991, 3), (4097, 65537)]
    for k1, k2 in grid + large:
        assert _extremal_parts(k1, k2) == _extremal_parts_by_scan(k1, k2), (k1, k2)


def test_extremal_parts_take_the_least_x_for_huge_targets():
    rng = random.Random(31)
    for _ in range(2000):
        k1, k2 = (rng.randrange(2, 10 ** rng.randrange(1, 40)) for _ in range(2))
        a, b, x, y = _extremal_parts(k1, k2)
        t, _ = _ceil_two_sqrt(a, b)
        assert x + y == t and x >= 1
        assert x * y >= a * b
        assert x == 1 or (x - 1) * (y + 1) < a * b
