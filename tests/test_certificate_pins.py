"""Pinned certificate bytes.

The sha256 of ``certify(...).to_json()`` for small graphs of every
construction, under both clique-family policies, and for two relabelled
n = 200 extremal graphs under per-vertex-lex.  A change to the simplex
(its pivots, its duals), to the colour refinement, to the measure or to the
serialisation shows here as a changed digest.  When a change alters
certificates on purpose, the new digests are the ones to review and pin.
"""

import hashlib
import random

import pytest

from enabling import certify
from enabling.cliques import ALL_CLIQUES, PER_VERTEX_LEX
from enabling.constructions import (
    multicolour_blocks,
    p4_blowup,
    prime_slope,
    two_colour_extremal,
)
from enabling.graphs import EdgeColouredGraph, pair_index, pairs


def _blocks(r, k):
    return multicolour_blocks(r, k), tuple((c, k) for c in range(r))


def _slope(p):
    return prime_slope(p), tuple((c, p) for c in range(p + 1))


def _extremal(k1, k2):
    return two_colour_extremal(k1, k2), ((0, k1), (1, k2))


def _p4(n):
    return p4_blowup(n), ((0, n // 4 + 1), (1, n // 4 + 1))


GRAPHS = {
    "multicolour_blocks(2, 3)": lambda: _blocks(2, 3),
    "multicolour_blocks(3, 3)": lambda: _blocks(3, 3),
    "multicolour_blocks(4, 2)": lambda: _blocks(4, 2),
    "prime_slope(2)": lambda: _slope(2),
    "prime_slope(3)": lambda: _slope(3),
    "two_colour_extremal(2, 5)": lambda: _extremal(2, 5),
    "two_colour_extremal(3, 3)": lambda: _extremal(3, 3),
    "two_colour_extremal(3, 9)": lambda: _extremal(3, 9),
    "p4_blowup(4)": lambda: _p4(4),
    "p4_blowup(7)": lambda: _p4(7),
    "p4_blowup(10)": lambda: _p4(10),
}

PINS = {
    ("multicolour_blocks(2, 3)", PER_VERTEX_LEX): "cfd238a3cbf8bbf9de487e80016000aeb8a83279450672fd515543912e8ff556",
    ("multicolour_blocks(2, 3)", ALL_CLIQUES): "14cc640d135d61682f8fdd7f84633a3dadc224d423e39d9596de8c52f4cf338d",
    ("multicolour_blocks(3, 3)", PER_VERTEX_LEX): "63115ad9e5dcba0aa3ff2cf1d019025d8a4a8e8ec901b56512918381b23b0f33",
    ("multicolour_blocks(3, 3)", ALL_CLIQUES): "5bd1ff16da698951be05c7c8a651c876d4d5f5c3ff0bf03103f19a020233e0c3",
    ("multicolour_blocks(4, 2)", PER_VERTEX_LEX): "eeb2bca3a1d6a06a8d70ed2687bf3e8684a507b54b9ae2c1f610bca0f80bfeff",
    ("multicolour_blocks(4, 2)", ALL_CLIQUES): "e4d3a402ffd2164e09b67f9c5018feb010459a493cea3151b452b1334f64f327",
    ("prime_slope(2)", PER_VERTEX_LEX): "7309d0691808a7586fb56d2591885301235fb17b6bb286cb0b63b8971bef305a",
    ("prime_slope(2)", ALL_CLIQUES): "5841fb81440752d0da03a97945ff3e4591150b7a552bb0be2ca7510c9c40749b",
    ("prime_slope(3)", PER_VERTEX_LEX): "c9c8577aed0f4fae27cd11261316668ecc111786591a5acbd4c8d793e4035448",
    ("prime_slope(3)", ALL_CLIQUES): "806fd959cfef5e694b7de9fc64b2a6a64e8782bf2b7fcfc2ce391ee79e6c6204",
    ("two_colour_extremal(2, 5)", PER_VERTEX_LEX): "4eb6d661586a65db1203a9a23e085afeb66d67c4dfa90c89a2cad8d239ce345c",
    ("two_colour_extremal(2, 5)", ALL_CLIQUES): "acd5fd4eaad0c8cf90b54db12b4c672e09b23cc430d5c492179d1dd4ad707880",
    ("two_colour_extremal(3, 3)", PER_VERTEX_LEX): "c39103a88e6874ce36d8aceb5c17b70015346bd9da8830181c36a2d70fc757e0",
    ("two_colour_extremal(3, 3)", ALL_CLIQUES): "7268ce7e7be56d83eea0c5d834ba38a17330a2ac59474978b2d77bef48bfc42e",
    ("two_colour_extremal(3, 9)", PER_VERTEX_LEX): "4edace39bacd770d347aaf2c4c373540818c623061bb421a695a3218310b282e",
    ("two_colour_extremal(3, 9)", ALL_CLIQUES): "267284495625ee0d4621794506f8df758450ce21f31558a6285df6b8ad83128c",
    ("p4_blowup(4)", PER_VERTEX_LEX): "71e541c03892690cd091dff1e1ec56123ec0f9b1a499245f15bd07ad35b95802",
    ("p4_blowup(4)", ALL_CLIQUES): "02d3c82e9674c3054b7597f2922c0d7243361b55c2ae62d3099466aca542c6f5",
    ("p4_blowup(7)", PER_VERTEX_LEX): "1744506daf17de71c9f90ce94633d76c58a857faa0f14455a58e0fea921c4c2a",
    ("p4_blowup(7)", ALL_CLIQUES): "271ffaf804e39b52c798e8e42f64db509e00f374b8a16ff93373f8dfda9e3deb",
    ("p4_blowup(10)", PER_VERTEX_LEX): "ffadc59733a62f2c4edc2db3e595a139aa52d26a2aec83de66ea57955f31a612",
    ("p4_blowup(10)", ALL_CLIQUES): "86c9fc6eee25ac5a617197abbd69eec13525a32fa028b9b6213dcc5287dafe0b",
}


@pytest.mark.parametrize("policy", [PER_VERTEX_LEX, ALL_CLIQUES])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_certificate_bytes_are_pinned(name, policy):
    g, targets = GRAPHS[name]()
    text = certify(g, targets, policy=policy).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[name, policy]


def _relabelled(g, seed):
    """g with every vertex v moved to perm[v], for a fixed-seed random perm."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    cols = [0] * len(g.colours)
    for (u, v), c in zip(pairs(g.n), g.colours):
        cols[pair_index(g.n, perm[u], perm[v])] = c
    return EdgeColouredGraph(g.n, g.r, tuple(cols))


# Relabelled n = 200 extremal graphs under per-vertex-lex: colour 0's
# family refines in six rounds to 29 or 30 vertex cells and 20 clique cells,
# far more than any small pin above reaches.
RELABELLED_PINS = {
    (19, 99): "8ee60ce067bf46ab5b667b44a6264c1b699eaac486a65e928cdfcefd0c12f3b7",
    (99, 19): "7daa9bda7c652ccbf67afc6936949f6ded12adbbda92a56025ddbe4f2edf1f4a",
}


@pytest.mark.parametrize("k1,k2", sorted(RELABELLED_PINS))
def test_relabelled_extremal_certificate_bytes_are_pinned(k1, k2):
    g = _relabelled(two_colour_extremal(k1, k2), 20240)
    assert g.n == 200
    text = certify(g, ((0, k1), (1, k2)), policy=PER_VERTEX_LEX).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == RELABELLED_PINS[k1, k2]
