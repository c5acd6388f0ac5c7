"""Mutation fuzzing of whole certificate documents: ``check_certificate`` is
total (a list of str, never an exception) whatever is replaced, deleted or
appended, and it rejects a wrong delta, lambda value or index entry, or
clique vertex."""

import copy
import json
from fractions import Fraction
from functools import cache

from hypothesis import given, settings, strategies as st

from enabling.certificates import certify, check_certificate
from enabling.cliques import ALL_CLIQUES, PER_VERTEX_LEX
from enabling.constructions import multicolour_blocks, two_colour_extremal

CASES = (
    ("extremal 3,3", ALL_CLIQUES),
    ("extremal 3,3", PER_VERTEX_LEX),
    ("blocks 3,3", ALL_CLIQUES),
    ("blocks 3,3", PER_VERTEX_LEX),
)

POOL = (
    None, True, False, float("nan"), 10**30, -1, 0, "", "1/3", "x",
    {"num": "1", "den": "0"}, {"num": "-1", "den": "2"}, {"num": 1, "den": "3"},
    {"num": "1"}, {"num": "1", "den": " 3"}, {"num": ["1"], "den": "3"},
    [], [1, 2], [[0, 1]], {}, {"a": 1},
)


@cache
def _case(name, policy):
    """The graph and its certificate document, as JSON text."""
    if name == "extremal 3,3":
        g, targets = two_colour_extremal(3, 3), ((0, 3), (1, 3))
    else:
        g, targets = multicolour_blocks(3, 3), tuple((c, 3) for c in range(3))
    return g, certify(g, targets, policy).to_json()


def _paths(node, prefix=()):
    """The path of every value below node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(doc, path, op, value):
    *head, key = path
    parent = doc
    for step in head:
        parent = parent[step]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent[key], list):
        parent[key].append(value)
    elif isinstance(parent, list):
        parent.append(value)
    else:
        parent["extra"] = value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_mutated_documents_give_issues_never_exceptions(case, data):
    g, text = _case(*case)
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(doc))
        if not paths:
            break
        _mutate(doc, data.draw(st.sampled_from(paths), label="path"),
                data.draw(st.sampled_from(["replace", "delete", "append"]), label="op"),
                copy.deepcopy(data.draw(st.sampled_from(POOL), label="value")))
    issues = check_certificate(g, doc)
    assert isinstance(issues, list) and all(isinstance(i, str) for i in issues)


def _rational(x):
    return {"num": str(x.numerator), "den": str(x.denominator)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_a_wrong_delta_lambda_entry_or_clique_vertex_is_rejected(case, data):
    g, text = _case(*case)
    doc = json.loads(text)
    assert check_certificate(g, doc) == []
    cert = data.draw(st.sampled_from(doc["certificates"]), label="colour")
    shift = Fraction(data.draw(st.sampled_from([-1, 1]), label="sign"),
                     data.draw(st.integers(1, 50), label="step"))
    field = data.draw(st.sampled_from(["delta", "lambda", "index", "clique"]),
                      label="field")
    if field == "delta":
        d = cert["delta"]
        cert["delta"] = _rational(Fraction(int(d["num"]), int(d["den"])) + shift)
    elif field in ("lambda", "index"):
        # A vertex's lambda value moves: in place, for its whole cell, or as
        # a value of its own that its index entry is pointed at.  Either way
        # lambda no longer sums to 1.
        values, index = cert["lambda"]["values"], cert["lambda"]["index"]
        i = data.draw(st.integers(0, g.n - 1), label="vertex")
        d = values[index[i]]
        w = Fraction(int(d["num"]), int(d["den"]))
        moved = _rational(w + shift if w + shift >= 0 else w - shift)
        if field == "lambda":
            values[index[i]] = moved
        else:
            values.append(moved)
            index[i] = len(values) - 1
    else:
        q = data.draw(st.sampled_from(cert["cliques"]), label="clique")
        i = data.draw(st.integers(0, len(q) - 1), label="position")
        # a member again, or a vertex that leaves the set no clique of the colour
        bad = [w for w in range(g.n) if w != q[i] and (
            w in q or not g.is_monochromatic_clique(q[:i] + [w] + q[i + 1:],
                                                    cert["colour"]))]
        q[i] = data.draw(st.sampled_from(bad), label="vertex")
    assert check_certificate(g, doc)
