import argparse
import hashlib
import io
import json
import re
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from enabling import certificates, cli, constructions, lp, search
from enabling.cli import main
from enabling.graphs import EdgeColouredGraph, monochromatic_complete


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_construct_emits_graph_json_with_metadata(capsys):
    code, out, _ = run(capsys, "construct", "--family", "p4", "--params", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8
    assert doc["meta"]["construction"] == "p4"
    # the graph payload itself parses
    assert EdgeColouredGraph.from_json_dict(doc).n == 8


def test_construct_then_verify_pipe(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--family", "extremal", "--params", "3,9")
    assert code == 0
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "--graph", str(path), "--targets", "0:3,1:9")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_construct_extremal_metadata_for_a_non_square_pair(capsys):
    # (2, 3): a, b = 1, 2, t = 3, x = 1, y = 2, so |R| = 2 and |B| = 4
    code, out, _ = run(capsys, "construct", "--family", "extremal", "--params", "2,3")
    assert code == 0
    doc = json.loads(out)
    meta = doc["meta"]
    assert meta["params"] == {"k1": 2, "k2": 3, "x": 1, "y": 2, "|R|": 2, "|B|": 4}
    assert meta["label_map"].startswith(
        "vertices 0..1 form the red clique R, 2..5 form the blue clique B"
    )
    g = EdgeColouredGraph.from_json_dict(doc)
    assert g.n == 6
    assert g.is_monochromatic_clique(range(2), 0)
    assert g.is_monochromatic_clique(range(2, 6), 1)


def test_verify_failure_exits_one(tmp_path, capsys):
    g = EdgeColouredGraph(4, 2, (0,) * 6)
    path = tmp_path / "red.json"
    path.write_text(g.to_json())
    code, out, err = run(capsys, "verify", "--graph", str(path), "--targets", "0:2,1:2")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["first_failure"] == [0, 1]


def test_certify_exits_zero_and_emits_exact_rationals(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--family", "p4", "--params", "4")
    path = tmp_path / "p4.json"
    path.write_text(out)
    code, out, _ = run(capsys, "certify", "--graph", str(path), "--targets", "0:2,1:2")
    assert code == 0
    doc = json.loads(out)
    deltas = [c["delta"] for c in doc["certificates"]]
    assert deltas == [{"num": "1", "den": "2"}, {"num": "1", "den": "2"}]
    assert doc["bound"]["ceiling"] == 4


def test_certify_single_target_exits_zero(tmp_path, capsys):
    # One colour of K5 has delta 1 > 1/2: its bound 5 is k/delta, and no
    # invariant is falsified.
    path = tmp_path / "k5.json"
    path.write_text(monochromatic_complete(5, r=1).to_json())
    assert run(capsys, "verify", "--graph", str(path), "--targets", "0:5")[0] == 0
    code, out, _ = run(capsys, "certify", "--graph", str(path), "--targets", "0:5")
    assert code == 0
    assert json.loads(out)["bound"]["ceiling"] == 5
    cert = tmp_path / "k5.cert.json"
    cert.write_text(out)
    assert run(capsys, "certify", "--graph", str(path), "--check", str(cert))[0] == 0


def test_certify_failed_lp_audit_is_exit_three(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "construct", "--family", "p4", "--params", "4")
    path = tmp_path / "p4.json"
    path.write_text(out)
    # A zero dual vector cannot cover a positive objective.
    monkeypatch.setattr(
        lp, "_simplex",
        lambda problem: ([F(0)] * len(problem.c), [F(0)] * len(problem.rows)),
    )
    code, out, err = run(
        capsys, "certify", "--graph", str(path), "--targets", "0:2,1:2"
    )
    assert code == 3
    assert out == ""
    assert "invariant falsified: dual constraint violated" in err


def test_certify_out_of_memory_is_exit_two_with_one_hint(tmp_path, capsys, monkeypatch):
    # The default policy holds every clique; a graph with too many of them
    # runs out of memory inside certify.
    path = tmp_path / "k5.json"
    path.write_text(monochromatic_complete(5, r=1).to_json())

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(certificates, "certify", exhausted)
    code, out, err = run(capsys, "certify", "--graph", str(path), "--targets", "0:5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--policy lex" in err


def _exhausted(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["construct", "certify --policy lex"])
def test_out_of_memory_outside_the_all_policy_gives_no_hint(
    command, tmp_path, capsys, monkeypatch
):
    # Only certify's all policy holds every clique; lex holds fewer, and
    # construct holds none, so neither is told to switch to lex.
    path = tmp_path / "k5.json"
    path.write_text(monochromatic_complete(5, r=1).to_json())
    monkeypatch.setattr(constructions, "p4_blowup", _exhausted)
    monkeypatch.setattr(certificates, "certify", _exhausted)
    argv = {
        "construct": ["construct", "--family", "p4", "--params", "4"],
        "certify --policy lex": ["certify", "--graph", str(path), "--targets", "0:5",
                                 "--policy", "lex"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_certify_check_mode_round_trips(tmp_path, capsys):
    code, gout, _ = run(capsys, "construct", "--family", "p4", "--params", "4")
    gpath = tmp_path / "g.json"
    gpath.write_text(gout)
    code, cout, _ = run(
        capsys, "certify", "--graph", str(gpath), "--targets", "0:2,1:2"
    )
    cpath = tmp_path / "cert.json"
    cpath.write_text(cout)
    code, out, _ = run(capsys, "certify", "--graph", str(gpath), "--check", str(cpath))
    assert code == 0
    assert json.loads(out) == {"ok": True, "issues": []}

    # corrupt it and the checker must exit 1
    doc = json.loads(cout)
    doc["certificates"][0]["delta"] = {"num": "3", "den": "4"}
    cpath.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "certify", "--graph", str(gpath), "--check", str(cpath))
    assert code == 1
    assert json.loads(out)["ok"] is False


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["certificates"][0].update(delta={"num": "1", "den": "0"}),
        lambda d: d["certificates"][0]["lambda"]["values"][0].update(num="one"),
        lambda d: d["certificates"][0]["cliques"].__setitem__(0, [0, 7]),
        lambda d: d["certificates"][0]["cliques"].__setitem__(0, [1, 1]),
        lambda d: d["certificates"][0]["cliques"].__setitem__(0, ["0", 1]),
        lambda d: d.update(certificates=[], pairwise=[]),
        lambda d: d["certificates"][0]["lambda"]["index"].__setitem__(0, 5),
        lambda d: d["certificates"][0]["mu"]["index"].__setitem__(0, True),
        lambda d: d.update(format=3),
    ],
    ids=["zero-den", "non-numeric", "out-of-range", "repeated", "string", "empty",
         "index-out-of-range", "index-bool", "unknown-format"],
)
def test_certify_check_rejects_malformed_documents_with_exit_one(
    tmp_path, capsys, mutate
):
    gpath = tmp_path / "g.json"
    gpath.write_text(run(capsys, "construct", "--family", "p4", "--params", "4")[1])
    code, cout, _ = run(
        capsys, "certify", "--graph", str(gpath), "--targets", "0:2,1:2"
    )
    doc = json.loads(cout)
    mutate(doc)
    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(doc))
    code, out, err = run(capsys, "certify", "--graph", str(gpath), "--check", str(cpath))
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "Traceback" not in err


def test_certify_not_enabling_is_exit_one(tmp_path, capsys):
    g = EdgeColouredGraph(4, 2, (0,) * 6)
    path = tmp_path / "red.json"
    path.write_text(g.to_json())
    code, _, err = run(capsys, "certify", "--graph", str(path), "--targets", "0:2,1:2")
    assert code == 1
    assert "not enabling" in err


def test_bound_two_colour(capsys):
    code, out, _ = run(capsys, "bound", "--two-colour", "3", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower"] == 8 and doc["exact"] == 8


def test_bound_multicolour(capsys):
    code, out, _ = run(capsys, "bound", "--multicolour", "4", "3")
    assert code == 0
    assert json.loads(out)["exact"] == 9


def test_search_existence_and_exit_codes(capsys):
    code, out, err = run(
        capsys, "search", "--k1", "3", "--k2", "3", "--n", "6", "--quiet"
    )
    assert code == 1
    assert json.loads(out)["found"] is False

    code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "2", "--n", "4", "--quiet")
    assert code == 0
    doc = json.loads(out)
    assert doc["witness"] == [[0, 3], [1, 2]]
    assert "elapsed_seconds" not in doc


def test_search_min_n_mode(capsys):
    code, out, _ = run(
        capsys, "search", "--k1", "2", "--k2", "3", "--min-n", "--n-max", "8", "--quiet"
    )
    assert code == 0
    assert json.loads(out)["min_n"] == 6

    code, out, _ = run(
        capsys, "search", "--k1", "2", "--k2", "2", "--min-n", "--n-max", "3", "--quiet"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["min_n"] is None and doc["reason"] == "exceeds n_max"


def test_search_witness_out(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    code, _, _ = run(
        capsys,
        "search", "--k1", "2", "--k2", "2", "--n", "5",
        "--quiet", "--witness-out", str(wpath),
    )
    assert code == 0
    g = EdgeColouredGraph.from_json(wpath.read_text())
    assert g.n == 5


def test_search_min_n_witness_scans_each_order_once(tmp_path, capsys, monkeypatch):
    real = search.exists_enabling
    scanned = []

    def spy(n, *args, **kwargs):
        scanned.append(n)
        return real(n, *args, **kwargs)

    monkeypatch.setattr(search, "exists_enabling", spy)
    monkeypatch.setattr(cli, "exists_enabling", spy)
    wpath = tmp_path / "w.json"
    code, out, _ = run(
        capsys,
        "search", "--k1", "3", "--k2", "3", "--min-n", "--n-max", "9",
        "--quiet", "--witness-out", str(wpath),
    )
    assert code == 0 and json.loads(out)["min_n"] == 8
    assert scanned == [3, 4, 5, 6, 7, 8]
    # The same first witness on 8 vertices as existence mode writes.
    monkeypatch.undo()
    epath = tmp_path / "e.json"
    code, _, _ = run(
        capsys,
        "search", "--k1", "3", "--k2", "3", "--n", "8",
        "--quiet", "--witness-out", str(epath),
    )
    assert code == 0
    assert wpath.read_text() == epath.read_text()


def test_search_timings_flag(capsys):
    code, out, _ = run(
        capsys, "search", "--k1", "2", "--k2", "2", "--n", "4", "--quiet", "--timings"
    )
    assert code == 0
    assert "elapsed_seconds" in json.loads(out)


def test_export_dot_uses_fixed_palette(tmp_path, capsys):
    code, out, _ = run(capsys, "construct", "--family", "prime", "--params", "2")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "export-dot", "--graph", str(path))
    assert code == 0
    assert out.startswith("graph enabling {")
    assert 'color="red"' in out and 'color="blue"' in out and 'color="green"' in out
    assert out.rstrip().endswith("}")


def test_export_dot_names_colours_past_the_palette_by_hue(tmp_path, capsys):
    # prime 5 has six colours: red, blue, green, yellow, then two hues.
    code, out, _ = run(capsys, "construct", "--family", "prime", "--params", "5")
    path = tmp_path / "g.json"
    path.write_text(out)
    code, out, _ = run(capsys, "export-dot", "--graph", str(path))
    assert code == 0
    colours = set(re.findall(r'color="([^"]*)"', out))
    assert colours == {"red", "blue", "green", "yellow",
                       "0.050000,0.850,0.900", "0.668034,0.850,0.900"}


@pytest.mark.parametrize("family,params", [
    ("p4", "9"), ("extremal", "3,5"), ("blocks", "3,3"), ("prime", "5"),
])
def test_export_dot_edge_lines_give_each_pair_its_colour(tmp_path, capsys, family, params):
    code, out, _ = run(capsys, "construct", "--family", family, "--params", params)
    path = tmp_path / "g.json"
    path.write_text(out)
    g = EdgeColouredGraph.from_json(out)
    code, out, _ = run(capsys, "export-dot", "--graph", str(path))
    assert code == 0
    edges = re.findall(r'^  (\d+) -- (\d+) \[color="([^"]*)"\];$', out, re.M)
    assert len(edges) == len(g.colours)
    for u, v, name in edges:
        assert name == cli._colour_name(g.colour_of(int(u), int(v))), (u, v)


def test_construct_blocks_emits_its_parameters(capsys):
    code, out, _ = run(capsys, "construct", "--family", "blocks", "--params", "3,2")
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["r"]) == (6, 3)
    assert doc["meta"]["params"] == {"r": 3, "k": 2}
    assert doc["meta"]["label_map"] == "vertex 2*(2 - 1)*i + q is element q of block i"


DEEP_JSON = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("where", ["graph", "check", "stdin"])
def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys, monkeypatch, where):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    graph = tmp_path / "g.json"
    graph.write_text(EdgeColouredGraph(4, 2, (0,) * 6).to_json())
    if where == "graph":
        argv = ["certify", "--graph", str(deep), "--targets", "0:2"]
    elif where == "check":
        argv = ["certify", "--graph", str(graph), "--check", str(deep)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
        argv = ["certify", "--graph", "-", "--targets", "0:2"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "nests too deeply" in err


def test_outputs_are_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "search", "--k1", "2", "--k2", "3", "--n", "6", "--quiet")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "construct", "--family", "p4", "--params", "x")[0] == 2
    assert run(capsys, "construct", "--family", "extremal", "--params", "1,3")[0] == 2
    assert run(capsys, "verify", "--graph", "/nonexistent", "--targets", "0:2")[0] == 2
    assert run(capsys, "search", "--k1", "2", "--k2", "2")[0] == 2
    assert run(capsys, "certify", "--graph", "x.json")[0] == 2
    assert run(capsys, "search", "--k1", "2", "--k2", "2", "--min-n")[0] == 2
    assert run(capsys, "search", "--k1", "2", "--k2", "2", "--n", "4", "--no-prune")[0] == 2
    assert run(capsys, "construct", "--family", "blocks", "--params", "3")[0] == 2
    assert run(capsys, "bound", "--multicolour", "1", "3")[0] == 2


@pytest.mark.parametrize("targets", ["0:2,1", "0:2,:2", "0-2", "0:"])
def test_malformed_targets_exit_two(tmp_path, capsys, targets):
    path = tmp_path / "p4.json"
    path.write_text(run(capsys, "construct", "--family", "p4", "--params", "4")[1])
    code, _, err = run(capsys, "verify", "--graph", str(path), "--targets", targets)
    assert code == 2 and "expected colour:k" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_output_file_flag(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "bound", "--two-colour", "2", "2", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["exact"] == 4


def _graph_and_certificate(tmp_path, capsys):
    gpath, cpath = tmp_path / "g.json", tmp_path / "cert.json"
    gpath.write_text(run(capsys, "construct", "--family", "p4", "--params", "4")[1])
    code, cout, _ = run(capsys, "certify", "--graph", str(gpath), "--targets", "0:2,1:2")
    assert code == 0
    cpath.write_text(cout)
    return str(gpath), str(cpath)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    class Spy(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=Spy))
    for argv in (["bound", "--two-colour", "2", "3"], ["--help"], ["bogus"],
                 ["search", "--k1", "2", "--k2", "2", "--n", "4", "--quiet"]):
        run(capsys, *argv)
    cli._build_parser.cache_clear()
    assert built.count("enabling") == 1


SEARCH = ["search", "--k1", "2", "--k2", "3", "--n", "6", "--quiet"]
SEQUENCES = {
    "check then certify": (
        ["certify", "--graph", "{g}", "--check", "{c}"],
        ["certify", "--graph", "{g}", "--targets", "0:2,1:2"],
    ),
    "timings then none": (SEARCH + ["--timings"], SEARCH),
    "help then valid": (["--help"], ["bound", "--two-colour", "2", "3"]),
    "usage error then valid": (
        ["search", "--k1", "2"], ["verify", "--graph", "{g}", "--targets", "0:2,1:2"]
    ),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_parser_reuse_leaks_no_state_between_calls(tmp_path, capsys, name):
    g, c = _graph_and_certificate(tmp_path, capsys)
    calls = [[a.format(g=g, c=c) for a in argv] for argv in SEQUENCES[name]]

    def untimed(result):
        code, out, err = result
        return code, re.sub(r'"elapsed_seconds":[^,}]+', "", out), err

    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()  # this call gets a parser of its own
        alone.append(untimed(run(capsys, *argv)))
    cli._build_parser.cache_clear()
    assert [untimed(run(capsys, *argv)) for argv in calls] == alone
    assert "elapsed_seconds" not in alone[-1][1]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["search", "--min-n", "--n-max", "5", "--n", "4"], "--n"),
        (["search", "--min-n", "--n-max", "5", "--n", "0"], "--n"),
        (["search", "--min-n", "--n-max", "5", "--timings"], "--timings"),
        (["search", "--n", "4", "--n-max", "5"], "--n-max"),
        (["search", "--n", "4", "--trusted-bounds"], "--trusted-bounds"),
        (["certify", "--graph", "{g}", "--check", "{c}", "--targets", "0:2,1:2"],
         "--targets"),
        (["certify", "--graph", "{g}", "--check", "{c}", "--policy", "all"],
         "--policy"),
    ],
    ids=["min-n/n", "min-n/n=0", "min-n/timings", "exists/n-max",
         "exists/trusted-bounds", "check/targets", "check/policy"],
)
def test_flags_the_mode_ignores_are_usage_errors(tmp_path, capsys, argv, flag):
    g, c = _graph_and_certificate(tmp_path, capsys)
    if argv[0] == "search":
        argv = argv[:1] + ["--k1", "2", "--k2", "2", "--quiet"] + argv[1:]
    code, out, err = run(capsys, *(a.format(g=g, c=c) for a in argv))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.rstrip().endswith(f"does not take {flag}")


# sha256 of each construct's stdout: the family table must keep every byte.
CONSTRUCT_DIGESTS = {
    ("p4", "4"): "173366a371caae93d2974a3a7ac7165481f5e4c4d9a266d22cb01c99a077cdab",
    ("p4", "5"): "ebab9fe2e35f080df92a3690d5e077029a885aca45e43c5f7d5d63954ce8ac10",
    ("p4", "8"): "ba8f274b59ecf025ca194f7edbddeccca5458c0943b422f869d3822c600e87eb",
    ("extremal", "2,3"): "b74e93f6e95889e9cfff2aeeecc6686ff65a2a29829faf9eb26a17650c35a7ad",
    ("extremal", "3,9"): "5c0cc4882e0d30724664a337a6e4e94806b58fde8b55d88c8cfddf8388a17449",
    ("extremal", "5,5"): "0f1321f19aa595aa80859241d5762c58090ac4aef87950ba3a0ad48e00042848",
    ("blocks", "3,2"): "fb2745374f418687a3eeea1d8e3a86618a1388d6a84ba75e03b92681ffc44906",
    ("blocks", "2,4"): "31b9939bfb7b4390e8e3b19bd18daf187f77e4e2d5d907868de048856ca6c85e",
    ("prime", "2"): "7167d8603f2e38dfd6fca8cdc6b2eb468d3d2c09cfd6f572aaab1578fc13a315",
    ("prime", "5"): "9d94942f477b477cb4584b4e52c1376dff0f69bb41bb72505743a961c04d7b4c",
}


@pytest.mark.parametrize("family,params", CONSTRUCT_DIGESTS)
def test_construct_output_is_pinned(capsys, family, params):
    code, out, err = run(capsys, "construct", "--family", family, "--params", params)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[family, params]


def test_construct_families_are_offered_in_table_order(capsys):
    code, out, err = run(capsys, "construct", "--family", "bogus", "--params", "1")
    assert (code, out) == (2, "")
    assert "(choose from 'p4', 'extremal', 'blocks', 'prime')" in err


@pytest.mark.parametrize("family,params,count", [
    ("p4", "4,5", 1), ("extremal", "3", 2), ("blocks", "3,,", 2), ("prime", "", 1),
])
def test_construct_names_the_parameter_count_it_wants(capsys, family, params, count):
    code, out, err = run(capsys, "construct", "--family", family, "--params", params)
    assert (code, out) == (2, "")
    assert err == (f"error: {family} takes {count} integer parameter(s), "
                   f"got {params!r}\n")


def test_search_progress_goes_to_stderr_unless_quiet(capsys):
    argv = ["search", "--k1", "3", "--k2", "3", "--n", "7"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == "searched 1048576 graphs\nsearched 2097152 graphs\n"
    assert run(capsys, *argv, "--quiet") == (1, out, "")
    code, _, err = run(capsys, "search", "--k1", "3", "--k2", "3", "--min-n",
                       "--n-max", "7")
    assert (code, err) == (1, "searched 1048576 graphs\nsearched 2097152 graphs\n")
