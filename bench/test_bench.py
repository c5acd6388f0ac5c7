"""The benchmark's own tests: a wrong output, an exception or a non-zero CLI
exit counts as a failed op; the tracer's arithmetic; the bare-checkout exit.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from enabling import certificates, constructions, lp  # noqa: E402

W = workloads.WORKLOADS


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(path.parent.iterdir()):
        path.parent.rmdir()


def _extremal(seed=3):
    return workloads._extremal([(2, 5), (5, 10)], workloads.relabellings(seed))


def _run(workload, inputs, pins=None):
    return workload.measure(inputs, pins, 0.0)[0]


def test_measure_makes_one_pass_then_repeats_what_fits():
    def unit(label, meter, pins):
        meter.run("sleep", label, lambda: time.sleep(0.002))

    toy = workloads.Workload("toy", (), False, True, None, unit)
    meter, passes = toy.measure(["a", "b"], None, 0.0)
    assert passes == 1.0 and meter.attempted == 2
    rounds = []
    meter, passes = toy.measure(["a", "b"], None, 0.1, lambda: rounds.append(1) or ["a", "b"])
    assert passes > 2 and meter.attempted == 2 * passes and len(rounds) >= passes - 1
    assert 0.004 <= meter.wall_s < 0.02 and set(meter.phase_s()) == {"sleep"}


def test_relabel_is_a_colour_preserving_bijection():
    g = constructions.two_colour_extremal(5, 10)
    cols = workloads.relabel(g, workloads.relabellings(7))
    assert workloads.relabel(g, None) == g.colours
    assert cols != g.colours and sorted(cols) == sorted(g.colours)


def test_correct_outputs_pass_and_pin_themselves():
    inputs = _extremal()
    meter = _run(W["certify_lex_large"], inputs)
    assert (meter.attempted, meter.failed) == (4, 0)
    again = _run(W["certify_lex_large"], inputs, meter.summaries)
    assert again.failed == 0


def test_output_that_differs_from_its_pin_is_a_failed_op():
    inputs = _extremal()
    pins = _run(W["certify_lex_large"], inputs).summaries
    pins["5,10"] = dict(pins["5,10"], delta=["1/2", "1/2"])
    meter = _run(W["certify_lex_large"], inputs, pins)
    assert (meter.attempted, meter.failed) == (4, 1)
    assert "certify 5,10" in meter.failures[0]


def test_checker_issue_and_exception_are_failed_ops(monkeypatch):
    monkeypatch.setattr(certificates, "check_certificate", lambda g, doc: ["forged"])
    meter = _run(W["certify_lex_large"], _extremal())
    assert meter.failed == 2 and "forged" in meter.failures[0]

    def boom(*args, **kwargs):
        raise ArithmeticError("solver fell over")

    monkeypatch.setattr(certificates, "certify", boom)
    meter = _run(W["certify_lex_large"], _extremal())
    assert (meter.attempted, meter.failed) == (2, 2)
    assert "ArithmeticError" in meter.failures[0]


def test_cli_nonzero_exit_and_failed_check_are_failed_ops(workdir, monkeypatch):
    g = constructions.multicolour_blocks(2, 3)
    graph = workdir / "g.json"
    graph.write_text(g.to_json(), encoding="utf-8")
    case = workloads.CliCase("blocks 2,3", g.n, str(graph), str(workdir / "c.json"), "0:3,1:3")
    pins = _run(W["cli_all_small"], [case]).summaries
    assert _run(W["cli_all_small"], [case], pins).failed == 0

    monkeypatch.setattr(certificates, "check_certificate", lambda g, doc: ["forged"])
    meter = _run(W["cli_all_small"], [case], pins)
    assert (meter.attempted, meter.failed) == (3, 1)
    assert "check blocks 2,3: exit code 1" == meter.failures[0]

    impossible = workloads.CliCase("too big", g.n, str(graph), str(workdir / "c.json"), "0:4,1:4")
    meter = _run(W["cli_all_small"], [impossible])
    assert (meter.attempted, meter.failed) == (2, 2)


def test_search_and_sweep_mismatches_are_failed_ops():
    search = W["search_exhaustive"]
    inputs = [("refute", 7, 3, 3), ("witness", 4, 2, 2)]
    pins = _run(search, inputs).summaries
    assert pins["4,2,2"]["found"] is True
    pins["7,3,3"]["graphs_pruned"] += 1
    meter = _run(search, inputs, pins)
    assert (meter.attempted, meter.failed) == (2, 1)
    assert _run(search, [("witness", 3, 2, 2)]).failed == 1

    sweep = W["verify_sweep"]
    inputs = _extremal()
    pins = _run(sweep, inputs).summaries
    pins["2,5"] = [1, 1]
    assert _run(sweep, inputs, pins).failed == 1


def test_pins_apply_at_seed_zero_and_wherever_relabelling_cannot_move_them():
    assert W["certify_lex_large"].pins(1) is None
    assert W["verify_sweep"].pins(0) is not None
    assert W["cli_all_small"].pins(5) is not None
    assert W["search_exhaustive"].pins(5) is not None


def test_tracer_self_time_nesting_and_counts():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(20000))
    ns.outer = lambda depth: ns.outer(depth - 1) if depth else [ns.inner(), ns.inner()]
    originals = dict(vars(ns))
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "t.inner", None)
    tracer.wrap(ns, "outer", "t.outer", lambda counts, args, out: counts.update(t=1))
    try:
        ns.outer(2)
    finally:
        tracer.uninstall()
    total, self_s, calls = tracer.by_name()
    assert calls == {"t.outer": 3, "t.inner": 2}
    assert tracer.counts["t"] == 3
    assert total["t.outer"] > total["t.inner"] > 0
    assert self_s["t.outer"] == pytest.approx(total["t.outer"] - total["t.inner"])
    assert vars(ns) == originals


def test_traced_pass_reports_layers_and_missing_private_lp(monkeypatch):
    bindings = [b for b in tracing.BINDINGS if b[1] != "_simplex"]
    monkeypatch.setattr(tracing, "BINDINGS", [(lp, "_gone", "lp.simplex", None)] + bindings)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        meter = _run(W["certify_lex_large"], _extremal())
    finally:
        tracer.uninstall()
    values, missing = tracing.layer_metrics(tracer, meter.wall_s, meter.wall_s)
    assert missing == ["lp.simplex_s"]
    assert values["lp.solves"] == 8 and values["lp.rows"] > 0
    assert values["lp.audit_s"] > 0 and values["certificates.check_s"] > 0
    assert values["trace.overhead_s"] == 0
    assert certificates.solve_lp_exact is lp.solve_lp_exact


def test_bare_checkout_exits_nonzero_without_a_result(workdir):
    shutil.copytree(ROOT / "bench", workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search_exhaustive",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no program" in proc.stderr


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(W)
    layer = {m["name"] for m in spec["per_layer"]}
    assert layer == set(tracing.SPAN_METRICS) | set(tracing.COUNT_METRICS) | {
        "search.prune_ratio", "search.cover_checks", "search.masks_per_s",
        "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_speed_probe_samples_through_an_op_and_leaves_its_time_out():
    probe = speed.SpeedProbe(period=0.01)
    meter = workloads.Meter(probe)
    probe.start()
    try:
        meter.run("busy", "busy", lambda: sum(i * i for i in range(2_000_000)))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    (t0, t1, d), = meter.spans["busy"]
    assert len(probe.took) >= 4 and probe.stolen > 0
    outside = sum(probe.took[:speed.BURST] + probe.took[-speed.BURST:])
    assert d == pytest.approx(t1 - t0 - (probe.stolen - outside), abs=1e-3)
    assert probe.scale(t0, t1) == pytest.approx(
        speed.REFERENCE_S / statistics.fmean(probe.took))
    assert meter.phase_s(scaled=True)["busy"] == pytest.approx(d * probe.scale(t0, t1))
