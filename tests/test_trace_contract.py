"""The benchmark's traced run rebinds layer functions by name; when one of
them disappears, its metrics are dropped from the result.  This keeps every
per-layer metric that BENCHMARK.json declares reachable."""

import json
from pathlib import Path

from enabling import certificates, cliques, constructions

ROOT = Path(__file__).resolve().parent.parent


def test_traced_certify_reports_every_declared_per_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]}
    assert len(names) == 30
    g = constructions.two_colour_extremal(3, 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for policy in (cliques.ALL_CLIQUES, cliques.PER_VERTEX_LEX):
            doc = json.loads(
                certificates.certify(g, ((0, 3), (1, 3)), policy=policy).to_json()
            )
            assert certificates.check_certificate(g, doc) == []
    finally:
        tracer.uninstall()
    metrics, missing = tracing.layer_metrics(tracer, 1.0, 0.5)
    assert missing == []
    assert set(metrics) == names
    # One LP per colour, audited by lp on its quotient; compute_delta checks
    # the lifted solution at full size itself, outside lp.
    _, _, calls = tracer.by_name()
    assert metrics["lp.solves"] == calls["certificates.delta"] == 4
    assert calls["lp.simplex"] == 4 and calls["lp.audit"] == 4
    assert calls["certificates.mu"] == 4
