"""Outside-in tracing of the program's layers.

The traced run rebinds each layer function under the name its callers use
(``certificates.solve_lp_exact`` is the binding ``compute_delta`` calls,
``cli.verify_enabling`` the one the CLI calls), records one span per call
with its name, start, end and parent, and takes counts at the same
boundaries.  Nothing under ``src/`` changes; ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

from enabling import certificates, cli, cliques, constructions, graphs, lp, search

Hook = Callable[[Counter, dict, object], None]


def _count_lp(counts: Counter, args: dict, out) -> None:
    counts["lp.rows"] += len(args["constraints"])
    counts["lp.cols"] += len(args["objective"])
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length())
         for x in (*out.primal, *out.dual)),
        default=0,
    )
    counts["lp.max_bits"] = max(counts["lp.max_bits"], bits)


def _count_family(counts: Counter, args: dict, out) -> None:
    counts["cliques.family_cliques"] += len(out.cliques)


def _count_search(counts: Counter, args: dict, out) -> None:
    counts["search.masks"] += out.graphs_enumerated
    counts["search.pruned"] += out.graphs_pruned


# (owner, attribute, span name, count hook).  Each binding a caller uses is
# listed, so every call is seen once.  The two private lp functions are
# optional: when a later version drops them, their metrics read as missing.
BINDINGS = (
    (lp, "_simplex", "lp.simplex", None),
    (lp, "_certify_optimal", "lp.audit", None),
    (certificates, "solve_lp_exact", "lp.solve", _count_lp),
    (certificates, "certify", "certificates.certify", None),
    (certificates, "compute_delta", "certificates.delta", None),
    (certificates, "construct_mu", "certificates.mu", None),
    (certificates, "check_pairwise_intersections", "certificates.pairwise", None),
    (certificates, "check_certificate", "certificates.check", None),
    (certificates.CertificationResult, "to_json", "certificates.serialize", None),
    (certificates.CertificationResult, "to_json_dict", "certificates.serialize", None),
    (certificates, "verify_enabling", "cliques.verify", None),
    (cliques, "verify_enabling", "cliques.verify", None),
    (cli, "verify_enabling", "cliques.verify", None),
    (search, "verify_enabling", "cliques.verify", None),
    (certificates, "choose_family", "cliques.family", _count_family),
    (cliques, "choose_family", "cliques.family", _count_family),
    (cliques, "enumerate_cliques", "cliques.enumerate", None),
    (graphs.EdgeColouredGraph, "adjacency", "graphs.adjacency", None),
    (graphs.EdgeColouredGraph, "is_monochromatic_clique", "graphs.clique_test", None),
    (search, "exists_enabling", "search.exists", _count_search),
    (cli, "exists_enabling", "search.exists", _count_search),
    (cli, "main", "cli.main", None),
    (constructions, "integer_extremal_pairs", "constructions.build", None),
    (constructions, "two_colour_extremal", "constructions.build", None),
    (constructions, "multicolour_blocks", "constructions.build", None),
    (constructions, "prime_slope", "constructions.build", None),
)

# Per-layer metric -> (span name, what to take from its spans).  "total" sums
# the spans of that name not nested in another of the same name; "self"
# subtracts the time their child spans cover; "calls" counts them.
SPAN_METRICS = {
    "lp.solve_s": ("lp.solve", "total"),
    "lp.simplex_s": ("lp.simplex", "total"),
    "lp.audit_s": ("lp.audit", "total"),
    "lp.solves": ("lp.solve", "calls"),
    "certificates.delta_s": ("certificates.delta", "total"),
    "certificates.mu_s": ("certificates.mu", "total"),
    "certificates.pairwise_s": ("certificates.pairwise", "total"),
    "certificates.certify_self_s": ("certificates.certify", "self"),
    "certificates.serialize_s": ("certificates.serialize", "total"),
    "certificates.check_s": ("certificates.check", "total"),
    "graphs.adjacency_s": ("graphs.adjacency", "total"),
    "graphs.clique_test_s": ("graphs.clique_test", "total"),
    "graphs.clique_test_calls": ("graphs.clique_test", "calls"),
    "cliques.verify_s": ("cliques.verify", "total"),
    "cliques.family_s": ("cliques.family", "total"),
    "cliques.enumerate_s": ("cliques.enumerate", "total"),
    "cli.self_s": ("cli.main", "self"),
    "cli.calls": ("cli.main", "calls"),
    "constructions.build_s": ("constructions.build", "total"),
}

# Counts taken by hooks -> the span whose binding takes them.
COUNT_METRICS = {
    "lp.rows": "lp.solve",
    "lp.cols": "lp.solve",
    "lp.max_bits": "lp.solve",
    "cliques.family_cliques": "cliques.family",
    "search.masks": "search.exists",
    "search.pruned": "search.exists",
}

UNITS = {
    "lp.max_bits": "bits",
    "search.prune_ratio": "ratio",
    "search.masks_per_s": "1/s",
}


def unit(metric: str) -> str:
    return UNITS.get(metric, "s" if metric.endswith("_s") else "count")


class Tracer:
    """Spans kept in memory as [name, start, end, parent, outermost]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, hook: Optional[Hook]) -> None:
        fn = vars(owner).get(attr)
        if fn is None:
            return
        sig = inspect.signature(fn) if hook else None
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if hook is not None:
                hook(counts, sig.bind(*args, **kwargs).arguments, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))
        self.installed.add(name)

    def install(self) -> None:
        for owner, attr, name, hook in BINDINGS:
            self.wrap(owner, attr, name, hook)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def by_name(self) -> tuple[Counter, Counter, Counter]:
        """Outermost total time, self time and call count per span name."""
        total, self_s, calls = Counter(), Counter(), Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, outer) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if outer:
                total[name] += end - start
        return total, self_s, calls


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float
                  ) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the names of those that cannot be taken
    because their function no longer exists."""
    total, self_s, calls = tracer.by_name()
    kinds = {"total": total, "self": self_s, "calls": calls}
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric, (span, kind) in SPAN_METRICS.items():
        if span in tracer.installed:
            values[metric] = kinds[kind][span]
        else:
            missing.append(metric)
    for metric, span in COUNT_METRICS.items():
        if span in tracer.installed:
            values[metric] = tracer.counts[metric]
        else:
            missing.append(metric)
    if "search.exists" in tracer.installed:
        masks, pruned = tracer.counts["search.masks"], tracer.counts["search.pruned"]
        values["search.prune_ratio"] = pruned / masks if masks else 0.0
        values["search.cover_checks"] = masks - pruned
        seconds = total["search.exists"]
        values["search.masks_per_s"] = masks / seconds if seconds else 0.0
    else:
        missing += ["search.prune_ratio", "search.cover_checks", "search.masks_per_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values, missing
