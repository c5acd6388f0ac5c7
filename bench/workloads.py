"""The benchmark's workloads: inputs drawn from a seed, the timed ops run on
each input (one unit of work), and the checks that decide whether each op's
output is correct.

Every timed op gets a freshly built ``EdgeColouredGraph``, so its adjacency
cache starts empty, as it does for a user.  Calls go through module
attributes (``certificates.certify``, never a name imported here), so the
traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import fmean
from time import perf_counter
from typing import Callable, Optional

from enabling import certificates, cli, cliques, constructions, search
from enabling.graphs import EdgeColouredGraph
from speed import SpeedProbe

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class Meter:
    """Times ops, counts attempted and failed ops, and keeps each op's output
    summary so it can be compared with (or written as) a pin.

    An op that runs several times in one run keeps all its times; a phase's
    time is the sum over its ops of each op's mean, so it estimates one pass
    however many times the ops repeated.  With a ``SpeedProbe`` running, an
    op's time leaves out the probe's samples taken inside it, and
    ``phase_s(scaled=True)`` gives the times in reference seconds.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.probe = probe
        self.spans: dict[str, list[tuple[float, float, float]]] = {}  # start, end, time
        self.phase_of: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.summaries: dict[str, object] = {}

    def phase_s(self, scaled: bool = False) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, spans in self.spans.items():
            if scaled:
                times = [d * self.probe.scale(t0, t1) for t0, t1, d in spans]
            else:
                times = [d for _, _, d in spans]
            phase = self.phase_of[label]
            out[phase] = out.get(phase, 0.0) + fmean(times)
        return out

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s().values())

    def run(self, phase: str, label: str, fn: Callable[[], object]):
        """Time one op; return its output, or None after counting a failure."""
        self.attempted += 1
        stolen = self.probe.stolen if self.probe else 0.0
        t0 = perf_counter()
        try:
            return fn()
        except Exception as exc:  # any exception is a failed op, not a crash
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            t1 = perf_counter()
            if self.probe:
                stolen = self.probe.stolen - stolen
            self.spans.setdefault(label, []).append((t0, t1, t1 - t0 - stolen))
            self.phase_of[label] = phase

    def check(self, label: str, problems: Callable[[], list[str]]) -> None:
        """Count the op as failed when its output check finds a problem."""
        try:
            found = problems()
        except Exception as exc:
            found = [f"output check raised {type(exc).__name__}: {exc}"]
        if found:
            self.fail(label, "; ".join(found))

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {why}")

    def pin(self, label: str, pins: Optional[dict], summary: object) -> list[str]:
        """Record an output summary; compare it with the pin when pins apply."""
        summary = json.loads(json.dumps(summary))
        self.summaries[label] = summary
        if pins is not None and pins.get(label) != summary:
            return [f"output {summary!r} differs from pinned {pins.get(label)!r}"]
        return []


# ---------------------------------------------------------------- inputs


@dataclass(frozen=True)
class Instance:
    """One input graph, stored as plain data so each op can build it afresh."""

    label: str
    n: int
    r: int
    colours: tuple[int, ...]
    targets: tuple[tuple[int, int], ...]

    def graph(self) -> EdgeColouredGraph:
        return EdgeColouredGraph(self.n, self.r, self.colours)


def relabellings(seed: int) -> Optional[random.Random]:
    """The stream each set-up draws its relabellings from: None, the
    identity, at seed 0.  Each round of a run draws fresh ones, so a run
    averages the work of several relabellings, and round k of a run gets
    the same inputs at the same seed."""
    return None if seed == 0 else random.Random(seed)


def relabel(g: EdgeColouredGraph, rng: Optional[random.Random]) -> tuple[int, ...]:
    """Colour sequence of g after moving vertex v to perm[v], for a uniformly
    random perm (the identity when rng is None).

    The same loop runs for the identity, so set-up work does not depend on
    the seed.
    """
    n = g.n
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    inv = [0] * n
    for v, p in enumerate(perm):
        inv[p] = v
    old = g.colours
    base = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]
    out = []
    for a in range(n):
        u = inv[a]
        bu = base[u]
        for b in range(a + 1, n):
            v = inv[b]
            out.append(old[bu + v] if u < v else old[base[v] + u])
    return tuple(out)


def _instance(label: str, g: EdgeColouredGraph, targets, rng) -> Instance:
    return Instance(label, g.n, g.r, relabel(g, rng), tuple(targets))


def _extremal(pairs, rng) -> list[Instance]:
    return [
        _instance(f"{k1},{k2}", constructions.two_colour_extremal(k1, k2),
                  ((0, k1), (1, k2)), rng)
        for k1, k2 in pairs
    ]


def _rat(doc: dict) -> str:
    return f"{doc['num']}/{doc['den']}"


def _certificate_problems(
    inst_n: int, label: str, doc: dict, meter: Meter, pins: Optional[dict]
) -> list[str]:
    """Pinned deltas and bound ceiling, and a bound no larger than n."""
    summary = {
        "delta": [_rat(c["delta"]) for c in doc["certificates"]],
        "ceiling": doc["bound"]["ceiling"],
    }
    problems = meter.pin(label, pins, summary)
    bound = Fraction(_rat(doc["bound"]["value"]))
    if bound > inst_n:
        problems.append(f"bound {bound} exceeds n={inst_n}")
    return problems


def _is_clique(adj: tuple[int, ...], clique) -> bool:
    mask = 0
    for v in clique:
        mask |= 1 << v
    return all((adj[v] | 1 << v) & mask == mask for v in clique)


# ------------------------------------------------------ certify_lex_large


def setup_certify_lex_large(rng, workdir: Path) -> list[Instance]:
    return _extremal(constructions.integer_extremal_pairs(200)[-12:], rng)


def unit_certify_lex_large(inst: Instance, meter: Meter, pins) -> None:
    g = inst.graph()
    text = meter.run(
        "certify", f"certify {inst.label}",
        lambda: certificates.certify(
            g, inst.targets, policy=cliques.PER_VERTEX_LEX
        ).to_json(),
    )
    if text is None:
        return
    g = inst.graph()
    issues = meter.run(
        "check", f"check {inst.label}",
        lambda: certificates.check_certificate(g, json.loads(text)),
    )
    if issues is not None:
        meter.check(f"check {inst.label}", lambda: list(issues))
    meter.check(
        f"certify {inst.label}",
        lambda: _certificate_problems(inst.n, inst.label, json.loads(text), meter, pins),
    )


# ---------------------------------------------------------- cli_all_small


@dataclass(frozen=True)
class CliCase:
    label: str
    n: int
    graph: str
    cert: str
    targets: str


def setup_cli_all_small(rng, workdir: Path) -> list[CliCase]:
    built = []
    for r in range(2, 5):
        for k in range(2, 7):
            built.append((f"blocks {r},{k}", constructions.multicolour_blocks(r, k),
                          [(c, k) for c in range(r)]))
    for p in (2, 3, 5, 7):
        built.append((f"prime {p}", constructions.prime_slope(p),
                      [(c, p) for c in range(p + 1)]))
    for k1, k2 in constructions.integer_extremal_pairs(24):
        built.append((f"extremal {k1},{k2}", constructions.two_colour_extremal(k1, k2),
                      [(0, k1), (1, k2)]))
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for i, (label, g, targets) in enumerate(built):
        inst = _instance(label, g, targets, rng)
        path = workdir / f"graph{i:02d}.json"
        path.write_text(inst.graph().to_json() + "\n", encoding="utf-8")
        cases.append(CliCase(label, inst.n, str(path), str(workdir / f"cert{i:02d}.json"),
                             ",".join(f"{c}:{k}" for c, k in targets)))
    return cases


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_ok(res: tuple[int, str], field: str) -> list[str]:
    code, out = res
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(out)
    return [] if doc.get(field) is True else [f"{field} is not true: {out[:200]}"]


def unit_cli_all_small(case: CliCase, meter: Meter, pins) -> None:
    res = meter.run(
        "verify", f"verify {case.label}",
        lambda: _cli(["verify", "--graph", case.graph, "--targets", case.targets]),
    )
    if res is not None:
        meter.check(f"verify {case.label}", lambda: _cli_ok(res, "ok"))
    res = meter.run(
        "certify", f"certify {case.label}",
        lambda: _cli(["certify", "--graph", case.graph, "--targets", case.targets,
                      "-o", case.cert]),
    )
    if res is None:
        return
    if res[0] != 0:
        meter.fail(f"certify {case.label}", f"exit code {res[0]}")
        return
    meter.check(
        f"certify {case.label}",
        lambda: _certificate_problems(
            case.n, case.label,
            json.loads(Path(case.cert).read_text(encoding="utf-8")), meter, pins,
        ),
    )
    res = meter.run(
        "check", f"check {case.label}",
        lambda: _cli(["certify", "--graph", case.graph, "--check", case.cert]),
    )
    if res is not None:
        meter.check(f"check {case.label}", lambda: _cli_ok(res, "ok"))


# ------------------------------------------------------ search_exhaustive

SEARCH_INSTANCES = (
    ("refute", 7, 3, 3),
    ("refute", 7, 2, 4),
    ("refute", 8, 2, 6),
    ("witness", 10, 3, 4),
    ("witness", 8, 3, 3),
    ("witness", 9, 2, 5),
)


def setup_search_exhaustive(rng, workdir: Path):
    """The search walks the whole labelled space, so the seed changes nothing."""
    return list(SEARCH_INSTANCES)


def _search_problems(phase, label, rep, meter, pins) -> list[str]:
    summary = {
        "found": rep.found,
        "graphs_enumerated": rep.graphs_enumerated,
        "graphs_pruned": rep.graphs_pruned,
        "witness": None if rep.witness is None else [list(e) for e in rep.witness],
    }
    problems = meter.pin(label, pins, summary)
    if rep.found != (phase == "witness"):
        problems.append(f"found={rep.found} in the {phase} set")
    return problems


def unit_search_exhaustive(instance, meter: Meter, pins) -> None:
    phase, n, k1, k2 = instance
    label = f"{n},{k1},{k2}"
    rep = meter.run(phase, f"search {label}",
                    lambda: search.exists_enabling(n, k1, k2))
    if rep is not None:
        meter.check(f"search {label}",
                    lambda: _search_problems(phase, label, rep, meter, pins))


# ---------------------------------------------------------- verify_sweep


def setup_verify_sweep(rng, workdir: Path) -> list[Instance]:
    return _extremal(constructions.integer_extremal_pairs(200), rng)


def _witness_problems(g: EdgeColouredGraph, inst: Instance, rep) -> list[str]:
    if not rep.ok:
        return [f"not enabling at {rep.first_failure}"]
    ks = dict(inst.targets)
    seen = set()
    for (v, colour), w in rep.witnesses.items():
        if w is None or v not in w or len(w) != ks[colour]:
            return [f"bad witness {w} for vertex {v}, colour {colour}"]
        if (colour, w) not in seen:
            if not _is_clique(g.adjacency(colour), w):
                return [f"witness {w} is not a colour-{colour} clique"]
            seen.add((colour, w))
    return []


def _family_problems(g, inst: Instance, fams, meter: Meter, pins) -> list[str]:
    for fam in fams:
        if set(fam.covered or ()) != set(range(inst.n)):
            return [f"colour {fam.colour} family misses a vertex"]
        adj = g.adjacency(fam.colour)
        for c in fam.cliques:
            if not _is_clique(adj, c):
                return [f"family clique {c} is not a colour-{fam.colour} clique"]
    return meter.pin(inst.label, pins, [len(f.cliques) for f in fams])


def unit_verify_sweep(inst: Instance, meter: Meter, pins) -> None:
    g = inst.graph()
    rep = meter.run("verify", f"verify {inst.label}",
                    lambda: cliques.verify_enabling(g, inst.targets))
    if rep is not None:
        meter.check(f"verify {inst.label}", lambda: _witness_problems(g, inst, rep))
    fresh = inst.graph()
    fams = meter.run(
        "family", f"family {inst.label}",
        lambda: [cliques.choose_family(fresh, c, k, cliques.PER_VERTEX_LEX)
                 for c, k in inst.targets],
    )
    if fams is not None:
        meter.check(f"family {inst.label}",
                    lambda: _family_problems(g, inst, fams, meter, pins))


# ------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why it was chosen, and
    ``pins.json`` keeps its pinned outputs under its name."""

    name: str
    layers: tuple[str, ...]
    seeded: bool  # whether the seed changes the inputs
    pins_any_seed: bool  # whether pinned outputs hold at every seed, not only 0
    # one unit of work per input, relabelled from the stream given
    setup: Callable[[Optional[random.Random], Path], list]
    run_unit: Callable[[object, Meter, Optional[dict]], None]

    def pins(self, seed: int) -> Optional[dict]:
        """The pinned outputs, or None when they do not apply at seed."""
        if seed != 0 and not self.pins_any_seed:
            return None
        return json.loads(PINS_PATH.read_text(encoding="utf-8"))[self.name]

    def measure(
        self,
        units: list,
        pins: Optional[dict],
        seconds: float,
        new_round: Optional[Callable[[], list]] = None,
        probe: Optional[SpeedProbe] = None,
    ) -> tuple[Meter, float]:
        """One full pass over the units, then further rounds that run, in
        order, each unit whose last duration still fits in ``seconds``.

        ``new_round``, when given, is called before each further round and
        returns the units to use from then on.  ``probe``, when given, must be
        running; the meter leaves its samples out of the op times.  Returns
        the meter and the number of passes made, as a fraction.
        """
        meter = Meter(probe)
        last = [0.0] * len(units)

        def run(k: int) -> None:
            t0 = perf_counter()
            self.run_unit(units[k], meter, pins)
            last[k] = perf_counter() - t0

        gc.collect()
        end = perf_counter() + seconds
        for k in range(len(units)):
            run(k)
        done = len(units)
        while any(perf_counter() + t <= end for t in last):
            if new_round is not None:
                units = None  # so the old inputs are freed before the new are built
                units = new_round()
            for k in range(len(last)):
                if perf_counter() + last[k] <= end:
                    run(k)
                    done += 1
        return meter, done / len(last)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify_lex_large", ("lp", "certificates", "cliques", "graphs"),
                 True, False, setup_certify_lex_large, unit_certify_lex_large),
        Workload("cli_all_small", ("cli", "lp", "certificates", "cliques", "graphs"),
                 True, True, setup_cli_all_small, unit_cli_all_small),
        Workload("search_exhaustive", ("search",),
                 False, True, setup_search_exhaustive, unit_search_exhaustive),
        Workload("verify_sweep", ("cliques", "graphs"),
                 True, False, setup_verify_sweep, unit_verify_sweep),
    )
}
