"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify_lex_large --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the program from ``src/`` next
to this directory, never from an installed copy, and runs in one process on
one thread.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it describes the run (seed, passes, phase times, Python version, nproc,
host, and the first failures).

``--trace 0`` runs one full pass over the inputs and keeps repeating those
that still fit, in order, until ``--seconds`` is used up.  Before each round
it times set-up again (a fresh interpreter importing the program, then
building the inputs); ``setup_s`` is the median of at least seven set-ups.
``wall_s`` is the sum over ops of each op's mean time: one pass, estimated
from all the time measured.  Both are in reference seconds: ``speed.py``
samples the host's speed all through the run and scales each time to a
fixed reference speed; the description line gives the raw times too.
``--trace 1`` runs one plain pass and one traced pass and reports the
per-layer metrics, unscaled.

Exit status: 0 when every op passed its checks, 1 when some op failed, 2
when the benchmark cannot run (bad arguments, or no ``src/enabling``
beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


def _import_program() -> str | None:
    """Make ``src/enabling`` importable; return a reason when it is not there."""
    src = ROOT / "src"
    if not (src / "enabling" / "__init__.py").is_file():
        return f"no program at {src / 'enabling'}"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    import enabling

    if Path(enabling.__file__).resolve().parent != (src / "enabling").resolve():
        return f"imported enabling from {enabling.__file__}, not from {src}"
    return None


def _time_import() -> float:
    """Seconds a fresh interpreter takes to start and import the program and
    the benchmark: the part of set-up that comes before building inputs."""
    code = "import sys; sys.path[:0] = sys.argv[1:]; import tracing, workloads"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
                   check=True)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through the finally below, which removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    problem = _import_program()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        pins = workload.pins(args.seed)
        info: dict = {}
        if args.trace == 0:
            probe = speed.SpeedProbe()
            stream = workloads.relabellings(args.seed)
            setups: list[tuple[float, float, float]] = []  # start, end, time

            def set_up() -> list:
                probe.pause()
                try:
                    t0 = time.perf_counter()
                    _time_import()
                    units = workload.setup(stream, workdir)
                    t1 = time.perf_counter()
                finally:
                    probe.resume()
                setups.append((t0, t1, t1 - t0))
                return units

            # Set-up is timed again before each later round, so its median
            # samples the machine at several moments of the run.
            probe.start()
            try:
                meter, passes = workload.measure(
                    set_up(), pins, args.seconds, set_up, probe)
                while len(setups) < SETUP_REPEATS:
                    set_up()
            finally:
                probe.stop()
            phases = meter.phase_s(scaled=True)
            metrics = {
                "wall_s": sum(phases.values()),
                "setup_s": statistics.median(d * probe.scale(t0, t1) for t0, t1, d in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            unit_of = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            info["phases_s"] = phases
            info["raw_s"] = {"wall": meter.wall_s,
                             "setup": statistics.median(d for _, _, d in setups)}
            info["speed"] = {"samples": len(probe.took),
                             "kernel_ms_median": 1000 * statistics.median(probe.took),
                             "probe_s": probe.stolen}
            meters = [meter]
        else:
            inputs = workload.setup(workloads.relabellings(args.seed), workdir)
            meter, passes = workload.measure(inputs, pins, 0.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                inputs = workload.setup(workloads.relabellings(args.seed), workdir)
                traced, _ = workload.measure(inputs, pins, 0.0)
            finally:
                tracer.uninstall()
            metrics, missing = tracing.layer_metrics(tracer, traced.wall_s, meter.wall_s)
            unit_of = {m: tracing.unit(m) for m in metrics}
            info["phases_s"] = meter.phase_s()
            info["traced_phases_s"] = traced.phase_s()
            info["missing"] = missing
            meters = [meter, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    attempted = sum(m.attempted for m in meters)
    failed = sum(m.failed for m in meters)
    info.update({
        "workload": workload.name,
        "seed": args.seed,
        "inputs_depend_on_seed": workload.seeded,
        "pins_checked": pins is not None,
        "layers": list(workload.layers),
        "passes": round(passes, 3),
        "fail_ratio": failed / attempted if attempted else 0.0,
        "failures": [f for m in meters for f in m.failures][:10],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
    })
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
