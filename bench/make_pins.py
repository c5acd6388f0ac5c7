"""Rewrite pins.json: every workload's output summaries at seed 0.

    python3 bench/make_pins.py

Run it only when the program's outputs change on purpose, and review the
diff of pins.json: the benchmark counts any op whose output differs from its
pin as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    workdir = ROOT / ".bench_work" / "make_pins"
    try:
        for name, workload in workloads.WORKLOADS.items():
            meter, _ = workload.measure(workload.setup(None, workdir), None, 0.0)
            if meter.failed:
                print(f"{name}: {meter.failures}", file=sys.stderr)
                return 1
            pins[name] = meter.summaries
            print(f"{name}: {len(meter.summaries)} pins", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    workloads.PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
