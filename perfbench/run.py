"""Benchmark entry point: one seeded run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload seq-dense --seed 1 --seconds 30 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the host (CPU counts, the resolved worker
count, Python and numpy versions) and the timings as measured, before
they were put on the reference host speed (``hostspeed.py``).  A human-readable summary goes to
standard error.  Metric definitions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOAD_NAMES = ("seq-dense", "process-packed", "distributed-hdrf")


def load_units(key: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the process runner starts.

    It is a helper process multiprocessing launches outside
    ``active_children()``; stopping it here means the run leaves no
    process behind when it exits.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    units = load_units("per_layer" if args.trace else "end_to_end")
    try:
        out = workloads.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), ROOT)
    finally:
        stop_resource_tracker()
    values = out["per_layer"] if args.trace else out["end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    checks = out["checks"]
    for what, count in checks.failures.items():
        print(f"perfbench: check failed ({count}x): {what}", file=sys.stderr)
    for name in units:
        print(f"  {name:32s} {values[name]:16.6g} {units[name]}",
              file=sys.stderr)
    print(json.dumps({"host": out["host"], "workload": args.workload,
                      "seed": args.seed, "partition_calls": out["calls"],
                      "as_measured": out["raw"]}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
