"""Benchmark entry point: run one workload against a served deployment.

Usage, from the repository root::

    python3 perfbench/run.py --workload tom-mixed-skewed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
``Workload.setups`` set-ups), verified query latency and throughput, and the
server's peak RSS.  ``--trace 1`` measures the per-layer metrics: one
untraced phase (receipt counters, update latency, driver health, the
baseline for the tracing overhead) and one phase against a child started
through :mod:`perfbench.launcher`, whose spans give each layer's busy and
self time per operation.  A phase whose window lost more than
``measure.STEAL_LIMIT`` of the CPU time to the hypervisor is measured once
more; if that window is no calmer the run is invalid (``correct: false``).

Every line before the last is a human-readable report (metric, value,
unit, sample count, plus the driver's health); the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Report:
    """Collects metrics with their units and sample counts."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, str, str]] = []
        self.notes: List[str] = []

    def add(self, name: str, value: float, unit: str, samples: Any) -> float:
        self.rows.append((name, value, unit, str(samples)))
        return value

    def metrics(self, names) -> Dict[str, Dict[str, Any]]:
        by_name = {name: (value, unit) for name, value, unit, _ in self.rows}
        return {name: {"value": by_name[name][0], "unit": by_name[name][1]} for name in names}

    def print(self) -> None:
        width = max(len(row[0]) for row in self.rows)
        for name, value, unit, samples in self.rows:
            print(f"{name:<{width}}  {value:>14.6g} {unit:<6} n={samples}")
        for note in self.notes:
            print(f"note: {note}")


def _exit_on_sigterm(signum, frame) -> None:
    # SystemExit unwinds the event loop; asyncio.run then cancels the run and
    # lets its cleanup stop (and wait for) every served child instead of
    # leaving it orphaned.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}/repro; run from a repository checkout",
              file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "_work", f"run-{os.getpid()}")
    os.makedirs(work_dir)
    report = Report()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        result = asyncio.run(
            measure.run(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), work_dir, report)
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {os.cpu_count()}  python {platform.python_version()}")
    report.print()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
