"""Latency metrics over calm slices, and the result line of a failed run."""

import asyncio
import itertools
from types import SimpleNamespace

from perfbench.driver import Load, Tally
from perfbench.measure import SLICES, latency_metrics, result
from perfbench.oracle import VersionedOracle
from perfbench.run import Report

RECORDS = [(i, key, b"p%d" % i) for i, key in enumerate([5, 10, 10, 20, 30, 40])]


class LyingClient:
    """Claims every answer verified, but drops the last record of it."""

    def __init__(self, records):
        self._oracle = VersionedOracle(records)

    async def query(self, low, high):
        records = self._oracle.range(low, high)[:-1]
        return SimpleNamespace(verified=True, records=records, receipt=None)


def test_oracle_rejected_tally_reports_failures():
    load = Load(LyingClient(RECORDS), VersionedOracle(RECORDS),
                itertools.cycle([(10, 20), (0, 50)]))
    tally = Tally()

    async def queries():
        tally.started = 0.0
        for _ in range(4):
            await load.query(tally, *next(load.bounds))
        tally.finished = 1.0

    asyncio.run(queries())
    report = Report()
    assert latency_metrics(report, tally) == (0.0, 0.0)
    line = result(report, (("query_p50_ms", "ms"), ("query_qps", "1/s")), [tally], True)
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (4, 4)
    assert line["metrics"]["query_qps"] == {"value": 0.0, "unit": "1/s"}
    assert "4 operation(s) failed: oracle-mismatch" in report.notes


def test_latency_metrics_use_calm_slices_only():
    tally = Tally(started=0.0, finished=float(SLICES))
    for index in range(SLICES):
        # The first half ran under host steal: 2 slow queries instead of 4 fast.
        slow = index < SLICES // 2
        for query in range(2 if slow else 4):
            tally.query_latencies_s.append(0.050 if slow else 0.010)
            tally.query_done_s.append(index + 0.1 + query * 0.2)
    tally.calm = [index >= SLICES // 2 for index in range(SLICES)]
    p50, qps = latency_metrics(Report(), tally)
    assert abs(p50 - 10.0) < 1e-9 and qps == 4.0
    tally.calm = [True] * SLICES  # steal the slices did not flag counts
    p50, qps = latency_metrics(Report(), tally)
    assert abs(p50 - 30.0) < 1e-9 and qps == 3.0
    tally.calm[: SLICES // 2 + 1] = [False] * (SLICES // 2 + 1)  # too few calm: all
    p50, qps = latency_metrics(Report(), tally)
    assert abs(p50 - 30.0) < 1e-9 and qps == 3.0
