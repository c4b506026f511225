"""One benchmark run: set up, warm up, measure, check, report.

End-to-end metrics (``--trace 0``) and per-layer metrics (``--trace 1``)
are defined here; :data:`END_TO_END` and :data:`PER_LAYER` list them in
the order ``BENCHMARK.json`` does.  Per-layer times are per operation of
the kind that causes them: query-path spans per query, update-path spans
per update batch, shared spans (codec, storage, digests) per operation.
Metrics marked [r] come from the receipt counters of the untraced phase.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import OutsourcedDB
from repro.core.dataset import Dataset
from repro.network import wire
from repro.network.client import RemoteSchemeClient
from repro.workloads.datasets import build_dataset

from perfbench import stats
from perfbench.driver import Load, ServedChild, Tally, serve_argv
from perfbench.oracle import VersionedOracle
from perfbench.tracing import SpanRecorder, merge
from perfbench.workloads import (
    CONNECTIONS,
    UpdateStream,
    Workload,
    derive_seed,
    operation_mix,
    query_bounds,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: The measured window is cut into this many equal slices; query_p50_ms and
#: query_qps are medians over its calm ones (see :func:`perfbench.stats.split`).
SLICES = 10
#: A slice is calm when the hypervisor withheld at most this share of the
#: CPU time the guest wanted in it (``steal`` over stolen plus used time).
#: The server is CPU-bound, so throughput falls by about that share or more:
#: paged runs at 0.13 lost 9-17 % of a calm run's throughput, at 0.21-0.38
#: 29-42 %.  Steal comes in bursts of seconds, between which it is near 0.
STEAL_LIMIT = 0.10
#: A window with fewer calm slices than this is measured again.
MIN_CALM = SLICES // 2
#: Windows a phase may measure before it gives up on a calm one; the run is
#: then invalid (``correct: false``).  Two keep a traced run under 180 s.
MAX_WINDOWS = 2
#: Closed-loop, query-only warm-up before each measured phase (s).
WARMUP_S = 1.0

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("server_rss_mb", "MB"),
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``.
PER_LAYER = (
    ("query_p99_ms", "ms"),
    ("network.client_query_ms", "ms"),
    ("network.transit_ms", "ms"),
    ("network.encode_ms", "ms"),
    ("network.decode_ms", "ms"),
    ("network.response_bytes", "B"),
    ("core.query_self_ms", "ms"),
    ("core.sp_execute_ms", "ms"),
    ("core.te_vt_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.apply_updates_ms", "ms"),
    ("dbms.range_query_ms", "ms"),
    ("dbms.sp_node_accesses", "count"),
    ("xbtree.te_node_accesses", "count"),
    ("tom.verify_vo_ms", "ms"),
    ("tom.auth_bytes", "B"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_misses", "count"),
    ("storage.pool_evictions", "count"),
    ("storage.fetch_ms", "ms"),
    ("storage.node_decode_ms", "ms"),
    ("storage.node_decodes", "count"),
    ("storage.heap_get_ms", "ms"),
    ("storage.disk_bytes", "B"),
    ("storage.disk_bytes_per_user_byte", "B/B"),
    ("crypto.memo_hit_rate", "ratio"),
    ("crypto.digest_ms", "ms"),
    ("crypto.encode_record_ms", "ms"),
    ("crypto.rsa_verify_calls", "count"),
    ("crypto.rsa_verify_ms", "ms"),
    ("crypto.rsa_sign_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p95_ms", "ms"),
    ("error_rate", "ratio"),
    ("driver.cpu_share", "ratio"),
    ("driver.steal_share", "ratio"),
    ("trace.qps_ratio", "ratio"),
    ("trace.p50_ratio", "ratio"),
)

#: Span name -> (per-layer metric, denominator) for span busy times.
SPAN_METRICS = (
    ("network.client_query", "network.client_query_ms", "queries"),
    ("network.encode", "network.encode_ms", "operations"),
    ("network.decode", "network.decode_ms", "operations"),
    ("core.sp_execute", "core.sp_execute_ms", "queries"),
    ("core.te_vt", "core.te_vt_ms", "queries"),
    ("core.verify", "core.verify_ms", "queries"),
    ("core.apply_updates", "core.apply_updates_ms", "updates"),
    ("dbms.range_query", "dbms.range_query_ms", "queries"),
    ("tom.verify_vo", "tom.verify_vo_ms", "queries"),
    ("storage.fetch", "storage.fetch_ms", "operations"),
    ("storage.node_decode", "storage.node_decode_ms", "operations"),
    ("storage.heap_get", "storage.heap_get_ms", "operations"),
    ("crypto.digest", "crypto.digest_ms", "operations"),
    ("crypto.encode_record", "crypto.encode_record_ms", "operations"),
    ("crypto.rsa_verify", "crypto.rsa_verify_ms", "operations"),
    ("crypto.rsa_sign", "crypto.rsa_sign_ms", "updates"),
)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def dir_bytes(path: str) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for directory, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


def host_cpu_seconds() -> Tuple[float, float]:
    """``(stolen, used)`` CPU seconds of the guest so far, all CPUs, from
    ``/proc/stat``: stolen is time the hypervisor gave other guests while
    this one wanted it; used is user, nice, system, irq and softirq time."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    user, nice, system, _, _, irq, softirq, steal = fields
    tick = os.sysconf("SC_CLK_TCK")
    return steal / tick, (user + nice + system + irq + softirq) / tick


def steal_share(first: Tuple[float, float, float], last: Tuple[float, float, float]) -> float:
    """Stolen share of the CPU time wanted between two ``(time, stolen,
    used)`` samples."""
    stolen = last[1] - first[1]
    return _ratio(stolen, stolen + last[2] - first[2])


async def sample_host(samples: List[Tuple[float, float, float]], start: float,
                      width: float) -> None:
    """Append ``(time, stolen, used)`` at ``start`` and at the end of each of
    :data:`SLICES` slices of ``width`` seconds after it."""
    for index in range(SLICES + 1):
        delay = start + index * width - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        samples.append((time.perf_counter(), *host_cpu_seconds()))


def build_snapshot(dataset: Dataset, workload: Workload, data_dir: str) -> None:
    """Outsource ``dataset`` to a paged deployment and snapshot it."""
    system = OutsourcedDB(dataset, scheme=workload.scheme, storage="paged",
                          data_dir=data_dir).setup()
    try:
        system.snapshot()
    finally:
        system.close()


class Run:
    """State shared by the phases of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: str, report):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.report = report
        self.dataset_seed = derive_seed(seed, "dataset")
        self.dataset = build_dataset(workload.records, distribution=workload.distribution,
                                     seed=self.dataset_seed)
        self.children: List[ServedChild] = []
        self.data_dir: Optional[str] = None
        self._tags = 0

    def _tag(self, kind: str) -> str:
        self._tags += 1
        return f"{kind}-{self._tags}"

    async def start_child(self, launcher_spans: Optional[str] = None) -> ServedChild:
        argv = serve_argv(self.workload, self.dataset_seed, self.data_dir)
        if launcher_spans is None:
            argv = [sys.executable, "-m", "repro"] + argv
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), launcher_spans] + argv
        child = ServedChild(argv, self.work_dir, self._tag("child"), SRC)
        self.children.append(child)
        await child.start(CONNECTIONS)
        return child

    async def setup(self) -> Tuple[ServedChild, float]:
        """Outsource (paged: build and snapshot) and serve; timed to first PING."""
        start = time.perf_counter()
        if self.workload.storage == "paged":
            self.data_dir = os.path.join(self.work_dir, self._tag("data"))
            build_snapshot(self.dataset, self.workload, self.data_dir)
        child = await self.start_child()
        return child, time.perf_counter() - start

    def load(self, client: RemoteSchemeClient, bounds_label: str) -> Load:
        """A fresh oracle and input streams (equal seeds, equal inputs)."""
        workload = self.workload
        updates = mix = None
        if workload.update_share > 0:
            updates = UpdateStream(
                derive_seed(self.seed, "updates"),
                [record[0] for record in self.dataset.records],
                workload.distribution,
            )
            mix = operation_mix(derive_seed(self.seed, "mix"), workload.update_share)
        return Load(
            client,
            VersionedOracle(self.dataset.records),
            query_bounds(derive_seed(self.seed, bounds_label), workload.extent),
            updates,
            mix,
        )

    async def phase(self, child: ServedChild) -> Tuple[List[Tally], Tally, Dict[str, float]]:
        """Warm up, then measure windows of ``seconds`` until one has
        :data:`MIN_CALM` calm slices or :data:`MAX_WINDOWS` were measured.
        Returns (every tally, the last window's, its health)."""
        warm = Tally()
        await self.load(child.client, "warmup").closed_loop(warm, WARMUP_S, with_updates=False)
        # One load for every window: the oracle follows the updates already sent.
        load = self.load(child.client, "queries")
        measured, health = await self.window(child, load)
        # Peak RSS after the same work in every run: the memory store grows
        # with every update batch a further window applies.
        rss_mb = child.status_kb("VmHWM") / 1024.0
        tallies = [warm, measured]
        while sum(measured.calm) < MIN_CALM and len(tallies) - 1 < MAX_WINDOWS:
            measured, health = await self.window(child, load)
            tallies.append(measured)
        health.update(windows=len(tallies) - 1, calm_slices=sum(measured.calm),
                      rss_mb=rss_mb)
        return tallies, measured, health

    async def window(self, child: ServedChild, load: Load) -> Tuple[Tally, Dict[str, float]]:
        """One measured window of ``seconds``, its slices marked calm or not;
        returns (tally, health)."""
        measured = Tally()
        # The driver's own collector must not stall the load: its dataset and
        # oracle are frozen out of collection and the measured window runs
        # with collection off (the served child is left untouched).
        gc.collect()
        gc.freeze()
        gc.disable()
        driver_cpu = time.process_time()
        child_cpu = child.cpu_seconds()
        samples: List[Tuple[float, float, float]] = []
        sampler = asyncio.ensure_future(
            sample_host(samples, time.perf_counter(), self.seconds / SLICES)
        )
        try:
            await load.closed_loop(measured, self.seconds)
            await sampler
        finally:
            sampler.cancel()
            gc.enable()
        driver_cpu = time.process_time() - driver_cpu
        child_cpu = child.cpu_seconds() - child_cpu
        measured.started, measured.finished = samples[0][0], samples[-1][0]
        measured.calm = [steal_share(first, last) <= STEAL_LIMIT
                         for first, last in zip(samples, samples[1:])]
        health = {
            "driver_cpu_s": driver_cpu,
            "server_cpu_s": child_cpu,
            "steal_share": steal_share(samples[0], samples[-1]),
        }
        return measured, health

    async def close(self) -> None:
        for child in self.children:
            await child.stop()


def latency_metrics(report, tally: Tally, prefix: str = "") -> Tuple[float, float]:
    """Record the query latency percentiles and qps of ``tally``; returns
    ``(p50 ms, qps)``."""
    latencies = tally.query_latencies_s
    count = len(latencies)
    if count == 0:
        # Every query failed (the run is not correct): report zeros, so the
        # result line still carries the failure counts.
        report.notes.append(f"{prefix}query latency and qps read 0: no query was "
                            "answered correctly")
        for name in ("p50", "p90", "p95", "p99"):
            report.add(f"{prefix}query_{name}_ms", 0.0, "ms", 0)
        report.add(f"{prefix}query_qps", 0.0, "1/s", 0)
        return 0.0, 0.0
    slices = stats.split(tally.query_done_s, latencies, tally.started, tally.finished, SLICES)
    # A window without enough calm slices is invalid; its numbers use them all.
    calm = [group for group, is_calm in zip(slices, tally.calm) if is_calm]
    if len(calm) < MIN_CALM:
        calm = slices
    samples = f"{count}, medians of {len(calm)} slices"
    p50 = report.add(
        f"{prefix}query_p50_ms",
        _ms(statistics.median(stats.percentile(group, 50) for group in calm if group)),
        "ms", samples,
    )
    for pct in (90, 95):
        report.add(f"{prefix}query_p{pct}_ms", _ms(stats.percentile(latencies, pct)), "ms", count)
    report.add(f"{prefix}query_p99_ms", _ms(stats.percentile(latencies, 99)), "ms", count)
    if not stats.supported(count, 99):
        report.notes.append(
            f"{prefix}query_p99_ms has only {stats.beyond(count, 99)} samples beyond it "
            f"(fewer than {stats.MIN_BEYOND}); lengthen --seconds"
        )
    width = tally.window_s / SLICES
    qps = report.add(f"{prefix}query_qps",
                     statistics.median(len(group) / width for group in calm), "1/s", samples)
    return p50, qps


def health_metrics(report, health: Dict[str, float], prefix: str = "") -> bool:
    """Record the driver's health; returns whether the phase is valid."""
    total_cpu = health["driver_cpu_s"] + health["server_cpu_s"]
    report.add(f"{prefix}driver.cpu_share", _ratio(health["driver_cpu_s"], total_cpu), "ratio",
               f"{health['driver_cpu_s']:.2f}s of {total_cpu:.2f}s")
    report.add(f"{prefix}driver.steal_share", health["steal_share"], "ratio",
               "base: stolen + used CPU time")
    report.add(f"{prefix}driver.calm_slices", health["calm_slices"], "count",
               f"of {SLICES}, steal share <= {STEAL_LIMIT}")
    report.add(f"{prefix}driver.windows", health["windows"], "count",
               f"of at most {MAX_WINDOWS}")
    if health["calm_slices"] < MIN_CALM:
        phase = f"{prefix.rstrip('.')} phase" if prefix else "measured phase"
        report.notes.append(
            f"INVALID: no window of the {phase} had {MIN_CALM} of {SLICES} slices with "
            f"host steal within {STEAL_LIMIT} of the CPU time; the numbers measure the "
            "host, not the program"
        )
        return False
    return True


def result(report, names, tallies, valid: bool) -> Dict[str, Any]:
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    for tally in tallies:
        for kind, count in sorted(tally.failures.items()):
            report.notes.append(f"{count} operation(s) failed: {kind}")
    return {
        "correct": failed == 0 and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics(name for name, _ in names),
    }


async def run_end_to_end(run: Run) -> Dict[str, Any]:
    report = run.report
    setups: List[float] = []
    for index in range(run.workload.setups):
        child, seconds = await run.setup()
        setups.append(seconds)
        if index < run.workload.setups - 1:
            await child.stop()
            if run.data_dir is not None:
                shutil.rmtree(run.data_dir)
    report.add("setup_s", statistics.median(setups), "s", len(setups))
    tallies, measured, health = await run.phase(child)
    latency_metrics(report, measured)
    report.add("server_rss_mb", health["rss_mb"], "MB", 1)
    exit_code = await child.stop()
    if exit_code != 0:
        report.notes.append(f"server exited with {exit_code} after SIGTERM")
    valid = health_metrics(report, health)
    extra_metrics(report, run, measured, tallies)
    return result(report, END_TO_END, tallies, valid and exit_code == 0)


def extra_metrics(report, run: Run, measured: Tally, tallies: List[Tally]) -> None:
    """Metrics reported where they apply: updates, disk, error rate."""
    updates = measured.update_latencies_s
    percentile = stats.highest_supported(len(updates), (95.0, 90.0, 75.0, 50.0))
    report.add("update_p50_ms", _ms(stats.percentile(updates, 50)) if updates else 0.0,
               "ms", len(updates))
    report.add("update_p95_ms", _ms(stats.percentile(updates, 95)) if updates else 0.0,
               "ms", len(updates))
    if updates and percentile != 95.0:
        report.notes.append(
            f"update_p95_ms has only {stats.beyond(len(updates), 95)} samples beyond it; "
            f"the highest supported percentile is p{percentile}"
        )
    disk = dir_bytes(run.data_dir) if run.data_dir is not None else 0
    report.add("storage.disk_bytes", disk, "B", 1)
    report.add("storage.disk_bytes_per_user_byte", disk / run.dataset.size_bytes(), "B/B", 1)
    attempted = sum(tally.attempted for tally in tallies)
    failed = sum(tally.failed for tally in tallies)
    report.add("error_rate", _ratio(failed, attempted), "ratio", attempted)


def install_driver_spans(recorder: SpanRecorder) -> None:
    """Client-side spans: the SDK call, response decoding, response bytes."""
    recorder.patch(RemoteSchemeClient, "query", "network.client_query")
    recorder.patch(RemoteSchemeClient, "apply_updates", "network.client_update")
    recorder.patch(wire, "decode_value", "network.decode")
    recorder.patch(wire, "outcome_from_wire", "network.decode")
    header = wire.decode_frame_header

    def counted(data: bytes) -> Tuple[int, int]:
        kind, length = header(data)
        recorder.count("network.response_bytes", len(data) + length)
        return kind, length

    wire.decode_frame_header = counted


async def run_traced(run: Run) -> Dict[str, Any]:
    report = run.report
    child, _ = await run.setup()
    tallies, plain, health = await run.phase(child)
    exit_code = await child.stop()
    p50, qps = latency_metrics(report, plain)
    valid = health_metrics(report, health)
    extra_metrics(report, run, plain, tallies)
    receipt_metrics(report, plain)

    spans_path = os.path.join(run.work_dir, "spans.json")
    recorder = SpanRecorder()
    traced_child = await run.start_child(launcher_spans=spans_path)
    install_driver_spans(recorder)
    traced_tallies, traced, traced_health = await run.phase(traced_child)
    traced_exit = await traced_child.stop()
    traced_p50, traced_qps = latency_metrics(report, traced, prefix="traced.")
    report.add("trace.qps_ratio", _ratio(traced_qps, qps), "ratio", traced.queries_ok)
    report.add("trace.p50_ratio", _ratio(traced_p50, p50), "ratio", traced.queries_ok)
    valid = health_metrics(report, traced_health, prefix="traced.") and valid

    with open(spans_path, encoding="utf-8") as handle:
        spans = merge(json.load(handle), recorder.snapshot())
    span_metrics(report, spans)
    if exit_code != 0 or traced_exit != 0:
        report.notes.append(f"server exit codes after SIGTERM: {exit_code}, {traced_exit}")
    return result(report, PER_LAYER, tallies + traced_tallies,
                  valid and exit_code == 0 and traced_exit == 0)


def receipt_metrics(report, tally: Tally) -> None:
    """[r] metrics: receipt counters summed over every answered query."""
    sums = tally.receipts
    answered = sums.get("answered", 0)
    per_query = lambda name: _ratio(sums.get(name, 0), answered)  # noqa: E731
    report.add("dbms.sp_node_accesses", per_query("sp_node_accesses"), "count", answered)
    report.add("xbtree.te_node_accesses", per_query("te_node_accesses"), "count", answered)
    report.add("tom.auth_bytes", per_query("auth_bytes"), "B", answered)
    pool_base = sums.get("pool_hits", 0) + sums.get("pool_misses", 0)
    report.add("storage.pool_hit_rate", _ratio(sums.get("pool_hits", 0), pool_base), "ratio",
               f"{pool_base} fetches")
    report.add("storage.pool_misses", per_query("pool_misses"), "count", answered)
    report.add("storage.pool_evictions", per_query("pool_evictions"), "count", answered)
    memo_base = sums.get("memo_hits", 0) + sums.get("memo_misses", 0)
    report.add("crypto.memo_hit_rate", _ratio(sums.get("memo_hits", 0), memo_base), "ratio",
               f"{memo_base} lookups")


def span_metrics(report, snapshot: Dict[str, Any]) -> None:
    """Per-layer busy times per operation, plus every span's busy/self table."""
    spans = snapshot["spans"]
    counts = snapshot["counts"]

    def count(name: str) -> int:
        return int(spans.get(name, (0, 0.0, 0.0))[0])

    def busy(name: str) -> float:
        return float(spans.get(name, (0, 0.0, 0.0))[1])

    def own(name: str) -> float:
        return float(spans.get(name, (0, 0.0, 0.0))[2])

    denominators = {
        "queries": count("network.client_query"),
        "updates": count("network.client_update"),
    }
    denominators["operations"] = denominators["queries"] + denominators["updates"]
    for span, metric, per in SPAN_METRICS:
        report.add(metric, _ms(_ratio(busy(span), denominators[per])), "ms",
                   f"{count(span)} spans/{denominators[per]} {per}")
    queries = denominators["queries"]
    operations = denominators["operations"]
    report.add("network.transit_ms",
               _ms(_ratio(busy("network.client_query") - busy("server.query"), queries)),
               "ms", queries)
    report.add("network.response_bytes",
               _ratio(counts.get("network.response_bytes", 0), operations), "B", operations)
    report.add("core.query_self_ms", _ms(_ratio(own("core.query"), queries)), "ms", queries)
    report.add("storage.node_decodes", _ratio(count("storage.node_decode"), operations),
               "count", operations)
    report.add("crypto.rsa_verify_calls", _ratio(count("crypto.rsa_verify"), operations),
               "count", operations)
    for name in sorted(spans):
        span_count, span_busy, span_self = spans[name]
        report.notes.append(
            f"span {name}: {span_count} calls, busy {_ms(span_busy):.1f} ms, "
            f"self {_ms(span_self):.1f} ms, per operation busy "
            f"{_ms(_ratio(span_busy, operations)):.4f} ms self "
            f"{_ms(_ratio(span_self, operations)):.4f} ms"
        )


async def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
              report) -> Dict[str, Any]:
    """Run ``workload`` once; returns the result object of the last line."""
    current = Run(workload, seed, seconds, work_dir, report)
    try:
        if trace:
            return await run_traced(current)
        return await run_end_to_end(current)
    finally:
        try:
            await current.close()
        finally:
            # A SIGTERM can unwind the event loop mid-close; no child may
            # outlive the run.
            for child in current.children:
                child.kill()
