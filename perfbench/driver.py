"""Served child processes and the asyncio load loops that drive them.

The driver speaks to a ``repro serve`` child through the program's public
client SDK, :class:`~repro.network.client.RemoteSchemeClient`, with at most
:data:`~perfbench.workloads.CONNECTIONS` pooled connections.  Every answer is checked against
the :class:`~perfbench.oracle.VersionedOracle` after its latency has been
taken, and every operation's outcome lands in a :class:`Tally`.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.network.client import RemoteSchemeClient

from perfbench.oracle import VersionedOracle
from perfbench.workloads import CONNECTIONS, UpdateStream, Workload

#: An operation taking longer than this counts as failed (timeout).
OPERATION_TIMEOUT_S = 30.0
#: How long a child may take from spawn to its first answered PING.
START_TIMEOUT_S = 120.0
#: How long a SIGTERM drain may take before the child is killed.
STOP_TIMEOUT_S = 30.0


class ChildError(RuntimeError):
    """A served child failed to start or answer."""


class ServedChild:
    """One ``repro serve`` process on a free port, logging into ``work_dir``."""

    def __init__(self, argv: Sequence[str], work_dir: str, tag: str, src_dir: str):
        self.port_file = os.path.join(work_dir, f"{tag}.port")
        self.log_path = os.path.join(work_dir, f"{tag}.log")
        self._argv = list(argv) + ["--port", "0", "--port-file", self.port_file]
        self._src_dir = src_dir
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[RemoteSchemeClient] = None

    async def start(self, pool_size: int) -> None:
        """Spawn the child and return once it answers a PING."""
        env = dict(os.environ)
        env["PYTHONPATH"] = self._src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self._argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not os.path.exists(self.port_file):
            if self.process.poll() is not None:
                raise ChildError(
                    f"child exited with {self.process.returncode}:\n{self.log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise ChildError(f"child did not bind within {START_TIMEOUT_S:.0f}s")
            await asyncio.sleep(0.005)
        with open(self.port_file, encoding="utf-8") as handle:
            host, port = handle.read().split()
        self.client = RemoteSchemeClient(host, int(port), pool_size=pool_size)
        await asyncio.wait_for(self.client.ping(), START_TIMEOUT_S)

    def log_tail(self, lines: int = 20) -> str:
        """The last ``lines`` lines the child printed."""
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])

    def status_kb(self, field_name: str) -> int:
        """A ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
        raise ChildError(f"no {field_name} in /proc/{self.process.pid}/status")

    def cpu_seconds(self) -> float:
        """User plus system CPU the child has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self) -> int:
        """SIGTERM (drain), wait; kill if the drain hangs.  Returns the exit code."""
        client, self.client = self.client, None
        try:
            if client is not None:
                await client.aclose()
        finally:
            if self.process is not None and self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
        if self.process is None:
            return 0
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while self.process.poll() is None and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)
        self.kill()
        return self.process.wait()

    def kill(self) -> None:
        """Kill the child if it still runs, and reap it (blocking, brief)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def serve_argv(workload: Workload, dataset_seed: int, data_dir: Optional[str]) -> List[str]:
    """``repro serve`` arguments for ``workload`` (without the port options)."""
    if workload.storage == "paged":
        return ["serve", "--data-dir", data_dir]
    return [
        "serve",
        "--scheme", workload.scheme,
        "--records", str(workload.records),
        "--distribution", workload.distribution,
        "--seed", str(dataset_seed),
    ]


@dataclass
class Tally:
    """Everything one measured phase observed."""

    query_latencies_s: List[float] = field(default_factory=list)
    #: Completion time (``perf_counter``) of each entry of query_latencies_s.
    query_done_s: List[float] = field(default_factory=list)
    update_latencies_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    #: Sums of the receipt counters over every answered query.
    receipts: Dict[str, int] = field(default_factory=dict)
    #: The measured window (``perf_counter``), cut into equal slices, and
    #: whether the host left each slice calm (see ``measure.STEAL_LIMIT``).
    started: float = 0.0
    finished: float = 0.0
    calm: List[bool] = field(default_factory=list)

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def add_receipt(self, receipt) -> None:
        if receipt is None:
            return
        sums = self.receipts
        sums["answered"] = sums.get("answered", 0) + 1
        for party in (receipt.sp, receipt.te):
            for name in ("pool_hits", "pool_misses", "pool_evictions", "memo_hits", "memo_misses"):
                sums[name] = sums.get(name, 0) + getattr(party, name)
        sums["sp_node_accesses"] = sums.get("sp_node_accesses", 0) + receipt.sp.node_accesses
        sums["te_node_accesses"] = sums.get("te_node_accesses", 0) + receipt.te.node_accesses
        sums["auth_bytes"] = sums.get("auth_bytes", 0) + receipt.auth_bytes

    @property
    def window_s(self) -> float:
        return max(self.finished - self.started, 1e-9)

    @property
    def queries_ok(self) -> int:
        return len(self.query_latencies_s)


class Load:
    """Issues one workload's operations and checks every answer."""

    def __init__(
        self,
        client: RemoteSchemeClient,
        oracle: VersionedOracle,
        bounds: Iterator[Tuple[int, int]],
        updates: Optional[UpdateStream] = None,
        mix: Optional[Iterator[bool]] = None,
    ):
        self.client = client
        self.oracle = oracle
        self.bounds = bounds
        self.updates = updates
        self.mix = mix
        self.acked = 0  # batches the server acknowledged
        self._update_lock = asyncio.Lock()

    async def query(self, tally: Tally, low: int, high: int) -> None:
        """One verified query, checked against the oracle after timing."""
        tally.attempted += 1
        first_version = self.acked
        start = time.perf_counter()
        try:
            outcome = await asyncio.wait_for(self.client.query(low, high), OPERATION_TIMEOUT_S)
        except asyncio.TimeoutError:
            tally.fail("timeout")
            return
        except Exception:  # noqa: BLE001 - any failed call is a failed operation
            tally.fail("exception")
            return
        done = time.perf_counter()
        if not outcome.verified:
            tally.fail("unverified")
        elif not self.oracle.matches(low, high, outcome.records, first_version):
            tally.fail("oracle-mismatch")
        else:
            tally.query_latencies_s.append(done - start)
            tally.query_done_s.append(done)
        tally.add_receipt(outcome.receipt)

    async def update(self, tally: Tally) -> None:
        """One acknowledged update batch; batches are sent one at a time, in
        stream order, so the oracle's version order is the server's."""
        async with self._update_lock:
            tally.attempted += 1
            batch = self.updates.next_batch()
            self.oracle.apply(batch)
            start = time.perf_counter()
            try:
                applied = await asyncio.wait_for(
                    self.client.apply_updates(batch), OPERATION_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                tally.fail("timeout")
                return
            except Exception:  # noqa: BLE001 - any failed call is a failed operation
                tally.fail("exception")
                return
            latency = time.perf_counter() - start
            self.acked += 1
            if applied != len(batch):
                tally.fail("update-miscount")
            else:
                tally.update_latencies_s.append(latency)

    async def closed_loop(self, tally: Tally, seconds: float, with_updates: bool = True) -> None:
        """:data:`CONNECTIONS` clients, each sending its next operation when
        the previous one completes, until ``seconds`` have passed."""
        end = time.perf_counter() + seconds

        async def client_loop() -> None:
            while time.perf_counter() < end:
                if with_updates and self.mix is not None and next(self.mix):
                    await self.update(tally)
                else:
                    low, high = next(self.bounds)
                    await self.query(tally, low, high)

        await asyncio.gather(*(client_loop() for _ in range(CONNECTIONS)))
