"""The benchmark's workloads and their seeded inputs.

Every input is derived from the ``--seed`` argument: the dataset seed (also
passed to ``repro serve --seed`` for the in-memory workload, which makes
the child generate the very dataset the driver's oracle holds), the query
bounds, the operation mix and the update batches.  Equal seeds give equal
inputs.  Both workloads are closed loops of :data:`CONNECTIONS` clients.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.updates import UpdateBatch
from repro.storage.constants import DEFAULT_KEY_DOMAIN
from repro.workloads.distributions import UniformKeyGenerator, ZipfKeyGenerator
from repro.workloads.records import RecordGenerator

#: Pooled connections, and closed-loop clients: the machine has 2 cores, and
#: more clients would measure the scheduler.
CONNECTIONS = 2
#: Operations per update batch (split between insert, delete and modify).
BATCH_OPS = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one served deployment."""

    name: str
    scheme: str
    storage: str
    records: int
    distribution: str
    extent_fraction: float
    #: Share of closed-loop operations that are update batches.
    update_share: float = 0.0
    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups: int = 5

    @property
    def extent(self) -> int:
        low, high = DEFAULT_KEY_DOMAIN
        return max(1, int((high - low) * self.extent_fraction))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="sae-paged-wide",
            scheme="sae",
            storage="paged",
            records=100_000,
            distribution="uniform",
            extent_fraction=0.001,
            setups=3,  # each builds and snapshots 100k records (~13 s)
        ),
        Workload(
            name="tom-mixed-skewed",
            scheme="tom",
            storage="memory",
            records=20_000,
            distribution="zipf",
            extent_fraction=0.0005,
            update_share=0.1,
        ),
    )
}


def derive_seed(seed: int, label: str) -> int:
    """A stable sub-seed for one input stream of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def query_bounds(seed: int, extent: int) -> Iterator[Tuple[int, int]]:
    """Endless fixed-extent ranges with lower bounds uniform over the domain."""
    rng = random.Random(seed)
    low_bound, high_bound = DEFAULT_KEY_DOMAIN
    while True:
        start = rng.randint(low_bound, high_bound - extent)
        yield start, start + extent


def operation_mix(seed: int, update_share: float) -> Iterator[bool]:
    """Endless closed-loop mix: ``True`` for an update batch, else a query.

    Each block of ``round(1 / update_share)`` operations holds exactly one
    update at a seeded position, so the realised share never drifts from
    ``update_share`` -- update batches dominate the served time, and a
    share that varied with the seed would move throughput with it.
    """
    rng = random.Random(seed)
    block = max(1, round(1.0 / update_share)) if update_share > 0 else 0
    while True:
        if block == 0:
            yield False
            continue
        position = rng.randrange(block)
        for index in range(block):
            yield index == position


class UpdateStream:
    """Seeded update batches, valid when applied in the order drawn.

    Each batch holds :data:`BATCH_OPS` operations split as evenly as possible
    between insert, delete and modify; a batch never touches one record
    twice.  Inserted and modified keys follow the dataset's distribution.
    """

    def __init__(
        self,
        seed: int,
        record_ids: Sequence[int],
        distribution: str,
    ):
        self._rng = random.Random(seed)
        self._keys = (
            ZipfKeyGenerator(theta=0.8, seed=seed + 1)
            if distribution == "zipf"
            else UniformKeyGenerator(seed=seed + 1)
        )
        self._records = RecordGenerator()
        self._live: List[int] = list(record_ids)
        self._position = {record_id: index for index, record_id in enumerate(self._live)}
        self._next_id = max(self._live, default=-1) + 1

    def _take(self, touched: set) -> int:
        while True:
            record_id = self._live[self._rng.randrange(len(self._live))]
            if record_id not in touched:
                touched.add(record_id)
                return record_id

    def _remove(self, record_id: int) -> None:
        index = self._position.pop(record_id)
        last = self._live.pop()
        if last != record_id:
            self._live[index] = last
            self._position[last] = index

    def next_batch(self) -> UpdateBatch:
        kinds = ["insert", "delete", "modify"] * (BATCH_OPS // 3 + 1)
        self._rng.shuffle(kinds)
        batch = UpdateBatch()
        touched: set = set()
        for kind in kinds[:BATCH_OPS]:
            if kind == "insert":
                record_id = self._next_id
                self._next_id += 1
                touched.add(record_id)
                batch.insert(self._records.make(record_id, self._keys.sample()))
                self._position[record_id] = len(self._live)
                self._live.append(record_id)
            elif kind == "delete":
                record_id = self._take(touched)
                batch.delete(record_id)
                self._remove(record_id)
            else:
                record_id = self._take(touched)
                batch.modify(self._records.make(record_id, self._keys.sample()))
        return batch
