"""Equal seeds give equal inputs; the update stream stays applicable."""

import itertools

from perfbench.oracle import VersionedOracle
from perfbench.workloads import (
    BATCH_OPS,
    WORKLOADS,
    UpdateStream,
    derive_seed,
    operation_mix,
    query_bounds,
)


def test_query_bounds_and_mix_are_seeded():
    assert list(itertools.islice(query_bounds(5, 5000), 50)) == list(
        itertools.islice(query_bounds(5, 5000), 50)
    )
    assert all(high - low == 5000 for low, high in itertools.islice(query_bounds(5, 5000), 50))
    mix = list(itertools.islice(operation_mix(5, 0.1), 2000))
    assert mix == list(itertools.islice(operation_mix(5, 0.1), 2000))
    assert sum(mix) == 200
    assert not any(itertools.islice(operation_mix(5, 0.0), 100))
    assert derive_seed(1, "dataset") != derive_seed(1, "queries")


def _batches(seed, count):
    records = [(i, i * 10, b"x") for i in range(50)]
    stream = UpdateStream(seed, [r[0] for r in records], "zipf")
    return records, [stream.next_batch() for _ in range(count)]


def test_update_stream_is_seeded_and_applicable():
    records, batches = _batches(9, 40)
    _, again = _batches(9, 40)
    assert [b.operations for b in batches] == [b.operations for b in again]
    oracle = VersionedOracle(records)
    for batch in batches:
        assert len(batch) == BATCH_OPS
        kinds = {type(op).__name__ for op in batch}
        assert kinds == {"InsertRecord", "DeleteRecord", "ModifyRecord"}
        oracle.apply(batch)  # raises on a delete/modify of a missing id
    assert oracle.version == 40


def test_workload_names():
    assert set(WORKLOADS) == {"sae-paged-wide", "tom-mixed-skewed"}
