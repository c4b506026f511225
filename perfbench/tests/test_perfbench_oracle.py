"""The oracle accepts exact answers and rejects every kind of wrong one."""

from repro.core.updates import UpdateBatch

from perfbench.oracle import VersionedOracle

RECORDS = [(i, key, b"p%d" % i) for i, key in enumerate([5, 10, 10, 20, 30, 40])]


def test_accepts_correct_answer_in_any_order():
    oracle = VersionedOracle(RECORDS)
    answer = [RECORDS[2], RECORDS[1], RECORDS[3]]
    assert oracle.matches(10, 20, answer)
    assert oracle.matches(11, 19, [])


def test_rejects_tampered_record():
    oracle = VersionedOracle(RECORDS)
    tampered = (RECORDS[3][0], RECORDS[3][1], b"forged")
    assert not oracle.matches(10, 20, [RECORDS[1], RECORDS[2], tampered])


def test_rejects_dropped_and_injected_records():
    oracle = VersionedOracle(RECORDS)
    assert not oracle.matches(10, 20, [RECORDS[1], RECORDS[3]])
    assert not oracle.matches(10, 20, [RECORDS[1], RECORDS[2], RECORDS[3], RECORDS[4]])
    assert not oracle.matches(10, 20, [RECORDS[1], RECORDS[1], RECORDS[2], RECORDS[3]])


def _history():
    oracle = VersionedOracle(RECORDS)
    oracle.apply(UpdateBatch().insert((100, 15, b"new")))           # version 1
    oracle.apply(UpdateBatch().delete(1).modify((3, 12, b"moved")))  # version 2
    return oracle


def test_versioned_answers():
    oracle = _history()
    v0 = [RECORDS[1], RECORDS[2], RECORDS[3]]
    v1 = v0 + [(100, 15, b"new")]
    v2 = [RECORDS[2], (3, 12, b"moved"), (100, 15, b"new")]
    assert oracle.version == 2
    assert oracle.matches(10, 20, v2)
    assert oracle.matches(10, 20, v1, 0, 2)
    assert oracle.matches(10, 20, v0, 0, 1)
    assert oracle.range(10, 20) == sorted(v2, key=lambda record: (record[1], record[0]))


def test_rejects_answer_outside_version_window():
    oracle = _history()
    v0 = [RECORDS[1], RECORDS[2], RECORDS[3]]
    v2 = [RECORDS[2], (3, 12, b"moved"), (100, 15, b"new")]
    assert not oracle.matches(10, 20, v0, 1, 2)  # sent after batch 1 was acked
    assert not oracle.matches(10, 20, v2, 0, 1)  # completed before batch 2 was sent
