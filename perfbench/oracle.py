"""Ground truth for served range answers, across update versions.

The oracle holds the driver's own copy of the dataset, sorted by key and
searched with ``bisect``; it never looks at the server's ``verified`` bit,
so a provider that alters records and still claims success is caught.

Updates are versioned: version ``k`` is the state after the first ``k``
batches.  The driver applies batch ``k`` here when it *sends* it, so an
answer to a query sent once ``a`` batches were acknowledged and completed
once ``s`` were sent must equal the oracle's range at some version in
``[a, s]`` -- the server executed it at one of them.  Older versions are
reconstructed by undoing the logged changes of the newer batches.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.updates import DeleteRecord, InsertRecord, ModifyRecord, UpdateBatch

Record = Tuple[Any, ...]


class VersionedOracle:
    """Range answers of a ``(id, key, ...)`` relation at any update version."""

    def __init__(self, records: Sequence[Record]):
        self._by_id: Dict[Any, Record] = {record[0]: tuple(record) for record in records}
        self._index: List[Tuple[Any, Any]] = sorted(
            (record[1], record[0]) for record in self._by_id.values()
        )
        #: ``_log[k - 1]`` lists ``(before, after)`` record pairs of batch ``k``.
        self._log: List[List[Tuple[Optional[Record], Optional[Record]]]] = []

    @property
    def version(self) -> int:
        """Number of batches applied."""
        return len(self._log)

    # ------------------------------------------------------------------ updates
    def _put(self, record: Record) -> None:
        self._by_id[record[0]] = record
        bisect.insort(self._index, (record[1], record[0]))

    def _drop(self, record_id: Any) -> Record:
        record = self._by_id.pop(record_id)
        entry = (record[1], record_id)
        position = bisect.bisect_left(self._index, entry)
        del self._index[position]
        return record

    def apply(self, batch: UpdateBatch) -> None:
        """Advance one version by applying ``batch``."""
        changes: List[Tuple[Optional[Record], Optional[Record]]] = []
        for operation in batch:
            if isinstance(operation, InsertRecord):
                record = tuple(operation.fields)
                if record[0] in self._by_id:
                    raise KeyError(f"insert of existing id {record[0]!r}")
                self._put(record)
                changes.append((None, record))
            elif isinstance(operation, DeleteRecord):
                changes.append((self._drop(operation.record_id), None))
            elif isinstance(operation, ModifyRecord):
                record = tuple(operation.fields)
                before = self._drop(record[0])
                self._put(record)
                changes.append((before, record))
            else:
                raise TypeError(f"unknown update operation {operation!r}")
        self._log.append(changes)

    # ------------------------------------------------------------------ answers
    def range(self, low: Any, high: Any) -> List[Record]:
        """Records with ``low <= key <= high`` at the current version."""
        start = bisect.bisect_left(self._index, (low,))
        stop = bisect.bisect_right(self._index, (high, float("inf")))
        return [self._by_id[record_id] for _, record_id in self._index[start:stop]]

    def matches(
        self,
        low: Any,
        high: Any,
        records: Sequence[Record],
        first_version: int = 0,
        last_version: Optional[int] = None,
    ) -> bool:
        """Whether ``records`` is the exact range answer at some version in
        ``[first_version, last_version]`` (default: the current version)."""
        if last_version is None:
            last_version = self.version
        if not 0 <= first_version <= last_version <= self.version:
            raise ValueError(
                f"version window [{first_version}, {last_version}] outside "
                f"[0, {self.version}]"
            )
        answer = sorted(tuple(record) for record in records)
        current = self.range(low, high)
        for version in range(self.version, first_version - 1, -1):
            if version <= last_version and sorted(current) == answer:
                return True
            if version == first_version:
                break
            for before, after in reversed(self._log[version - 1]):
                if after is not None and low <= after[1] <= high:
                    current.remove(after)
                if before is not None and low <= before[1] <= high:
                    current.append(before)
        return False
