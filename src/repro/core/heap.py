"""Variable-length payloads behind a fixed-width index.

Harmonia's value slots are 8-byte integers — on a GPU that is how it must
be.  Real deployments (the intro's web index, the OLAP fact table) store
*records*: the standard design keeps a byte heap on the host and stores
each record's heap offset as the tree value.  :class:`ValueHeap` is that
heap (append-only, length-prefixed), and :class:`RecordStore` glues it to
a :class:`~repro.core.tree.HarmoniaTree` so users get a bytes-valued map
with the tree doing all the finding.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import DEFAULT_FANOUT, NOT_FOUND
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.errors import ConfigError


class ValueHeap:
    """Append-only byte heap with length-prefixed records.

    Offsets are stable forever (records are immutable; updates append a
    new record and repoint the tree — the tombstoned bytes are reclaimed
    by :meth:`vacuum`).
    """

    _LEN_BYTES = 4
    _MAX_RECORD = (1 << 31) - 1

    def __init__(self, capacity: int = 1 << 16) -> None:
        self._buf = bytearray(capacity)
        self._used = 0

    def __len__(self) -> int:
        return self._used

    def append(self, record: bytes) -> int:
        """Store ``record``; returns its offset."""
        if not isinstance(record, (bytes, bytearray, memoryview)):
            raise ConfigError("record must be bytes-like")
        record = bytes(record)
        if len(record) > self._MAX_RECORD:
            raise ConfigError("record too large")
        need = self._used + self._LEN_BYTES + len(record)
        if need > len(self._buf):
            self._buf.extend(bytes(max(need - len(self._buf), len(self._buf))))
        offset = self._used
        self._buf[offset : offset + self._LEN_BYTES] = len(record).to_bytes(
            self._LEN_BYTES, "little"
        )
        start = offset + self._LEN_BYTES
        self._buf[start : start + len(record)] = record
        self._used = need
        return offset

    def get(self, offset: int) -> bytes:
        """Record stored at ``offset``."""
        if not 0 <= offset < self._used:
            raise ConfigError(f"offset {offset} outside heap")
        length = int.from_bytes(
            self._buf[offset : offset + self._LEN_BYTES], "little"
        )
        start = offset + self._LEN_BYTES
        end = start + length
        if end > self._used:
            raise ConfigError(f"corrupt record at offset {offset}")
        return bytes(self._buf[start:end])

    def bytes_used(self) -> int:
        return self._used


class RecordStore:
    """A bytes-valued ordered map: HarmoniaTree keys → heap records."""

    def __init__(
        self,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 0.7,
    ) -> None:
        self.heap = ValueHeap()
        self.tree = HarmoniaTree.empty(fanout=fanout, fill=fill)

    @classmethod
    def from_items(
        cls,
        items: Sequence[Tuple[int, bytes]],
        fanout: int = DEFAULT_FANOUT,
        fill: float = 0.7,
    ) -> "RecordStore":
        store = cls(fanout=fanout, fill=fill)
        pairs = sorted(items)
        keys = np.asarray([k for k, _ in pairs], dtype=np.int64)
        offsets = np.asarray(
            [store.heap.append(rec) for _, rec in pairs], dtype=np.int64
        )
        store.tree = HarmoniaTree.from_sorted(keys, offsets, fanout=fanout,
                                              fill=fill)
        return store

    def __len__(self) -> int:
        return len(self.tree)

    def get(self, key: int) -> Optional[bytes]:
        offset = self.tree.search(key)
        if offset is None:
            return None
        return self.heap.get(int(offset))

    def get_batch(self, keys: Sequence[int]) -> List[Optional[bytes]]:
        offsets = self.tree.search_batch(np.asarray(keys, dtype=np.int64))
        return [
            None if off == NOT_FOUND else self.heap.get(int(off))
            for off in offsets
        ]

    def put(self, key: int, record: bytes) -> None:
        """Insert or overwrite (appends the record, repoints the key)."""
        offset = self.heap.append(record)
        if not self.tree.update(key, offset):
            self.tree.insert(key, offset)

    def put_batch(self, items: Iterable[Tuple[int, bytes]]) -> None:
        ops = []
        for key, record in items:
            offset = self.heap.append(record)
            # upsert semantics via two ops: update wins if present, the
            # insert is a no-op then; if absent the update fails and the
            # insert lands.  Both carry the same offset.
            ops.append(Operation("update", key, offset))
            ops.append(Operation("insert", key, offset))
        self.tree.apply_batch(ops)

    def delete(self, key: int) -> bool:
        return self.tree.delete(key)

    def range(self, lo: int, hi: int) -> List[Tuple[int, bytes]]:
        keys, offsets = self.tree.range_search(lo, hi)
        return [(int(k), self.heap.get(int(o))) for k, o in zip(keys, offsets)]

    def vacuum(self) -> int:
        """Rewrite the heap keeping only live records; returns reclaimed
        bytes.  Offsets change; the tree is rebuilt to match."""
        if len(self.tree) == 0:
            reclaimed = self.heap.bytes_used()
            self.heap = ValueHeap()
            return reclaimed
        keys, offsets = self.tree.snapshot.packed_leaves()
        old = self.heap
        self.heap = ValueHeap()
        new_offsets = np.asarray(
            [self.heap.append(old.get(off)) for off in offsets.tolist()],
            dtype=np.int64,
        )
        self.tree = HarmoniaTree.from_sorted(
            keys, new_offsets, fanout=self.tree.fanout,
            fill=self.tree._fill,
        )
        return old.bytes_used() - self.heap.bytes_used()


__all__ = ["ValueHeap", "RecordStore"]
