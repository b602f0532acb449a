"""File-backed storage for the real-execution backend.

The file backend executes tuned programs against *actual* temp files.
This module provides its storage layer:

* a fixed-width **record codec** — every stored element occupies exactly
  the byte width the cost model attributes to it (a 512-byte join tuple
  really is 512 bytes on disk), so measured byte counters line up with
  the estimator's units;
* :class:`DeviceStore` — one temp directory per hierarchy node, with
  per-request byte/seek counters and syscall timing.  A request that
  does not continue where the previous request on the device left off
  counts as a repositioning, which is how read/write interference on a
  shared disk shows up in the *measured* numbers exactly as it does in
  the simulated ones;
* :class:`FileList` / :class:`MemList` — the two list representations
  the out-of-core evaluator computes with, behind one small interface
  (length, blocked iteration, O(1) ``tail`` views with shared read-ahead
  windows);
* :class:`ListBuilder` — an output collector with bounded in-memory
  buffering: results larger than the modeled root stay on disk, written
  through block-sized flushes.
"""

from __future__ import annotations

import errno
import os
import struct
import time

from .faults import (
    DEFAULT_RETRY,
    ExecutionFault,
    InjectedFault,
    backoff_delays,
    sleep_for_retry,
)
from .stats import DeviceStats

__all__ = [
    "Rec",
    "shape_of",
    "flat_width",
    "encode_value",
    "decode_record",
    "DeviceStore",
    "FileList",
    "MemList",
    "ListBuilder",
]

_INT = struct.Struct("<q")


class Rec(tuple):
    """A fixed-width record: a tuple of int fields with per-field widths.

    Compares, hashes, and projects exactly like the tuple of its fields;
    the widths only matter when the record is encoded back to bytes.
    """

    def __new__(cls, fields, widths):
        self = tuple.__new__(cls, fields)
        self.widths = tuple(widths)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rec{tuple(self)!r}"


# ----------------------------------------------------------------------
# Shapes: int width | tuple of shapes | ("run", shape)
# ----------------------------------------------------------------------
def shape_of(value) -> object:
    """Infer the storage shape of a concrete value."""
    if isinstance(value, Rec):
        return value.widths
    if isinstance(value, bool) or isinstance(value, int):
        return 8
    if isinstance(value, tuple):
        return tuple(shape_of(item) for item in value)
    if isinstance(value, list):
        if len(value) != 1:
            raise ValueError(
                "only singleton runs can be stored as list elements"
            )
        return ("run", shape_of(value[0]))
    raise ValueError(f"cannot store value of type {type(value).__name__}")


def flat_width(shape) -> int:
    """Total byte width of one record of this shape."""
    if isinstance(shape, int):
        return shape
    if isinstance(shape, tuple):
        if shape and shape[0] == "run":
            return flat_width(shape[1])
        return sum(flat_width(item) for item in shape)
    raise ValueError(f"bad shape {shape!r}")


def encode_value(value, shape, out: bytearray) -> None:
    """Append the fixed-width encoding of ``value`` to ``out``."""
    if isinstance(shape, int):
        field = int(value[0]) if isinstance(value, Rec) else int(value)
        out += _INT.pack(field)
        if shape > 8:
            out += bytes(shape - 8)
        return
    if shape and shape[0] == "run":
        encode_value(value[0], shape[1], out)
        return
    if isinstance(value, Rec) and all(
        isinstance(w, int) for w in shape
    ) and len(value) == len(shape):
        for field, width in zip(value, shape):
            out += _INT.pack(int(field))
            if width > 8:
                out += bytes(width - 8)
        return
    if isinstance(value, tuple) and len(value) == len(shape):
        for item, sub in zip(value, shape):
            encode_value(item, sub, out)
        return
    raise ValueError(f"value {value!r} does not match shape {shape!r}")


def decode_record(buf: memoryview, offset: int, shape):
    """Decode one record at ``offset``; returns ``(value, next_offset)``."""
    if isinstance(shape, int):
        (field,) = _INT.unpack_from(buf, offset)
        return field, offset + shape
    if shape and shape[0] == "run":
        value, offset = decode_record(buf, offset, shape[1])
        return [value], offset
    if all(isinstance(w, int) for w in shape):
        fields = []
        for width in shape:
            (field,) = _INT.unpack_from(buf, offset)
            fields.append(field)
            offset += width
        return Rec(fields, shape), offset
    items = []
    for sub in shape:
        value, offset = decode_record(buf, offset, sub)
        items.append(value)
    return tuple(items), offset


# ----------------------------------------------------------------------
# Device-backed temp files
# ----------------------------------------------------------------------
class DeviceStore:
    """Temp-file namespace for one hierarchy node, with I/O accounting.

    Counters live in a :class:`DeviceStats`; repositionings are tracked
    per direction (``read_seeks`` / ``write_seeks``) because the two
    directions of a hierarchy edge carry different initiation costs.

    Requests run under the store's fault discipline (DESIGN.md §16):
    when a :class:`~repro.runtime.faults.FaultPlan` is attached via
    ``faults``, each logical read/write consults it first; transient
    errors — injected or real ``OSError`` — are retried under ``retry``
    with the full block re-issued at the same offset (idempotent), and
    permanent ones surface as a typed
    :class:`~repro.runtime.faults.ExecutionFault`.  Counters advance
    only once per *successful* logical request, so a recovered run is
    counter-identical to a fault-free one.
    """

    def __init__(self, name: str, directory: str) -> None:
        self.name = name
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.stats = DeviceStats()
        self.read_seeks = 0
        self.write_seeks = 0
        self.io_time = 0.0
        self.faults = None
        self.retry = DEFAULT_RETRY
        self.retries = 0
        self.faults_seen = 0
        self._head: tuple[int, int] | None = None
        self._serial = 0
        self._handles: list = []

    @staticmethod
    def _key(handle):
        """Stable head identity for a file: its path when it has one.

        Every file this store opens gets a fresh path, whereas an
        ``id`` can be reused once a released handle is collected — so a
        path key never mistakes a new file for the old head position.
        """
        return getattr(handle, "name", None) or id(handle)

    def new_file(self, tag: str):
        """Open a fresh read/write binary file under this device."""
        self._serial += 1
        path = os.path.join(self.directory, f"{tag}-{self._serial}.bin")
        try:
            handle = open(path, "w+b")
        except OSError as error:
            raise ExecutionFault(
                self.name, "open", 0, str(error)
            ) from error
        self._handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    # Fault discipline: one attempt performs the (possibly injected)
    # raw I/O; the retry loop below re-issues transient failures under
    # the bounded backoff policy and types permanent ones.
    # ------------------------------------------------------------------
    def _perform_read(self, handle, offset: int, nbytes: int) -> bytes:
        if self.faults is not None:
            self.faults.on_read(self.name, offset, nbytes)
        handle.seek(offset)
        return handle.read(nbytes)

    def _perform_write(self, handle, offset: int, data: bytes) -> None:
        if self.faults is not None:
            torn = self.faults.on_write(self.name, offset, len(data))
            if torn is not None:
                # Land a short prefix, then fail: the retry overwrites
                # the full block at the same offset, so recovery leaves
                # no trace of the tear.
                handle.seek(offset)
                handle.write(data[:torn])
                raise InjectedFault(self.name, "write", offset, "torn-write")
        handle.seek(offset)
        handle.write(data)

    def _io_with_retry(self, op: str, offset: int, attempt):
        """Run one logical request to completion or a typed fault."""
        delays = backoff_delays(self.retry)
        failures = 0
        while True:
            try:
                return attempt()
            except ExecutionFault:
                raise
            except OSError as error:
                failures += 1
                self.faults_seen += 1
                real_full = (
                    getattr(error, "errno", None) == errno.ENOSPC
                    and not isinstance(error, InjectedFault)
                )
                if real_full:
                    raise ExecutionFault(
                        self.name, op, offset, f"device full: {error}"
                    ) from error
                if failures >= self.retry.attempts:
                    raise ExecutionFault(
                        self.name, op, offset,
                        f"gave up after {failures} attempts: {error}",
                    ) from error
                self.retries += 1
                sleep_for_retry(next(delays, 0.0))

    def read(self, handle, offset: int, nbytes: int) -> bytes:
        key = (self._key(handle), offset)
        repositioned = self._head != key
        start = time.perf_counter()
        data = self._io_with_retry(
            "read", offset,
            lambda: self._perform_read(handle, offset, nbytes),
        )
        self.io_time += time.perf_counter() - start
        if self.faults is not None:
            self.io_time += self.faults.latency_penalty(self.name)
        if repositioned:
            self.stats.seeks += 1
            self.read_seeks += 1
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        self._head = (self._key(handle), offset + len(data))
        return data

    def write(self, handle, offset: int, data: bytes) -> None:
        key = (self._key(handle), offset)
        repositioned = self._head != key
        start = time.perf_counter()
        self._io_with_retry(
            "write", offset,
            lambda: self._perform_write(handle, offset, data),
        )
        self.io_time += time.perf_counter() - start
        if self.faults is not None:
            self.io_time += self.faults.latency_penalty(self.name)
        if repositioned:
            self.stats.seeks += 1
            self.write_seeks += 1
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        self._head = (self._key(handle), offset + len(data))

    def release(self, handle) -> None:
        """Close and delete a superseded scratch file.

        Long accumulator rewrites (the spilled insertion sort) would
        otherwise hold one open fd and one full copy per step.
        """
        try:
            self._handles.remove(handle)
        except ValueError:
            pass
        path = getattr(handle, "name", None)
        try:
            handle.close()
        except OSError:  # pragma: no cover - best effort
            pass
        if path:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - best effort
                pass
        if self._head is not None and self._head[0] == self._key(handle):
            self._head = None

    def reset_counters(self) -> None:
        """Forget setup-time traffic (input generation is not measured)."""
        self.stats = DeviceStats()
        self.read_seeks = 0
        self.write_seeks = 0
        self.io_time = 0.0
        self.retries = 0
        self.faults_seen = 0
        self._head = None

    def close(self) -> None:
        for handle in self._handles:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best effort
                pass
        self._handles.clear()


# ----------------------------------------------------------------------
# List values
# ----------------------------------------------------------------------
class MemList:
    """An in-memory list value with an O(1) ``tail`` view.

    ``owned`` marks lists whose backing storage belongs exclusively to
    the evaluator (fresh results, accumulators): only those may be
    extended destructively by ⊔.  Environment-bound *inputs* are shared
    — the conformance fuzzer caught ``R ⊔ [x]`` appending into the input
    relation itself — and must be copied instead.
    """

    __slots__ = ("items", "start", "sorted", "owned")

    def __init__(
        self,
        items: list,
        start: int = 0,
        sorted: bool = False,
        owned: bool = True,
    ):
        self.items = items
        self.start = start
        self.sorted = sorted
        self.owned = owned

    def __len__(self) -> int:
        return len(self.items) - self.start

    def head(self):
        return self.items[self.start]

    def tail(self) -> "MemList":
        return MemList(self.items, self.start + 1, self.sorted, self.owned)

    def iter_blocks(self, block: int):
        items = self.items
        for base in range(self.start, len(items), block):
            yield items[base : base + block]

    def materialize(self) -> list:
        return self.items[self.start :] if self.start else self.items

    def with_readahead(self, block: int) -> "MemList":
        return self


class FileList:
    """A read-only list stored as fixed-width records in a device file.

    ``tail`` returns an O(1) view sharing the underlying file and a
    read-ahead window, so head/tail streaming (the generic ``unfoldR``
    loop) issues one real read per window, not per element.
    """

    __slots__ = (
        "store", "handle", "base", "length", "shape", "elem_bytes",
        "start", "sorted", "_window",
    )

    def __init__(
        self,
        store: DeviceStore,
        handle,
        base: int,
        length: int,
        shape,
        sorted: bool = False,
        start: int = 0,
        window=None,
    ) -> None:
        self.store = store
        self.handle = handle
        self.base = base
        self.length = length
        self.shape = shape
        self.elem_bytes = flat_width(shape)
        self.start = start
        self.sorted = sorted
        # [window_base_index, decoded_values, readahead]
        self._window = window if window is not None else [0, [], 1]

    def __len__(self) -> int:
        return self.length - self.start

    def with_readahead(self, block: int) -> "FileList":
        self._window[2] = max(1, int(block))
        return self

    def head(self):
        return self._record_at(self.start)

    def tail(self) -> "FileList":
        return FileList(
            self.store, self.handle, self.base, self.length, self.shape,
            self.sorted, self.start + 1, self._window,
        )

    def _record_at(self, index: int):
        base, values, readahead = self._window
        if not values or not (base <= index < base + len(values)):
            count = min(readahead, self.length - index)
            values = self._read_records(index, count)
            self._window[0] = base = index
            self._window[1] = values
        return values[index - base]

    def _read_records(self, index: int, count: int) -> list:
        nbytes = count * self.elem_bytes
        data = self.store.read(
            self.handle, self.base + index * self.elem_bytes, nbytes
        )
        view = memoryview(data)
        out = []
        offset = 0
        for _ in range(count):
            value, offset = decode_record(view, offset, self.shape)
            out.append(value)
        return out

    def iter_blocks(self, block: int):
        block = max(1, int(block))
        index = self.start
        while index < self.length:
            count = min(block, self.length - index)
            yield self._read_records(index, count)
            index += count

    def materialize(self) -> list:
        out: list = []
        for chunk in self.iter_blocks(8192):
            out.extend(chunk)
        return out


class ListBuilder:
    """Collects list results; spills to a device once they outgrow RAM.

    The in-memory bound is the modeled root size: intermediates that
    would not fit the experiment's buffer pool go to a real spill file,
    appended through ``write_block``-byte flushes (the role the tuned
    output-block parameters play in the generated programs).
    """

    def __init__(
        self,
        budget_bytes: float,
        spill_store: DeviceStore | None,
        write_block: int = 1 << 20,
        tag: str = "spill",
    ) -> None:
        self.budget = budget_bytes
        self.spill_store = spill_store
        self.write_block = max(1, int(write_block))
        self.tag = tag
        self.items: list = []
        self.nbytes = 0.0
        self.count = 0
        self.shape = None
        self.handle = None
        self.file_offset = 0
        self.buffer = bytearray()
        self.storable = True

    # ------------------------------------------------------------------
    def append(self, value) -> None:
        if self.shape is None and self.storable:
            try:
                self.shape = shape_of(value)
                self.elem_bytes = flat_width(self.shape)
            except ValueError:
                # Values holding file handles (e.g. zipped partition
                # buckets) are bookkeeping, not data: keep them in memory.
                self.storable = False
                self.elem_bytes = 0.0
        self.count += 1
        if self.handle is not None:
            encode_value(value, self.shape, self.buffer)
            if len(self.buffer) >= self.write_block:
                self._flush()
            return
        self.items.append(value)
        self.nbytes += self.elem_bytes
        if (
            self.storable
            and self.nbytes > self.budget
            and self.spill_store is not None
        ):
            self._spill()

    def extend(self, values) -> None:
        if isinstance(values, (MemList, FileList)):
            if isinstance(values, MemList) and self.handle is None:
                for value in values.materialize():
                    self.append(value)
                return
            for chunk in values.iter_blocks(8192):
                for value in chunk:
                    self.append(value)
            return
        for value in values:
            self.append(value)

    # ------------------------------------------------------------------
    def _spill(self) -> None:
        self.handle = self.spill_store.new_file(self.tag)
        self.file_offset = 0
        for value in self.items:
            encode_value(value, self.shape, self.buffer)
            if len(self.buffer) >= self.write_block:
                self._flush()
        self.items = []

    def _flush(self) -> None:
        if self.buffer:
            self.spill_store.write(
                self.handle, self.file_offset, bytes(self.buffer)
            )
            self.file_offset += len(self.buffer)
            self.buffer = bytearray()

    # ------------------------------------------------------------------
    def finish(self, sorted: bool = False):
        if self.handle is None:
            return MemList(self.items, sorted=sorted)
        self._flush()
        return FileList(
            self.spill_store, self.handle, 0, self.count, self.shape,
            sorted=sorted,
        )
