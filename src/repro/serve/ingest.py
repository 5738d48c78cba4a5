"""Durable, idempotent streaming ingestion: the store's write-ahead log.

Rewriting every leaf file per micro-batch costs O(full store) per
append, and a re-sent batch double-counts unless something remembers
having applied it.  This module supplies the durability half of the
answer — a per-store **write-ahead log** of checksummed,
batch-id-stamped delta records — while
:class:`~repro.serve.store.CubeStore` supplies the visibility half
(the pending batches of an immutable snapshot) and the compaction that
folds them into new leaf files behind one manifest replace.

On-disk layout (a subdirectory of the store)::

    <store>/wal/
      0000000000000002.wal   # the batch that produced generation 2
      0000000000000003.wal   # ... generation 3, and so on

One file per appended batch, named by the generation its application
produced, written ``.tmp`` + fsync + ``os.replace`` (+ directory fsync)
so a record is either fully present or absent — never torn.  Record
layout (little-endian)::

    magic   "RWAL"                    4 bytes
    version u16                       currently 1
    mode    u16                       0 = packed keys, 1 = i64 columns
    generation u64
    header_len u32
    header  JSON                      batch_id, dims, row count, bit plan
    body    packed u64 keys + f64 measures   (mode 0)
            per-dim i64 columns + f64 measures (mode 1)
    sha256  32 raw bytes over everything above

Mode 0 reuses the 63-bit MSB-first :class:`~repro.core.columnar.KeyPacking`
codec — one ``u64`` per row, bit widths recorded in the header.  When
the batch's coordinates don't fit 63 bits the record falls back to mode
1 (one signed 64-bit column per dimension), so overflow keys round-trip
exactly instead of failing the append.  A record whose checksum,
magic or structure does not verify raises
:class:`~repro.errors.WalCorruptError` naming the file.

**Idempotence** lives one level up: every record carries its client
``batch_id``; the store remembers applied ids (WAL records plus a
bounded window in the manifest) and acknowledges a replayed id without
re-applying it.  **Truncation** happens at compaction: once a batch's
delta is folded into leaf files the manifest names, its
record is obsolete and :meth:`WriteAheadLog.truncate_through` removes
it.  Recovery is therefore a replay: records at or below the manifest
generation are pruned (a compaction whose truncation didn't finish),
records above it are re-applied in generation order.

Nothing here knows it is crash-tested: the tests stop the process
from outside, at any call of the file operations a record is published
and truncated through (``tests/crashes.py``).
"""

import hashlib
import json
import os
import re
import struct
import uuid

from .. import obs
from ..core.columnar import KeyPacking, bits_for
from ..errors import PlanError, WalCorruptError

__all__ = [
    "WriteAheadLog", "WalRecord", "encode_record", "decode_record",
    "stamped_batch_id", "trace_id_of",
]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
WAL_SUFFIX = ".wal"

#: Record body encodings.
MODE_PACKED = 0   # one KeyPacking'd u64 per row
MODE_COLUMNS = 1  # one i64 per coordinate (keys wider than 63 bits)

_FIXED = struct.Struct("<4sHHQI")  # magic, version, mode, generation, header_len
_DIGEST_BYTES = 32

#: Largest coordinate a mode-1 column can hold (signed 64-bit).
MAX_COORD = (1 << 63) - 1


_STAMPED_RE = re.compile(r"^([0-9a-f]{32})-[0-9a-f]+$")


def stamped_batch_id(trace_id=None):
    """Mint a batch id, trace-stamped when a trace id is in hand.

    ``<32-hex trace id>-<16-hex random>`` when tracing is on, else a
    bare ``uuid4().hex``.  The batch id is an opaque idempotence string
    everywhere in the WAL/append path, so stamping changes no format —
    it just makes every re-delivery of the batch (router retry,
    anti-entropy repair) correlatable with the trace that first wrote
    it via :func:`trace_id_of`.
    """
    if trace_id:
        return "%s-%s" % (trace_id, uuid.uuid4().hex[:16])
    return uuid.uuid4().hex


def trace_id_of(batch_id):
    """The trace id a batch id was stamped with, or ``None``."""
    if not isinstance(batch_id, str):
        return None
    match = _STAMPED_RE.match(batch_id)
    return match.group(1) if match else None


class WalRecord:
    """One decoded WAL record: a batch of delta rows plus its identity."""

    __slots__ = ("generation", "batch_id", "dims", "rows", "measures")

    def __init__(self, generation, batch_id, dims, rows, measures):
        self.generation = int(generation)
        self.batch_id = batch_id
        self.dims = tuple(dims)
        self.rows = rows
        self.measures = measures

    def __repr__(self):
        return "WalRecord(generation=%d, batch_id=%r, rows=%d)" % (
            self.generation, self.batch_id, len(self.rows))


def _plan_packing(dims, rows):
    """A 63-bit packing over the batch's coordinates, or ``None``."""
    if not rows:
        return KeyPacking.plan([1] * len(dims))
    maxima = [0] * len(dims)
    for row in rows:
        for i, coord in enumerate(row):
            if coord > maxima[i]:
                maxima[i] = coord
    return KeyPacking.plan([m + 1 for m in maxima])


def encode_record(generation, batch_id, dims, rows, measures):
    """Serialize one batch as a checksummed WAL record (bytes)."""
    dims = tuple(dims)
    if len(rows) != len(measures):
        raise PlanError(
            "WAL record has %d rows but %d measures"
            % (len(rows), len(measures)))
    for row in rows:
        if len(row) != len(dims):
            raise PlanError(
                "WAL row %r has %d coordinates, dims %r has %d"
                % (row, len(row), dims, len(dims)))
        for coord in row:
            if not (0 <= coord <= MAX_COORD):
                raise PlanError(
                    "WAL coordinate %r does not fit a signed 64-bit "
                    "column" % (coord,))
    packing = _plan_packing(dims, rows)
    header = {"batch_id": str(batch_id), "dims": list(dims),
              "rows": len(rows)}
    if packing is not None:
        mode = MODE_PACKED
        header["bits"] = list(packing.bits)
        body = struct.pack(
            "<%dQ" % len(rows), *(packing.pack(row) for row in rows))
    else:
        mode = MODE_COLUMNS
        flat = [coord for row in rows for coord in row]
        body = struct.pack("<%dq" % len(flat), *flat)
    body += struct.pack("<%dd" % len(measures), *measures)
    header_bytes = json.dumps(header, sort_keys=True).encode()
    prefix = _FIXED.pack(WAL_MAGIC, WAL_VERSION, mode, int(generation),
                         len(header_bytes))
    payload = prefix + header_bytes + body
    return payload + hashlib.sha256(payload).digest()


def decode_record(data, path="<bytes>"):
    """Parse and verify one WAL record; raises :class:`WalCorruptError`."""
    if len(data) < _FIXED.size + _DIGEST_BYTES:
        raise WalCorruptError(path, "record truncated (%d bytes)" % len(data))
    payload, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(payload).digest() != digest:
        raise WalCorruptError(path, "SHA-256 mismatch (torn or corrupted)")
    magic, version, mode, generation, header_len = _FIXED.unpack_from(payload)
    if magic != WAL_MAGIC:
        raise WalCorruptError(path, "bad magic %r" % (magic,))
    if version != WAL_VERSION:
        raise WalCorruptError(path, "unsupported WAL version %d" % version)
    try:
        header = json.loads(
            payload[_FIXED.size:_FIXED.size + header_len].decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise WalCorruptError(path, "unreadable header: %s" % exc) from None
    dims = tuple(header["dims"])
    n_rows = int(header["rows"])
    body = payload[_FIXED.size + header_len:]
    measure_bytes = 8 * n_rows
    if mode == MODE_PACKED:
        packing = KeyPacking(header["bits"])
        key_bytes = 8 * n_rows
        if len(body) != key_bytes + measure_bytes:
            raise WalCorruptError(
                path, "packed body is %d bytes, expected %d"
                % (len(body), key_bytes + measure_bytes))
        keys = struct.unpack("<%dQ" % n_rows, body[:key_bytes])
        positions = tuple(range(len(dims)))
        rows = [packing.unpack(key, positions) for key in keys]
    elif mode == MODE_COLUMNS:
        coord_bytes = 8 * n_rows * len(dims)
        if len(body) != coord_bytes + measure_bytes:
            raise WalCorruptError(
                path, "column body is %d bytes, expected %d"
                % (len(body), coord_bytes + measure_bytes))
        flat = struct.unpack("<%dq" % (n_rows * len(dims)), body[:coord_bytes])
        width = len(dims)
        rows = [tuple(flat[i * width:(i + 1) * width])
                for i in range(n_rows)]
        key_bytes = coord_bytes
    else:
        raise WalCorruptError(path, "unknown body mode %d" % mode)
    measures = list(struct.unpack("<%dd" % n_rows, body[key_bytes:]))
    return WalRecord(generation, header["batch_id"], dims, rows, measures)


class WriteAheadLog:
    """The per-store WAL: one durable record file per appended batch.

    Not itself thread-safe — the owning :class:`CubeStore` serializes
    access under its write lock (:meth:`nbytes` alone is read beside a
    writer: a record that vanishes mid-count is skipped).  The directory is created by the first
    :meth:`append`; until then a missing directory is an empty log, so
    a store that never ingests (or sits on read-only media) is opened
    without writing anything.
    """

    def __init__(self, directory):
        self.directory = str(directory)

    def _names(self):
        try:
            return os.listdir(self.directory)
        except FileNotFoundError:
            return []

    def path_for(self, generation):
        return os.path.join(self.directory,
                            "%016d%s" % (int(generation), WAL_SUFFIX))

    def generations(self):
        """Generations with a published record, ascending."""
        out = []
        for name in self._names():
            if name.endswith(WAL_SUFFIX):
                try:
                    out.append(int(name[:-len(WAL_SUFFIX)]))
                except ValueError:
                    continue
        out.sort()
        return out

    def __len__(self):
        return len(self.generations())

    def nbytes(self):
        total = 0
        for generation in self.generations():
            try:
                total += os.path.getsize(self.path_for(generation))
            except OSError:
                pass
        return total

    def sweep(self):
        """Remove ``.tmp`` debris from interrupted writers."""
        removed = []
        for name in sorted(self._names()):
            if ".tmp." in name:
                os.unlink(os.path.join(self.directory, name))
                removed.append(name)
        if removed:
            obs.event("ingest.wal_swept", removed=len(removed))
        return removed

    def _fsync_dir(self, directory=None):
        fd = os.open(directory or self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def append(self, generation, batch_id, dims, rows, measures):
        """Durably publish one batch record; returns its byte size.

        The record is fsync'd under a temp name, then atomically renamed
        into place and the directory entry fsync'd — after ``append``
        returns, the batch survives any crash.
        """
        data = encode_record(generation, batch_id, dims, rows, measures)
        if not os.path.isdir(self.directory):
            os.makedirs(self.directory, exist_ok=True)
            # the new directory's own entry must survive the crash too
            self._fsync_dir(os.path.dirname(self.directory) or ".")
        path = self.path_for(generation)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._fsync_dir()
        return len(data)

    def read(self, generation):
        """Decode the record for one generation (verifying its checksum)."""
        path = self.path_for(generation)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise WalCorruptError(path, "record missing") from None
        return decode_record(data, path=path)

    def replay(self):
        """Yield every published record in generation order."""
        for generation in self.generations():
            yield self.read(generation)

    def truncate_through(self, generation):
        """Drop records at or below ``generation`` (they are compacted)."""
        removed = 0
        for g in self.generations():
            if g <= generation:
                os.unlink(self.path_for(g))
                removed += 1
        if removed:
            self._fsync_dir()
        return removed

    def __repr__(self):
        generations = self.generations()
        return "WriteAheadLog(%d record(s)%s)" % (
            len(generations),
            ", generations %d..%d" % (generations[0], generations[-1])
            if generations else "")
