"""Shared-memory transport for the local multiprocess backend.

The old data plane returned every batch's cells as a pickled
``{cuboid: {cell: (count, sum)}}`` dict — megabytes of tuple soup
squeezed through the pool's result pipe, serialized in the worker and
deserialized in the parent, both at Python speed.  This module replaces
that with segments of bit-packed arrays:

* :func:`encode_result` / :func:`decode_result` — a compact columnar
  codec for cube results.  Cells re-use the
  :class:`~repro.core.columnar.KeyPacking` 63-bit layout (one ``int64``
  per cell) when the frame has one; relations whose cardinalities
  overflow the packed-key budget take the tuple-key fallback (one
  ``int64`` *per coordinate*, exact for any code an ``array('q')``
  column can hold).  Counts travel as ``int64`` and measure sums as
  ``float64``, so the round-trip is bit-exact in both directions.
* :class:`ShmTransport` — run-scoped segment management.  Workers
  create POSIX shared-memory segments named ``rsm-<run_id>-...``
  (:mod:`multiprocessing.shared_memory`) and return only a tiny
  ``(kind, name, nbytes)`` descriptor over the pipe; the parent
  attaches, decodes with numpy and unlinks.  A segment that cannot be
  created (no ``multiprocessing.shared_memory`` on the platform, or the
  operating system refuses it) is an :class:`OSError` from
  :meth:`ShmTransport.create`; the caller then sends that one payload
  over the pool pipe, the way the inline single-worker path always does.
* :meth:`ShmTransport.sweep` — crash hygiene.  A worker SIGKILLed
  mid-write leaks its half-written segment (the parent never sees the
  descriptor), so the supervisor sweeps every run-prefixed segment it
  is not about to read whenever it respawns the pool, and again when
  the run ends.  Deterministic names make the sweep exact: nothing
  outside this run's prefix is ever touched.

The codec is transport-independent: ``encode_result`` returns plain
``bytes``, so the unit tests exercise exactly the bytes the segments
carry.
"""

import mmap
import os
import struct
from array import array

import numpy as _np

try:
    import _posixshmem
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shared_memory = None

#: Codec magic ("RSM1") — first word of every encoded result payload.
MAGIC = 0x52534D31

#: Directory POSIX shared memory appears under on Linux; scanned by the
#: leak sweep (and by the chaos tests, from the outside).
DEV_SHM = "/dev/shm"

_HEADER = struct.Struct("<II")          # magic, n_cuboids
_CUBOID = struct.Struct("<HBxI")        # n_dims, mode, pad, n_cells
_MODE_PACKED = 0                        # one packed int64 key per cell
_MODE_COLUMNS = 1                       # one int64 per cell coordinate


def _align8(offset):
    return (offset + 7) & ~7


# ----------------------------------------------------------------------
# result codec
# ----------------------------------------------------------------------
def encode_result(items, dims, packing):
    """Encode ``[(cuboid, {cell: (count, sum)}), ...]`` to bytes.

    ``dims`` is the frame's dimension tuple (cuboid names are mapped to
    positions in it); ``packing`` the frame's
    :class:`~repro.core.columnar.KeyPacking`, or ``None`` to force the
    tuple-key fallback encoding for every cuboid.
    """
    index = {name: i for i, name in enumerate(dims)}
    chunks = [_HEADER.pack(MAGIC, len(items))]
    size = _HEADER.size
    for cuboid, cells in items:
        positions = [index[name] for name in cuboid]
        k = len(positions)
        n = len(cells)
        mode = _MODE_PACKED if (packing is not None and k) else _MODE_COLUMNS
        head = _CUBOID.pack(k, mode, n) + struct.pack("<%dH" % k, *positions)
        pad = _align8(size + len(head)) - (size + len(head))
        head += b"\x00" * pad
        chunks.append(head)
        size += len(head)
        if mode == _MODE_PACKED:
            body = _encode_packed(cells, positions, packing, n)
        else:
            body = _encode_columns(cells, k, n)
        for part in body:
            chunks.append(part)
            size += len(part)
    return b"".join(chunks)


def _encode_packed(cells, positions, packing, n):
    if not n:
        return []
    shifts = [packing.shifts[p] for p in positions]
    mat = _np.array(list(cells.keys()), dtype=_np.int64)
    keys = _np.bitwise_or.reduce(
        mat << _np.asarray(shifts, dtype=_np.int64), axis=1)
    counts = _np.fromiter((v[0] for v in cells.values()),
                          dtype=_np.int64, count=n)
    sums = _np.fromiter((v[1] for v in cells.values()),
                        dtype=_np.float64, count=n)
    return [keys.tobytes(), counts.tobytes(), sums.tobytes()]


def _encode_columns(cells, k, n):
    cols = [array("q", bytes(8 * n)) for _ in range(k)]
    counts = array("q", bytes(8 * n))
    sums = array("d", bytes(8 * n))
    for i, (cell, (count, total)) in enumerate(cells.items()):
        for j in range(k):
            cols[j][i] = cell[j]
        counts[i] = count
        sums[i] = total
    return [col.tobytes() for col in cols] + [counts.tobytes(),
                                              sums.tobytes()]


def decode_result(buf, dims, packing):
    """Decode :func:`encode_result` bytes back to cuboid/cells items.

    Returns ``[(cuboid, {cell: (count, sum)}), ...]`` with Python ints
    and floats — bit-identical to what the worker's writer held.
    """
    view = memoryview(buf)
    magic, n_cuboids = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise ValueError("bad result segment magic 0x%08x" % magic)
    offset = _HEADER.size
    out = []
    for _ in range(n_cuboids):
        k, mode, n = _CUBOID.unpack_from(view, offset)
        offset += _CUBOID.size
        positions = struct.unpack_from("<%dH" % k, view, offset)
        offset += 2 * k
        offset = _align8(offset)
        cuboid = tuple(dims[p] for p in positions)
        if mode == _MODE_PACKED:
            cells, offset = _decode_packed(view, offset, positions,
                                           packing, n)
        else:
            cells, offset = _decode_columns(view, offset, k, n)
        out.append((cuboid, cells))
    return out


def _int64_list(view, offset, n):
    return _np.frombuffer(view, dtype=_np.int64, count=n,
                          offset=offset).tolist()


def _float64_list(view, offset, n):
    return _np.frombuffer(view, dtype=_np.float64, count=n,
                          offset=offset).tolist()


def _decode_packed(view, offset, positions, packing, n):
    if packing is None:
        raise ValueError("packed-mode segment but the frame has no packing")
    keys = _np.frombuffer(view, dtype=_np.int64, count=n, offset=offset)
    code_cols = [
        ((keys >> packing.shifts[p]) & packing.masks[p]).tolist()
        for p in positions
    ]
    offset += 8 * n
    counts = _int64_list(view, offset, n)
    offset += 8 * n
    sums = _float64_list(view, offset, n)
    offset += 8 * n
    cells = dict(zip(zip(*code_cols), zip(counts, sums))) if code_cols else {}
    return cells, offset


def _decode_columns(view, offset, k, n):
    code_cols = []
    for _ in range(k):
        code_cols.append(_int64_list(view, offset, n))
        offset += 8 * n
    counts = _int64_list(view, offset, n)
    offset += 8 * n
    sums = _float64_list(view, offset, n)
    offset += 8 * n
    if k:
        cells = dict(zip(zip(*code_cols), zip(counts, sums)))
    else:
        # Zero-dimension cuboid (defensive): n is 0 or 1 cell at ().
        cells = {(): (counts[0], sums[0])} if n else {}
    return cells, offset


# ----------------------------------------------------------------------
# segments
# ----------------------------------------------------------------------
def _untrack(shm):
    """Detach a created SharedMemory object from the resource tracker.

    Segment lifetime is owned by the run (creator writes, parent
    unlinks, the supervisor sweeps leaks), so the tracker must not also
    try to unlink at interpreter exit — that produces spurious "leaked
    shared_memory" warnings for segments the parent already reclaimed.
    Only the creator registers a name (before anyone else knows it), so
    register and unregister pair up in one process; attaches and
    unlinks never touch the tracker.  Best-effort: the private registry
    moved across Python versions, and 3.13+ has ``track=False``
    instead.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class Segment:
    """One attached or created segment: a writable buffer + descriptor."""

    __slots__ = ("kind", "name", "nbytes", "buf", "_shm")

    def __init__(self, kind, name, nbytes, buf, shm=None):
        self.kind = kind
        self.name = name
        self.nbytes = nbytes
        self.buf = buf
        self._shm = shm

    @property
    def descriptor(self):
        """The picklable ``(kind, name, nbytes)`` handle sent over the pipe."""
        return (self.kind, self.name, self.nbytes)

    def close(self):
        self.buf = None
        if self._shm is not None:
            try:
                self._shm.close()
            except (OSError, BufferError):  # pragma: no cover - still viewed
                # BufferError: a frame built over this segment still
                # holds memoryview casts (worker exit order is GC's
                # whim); the mapping dies with the process either way.
                pass
            self._shm = None

    def unlink(self):
        """Remove the backing object (close first if still attached)."""
        name = self.name
        self.close()
        if self.kind == "shm":
            _unlink_raw(name)


def _unlink_raw(name):
    """Remove a segment's name (gone already is fine); the tracker is
    not told — see :func:`_untrack`."""
    if _shared_memory is None:  # pragma: no cover - guarded by create
        return
    try:
        _posixshmem.shm_unlink("/" + name)
    except OSError:
        pass


class ShmTransport:
    """Run-scoped segment factory shared by the parent and its workers.

    Picklable (it rides in the pool initargs); each process creates and
    attaches segments independently — only names cross the pipe.
    """

    __slots__ = ("run_id", "_seq")

    def __init__(self, run_id):
        self.run_id = run_id
        self._seq = 0

    def __getstate__(self):
        return self.run_id

    def __setstate__(self, state):
        self.run_id = state
        self._seq = 0

    def _next_name(self, tag):
        self._seq += 1
        return "rsm-%s-%s-%d-%d" % (self.run_id, tag, os.getpid(), self._seq)

    @property
    def prefix(self):
        return "rsm-%s-" % self.run_id

    def create(self, nbytes, tag="seg"):
        """Create a writable segment of ``nbytes`` (run-prefixed name).

        Raises :class:`OSError` when the segment cannot be had — the
        platform has no ``multiprocessing.shared_memory``, or the
        operating system refuses this one; the caller ships the payload
        over the pipe instead.
        """
        if nbytes <= 0:
            return Segment("empty", "", 0, memoryview(b""))
        if _shared_memory is None:
            raise OSError("multiprocessing.shared_memory is not available")
        shm = _shared_memory.SharedMemory(
            name=self._next_name(tag), create=True, size=nbytes)
        _untrack(shm)
        return Segment("shm", shm.name, nbytes,
                       memoryview(shm.buf)[:nbytes], shm=shm)

    def attach(self, descriptor):
        """Attach a segment created in another process (read/write).

        The segment is mapped directly, not through ``SharedMemory``,
        which on Python < 3.13 registers every attach with the resource
        tracker that all of a run's processes share (see
        :func:`_untrack`)."""
        kind, name, nbytes = descriptor
        if kind == "empty" or nbytes == 0:
            return Segment("empty", "", 0, memoryview(b""))
        if kind != "shm":
            raise ValueError("unknown segment kind %r" % (kind,))
        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            mapping = mmap.mmap(fd, nbytes)
        finally:
            os.close(fd)
        return Segment("shm", name, nbytes, memoryview(mapping), shm=mapping)

    # ------------------------------------------------------------------
    # crash hygiene
    # ------------------------------------------------------------------
    def leaked_segments(self, exclude=()):
        """Names of run-prefixed segments currently on the system.

        ``exclude`` lists segment names still legitimately alive (e.g.
        the input frame segment).
        """
        if _shared_memory is None or not os.path.isdir(DEV_SHM):
            return []
        return [entry for entry in os.listdir(DEV_SHM)
                if entry.startswith(self.prefix) and entry not in exclude]

    def sweep(self, exclude=()):
        """Unlink every leaked run-prefixed segment; returns the count.

        Called by the supervisor after a pool teardown (no writer can be
        alive then — every worker has been terminated) and at run end,
        so segments whose descriptors died with a SIGKILLed worker are
        reclaimed instead of leaking in ``/dev/shm``.
        """
        leaked = self.leaked_segments(exclude=exclude)
        for name in leaked:
            _unlink_raw(name)
        return len(leaked)
