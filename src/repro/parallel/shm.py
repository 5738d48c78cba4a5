"""Shared-memory transport for the local multiprocess backend.

The old data plane returned every batch's cells as a pickled
``{cuboid: {cell: (count, sum)}}`` dict — megabytes of tuple soup
squeezed through the pool's result pipe, serialized in the worker and
deserialized in the parent, both at Python speed.  This module replaces
that with segments of raw columns:

* :func:`encode_result` / :func:`decode_result` — the columnar codec
  for cube results.  Each cuboid travels as its
  :class:`~repro.core.columnar.CellRun` columns, raw: the ``(dims x
  cells)`` int64 code matrix, then ``int64`` counts and ``float64``
  sums.  There is one mode whatever the cardinalities (a relation whose
  codes overflow a 63-bit packed key ships like any other), the
  round-trip is bit-exact, and decoding copies the buffer once and
  hands back a read-only :class:`~repro.core.columnar.RunCells` view
  per cuboid over that copy — no cell becomes a tuple until a caller
  reads one.
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

import numpy as _np

from ..core.columnar import CellRun, RunCells

try:
    import _posixshmem
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    _shared_memory = None

#: Codec magic ("RSM2") — first word of every encoded result payload.
MAGIC = 0x52534D32

#: Directory POSIX shared memory appears under on Linux; scanned by the
#: leak sweep (and by the chaos tests, from the outside).
DEV_SHM = "/dev/shm"

_HEADER = struct.Struct("<II")          # magic, n_cuboids
_CUBOID = struct.Struct("<HxxI")        # n_dims, pad, n_cells


def _align8(offset):
    return (offset + 7) & ~7


# ----------------------------------------------------------------------
# result codec
# ----------------------------------------------------------------------
def encode_result(items, dims, packing=None):
    """Encode ``[(cuboid, cells), ...]`` to bytes.

    ``cells`` is a :class:`~repro.core.columnar.CellRun`, a
    :class:`~repro.core.columnar.RunCells` view (its run ships) or any
    ``{cell: (count, sum)}`` mapping (shipped as its run).  ``dims`` is
    the frame's dimension tuple (cuboid names are mapped to positions in
    it).  ``packing`` is accepted for callers of the packed-key codec
    this one replaced, and ignored.

    Layout: ``u32 magic, u32 n_cuboids``, then per cuboid ``u16 k, 2
    pad, u32 n, k x u16 positions`` (little-endian), zero padding to 8
    bytes, and ``k x n`` int64 codes (row ``j`` is dimension ``j``),
    ``n`` int64 counts, ``n`` float64 sums in the host's byte order
    (both ends of a segment run on one machine).
    """
    index = {name: i for i, name in enumerate(dims)}
    chunks = [_HEADER.pack(MAGIC, len(items))]
    size = _HEADER.size
    for cuboid, cells in items:
        if isinstance(cells, RunCells):
            cells = cells.run
        run = (cells if isinstance(cells, CellRun)
               else CellRun.from_cells(cuboid, cells))
        k = len(cuboid)
        head = (_CUBOID.pack(k, len(run))
                + struct.pack("<%dH" % k, *(index[name] for name in cuboid)))
        head += b"\x00" * (_align8(size + len(head)) - (size + len(head)))
        chunks += (head, run.codes.astype(_np.int64, copy=False).tobytes(),
                   run.counts.astype(_np.int64, copy=False).tobytes(),
                   run.sums.astype(_np.float64, copy=False).tobytes())
        size += len(head) + 8 * (k + 2) * len(run)
    return b"".join(chunks)


def decode_result(buf, dims, packing=None):
    """Decode :func:`encode_result` bytes back to cuboid/cells items.

    Returns ``[(cuboid, RunCells), ...]``: ``buf`` is copied once and
    every cuboid's run holds read-only views of that copy, so the result
    outlives the segment.  The cells read back bit-identical to what the
    worker encoded.  ``packing`` is ignored (see :func:`encode_result`).
    """
    data = bytes(buf)
    magic, n_cuboids = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValueError("bad result segment magic 0x%08x" % magic)
    offset = _HEADER.size
    out = []
    for _ in range(n_cuboids):
        k, n = _CUBOID.unpack_from(data, offset)
        offset += _CUBOID.size
        cuboid = tuple(dims[p] for p in
                       struct.unpack_from("<%dH" % k, data, offset))
        offset = _align8(offset + 2 * k)
        ints = _np.frombuffer(data, dtype=_np.int64, count=(k + 1) * n,
                              offset=offset)
        sums = _np.frombuffer(data, dtype=_np.float64, count=n,
                              offset=offset + 8 * (k + 1) * n)
        offset += 8 * (k + 2) * n
        run = CellRun(cuboid, ints[:k * n].reshape(k, n), ints[k * n:], sums)
        out.append((cuboid, RunCells(run)))
    return out


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
