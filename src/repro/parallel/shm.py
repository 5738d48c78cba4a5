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
  create segments named ``rsm-<run_id>-...`` (POSIX shared memory via
  :mod:`multiprocessing.shared_memory`, or mmap'd files under a
  run-scoped temp directory when shared memory is unavailable or
  disabled) and return only a tiny ``(kind, name, nbytes)`` descriptor
  over the pipe; the parent attaches, decodes with numpy and unlinks.
* :meth:`ShmTransport.sweep` — crash hygiene.  A worker SIGKILLed
  mid-write leaks its half-written segment (the parent never sees the
  descriptor), so the supervisor sweeps every run-prefixed segment it
  is not about to read whenever it respawns the pool, and again when
  the run ends.  Deterministic names make the sweep exact: nothing
  outside this run's prefix is ever touched.

The codec is transport-independent: ``encode_result`` returns plain
``bytes``, so the pickle fallback path (``use_shm=False``) and the unit
tests exercise exactly the bytes the segments carry.
"""

import mmap
import os
import struct
import tempfile
from array import array

import numpy as _np

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - very old / exotic platforms
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
    """Detach a SharedMemory object from this process's resource tracker.

    Segment lifetime is owned by the run (creator writes, parent
    unlinks, the supervisor sweeps leaks), so the per-process tracker
    must not also try to unlink at interpreter exit — that produces
    spurious "leaked shared_memory" warnings for segments the parent
    already reclaimed.  Best-effort: the private registry moved across
    Python versions, and 3.13+ has ``track=False`` instead.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


class Segment:
    """One attached or created segment: a writable buffer + descriptor."""

    __slots__ = ("kind", "name", "nbytes", "buf", "_shm", "_mmap", "_file")

    def __init__(self, kind, name, nbytes, buf, shm=None, mm=None, file=None):
        self.kind = kind
        self.name = name
        self.nbytes = nbytes
        self.buf = buf
        self._shm = shm
        self._mmap = mm
        self._file = file

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
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def unlink(self):
        """Remove the backing object (close first if still attached)."""
        kind, name = self.kind, self.name
        self.close()
        _unlink_raw(kind, name)


def _unlink_raw(kind, name):
    if kind == "shm":
        if _shared_memory is None:  # pragma: no cover - guarded by create
            return
        try:
            seg = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        except (OSError, ValueError):
            # ValueError: a zero-length segment — its creator was killed
            # between shm_open and ftruncate — cannot be mapped, so it
            # cannot be attached; its name can still be removed.
            try:
                os.unlink(os.path.join(DEV_SHM, name))
            except OSError:
                pass
            return
        # No _untrack here: on 3.11 this attach registered with the
        # tracker and unlink() below unregisters — they balance.
        try:
            seg.close()
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - racing
            pass
    elif kind == "file":
        try:
            os.unlink(name)
        except OSError:
            pass


class ShmTransport:
    """Run-scoped segment factory shared by the parent and its workers.

    Picklable (it rides in the pool initargs); each process creates and
    attaches segments independently — only names cross the pipe.

    ``mode`` is ``"shm"`` (POSIX shared memory) or ``"file"`` (mmap'd
    files under ``directory``, the fallback for platforms without
    ``multiprocessing.shared_memory`` and for ``--no-shm`` runs that
    still want spill-free transport).  Creation failures in shm mode
    (e.g. a full ``/dev/shm``) fall back to file mode per segment when a
    directory is available.
    """

    __slots__ = ("run_id", "mode", "directory", "_seq")

    def __init__(self, run_id, mode="shm", directory=None):
        if mode not in ("shm", "file"):
            raise ValueError("unknown transport mode %r" % (mode,))
        if mode == "shm" and _shared_memory is None:
            mode = "file"
        if mode == "file" and directory is None:
            raise ValueError("file transport needs a directory")
        self.run_id = run_id
        self.mode = mode
        self.directory = directory
        self._seq = 0

    @classmethod
    def for_run(cls, run_id, prefer_shm=True):
        """Build the transport for one run, picking the best mode.

        File mode always gets a run-scoped temp directory (even as a
        standby for shm-mode creation failures); the parent removes it
        in :meth:`shutdown`.
        """
        directory = tempfile.mkdtemp(prefix="rsm-%s-" % run_id)
        mode = "shm" if (prefer_shm and _shared_memory is not None) else "file"
        return cls(run_id, mode, directory)

    def __getstate__(self):
        return (self.run_id, self.mode, self.directory)

    def __setstate__(self, state):
        self.run_id, self.mode, self.directory = state
        self._seq = 0

    def _next_name(self, tag):
        self._seq += 1
        return "rsm-%s-%s-%d-%d" % (self.run_id, tag, os.getpid(), self._seq)

    @property
    def prefix(self):
        return "rsm-%s-" % self.run_id

    def create(self, nbytes, tag="seg"):
        """Create a writable segment of ``nbytes`` (run-prefixed name)."""
        if nbytes <= 0:
            return Segment("empty", "", 0, memoryview(b""))
        name = self._next_name(tag)
        if self.mode == "shm":
            try:
                shm = _shared_memory.SharedMemory(
                    name=name, create=True, size=nbytes)
            except OSError:
                if self.directory is None:
                    raise
            else:
                _untrack(shm)
                return Segment("shm", shm.name, nbytes,
                               memoryview(shm.buf)[:nbytes], shm=shm)
        path = os.path.join(self.directory, name)
        handle = open(path, "w+b")
        try:
            handle.truncate(nbytes)
            mm = mmap.mmap(handle.fileno(), nbytes)
        except BaseException:
            handle.close()
            raise
        return Segment("file", path, nbytes, memoryview(mm), mm=mm,
                       file=handle)

    def attach(self, descriptor):
        """Attach a segment created in another process (read/write)."""
        kind, name, nbytes = descriptor
        if kind == "empty" or nbytes == 0:
            return Segment("empty", "", 0, memoryview(b""))
        if kind == "shm":
            shm = _shared_memory.SharedMemory(name=name)
            _untrack(shm)
            return Segment("shm", name, nbytes,
                           memoryview(shm.buf)[:nbytes], shm=shm)
        if kind == "file":
            handle = open(name, "r+b")
            try:
                mm = mmap.mmap(handle.fileno(), nbytes)
            except BaseException:
                handle.close()
                raise
            return Segment("file", name, nbytes, memoryview(mm), mm=mm,
                           file=handle)
        raise ValueError("unknown segment kind %r" % (kind,))

    # ------------------------------------------------------------------
    # crash hygiene
    # ------------------------------------------------------------------
    def leaked_segments(self, exclude=()):
        """Names of run-prefixed segments currently on the system.

        ``exclude`` lists descriptor names still legitimately alive
        (e.g. the input frame segment).
        """
        skip = {os.path.basename(name) for name in exclude}
        found = []
        if _shared_memory is not None and os.path.isdir(DEV_SHM):
            for entry in os.listdir(DEV_SHM):
                if entry.startswith(self.prefix) and entry not in skip:
                    found.append(("shm", entry))
        if self.directory and os.path.isdir(self.directory):
            for entry in os.listdir(self.directory):
                if entry.startswith(self.prefix) and entry not in skip:
                    found.append(("file", os.path.join(self.directory, entry)))
        return found

    def sweep(self, exclude=()):
        """Unlink every leaked run-prefixed segment; returns the count.

        Called by the supervisor after a pool teardown (no writer can be
        alive then — every worker has been terminated) and at run end,
        so segments whose descriptors died with a SIGKILLed worker are
        reclaimed instead of leaking in ``/dev/shm``.
        """
        leaked = self.leaked_segments(exclude=exclude)
        for kind, name in leaked:
            _unlink_raw(kind, name)
        return len(leaked)

    def shutdown(self, exclude=()):
        """Final sweep plus removal of the run's temp directory."""
        count = self.sweep(exclude=exclude)
        if self.directory and os.path.isdir(self.directory):
            try:
                os.rmdir(self.directory)
            except OSError:  # pragma: no cover - stray files remain
                pass
        return count
