"""Columnar compute kernel: bit-packed keys and counting/radix refinement.

Every algorithm in this library ultimately spends its time partitioning
row-index ranges by one dimension at a time.  The seed
:class:`~repro.core.buc.BucEngine` does that with a per-level
``sorted(key=...)`` over Python lists — correct, and priced faithfully
for the simulated cluster, but far from what the hardware allows.  This
module supplies the machinery for real speed:

* :class:`KeyPacking` — a bit-field layout that packs one dense
  dimension code per field into a single 63-bit integer, most
  significant field first, so *sorting by a masked packed key is
  exactly a lexicographic sort* of the corresponding dimension prefix
  and a cell's identity is one ``int`` instead of a tuple.
* :class:`ColumnarFrame` — a column-major snapshot of a relation:
  one ``array('q')`` buffer per dimension, an ``array('d')`` measure
  buffer, and (cardinalities permitting) the packed key of every row.
  Buffers are cheap to pickle and are shared copy-on-write by forked
  worker processes.
* Two refinement kernels for :class:`~repro.core.buc.BucEngine`:
  :class:`PythonKernel` (the seed behaviour, bit-for-bit, including its
  OpStats pricing — the oracle the simulated figures and the op-count
  stats need) and :class:`NumpyKernel` (vectorised
  ``argsort``/``bincount``/``reduceat`` for large ranges, a stdlib loop
  for the small ranges deep in the recursion where vectorisation
  overhead dominates — BUC's recursion is an MSD radix sort over the
  packed key fields, and each level's refinement is one pass).
* :func:`aggregate_cuboid` — one-pass group-by over the packed keys,
  for anywhere a single cuboid is needed as a ``{cell: (count, sum)}``
  dict without the full BUC recursion.
* :class:`CellRun` — a leaf cuboid's cells sorted by cell, as columns:
  *the* representation of a materialized leaf from the pool worker
  (:func:`leaf_run`) through shared memory, the in-memory and on-disk
  stores and the MapReduce store reducer, down to the ``.run`` leaf
  file (:class:`RunWriter` / :meth:`CellRun.decode`); of every cuboid
  the pool's BUC writes, from the kernel's code matrix to the caller's
  :class:`RunCells` view; and of an answer: :meth:`CellRun.group_by`
  rolls a leaf up into the answer's run, which a :class:`RunCells` view
  holds until someone reads it as a dict.

If the per-dimension cardinalities need more than
:data:`MAX_KEY_BITS` bits in total, packing is impossible in a machine
word; the frame then carries no key buffer, a warning is logged once,
and every consumer falls back to tuple keys (the
``test_columnar`` suite covers the fallback path).

``numpy`` is a declared dependency and imported unconditionally;
``kernel="auto"`` is the vectorised kernel.
"""

import io
import logging
import struct
from array import array
from collections.abc import Mapping

import numpy as _np

from ..errors import PlanError, SchemaError
from .thresholds import AndThreshold, CountThreshold, SumThreshold

#: Packed keys must fit a signed 64-bit machine word (``array('q')``).
MAX_KEY_BITS = 63

#: Ranges shorter than this are refined with a stdlib loop by the numpy
#: kernel: per-call vectorisation overhead beats the loop there.
SMALL_RANGE = 32

log = logging.getLogger(__name__)


def bits_for(cardinality):
    """Bits needed to store codes ``0 .. cardinality-1`` (at least 1)."""
    return max(1, int(max(0, cardinality - 1)).bit_length())


class KeyPacking:
    """Bit-field layout for packing one row's dim codes into one int.

    Field order follows dimension order with the *first* dimension in
    the most significant bits, so for any dimension prefix ``D1..Dk``,
    ``key & mask_for(positions)`` orders rows exactly like the tuple
    ``(row[D1], ..., row[Dk])`` — the property the radix refinement and
    the group-by paths rely on.
    """

    __slots__ = ("bits", "shifts", "masks", "total_bits")

    def __init__(self, bits):
        self.bits = tuple(bits)
        self.total_bits = sum(self.bits)
        shifts = []
        used = 0
        for width in self.bits:
            used += width
            shifts.append(self.total_bits - used)
        self.shifts = tuple(shifts)
        self.masks = tuple((1 << width) - 1 for width in self.bits)

    @classmethod
    def plan(cls, cardinalities, max_bits=MAX_KEY_BITS):
        """A packing over ``cardinalities``, or ``None`` on overflow."""
        bits = [bits_for(card) for card in cardinalities]
        if sum(bits) > max_bits:
            return None
        return cls(bits)

    def pack(self, row):
        """The packed key of one coded row (aligned with the layout)."""
        key = 0
        for code, shift in zip(row, self.shifts):
            key |= code << shift
        return key

    def extract(self, key, position):
        """One dimension's code out of a packed key."""
        return (key >> self.shifts[position]) & self.masks[position]

    def mask_for(self, positions):
        """The combined bit mask selecting the given dimension fields."""
        mask = 0
        for position in positions:
            mask |= self.masks[position] << self.shifts[position]
        return mask

    def unpack(self, key, positions):
        """The cell tuple for ``positions`` encoded in (masked) ``key``."""
        return tuple(
            (key >> self.shifts[p]) & self.masks[p] for p in positions
        )

    def __repr__(self):
        return "KeyPacking(bits=%r, total=%d)" % (self.bits, self.total_bits)


class ColumnarFrame:
    """Column-major snapshot of a relation restricted to ``dims``.

    Holds one ``array('q')`` per dimension, the measures as
    ``array('d')``, per-dimension cardinalities (``max code + 1``) and,
    unless the bit budget overflows, the packed key of every row.
    """

    __slots__ = ("dims", "n_rows", "columns", "measures", "cardinalities",
                 "packing", "keys")

    def __init__(self, dims, columns, measures, cardinalities, packing, keys):
        self.dims = tuple(dims)
        self.columns = columns
        self.measures = measures
        self.cardinalities = list(cardinalities)
        self.packing = packing
        self.keys = keys
        self.n_rows = len(measures)

    @classmethod
    def from_relation(cls, relation, dims=None, max_bits=MAX_KEY_BITS):
        """Build a frame (and packed keys, if they fit) from a relation."""
        if dims is None:
            dims = relation.dims
        dims = tuple(dims)
        positions = relation.dim_indices(dims)
        rows = relation.rows
        columns = []
        cardinalities = []
        negative = False
        for p in positions:
            try:
                column = array("q", (row[p] for row in rows))
            except OverflowError:
                raise SchemaError(
                    "dimension %r holds a code that does not fit a signed "
                    "64-bit integer (re-code the dimension)" % (dims[len(
                        columns)],)) from None
            columns.append(column)
            cardinalities.append((max(column) + 1) if column else 0)
            negative = negative or (bool(column) and min(column) < 0)
        measures = array("d", relation.measures)
        # Bit fields hold codes 0..card-1 only: a negative code takes
        # the same unpacked path as an overflowing cardinality.
        packing = (None if negative
                   else KeyPacking.plan(cardinalities, max_bits=max_bits))
        keys = None
        if packing is not None:
            packed = _np.zeros(len(rows), dtype=_np.int64)
            for shift, column in zip(packing.shifts, columns):
                packed |= _np.frombuffer(column, dtype=_np.int64) << shift
            keys = array("q", bytes(0))
            keys.frombytes(packed.tobytes())
        elif not negative:
            log.warning(
                "packed keys need %d bits for cardinalities %r (budget %d); "
                "falling back to tuple keys",
                sum(bits_for(c) for c in cardinalities), cardinalities, max_bits,
            )
        return cls(dims, columns, measures, cardinalities, packing, keys)

    def __len__(self):
        return self.n_rows

    # ------------------------------------------------------------------
    # shared-memory shipping (one copy of the input for every worker)
    # ------------------------------------------------------------------
    def buffer_nbytes(self):
        """Bytes needed to lay every column buffer out contiguously."""
        per_row = 8 * (len(self.columns) + 1 + (1 if self.keys is not None
                                                else 0))
        return per_row * self.n_rows

    def buffer_meta(self):
        """The picklable header that, with the raw buffer, rebuilds the
        frame: everything except the row data itself."""
        return {
            "dims": self.dims,
            "cardinalities": list(self.cardinalities),
            "n_rows": self.n_rows,
            "has_keys": self.keys is not None,
        }

    def write_buffers(self, buf):
        """Copy dimension columns, measures and packed keys into ``buf``
        (a writable buffer of at least :meth:`buffer_nbytes` bytes), in
        the fixed layout :meth:`from_buffers` reads back."""
        view = memoryview(buf)
        offset = 0
        parts = list(self.columns) + [self.measures]
        if self.keys is not None:
            parts.append(self.keys)
        for part in parts:
            raw = part.tobytes()
            view[offset:offset + len(raw)] = raw
            offset += len(raw)
        return offset

    @classmethod
    def from_buffers(cls, meta, buf):
        """Rebuild a frame over a shared buffer — zero copies of row data.

        Columns come back as typed ``memoryview`` casts into ``buf``;
        every kernel consumes them exactly like ``array`` objects
        (indexing, ``tolist``, ``frombuffer``).  The caller must keep
        the underlying mapping alive for the frame's lifetime.
        """
        dims = tuple(meta["dims"])
        cardinalities = list(meta["cardinalities"])
        n_rows = meta["n_rows"]
        view = memoryview(buf)
        stride = 8 * n_rows
        offset = 0
        columns = []
        for _ in dims:
            columns.append(view[offset:offset + stride].cast("q"))
            offset += stride
        measures = view[offset:offset + stride].cast("d")
        offset += stride
        keys = None
        packing = KeyPacking.plan(cardinalities)
        if meta["has_keys"]:
            keys = view[offset:offset + stride].cast("q")
        return cls(dims, columns, measures, cardinalities, packing, keys)

    def __repr__(self):
        packed = self.packing.total_bits if self.packing is not None else None
        return "ColumnarFrame(dims=%r, rows=%d, key_bits=%r)" % (
            self.dims, self.n_rows, packed,
        )


# ----------------------------------------------------------------------
# group-by over packed keys
# ----------------------------------------------------------------------
def _frame_positions(frame, cuboid):
    positions = []
    for name in cuboid:
        try:
            positions.append(frame.dims.index(name))
        except ValueError:
            raise PlanError(
                "unknown dimension %r (frame has %r)" % (name, frame.dims)
            ) from None
    return positions


def aggregate_cuboid(frame, cuboid, threshold=None):
    """One group-by over ``frame``: ``{cell: (count, sum)}``.

    ``cuboid`` is a tuple of dimension names (a subset of the frame's
    dims, any order): :func:`leaf_run` and one
    :meth:`CellRun.group_by`.  ``threshold=None`` keeps every cell.
    """
    return leaf_run(frame, cuboid).group_by(len(cuboid), threshold).cells()


def lex_order(columns):
    """The stable permutation that sorts records by ``columns``, the
    first column most significant — the one lexicographic sort of the
    package (the MapReduce shuffle's folds and every :class:`CellRun`
    fold go through it).

    Each integer column is offset by its minimum and the columns are
    packed into one ``int64`` key by their bit widths, so one stable
    ``argsort`` does the work of a sort pass per column.  The key
    orders records exactly as their tuples do and the sort is stable,
    so the permutation is numpy's per-column one, element for element;
    numpy's stable sort is a timsort, which also merges already-sorted
    stretches almost for free.  Columns whose widths add up to more
    than 63 bits fall back to the per-column sort.
    """
    n = len(columns[0])
    if not n:
        return _np.arange(0)
    key = None
    bits = 0
    for column in reversed(columns):  # least significant first
        lo = int(column.min())
        width = (int(column.max()) - lo).bit_length()
        if bits + width > MAX_KEY_BITS:
            return _np.lexsort(columns[::-1])
        if width:
            field = _np.subtract(column, lo, dtype=_np.int64)
            key = field << bits if key is None else key | (field << bits)
            bits += width
    if key is None:  # every record equal
        return _np.arange(n)
    return _np.argsort(key, kind="stable")


def fold_sorted(leaves, keys, counts, sums):
    """Fold ``(leaf, key, count, sum)`` columns sorted by ``(leaf, key)``.

    Adjacent records with equal ``(leaf, key)`` become one record whose
    count and sum add up theirs in input order: boundaries by vectorised
    comparison, aggregates by ``np.add.reduceat``.  This is the one
    group-by primitive every columnar path shares — the pool's leaf
    aggregation, the MapReduce mapper, its spill and its block merge,
    and every :class:`CellRun` merge differ only in how they sort.
    ``keys`` is one key column or a ``(columns x records)`` matrix of
    several; ``leaves=None`` is a single cuboid; ``counts=None`` gives
    every input record a count of one (raw rows).
    Returns the folded ``(leaves, keys, counts, sums)``.
    """
    n = len(sums)
    if not n:
        empty = _np.empty(0, dtype=_np.int64)
        return leaves, keys, empty if counts is None else counts, sums
    change = _np.empty(n, dtype=bool)
    change[0] = True
    if keys.ndim == 1:
        _np.not_equal(keys[1:], keys[:-1], out=change[1:])
    else:
        (keys[:, 1:] != keys[:, :-1]).any(axis=0, out=change[1:])
    if leaves is not None:
        change[1:] |= leaves[1:] != leaves[:-1]
    bounds = _np.flatnonzero(change)
    if counts is None:
        counts = _np.diff(_np.append(bounds, n))
    else:
        counts = _np.add.reduceat(counts, bounds)
    return (None if leaves is None else leaves[bounds],
            keys[bounds] if keys.ndim == 1 else keys[:, bounds],
            counts, _np.add.reduceat(sums, bounds))


def _threshold_mask(threshold, counts, sums):
    """A boolean keep-mask for ``threshold`` over group count/sum arrays,
    or ``None`` when the threshold's shape is not vectorisable (the
    caller then falls back to per-group ``qualifies`` calls)."""
    if isinstance(threshold, CountThreshold):
        return counts >= threshold.min_count
    if isinstance(threshold, SumThreshold):
        return sums >= threshold.min_sum
    if isinstance(threshold, AndThreshold):
        mask = None
        for condition in threshold.conditions:
            sub = _threshold_mask(condition, counts, sums)
            if sub is None:
                return None
            mask = sub if mask is None else (mask & sub)
        return mask
    return None


def qualifying_mask(threshold, counts, sums):
    """The boolean keep-mask of ``threshold`` over count/sum arrays:
    vectorised where the threshold's shape allows, per-group
    ``qualifies`` calls otherwise."""
    mask = _threshold_mask(threshold, counts, sums)
    if mask is None:
        qualifies = threshold.qualifies
        mask = _np.fromiter(
            (qualifies(c, t) for c, t in zip(counts.tolist(), sums.tolist())),
            dtype=bool, count=len(counts),
        )
    return mask


# ----------------------------------------------------------------------
# CellRun: a leaf cuboid's cells as sorted columns
# ----------------------------------------------------------------------
#: First bytes of every encoded run (a ``.run`` leaf file, a pool
#: worker's result segment).
RUN_MAGIC = b"RCR3"

#: Cells per encoded block.  Every block but a run's last holds exactly
#: this many, whoever wrote it and however the cells arrived, so equal
#: cells give equal bytes; a streaming writer never buffers more.
RUN_BLOCK_CELLS = 4096

#: Integer dtypes a block column may be stored in, narrowest first; the
#: block records each column's index into this tuple.
_RUN_DTYPES = tuple(_np.dtype(code) for code in
                    ("u1", "i1", "<u2", "<i2", "<u4", "<i4", "<i8"))
_RUN_RANGES = tuple((int(_np.iinfo(d).min), int(_np.iinfo(d).max))
                    for d in _RUN_DTYPES)
_SUM_DTYPE = _np.dtype("<f8")
_RUN_HEADER = struct.Struct("<4sHI")    # magic, n dims, block cells
_RUN_NAME = struct.Struct("<H")         # utf-8 byte length of one dim name
_RUN_BLOCK = struct.Struct("<I")        # cells in the block


def code_matrix(rows, width):
    """``rows`` (equal-length integer tuples) as a ``(width x rows)``
    int64 matrix, one row of the matrix per dimension.  A code outside
    int64 is refused: it is the one value a store cannot hold."""
    try:
        matrix = _np.array(rows, dtype=_np.int64)
    except OverflowError:
        raise SchemaError(
            "dimension codes must fit a signed 64-bit integer; got a row "
            "that does not (re-code the dimension)") from None
    return _np.ascontiguousarray(matrix.reshape(len(rows), width).T)


def unpack_codes(packing, keys, positions):
    """The code matrix of a column of (masked) packed keys: one row per
    position, extracted field by field."""
    if not len(positions):
        return _np.empty((0, len(keys)), dtype=_np.int64)
    return _np.stack([(keys >> packing.shifts[p]) & packing.masks[p]
                      for p in positions])


def _narrowest(lo, hi):
    """Index into ``_RUN_DTYPES`` of the narrowest dtype holding
    ``lo..hi``."""
    for index, (low, high) in enumerate(_RUN_RANGES[:-1]):
        if low <= lo and hi <= high:
            return index
    return len(_RUN_RANGES) - 1


class CellRun:
    """One cuboid's cells, sorted by cell, as parallel columns.

    ``codes`` is a ``(len(dims) x cells)`` int64 matrix — row ``j`` is
    the column of dimension ``dims[j]`` — sorted lexicographically with
    every cell distinct; ``counts`` (int64) and ``sums`` (float64) are
    the aggregates.  A run is immutable: :meth:`merge` and
    :meth:`add_rows` return new runs, so a reader holding one never
    sees it change.
    """

    __slots__ = ("dims", "codes", "counts", "sums", "_depth")

    def __init__(self, dims, codes, counts, sums):
        self.dims = tuple(dims)
        self.codes = codes
        self.counts = counts
        self.sums = sums
        self._depth = None

    def __len__(self):
        return len(self.counts)

    def __repr__(self):
        return "CellRun(dims=%r, cells=%d)" % (self.dims, len(self))

    # -- construction --------------------------------------------------
    @classmethod
    def _fold(cls, dims, codes, counts, sums):
        """Sort unsorted columns by cell and fold equal cells.  The
        sort is stable, so equal cells add up in input order.  With no
        dimensions every cell is ``()``: nothing to sort by."""
        order = lex_order(codes) if len(codes) else slice(None)
        _leaves, codes, counts, sums = fold_sorted(
            None, codes[:, order],
            None if counts is None else counts[order], sums[order])
        return cls(dims, codes, counts, sums)

    @classmethod
    def from_cells(cls, dims, cells):
        """The run of a ``{cell: (count, sum)}`` mapping."""
        n = len(cells)
        return cls._fold(
            dims, code_matrix(list(cells), len(dims)),
            _np.fromiter((agg[0] for agg in cells.values()),
                         dtype=_np.int64, count=n),
            _np.fromiter((agg[1] for agg in cells.values()),
                         dtype=_np.float64, count=n))

    @classmethod
    def from_cell(cls, dims, cell, agg):
        """The run of one cell and its ``(count, sum)`` — none when
        ``agg`` is ``None``: nothing to sort or fold."""
        cells = [] if agg is None else [cell]
        aggs = [] if agg is None else [agg]
        return cls(dims, code_matrix(cells, len(dims)),
                   _np.array([a[0] for a in aggs], dtype=_np.int64),
                   _np.array([a[1] for a in aggs], dtype=_np.float64))

    @classmethod
    def from_rows(cls, dims, codes, measures):
        """The run of raw rows (a count of one each): ``codes`` is their
        ``(len(dims) x rows)`` matrix."""
        return cls._fold(dims, codes, None,
                         _np.asarray(measures, dtype=_np.float64))

    @classmethod
    def merge(cls, runs):
        """One run holding every cell of ``runs`` (same dims), equal
        cells folded — earlier runs first, so float sums do not depend
        on anything but the order of ``runs``."""
        dims = runs[0].dims
        return cls._fold(
            dims, _np.concatenate([run.codes for run in runs], axis=1),
            _np.concatenate([run.counts for run in runs]),
            _np.concatenate([run.sums for run in runs]))

    def add_rows(self, codes, measures):
        """This run plus raw rows (``codes`` as in :meth:`from_rows`):
        the run's cells first, then the rows in the order given."""
        return self._fold(
            self.dims, _np.concatenate([self.codes, codes], axis=1),
            _np.concatenate(
                [self.counts, _np.ones(codes.shape[1], dtype=_np.int64)]),
            _np.concatenate(
                [self.sums, _np.asarray(measures, dtype=_np.float64)]))

    def project(self, positions):
        """The run of the cuboid keeping only the dimensions at
        ``positions``: count and sum are distributive, so this is the
        cuboid itself (how a damaged leaf is rebuilt from the root)."""
        return self._fold(tuple(self.dims[p] for p in positions),
                          self.codes[list(positions)], self.counts,
                          self.sums)

    # -- answering -----------------------------------------------------
    def _group_depth(self):
        """Per cell, the first column in which it differs from the cell
        before it (0 for the first cell): a group-by of width ``w``
        starts a group exactly where this is ``< w``."""
        depth = self._depth
        if depth is None:
            depth = _np.zeros(len(self), dtype=_np.intp)
            if len(self) > 1:
                (self.codes[:, 1:] != self.codes[:, :-1]).argmax(
                    axis=0, out=depth[1:])
            self._depth = depth
        return depth

    def group_by(self, width, threshold=None):
        """``GROUP BY`` the first ``width`` dimensions ``HAVING
        threshold``: the rolled-up run.  Cells sharing a prefix are
        adjacent, so this is boundaries + ``np.add.reduceat``;
        ``threshold=None`` keeps every group."""
        codes, counts, sums = self.codes[:width], self.counts, self.sums
        if len(self) and width < len(self.dims):
            bounds = _np.flatnonzero(self._group_depth() < width)
            codes = codes[:, bounds]
            counts = _np.add.reduceat(counts, bounds)
            sums = _np.add.reduceat(sums, bounds)
        if threshold is not None:
            keep = qualifying_mask(threshold, counts, sums)
            if not keep.all():
                codes, counts, sums = codes[:, keep], counts[keep], sums[keep]
        return CellRun(self.dims[:width], codes, counts, sums)

    def cells(self):
        """Every cell: ``{cell: (count, sum)}`` — the one place a run's
        cells become tuples."""
        # (a run over no dimensions holds the one cell ``()``)
        codes = self.codes
        cells = zip(*codes.tolist()) if len(codes) else [()] * len(self)
        return dict(zip(cells, zip(self.counts.tolist(), self.sums.tolist())))

    def lookup(self, cell):
        """``(count, sum)`` of one cell of the cuboid over the first
        ``len(cell)`` dimensions, or ``None`` when no row falls in it:
        one ``searchsorted`` pair per coordinate."""
        lo, hi = 0, len(self)
        for column, code in zip(self.codes, cell):
            segment = column[lo:hi]
            hi = lo + int(segment.searchsorted(code, "right"))
            lo += int(segment.searchsorted(code, "left"))
            if lo == hi:
                return None
        return (int(self.counts[lo:hi].sum()),
                float(_np.add.reduceat(self.sums[lo:hi], [0])[0]))

    # -- encoding ------------------------------------------------------
    def encode(self):
        """The run's bytes — exactly what :class:`RunWriter` streams."""
        out = io.BytesIO()
        writer = RunWriter(out.write, self.dims)
        writer.add(self.codes, self.counts, self.sums)
        writer.finish()
        return out.getvalue()

    @classmethod
    def decode(cls, data):
        """Rebuild a run from :meth:`encode` bytes.  Anything that does
        not parse — a foreign file, a truncated or overlong one — raises
        :class:`~repro.errors.SchemaError`."""
        view = memoryview(data)
        try:
            magic, width, block_cells = _RUN_HEADER.unpack_from(view, 0)
            if magic != RUN_MAGIC:
                raise ValueError("magic %r" % (magic,))
            offset = _RUN_HEADER.size
            dims = []
            for _ in range(width):
                (length,) = _RUN_NAME.unpack_from(view, offset)
                offset += _RUN_NAME.size
                dims.append(bytes(view[offset:offset + length]).decode())
                offset += length
            blocks = []
            while offset < len(view):
                (n,) = _RUN_BLOCK.unpack_from(view, offset)
                offset += _RUN_BLOCK.size
                dtypes = [_RUN_DTYPES[index]
                          for index in view[offset:offset + width + 1]]
                offset += width + 1
                if not 0 < n <= block_cells or len(dtypes) != width + 1:
                    raise ValueError("block of %d cells, %d columns"
                                     % (n, len(dtypes)))
                columns = []
                for dtype in dtypes + [_SUM_DTYPE]:
                    columns.append(_np.frombuffer(
                        view, dtype=dtype, count=n, offset=offset))
                    offset += n * dtype.itemsize
                blocks.append(columns)
        except (struct.error, ValueError, IndexError,
                UnicodeDecodeError) as exc:
            raise SchemaError("unreadable cell run: %s" % exc) from None
        total = sum(len(block[-1]) for block in blocks)
        codes = _np.empty((width, total), dtype=_np.int64)
        counts = _np.empty(total, dtype=_np.int64)
        sums = _np.empty(total, dtype=_np.float64)
        at = 0
        for block in blocks:
            end = at + len(block[-1])
            for j in range(width):
                codes[j, at:end] = block[j]
            counts[at:end] = block[width]
            sums[at:end] = block[width + 1]
            at = end
        return cls(dims, codes, counts, sums)


class RunCells(Mapping):
    """A read-only ``{cell: (count, sum)}`` view of one :class:`CellRun`
    — how an answer is held until someone reads it as a dict.

    ``run`` stays the answer; the dict is built once, on first read,
    with :meth:`CellRun.cells` (two threads building it at once both
    build the same dict).  ``len`` is the run's.  It equals any mapping
    with the same cells but is not a ``dict``: ``dict(view)`` copies.
    """

    __slots__ = ("run", "_dict")

    def __init__(self, run):
        self.run = run
        self._dict = None

    def _cells(self):
        cells = self._dict
        if cells is None:
            cells = self._dict = self.run.cells()
        return cells

    def __len__(self):
        return len(self.run.counts)

    def __getitem__(self, cell):
        return self._cells()[cell]

    def __iter__(self):
        return iter(self._cells())

    # The Mapping defaults would call __getitem__ once per cell.
    def __contains__(self, cell):
        return cell in self._cells()

    def keys(self):
        return self._cells().keys()

    def values(self):
        return self._cells().values()

    def items(self):
        return self._cells().items()

    def get(self, cell, default=None):
        return self._cells().get(cell, default)

    def __eq__(self, other):
        if isinstance(other, RunCells):
            other = other._cells()
        return self._cells() == other

    __hash__ = None

    def __repr__(self):
        return "RunCells(%r)" % (self._cells(),)


def encode_runs(runs):
    """Runs back to back, each :meth:`CellRun.encode` behind its byte
    length (little-endian u64): how a leaf batch crosses shared memory
    and an answer crosses the HTTP wire."""
    parts = []
    for run in runs:
        data = run.encode()
        parts += (len(data).to_bytes(8, "little"), data)
    return b"".join(parts)


def decode_runs(data):
    """The runs of :func:`encode_runs` bytes, in order.  A frame cut
    short, or a run that does not parse, raises
    :class:`~repro.errors.SchemaError`."""
    view = memoryview(data)
    runs = []
    offset = 0
    while offset < len(view):
        start = offset + 8
        end = start + int.from_bytes(view[offset:start], "little")
        if end > len(view):
            raise SchemaError("cell-run frame cut short")
        runs.append(CellRun.decode(view[start:end]))
        offset = end
    return runs


class RunWriter:
    """Stream a run's encoding, block by block, in bounded memory.

    Layout (little-endian)::

        "RCR3"  u16 n_dims  u32 block_cells
        per dim:   u16 length + utf-8 name
        per block: u32 n                       (1..block_cells)
                   n_dims+1 x u8               dtype of each dim column
                                               and of the count column
                   n_dims columns, then counts, each n x its dtype
                   n x f64 sums

    Every column of a block is stored in the narrowest of u8, i8, u16,
    i16, u32, i32, i64 that holds its own minimum and maximum.  Cells
    may arrive in pieces of any size (:meth:`add`); blocks are cut at
    exactly ``block_cells`` whatever the pieces were, so the bytes
    depend on the cells alone.  ``write`` is called with each piece of
    output (a file's ``write``, a hasher's ``update``, both).
    """

    def __init__(self, write, dims):
        self._write = write
        self._width = len(dims)
        self._pieces = []
        self._buffered = 0
        #: cells written so far
        self.cells = 0
        names = [name.encode() for name in dims]
        write(_RUN_HEADER.pack(RUN_MAGIC, len(names), RUN_BLOCK_CELLS)
              + b"".join(_RUN_NAME.pack(len(name)) + name for name in names))

    def add(self, codes, counts, sums):
        """Append cells (sorted, after every cell added before)."""
        n = len(counts)
        if not n:
            return
        self._pieces.append((codes, counts, sums))
        self._buffered += n
        self.cells += n
        if self._buffered >= RUN_BLOCK_CELLS:
            self._drain(final=False)

    def finish(self):
        """Write the last (short) block."""
        self._drain(final=True)

    def _drain(self, final):
        """Write every full block buffered and, when ``final``, the
        short rest; otherwise the rest stays buffered."""
        if not self._buffered:
            return
        if len(self._pieces) == 1:
            codes, counts, sums = self._pieces[0]
        else:
            codes = _np.concatenate([p[0] for p in self._pieces], axis=1)
            counts = _np.concatenate([p[1] for p in self._pieces])
            sums = _np.concatenate([p[2] for p in self._pieces])
        stop = (self._buffered if final
                else self._buffered - self._buffered % RUN_BLOCK_CELLS)
        for at in range(0, stop, RUN_BLOCK_CELLS):
            end = min(at + RUN_BLOCK_CELLS, stop)
            self._write_block(codes[:, at:end], counts[at:end], sums[at:end])
        self._pieces = ([(codes[:, stop:], counts[stop:], sums[stop:])]
                        if stop < self._buffered else [])
        self._buffered -= stop

    def _write_block(self, codes, counts, sums):
        n = len(counts)
        lows = codes.min(axis=1).tolist() + [int(counts.min())]
        highs = codes.max(axis=1).tolist() + [int(counts.max())]
        dtypes = [_narrowest(lo, hi) for lo, hi in zip(lows, highs)]
        parts = [_RUN_BLOCK.pack(n), bytes(dtypes)]
        for j in range(self._width):
            parts.append(codes[j].astype(_RUN_DTYPES[dtypes[j]]).tobytes())
        parts.append(counts.astype(_RUN_DTYPES[dtypes[-1]]).tobytes())
        parts.append(sums.astype(_SUM_DTYPE, copy=False).tobytes())
        self._write(b"".join(parts))


def leaf_run(frame, cuboid):
    """The minsup-1 :class:`CellRun` of ``cuboid`` (dimension names of
    ``frame``) — the store build's aggregation.

    With packed keys and the cuboid in frame order (every leaf is) this
    is one masked stable ``argsort`` and one :func:`fold_sorted`; the
    fields are then unpacked column-wise.  Otherwise (codes past 63
    bits, negative codes, a cuboid in another order) the dimension
    columns themselves are sorted.  Either way no per-cell Python object
    is made.
    """
    positions = _frame_positions(frame, cuboid)
    measures = _np.frombuffer(frame.measures, dtype=_np.float64)
    if frame.keys is None or positions != sorted(positions):
        codes = _np.stack([_np.frombuffer(frame.columns[p], dtype=_np.int64)
                           for p in positions])
        return CellRun.from_rows(cuboid, codes, measures)
    packing = frame.packing
    keys = (_np.frombuffer(frame.keys, dtype=_np.int64)
            & packing.mask_for(positions))
    order = _np.argsort(keys, kind="stable")
    _leaves, cell_keys, counts, sums = fold_sorted(
        None, keys[order], None, measures[order])
    return CellRun(cuboid, unpack_codes(packing, cell_keys, positions),
                   counts, sums)


def _level_from_groups(groups):
    """Pack root ``(cell, s, e, count, sum)`` groups into level state.

    Level state is the breadth-first engine's working set for one
    cuboid: ``(cells, starts, counts, sums)`` in parallel — a list of
    cell tuples plus positional columns (plain lists here; the numpy
    kernel overrides with arrays so a whole cuboid level flows through
    vectorised code without per-group tuple traffic).
    """
    return (
        [g[0] for g in groups],
        [g[1] for g in groups],
        [g[3] for g in groups],
        [g[4] for g in groups],
    )


def _refine_segments_loop(kernel, segments, position, stats, threshold):
    """Reference ``refine_segments``: loop ``refine`` over every range."""
    out = [kernel.refine(s, e, position, stats) for s, e in segments]
    if threshold is None:
        return out
    qualifies = threshold.qualifies
    return [
        [g for g in groups if qualifies(g[3], g[4])] for groups in out
    ]


def _refine_level_loop(kernel, cells, starts, counts, position, stats,
                       threshold):
    """Reference ``refine_level``: loop ``refine`` over every group."""
    qualifies = threshold.qualifies if threshold is not None else None
    out_cells = []
    out_starts = []
    out_counts = []
    out_sums = []
    for cell, s, c in zip(cells, starts, counts):
        for value, s2, _e2, count, total in kernel.refine(
            s, s + c, position, stats
        ):
            if qualifies is None or qualifies(count, total):
                out_cells.append(cell + (value,))
                out_starts.append(s2)
                out_counts.append(count)
                out_sums.append(total)
    return out_cells, out_starts, out_counts, out_sums


# ----------------------------------------------------------------------
# refinement kernels
# ----------------------------------------------------------------------
class PythonKernel:
    """The seed refinement, verbatim: row-major lists, per-level
    ``sorted(key=...)`` (or the BUC paper's counting refinement when
    ``counting_sort`` is on).  This is the default kernel — the
    simulated cluster's OpStats pricing and every cell it produces are
    identical to the pre-kernel engine.
    """

    name = "python"

    def __init__(self, relation, dims, counting_sort=False):
        positions = relation.dim_indices(dims)
        rows = relation.rows
        self.columns = [[row[p] for row in rows] for p in positions]
        self.cardinalities = [
            (max(col) + 1 if col else 0) for col in self.columns
        ]
        self.measures = list(relation.measures)
        self.idx = list(range(len(rows)))
        self.counting_sort = counting_sort

    def __len__(self):
        return len(self.idx)

    def all_aggregate(self):
        """``(count, sum)`` of the whole input — the ``all`` cell."""
        return len(self.measures), sum(self.measures)

    def refine_segments(self, segments, position, stats, threshold=None):
        """Refine several disjoint ascending ranges by one dimension.

        Returns one group list per segment; with ``threshold`` given,
        non-qualifying groups are dropped before they are returned (the
        stats still charge the full refinement — pruning changes what
        the caller sees, not what the work cost).  The base
        implementation simply loops :meth:`refine`; vectorised kernels
        override it to partition every segment in a single pass — the
        call count then scales with processing-tree *edges*, not
        qualifying *cells*.
        """
        return _refine_segments_loop(self, segments, position, stats,
                                     threshold)

    def level_from_groups(self, groups):
        """Pack root groups into this kernel's level-state representation."""
        return _level_from_groups(groups)

    def refine_level(self, level, position, stats, threshold=None,
                     need_rows=True):
        """Refine one whole cuboid level into the next: every group of
        ``level`` partitioned by ``position``, pruned by ``threshold``,
        returned as new level state (same representation as the input).
        ``need_rows=False`` promises the caller will not descend into
        the result (a leaf cuboid) — kernels may then skip maintaining
        the row permutation.
        """
        cells, starts, counts, _sums = level
        return _refine_level_loop(self, cells, starts, counts, position,
                                  stats, threshold)

    def refine(self, start, end, position, stats):
        """Sort ``idx[start:end]`` by one column and split into groups.

        Returns a list of ``(value, s, e, count, sum)``; charges the
        sort (or linear bucketing) to ``stats``.
        """
        idx = self.idx
        col = self.columns[position]
        card = self.cardinalities[position]
        if self.counting_sort and 0 < card <= 4 * (end - start):
            return self._refine_counting(start, end, col, stats)
        block = sorted(idx[start:end], key=col.__getitem__)
        idx[start:end] = block
        stats.add_sort(end - start)
        measures = self.measures
        groups = []
        s = start
        while s < end:
            value = col[idx[s]]
            total = measures[idx[s]]
            e = s + 1
            while e < end and col[idx[e]] == value:
                total += measures[idx[e]]
                e += 1
            groups.append((value, s, e, e - s, total))
            s = e
        stats.add_scan(end - start)
        stats.add_groups(len(groups))
        return groups

    def _refine_counting(self, start, end, col, stats):
        """Linear-time refinement: bucket the range by code.

        One pass distributes rows into per-value buckets, one pass lays
        them back contiguously.  Charged as partition moves (linear)
        plus one comparison-sort of the *distinct values* — the
        ``sorted(buckets)`` pass below is real work and the ablation
        bench prices it honestly.
        """
        idx = self.idx
        measures = self.measures
        buckets = {}
        for i in idx[start:end]:
            value = col[i]
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = bucket = []
            bucket.append(i)
        groups = []
        position = start
        for value in sorted(buckets):
            bucket = buckets[value]
            idx[position : position + len(bucket)] = bucket
            total = 0.0
            for i in bucket:
                total += measures[i]
            groups.append((value, position, position + len(bucket), len(bucket), total))
            position += len(bucket)
        stats.partition_moves += 2 * (end - start)
        stats.add_sort(len(buckets))
        stats.add_scan(end - start)
        stats.add_groups(len(groups))
        return groups


class NumpyKernel:
    """Columnar refinement over a :class:`ColumnarFrame`, vectorised.

    Single large ranges are refined with a stable ``argsort`` (numpy
    selects radix sort for integer dtypes), boundary detection by
    vectorised comparison, and per-group sums via ``np.add.reduceat``.
    The real win is :meth:`refine_segments`: breadth-first BUC refines
    *every* sibling group of a cuboid by the same dimension, so all
    segments are partitioned in one pass over the composite key
    ``segment_id * cardinality + code`` — one vectorised call per
    processing-tree edge instead of one per qualifying cell.  Ranges
    shorter than :data:`SMALL_RANGE` take a stdlib loop, whose per-call
    constant is smaller than numpy's.  Group order (ascending code,
    stable within a code) and float accumulation order on the small
    paths match :class:`PythonKernel` exactly.
    """

    name = "numpy"

    def __init__(self, frame):
        self.frame = frame
        # The small-range loops run over plain lists: CPython list
        # indexing returns cached small ints / existing objects, while
        # array('q') boxes a fresh int per access.  The frame keeps the
        # compact buffers for shipping; the kernel trades memory for
        # per-access speed once at construction.
        self.columns = [column.tolist() for column in frame.columns]
        self.cardinalities = frame.cardinalities
        self.measures = frame.measures.tolist()
        self._np_columns = [
            _np.frombuffer(column, dtype=_np.int64) if len(column) else
            _np.empty(0, dtype=_np.int64)
            for column in frame.columns
        ]
        self._np_measures = (
            _np.frombuffer(frame.measures, dtype=_np.float64)
            if frame.n_rows else _np.empty(0, dtype=_np.float64)
        )
        # The permutation lives in one numpy array; both the vectorised
        # and the stdlib small-range paths read and write it, so results
        # are identical whichever path a range takes.
        self._np_idx = _np.arange(frame.n_rows, dtype=_np.int64)
        self.idx = self._np_idx  # shared view for introspection/tests

    @classmethod
    def from_relation(cls, relation, dims, counting_sort=False):
        """Build the kernel (and its frame) straight from a relation."""
        return cls(ColumnarFrame.from_relation(relation, dims))

    def __len__(self):
        return len(self.idx)

    def all_aggregate(self):
        return len(self.measures), sum(self.measures)

    def refine_segments(self, segments, position, stats, threshold=None):
        total = 0
        for s, e in segments:
            total += e - s
        card = self.cardinalities[position]
        if (total < SMALL_RANGE or card <= 0
                or len(segments) * card >= (1 << 62)):
            return _refine_segments_loop(self, segments, position, stats,
                                         threshold)
        n_segs = len(segments)
        starts = _np.fromiter((s for s, _e in segments), dtype=_np.int64,
                              count=n_segs)
        lengths = _np.fromiter((e - s for s, e in segments), dtype=_np.int64,
                               count=n_segs)
        # Ragged arange: the absolute idx positions of every segment row.
        offsets = _np.concatenate(([0], _np.cumsum(lengths)[:-1]))
        pos = _np.repeat(starts - offsets, lengths) + _np.arange(total)
        seg_id = _np.repeat(_np.arange(n_segs, dtype=_np.int64), lengths)
        rows = self._np_idx[pos]
        values = self._np_columns[position][rows]
        composite = seg_id * card + values
        order = _np.argsort(composite, kind="stable")
        rows = rows[order]
        self._np_idx[pos] = rows
        csort = composite[order]
        bounds = _np.flatnonzero(
            _np.concatenate(([True], csort[1:] != csort[:-1]))
        )
        counts = _np.diff(_np.append(bounds, total))
        sums = _np.add.reduceat(self._np_measures[rows], bounds)
        stats.add_sort(total)
        stats.add_scan(total)
        stats.add_groups(len(bounds))
        codes = csort[bounds]
        group_pos = pos[bounds]
        if threshold is not None:
            # Prune vectorised when the threshold shape allows it: the
            # dropped groups never become Python tuples at all.
            mask = _threshold_mask(threshold, counts, sums)
            if mask is not None:
                codes = codes[mask]
                group_pos = group_pos[mask]
                counts = counts[mask]
                sums = sums[mask]
                threshold = None
        out = [[] for _ in range(n_segs)]
        if threshold is None:
            for key, s_abs, count, total_m in zip(
                codes.tolist(), group_pos.tolist(),
                counts.tolist(), sums.tolist(),
            ):
                out[key // card].append(
                    (key % card, s_abs, s_abs + count, count, total_m)
                )
        else:
            qualifies = threshold.qualifies
            for key, s_abs, count, total_m in zip(
                codes.tolist(), group_pos.tolist(),
                counts.tolist(), sums.tolist(),
            ):
                if qualifies(count, total_m):
                    out[key // card].append(
                        (key % card, s_abs, s_abs + count, count, total_m)
                    )
        return out

    def level_from_groups(self, groups):
        """Numpy level state carries the *rows themselves*: ``(codes,
        rows, counts, sums)`` where ``codes`` is the level's ``(width x
        cells)`` code matrix and ``rows`` concatenates every group's row
        ids in cell order.  Each refinement then works on its own
        compact arrays — no scatter back into the global permutation,
        no ragged position arithmetic to find the groups again, and
        pruning physically shrinks the working set for deeper levels.
        (Safe for the prefix cache: root ranges in ``_np_idx`` are
        never disturbed by breadth-first work.)
        """
        n = len(groups)
        if n:
            rows = _np.concatenate(
                [self._np_idx[g[1]:g[2]] for g in groups]
            )
        else:
            rows = _np.empty(0, dtype=_np.int64)
        width = len(groups[0][0]) if n else 0
        return (
            code_matrix([g[0] for g in groups], width),
            rows,
            _np.fromiter((g[3] for g in groups), dtype=_np.int64, count=n),
            _np.fromiter((g[4] for g in groups), dtype=_np.float64, count=n),
        )

    def refine_level(self, level, position, stats, threshold=None,
                     need_rows=True):
        codes, rows, counts, _sums = level
        n_segs = len(counts)
        card = self.cardinalities[position]
        total = int(rows.shape[0])
        if (total < SMALL_RANGE or card <= 0
                or n_segs * card >= (1 << 62)):
            return self._refine_level_small(codes, rows, counts, position,
                                            stats, threshold)
        seg_id = _np.repeat(_np.arange(n_segs, dtype=_np.int64), counts)
        composite = seg_id * card + self._np_columns[position][rows]
        bins = n_segs * card
        if not need_rows and bins <= 4 * total + 1024:
            # Leaf cuboid: the recursion never descends, so no row
            # permutation is needed — counts and sums come from two
            # linear bincount passes, no sort at all.  (Exact for the
            # usual integer-valued measures; float measures may differ
            # from the sorted path in accumulation order, within the
            # result tolerance.)
            counts_bins = _np.bincount(composite, minlength=bins)
            sums_bins = _np.bincount(
                composite, weights=self._np_measures[rows], minlength=bins
            )
            keys = _np.flatnonzero(counts_bins)
            g_counts = counts_bins[keys]
            g_sums = sums_bins[keys]
            rows = rows[:0]
        else:
            # One composite-key pass partitions the entire cuboid level:
            # rows, values, group boundaries, sums and the child's code
            # matrix all stay in numpy.
            order = _np.argsort(composite, kind="stable")
            rows = rows[order]
            csort = composite[order]
            bounds = _np.flatnonzero(
                _np.concatenate(([True], csort[1:] != csort[:-1]))
            )
            g_counts = _np.diff(_np.append(bounds, total))
            g_sums = _np.add.reduceat(self._np_measures[rows], bounds)
            keys = csort[bounds]
        stats.add_sort(total)
        stats.add_scan(total)
        stats.add_groups(len(keys))
        if threshold is not None:
            mask = qualifying_mask(threshold, g_counts, g_sums)
            if not mask.all():
                if len(rows):
                    rows = rows[_np.repeat(mask, g_counts)]
                keys = keys[mask]
                g_counts = g_counts[mask]
                g_sums = g_sums[mask]
        # Parents are visited in cell order and values ascend within a
        # parent, so the child block is sorted with distinct cells too.
        child = _np.vstack([codes[:, keys // card], keys % card])
        return (child, rows, g_counts, g_sums)

    def _refine_level_small(self, codes, rows, counts, position, stats,
                            threshold=None):
        """Stdlib refinement of a small level's rows-carried state."""
        col = self.columns[position]
        measures = self.measures
        qualifies = threshold.qualifies if threshold is not None else None
        out_parents = []
        out_values = []
        out_rows = []
        out_counts = []
        out_sums = []
        rows_list = rows.tolist()
        offset = 0
        for parent, c in enumerate(counts.tolist()):
            seg = rows_list[offset:offset + c]
            offset += c
            seg.sort(key=col.__getitem__)
            stats.add_sort(c)
            n_groups = 0
            s = 0
            while s < c:
                i = seg[s]
                value = col[i]
                total = measures[i]
                e = s + 1
                while e < c and col[seg[e]] == value:
                    total += measures[seg[e]]
                    e += 1
                n_groups += 1
                if qualifies is None or qualifies(e - s, total):
                    out_parents.append(parent)
                    out_values.append(value)
                    out_rows.extend(seg[s:e])
                    out_counts.append(e - s)
                    out_sums.append(total)
                s = e
            stats.add_scan(c)
            stats.add_groups(n_groups)
        return (
            _np.vstack([codes[:, out_parents],
                        _np.asarray(out_values, dtype=_np.int64)]),
            _np.asarray(out_rows, dtype=_np.int64),
            _np.asarray(out_counts, dtype=_np.int64),
            _np.asarray(out_sums, dtype=_np.float64),
        )

    def refine(self, start, end, position, stats):
        n = end - start
        if n < SMALL_RANGE:
            return self._refine_small(start, end, position, stats)
        return self._refine_vector(start, end, position, stats)

    def _refine_small(self, start, end, position, stats):
        """Stdlib refinement of a short range of the numpy permutation."""
        seg = self._np_idx[start:end].tolist()
        col = self.columns[position]
        seg.sort(key=col.__getitem__)
        self._np_idx[start:end] = seg
        stats.add_sort(end - start)
        measures = self.measures
        groups = []
        s = 0
        n = end - start
        while s < n:
            i = seg[s]
            value = col[i]
            total = measures[i]
            e = s + 1
            while e < n and col[seg[e]] == value:
                total += measures[seg[e]]
                e += 1
            groups.append((value, start + s, start + e, e - s, total))
            s = e
        stats.add_scan(n)
        stats.add_groups(len(groups))
        return groups

    def _refine_vector(self, start, end, position, stats):
        n = end - start
        seg = self._np_idx[start:end]
        values = self._np_columns[position][seg]
        order = _np.argsort(values, kind="stable")
        seg = seg[order]
        self._np_idx[start:end] = seg
        sorted_values = values[order]
        bounds = _np.flatnonzero(
            _np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
        )
        counts = _np.diff(_np.append(bounds, n))
        sums = _np.add.reduceat(self._np_measures[seg], bounds)
        groups = [
            (value, start + s, start + s + count, count, total)
            for value, s, count, total in zip(
                sorted_values[bounds].tolist(), bounds.tolist(),
                counts.tolist(), sums.tolist(),
            )
        ]
        stats.add_sort(n)
        stats.add_scan(n)
        stats.add_groups(len(groups))
        return groups


#: Kernel names accepted by ``BucEngine(kernel=...)``.
KERNELS = ("python", "numpy", "auto")


def resolve_kernel(kernel):
    """Normalise a kernel name to a ``(relation, dims, counting_sort)``
    factory.  ``"auto"`` is the vectorised kernel; an object exposing
    ``refine`` passes through as a prebuilt instance factory."""
    if hasattr(kernel, "refine"):
        return lambda relation, dims, counting_sort=False: kernel
    name = str(kernel).lower()
    if name == "python":
        return PythonKernel
    if name in ("numpy", "auto"):
        return NumpyKernel.from_relation
    raise PlanError(
        "unknown kernel %r (have %s)" % (kernel, ", ".join(KERNELS))
    )
