"""Cube results: the output of every algorithm in the library.

A :class:`CubeResult` maps each cuboid (tuple of dimension names in
schema order) to its cells — a mapping from coordinate tuples to
``(count, value)`` pairs, where ``count`` is the cell's support
(``COUNT(*)``) and ``value`` the SUM of the measure.  Only cells meeting
the iceberg threshold are present.  A cuboid written as a sorted code
matrix (the numpy kernel's blocks, the local pool's results) is held
as a read-only :class:`~repro.core.columnar.RunCells` view whose dict is
built on first read; the ``add_*`` and ``merge_from`` methods copy it
to a ``dict`` before they write.

Results from partitioned algorithms (BPP, POL) are produced per
processor and combined with :meth:`CubeResult.merge_from`.
"""

import numpy as _np

from ..errors import SchemaError
from .columnar import CellRun, RunCells

#: Bytes charged per written cell coordinate / aggregate field by the
#: simulated disk; (len(cuboid) + 2) fields per cell (coords, count, sum).
CELL_FIELD_BYTES = 8


class CubeResult:
    """All qualifying cells of an iceberg cube, organized by cuboid."""

    def __init__(self, dims):
        self.dims = tuple(dims)
        self._order = {name: i for i, name in enumerate(self.dims)}
        self.cuboids = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(self, cuboid, cell, count, value):
        """Record one cell; accumulates if the cell already exists.

        ``cuboid`` must already be in schema order with ``cell``
        coordinates aligned to it.
        """
        cells = self.cuboids.get(cuboid)
        if not isinstance(cells, dict):
            cells = self._writable(cuboid)
        existing = cells.get(cell)
        if existing is None:
            cells[cell] = (count, value)
        else:
            cells[cell] = (existing[0] + count, existing[1] + value)

    def _writable(self, cuboid):
        """The cuboid's cells as a ``dict`` this result may write (a
        read-only view is copied first)."""
        cells = self.cuboids.get(cuboid)
        if not isinstance(cells, dict):
            cells = self.cuboids[cuboid] = {} if cells is None else dict(cells)
        return cells

    def add_columns(self, cuboid, cells, counts, values):
        """Record one cuboid block given as parallel columns.

        ``cells`` must be distinct within the call (a BUC cuboid block
        is — each cell's partition is refined exactly once); across
        calls, cells accumulate like :meth:`add_cell`.  ``cells`` is a
        list of cell tuples or a ``(len(cuboid) x n)`` code matrix
        sorted by cell (a breadth-first block of the numpy kernel); a
        matrix opening its cuboid is kept as a :class:`RunCells` view,
        no tuple made.  Otherwise the common case (first block for a
        cuboid) is a single C-speed ``dict.update``.
        """
        if isinstance(cells, _np.ndarray):
            view = RunCells(CellRun(cuboid, cells, counts, values))
            if cuboid not in self.cuboids:
                self.cuboids[cuboid] = view
                return
            for cell, (count, value) in view.items():
                self.add_cell(cuboid, cell, count, value)
            return
        if hasattr(counts, "tolist"):
            counts = counts.tolist()
        if hasattr(values, "tolist"):
            values = values.tolist()
        target = self._writable(cuboid)
        if not target:
            target.update(zip(cells, zip(counts, values)))
            if len(target) != len(cells):
                raise SchemaError(
                    "add_columns block for cuboid %r contains duplicate "
                    "cells" % (cuboid,)
                )
            return
        for cell, count, value in zip(cells, counts, values):
            existing = target.get(cell)
            if existing is None:
                target[cell] = (count, value)
            else:
                target[cell] = (existing[0] + count, existing[1] + value)

    def record(self, dims_order, cell, count, value):
        """Record a cell given in an arbitrary dimension order.

        Top-down algorithms that re-sort attributes (PipeSort) produce
        cells in plan order; this canonicalizes to schema order.
        """
        pairs = sorted(zip(dims_order, cell), key=lambda p: self._order_of(p[0]))
        cuboid = tuple(name for name, _ in pairs)
        coords = tuple(code for _, code in pairs)
        self.add_cell(cuboid, coords, count, value)

    def _order_of(self, name):
        try:
            return self._order[name]
        except KeyError:
            raise SchemaError("unknown dimension %r (schema %r)" % (name, self.dims)) from None

    def merge_from(self, other):
        """Accumulate another (partial) result into this one.

        Used to complete BPP's per-chunk partial cuboids and POL's per
        -processor skip-list partitions: cells with equal coordinates sum
        their counts and values.
        """
        for cuboid, cells in other.cuboids.items():
            mine = self._writable(cuboid)
            for cell, (count, value) in cells.items():
                existing = mine.get(cell)
                if existing is None:
                    mine[cell] = (count, value)
                else:
                    mine[cell] = (existing[0] + count, existing[1] + value)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def cuboid(self, dims):
        """Cells of one cuboid (``{}`` if it produced no qualifying cell)."""
        cuboid = tuple(sorted(dims, key=self._order_of))
        return self.cuboids.get(cuboid, {})

    def total_cells(self):
        """Number of qualifying cells across all cuboids."""
        return sum(len(cells) for cells in self.cuboids.values())

    def output_bytes(self):
        """Approximate on-disk size of the result (the thesis' output MB)."""
        total = 0
        for cuboid, cells in self.cuboids.items():
            total += len(cells) * (len(cuboid) + 2) * CELL_FIELD_BYTES
        return total

    def filtered(self, minsup):
        """A new result keeping only cells with ``count >= minsup``.

        This is how a low-threshold materialization answers a higher
        -threshold query (Section 5.1).
        """
        out = CubeResult(self.dims)
        for cuboid, cells in self.cuboids.items():
            kept = {
                cell: agg for cell, agg in cells.items() if agg[0] >= minsup
            }
            if kept:
                out.cuboids[cuboid] = kept
        return out

    def equals(self, other, tolerance=1e-9):
        """Exact cell-by-cell equality (values within ``tolerance``)."""
        return not self.diff(other, tolerance=tolerance, limit=1)

    def diff(self, other, tolerance=1e-9, limit=10):
        """Human-readable differences vs. ``other`` (at most ``limit``)."""
        problems = []
        cuboids = set(self.cuboids) | set(other.cuboids)
        for cuboid in sorted(cuboids, key=lambda c: (len(c), c)):
            mine = self.cuboids.get(cuboid, {})
            theirs = other.cuboids.get(cuboid, {})
            for cell in set(mine) | set(theirs):
                a = mine.get(cell)
                b = theirs.get(cell)
                if a is None or b is None:
                    problems.append("cuboid %r cell %r: %r vs %r" % (cuboid, cell, a, b))
                elif a[0] != b[0] or abs(a[1] - b[1]) > tolerance:
                    problems.append("cuboid %r cell %r: %r vs %r" % (cuboid, cell, a, b))
                if len(problems) >= limit:
                    return problems
        return problems

    def decoded(self, encoder):
        """Cells with coordinates decoded to original attribute values.

        Returns ``{cuboid: {decoded_cell: (count, value)}}``.
        """
        out = {}
        for cuboid, cells in self.cuboids.items():
            out[cuboid] = {
                encoder.decode_cell(cuboid, cell): agg for cell, agg in cells.items()
            }
        return out

    def __repr__(self):
        return "CubeResult(dims=%r, cuboids=%d, cells=%d)" % (
            self.dims,
            len(self.cuboids),
            self.total_cells(),
        )
