"""Cell writers: where algorithms put qualifying cells, and in what order.

The thesis' Figure 3.4 distinction — depth-first vs breadth-first
*writing* — is an I/O-pattern property, so the writer records not just
the cells but the order in which cuboids were touched.  Every change of
target cuboid between consecutive writes is a "scatter" event; the
simulated disk charges a seek for each (Section 3.2.2: depth-first
writing scatters across cuboid files, breadth-first completes one cuboid
before moving on).
"""

from .result import CELL_FIELD_BYTES, CubeResult


class ResultWriter:
    """Collects cells into a :class:`CubeResult` and logs the I/O pattern."""

    def __init__(self, dims):
        self.result = CubeResult(dims)
        self.cells_written = 0
        self.bytes_written = 0
        self.cuboid_switches = 0
        self._last_cuboid = None

    def write_cell(self, cuboid, cell, count, value):
        """Write one cell; counts a cuboid switch when the target changes."""
        if cuboid != self._last_cuboid:
            self.cuboid_switches += 1
            self._last_cuboid = cuboid
        self.cells_written += 1
        self.bytes_written += (len(cuboid) + 2) * CELL_FIELD_BYTES
        self.result.add_cell(cuboid, cell, count, value)

    def write_block(self, cuboid, items):
        """Write a whole cuboid block of ``(cell, count, value)`` at once.

        One cuboid switch at most, however many cells — the benefit of
        breadth-first writing.
        """
        first = True
        for cell, count, value in items:
            if first:
                if cuboid != self._last_cuboid:
                    self.cuboid_switches += 1
                    self._last_cuboid = cuboid
                first = False
            self.cells_written += 1
            self.bytes_written += (len(cuboid) + 2) * CELL_FIELD_BYTES
            self.result.add_cell(cuboid, cell, count, value)

    def write_columns(self, cuboid, cells, counts, values):
        """Write one cuboid block given as parallel columns.

        Semantics match :meth:`write_block` (one cuboid switch at most,
        nothing recorded for an empty block) but the cells go into the
        result in bulk — the fast kernels hand whole cuboid levels over
        without building per-cell item tuples first (``cells`` may be a
        code matrix, see :meth:`CubeResult.add_columns`).
        """
        n = len(counts)
        if not n:
            return
        if cuboid != self._last_cuboid:
            self.cuboid_switches += 1
            self._last_cuboid = cuboid
        self.cells_written += n
        self.bytes_written += (len(cuboid) + 2) * CELL_FIELD_BYTES * n
        self.result.add_columns(cuboid, cells, counts, values)

    def snapshot(self):
        """Current ``(cells, bytes, switches)`` — for per-task deltas."""
        return self.cells_written, self.bytes_written, self.cuboid_switches

    @staticmethod
    def delta(before, after):
        """Difference of two snapshots as ``(cells, bytes, switches)``."""
        return tuple(b - a for a, b in zip(before, after))
