"""The cube lattice: every GROUP BY over a set of dimensions.

A *cuboid* (group-by) is represented as a tuple of dimension names in
schema order; the empty tuple is the ``all`` node (no GROUP BY).  For
``d`` dimensions the lattice has ``2**d`` cuboids, and its edges connect
each cuboid to the parents with one more dimension — the "potential
computing paths" of Figure 2.4(a).
"""

from itertools import combinations

from ..errors import SchemaError

ALL = ()


class CubeLattice:
    """The lattice of all ``2**d`` cuboids over an ordered dimension set."""

    def __init__(self, dims):
        self.dims = tuple(dims)
        if len(set(self.dims)) != len(self.dims):
            raise SchemaError("duplicate dimensions: %r" % (self.dims,))
        self._order = {name: i for i, name in enumerate(self.dims)}

    def __len__(self):
        return 2 ** len(self.dims)

    def canonical(self, cuboid):
        """Normalize a cuboid to schema order, validating its dimensions."""
        try:
            return tuple(sorted(cuboid, key=self._order.__getitem__))
        except KeyError as exc:
            raise SchemaError("unknown dimension %s in cuboid %r" % (exc, cuboid)) from None

    def canonical_cell(self, cuboid, cell):
        """``(cuboid, cell)`` with both in schema order: a cell's
        coordinates move with its cuboid's dimensions."""
        cuboid, cell = tuple(cuboid), tuple(cell)
        if len(cell) != len(cuboid):
            raise SchemaError(
                "cell %r has %d coordinates, cuboid %r has %d dimensions"
                % (cell, len(cell), cuboid, len(cuboid)))
        canonical = self.canonical(cuboid)
        return canonical, tuple(cell[cuboid.index(d)] for d in canonical)

    def cuboids(self, include_all=True):
        """All cuboids, from most dimensions to fewest (top-down order)."""
        out = []
        for size in range(len(self.dims), 0, -1):
            out.extend(combinations(self.dims, size))
        if include_all:
            out.append(ALL)
        return out

    def levels(self):
        """Cuboids grouped by dimension count, descending (PipeSort levels)."""
        return [
            list(combinations(self.dims, size)) for size in range(len(self.dims), -1, -1)
        ]

    def parents(self, cuboid):
        """Cuboids with exactly one more dimension (potential sources)."""
        cuboid_set = set(cuboid)
        out = []
        for dim in self.dims:
            if dim not in cuboid_set:
                out.append(self.canonical(cuboid + (dim,)))
        return out

    def children(self, cuboid):
        """Cuboids with exactly one dimension removed."""
        return [tuple(d for d in cuboid if d != drop) for drop in cuboid]


def is_prefix(candidate, previous):
    """True when ``candidate``'s dimensions are a prefix of ``previous``'s.

    Prefix affinity (Section 3.3.2): the previous task's sorted container
    can be aggregated directly — groups for the shorter key are contiguous.
    """
    return len(candidate) <= len(previous) and tuple(previous[: len(candidate)]) == tuple(
        candidate
    )


def subset_positions(candidate, previous):
    """Positions of ``candidate``'s dims inside ``previous``, or ``None``.

    Subset affinity: when every dimension of the new task appears in the
    previous task, the previous container's cells can be projected onto
    those positions instead of re-scanning the raw data.  Returns the
    index of each candidate dimension within ``previous`` (in candidate
    order), or ``None`` when not a subset.
    """
    positions = []
    lookup = {name: i for i, name in enumerate(previous)}
    for name in candidate:
        index = lookup.get(name)
        if index is None:
            return None
        positions.append(index)
    return tuple(positions)


def common_prefix_length(a, b):
    """Number of leading dimensions the two cuboids share."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n
