"""Selective materialization (Section 5.1).

Instead of precomputing the full iceberg cube at some assumed threshold,
precompute *only the leaf cuboids of the BUC processing tree* at the
smallest possible support (minsup 1).  Over dimensions ``A_1..A_m`` the
tree's leaves are exactly the ``2**(m-1)`` cuboids that end with
``A_m`` — and every other cuboid is a *prefix* of one of them, so any
group-by (at any threshold) is answered by one ordered aggregation pass
over a materialized leaf: the thesis' "top-down aggregation ...
returns almost immediately".

The thesis' exercise: recomputing the whole cube at minsup 2 took ~60 s
with ASL, while precomputing just the leaves at minsup 1 took ~50 s and
then answered threshold changes instantly.  The
``benchmarks/test_sec_5_1_materialization.py`` bench reproduces that
ordering.
"""

import time

from ..core.columnar import ColumnarFrame, aggregate_cuboid
from ..core.thresholds import as_threshold
from ..errors import PlanError
from ..lattice.lattice import CubeLattice
from ..parallel.asl import ASL

#: Precompute backends: ``"simulated"`` runs the leaves through the
#: simulated ASL cluster (``precompute_seconds`` is the modelled
#: makespan, as in the Section 5.1 comparison); ``"local"`` aggregates
#: each leaf over a columnar frame at real machine speed
#: (``precompute_seconds`` is the measured wall clock).
BACKENDS = ("simulated", "local")


def leaf_cuboids(dims):
    """The BUC processing tree's leaves: all cuboids ending in the last
    dimension (plus the last dimension alone)."""
    dims = tuple(dims)
    if not dims:
        raise PlanError("need at least one dimension")
    last = dims[-1]
    lattice = CubeLattice(dims)
    return [c for c in lattice.cuboids(include_all=False) if c[-1] == last]


class LeafMaterialization:
    """Precomputed leaf cuboids answering arbitrary-threshold queries."""

    def __init__(self, relation, dims=None, cluster_spec=None, cost_model=None,
                 backend="simulated", leaves=None, workers=None, use_shm=True):
        """``leaves`` restricts the precompute to a subset of the
        processing tree's leaf cuboids (one shard's worth, for the
        sharded serving tier); the default materializes them all.

        ``workers`` (local backend only) aggregates the leaves on the
        supervised process pool with shared-memory transport
        (:func:`~repro.parallel.local.multiprocess_leaf_cells`);
        ``None`` or ``1`` keeps the in-process path.  ``use_shm=False``
        falls back to pickled results on the pool."""
        if dims is None:
            dims = relation.dims
        self.dims = tuple(dims)
        self._lattice = CubeLattice(self.dims)
        all_leaves = leaf_cuboids(self.dims)
        if leaves is None:
            self.leaves = all_leaves
        else:
            legal = frozenset(all_leaves)
            self.leaves = [tuple(leaf) for leaf in leaves]
            rogue = [leaf for leaf in self.leaves if leaf not in legal]
            if rogue:
                raise PlanError(
                    "not leaf cuboids of dims %r: %r" % (self.dims, rogue))
        self._leaf_set = frozenset(self.leaves)
        if backend not in BACKENDS:
            raise PlanError(
                "unknown materialization backend %r (have %s)"
                % (backend, ", ".join(BACKENDS))
            )
        # self._store: unfiltered cells per leaf cuboid, mutable for
        # incremental updates.
        if backend == "local":
            started = time.perf_counter()
            if workers is not None and workers != 1:
                from ..parallel.local import multiprocess_leaf_cells
                by_leaf = multiprocess_leaf_cells(
                    relation, self.leaves, dims=self.dims, workers=workers,
                    use_shm=use_shm)
            else:
                frame = ColumnarFrame.from_relation(relation, self.dims)
                by_leaf = {
                    leaf: aggregate_cuboid(frame, leaf)
                    for leaf in self.leaves
                }
            self._store = {
                leaf: {
                    cell: [count, total]
                    for cell, (count, total) in by_leaf[leaf].items()
                }
                for leaf in self.leaves
            }
            precompute_seconds = time.perf_counter() - started
        else:
            algo = ASL(cuboids=self.leaves)
            run = algo.run(
                relation, self.dims, minsup=1, cluster_spec=cluster_spec,
                cost_model=cost_model,
            )
            self._store = {
                cuboid: {cell: list(agg) for cell, agg in cells.items()}
                for cuboid, cells in run.result.cuboids.items()
            }
            precompute_seconds = run.makespan
        #: sorted-items cache per leaf, invalidated by inserts
        self._sorted = {}
        self.precompute_seconds = precompute_seconds
        self.total_rows = len(relation)
        self.total_measure = sum(relation.measures)
        #: bumped by every insert so serving caches can invalidate
        #: (same contract as :class:`repro.serve.store.CubeStore`)
        self.generation = 1

    def _items(self, leaf):
        """The leaf's cells in key order (cached until the next insert)."""
        cached = self._sorted.get(leaf)
        if cached is None:
            cells = self._store.get(leaf, {})
            cached = self._sorted[leaf] = sorted(
                (cell, (agg[0], agg[1])) for cell, agg in cells.items()
            )
        return cached

    def insert(self, relation):
        """Incrementally fold new rows into the materialized leaves.

        The leaves hold *unfiltered* cells (minsup 1), so appending data
        is a pure accumulation — no rescan of the original input.  The
        new relation must share the materialization's dimensions.
        """
        positions = relation.dim_indices(self.dims)
        keyed = [
            (tuple(row[p] for p in positions), measure)
            for row, measure in zip(relation.rows, relation.measures)
        ]
        for leaf in self.leaves:
            cells = self._store.setdefault(leaf, {})
            leaf_positions = [self.dims.index(d) for d in leaf]
            for key, measure in keyed:
                cell = tuple(key[p] for p in leaf_positions)
                acc = cells.get(cell)
                if acc is None:
                    cells[cell] = [1, measure]
                else:
                    acc[0] += 1
                    acc[1] += measure
            self._sorted.pop(leaf, None)
        self.total_rows += len(relation)
        self.total_measure += sum(relation.measures)
        self.generation += 1

    def append(self, relation, batch_id=None):
        """Alias for :meth:`insert` (the cube-store maintenance name),
        so a :class:`~repro.serve.server.CubeServer` can front an
        in-memory materialization and a persistent store uniformly.
        ``batch_id`` is refused: nothing here remembers applied batches,
        so a retry could not be deduplicated."""
        if batch_id is not None:
            raise PlanError(
                "idempotent appends (batch_id=%r) need a CubeStore; an "
                "in-memory materialization keeps no batch record"
                % (batch_id,))
        self.insert(relation)

    def canonical(self, cuboid):
        """Normalize a cuboid to schema order (store-compatible surface)."""
        return self._lattice.canonical(cuboid)

    def covering_leaf(self, cuboid):
        """The materialized leaf that has ``cuboid`` as a prefix.

        Any canonical cuboid not already ending with the last dimension
        becomes a leaf by appending it, so this is a single frozenset
        membership test — no per-call set construction or linear scan.
        """
        cuboid = self._lattice.canonical(cuboid)
        if cuboid and cuboid[-1] == self.dims[-1]:
            return cuboid
        candidate = cuboid + (self.dims[-1],)
        if candidate in self._leaf_set:
            return candidate
        raise PlanError("no materialized leaf covers cuboid %r" % (cuboid,))

    def owned_cuboids(self):
        """Every cuboid whose covering leaf this materialization holds
        (store-compatible surface; see ``CubeStore.owned_cuboids``)."""
        owned = []
        for leaf in self.leaves:
            owned.append(leaf)
            owned.append(leaf[:-1])
        return owned

    def query(self, cuboid, minsup=1):
        """Answer ``GROUP BY cuboid HAVING COUNT(*) >= minsup``.

        ``minsup`` may be an integer or any
        :class:`~repro.core.thresholds.Threshold`.  One ordered scan
        over the covering leaf's (sorted) cells; cells sharing the
        query's prefix are contiguous, so aggregation is a single pass.
        Returns ``{cell: (count, sum)}``.
        """
        threshold = as_threshold(minsup)
        cuboid = self._lattice.canonical(cuboid)
        if not cuboid:
            if threshold.qualifies(self.total_rows, self.total_measure):
                return {(): (self.total_rows, self.total_measure)}
            return {}
        leaf = self.covering_leaf(cuboid)
        items = self._items(leaf)
        width = len(cuboid)
        out = {}
        current = None
        count = 0
        total = 0.0
        for cell, (c, v) in items:
            prefix = cell[:width]
            if prefix != current:
                if current is not None and threshold.qualifies(count, total):
                    out[current] = (count, total)
                current = prefix
                count = 0
                total = 0.0
            count += c
            total += v
        if current is not None and threshold.qualifies(count, total):
            out[current] = (count, total)
        return out

    def query_cube(self, minsup):
        """Answer the *whole* iceberg cube at a new threshold.

        Every cuboid is served from its covering leaf; this is the
        online stage of the Section 5.1 comparison.
        """
        from ..core.result import CubeResult

        threshold = as_threshold(minsup)
        result = CubeResult(self.dims)
        for cuboid in self._lattice.cuboids(include_all=False):
            for cell, (count, value) in self.query(cuboid, threshold).items():
                result.add_cell(cuboid, cell, count, value)
        if threshold.qualifies(self.total_rows, self.total_measure):
            result.add_cell((), (), self.total_rows, self.total_measure)
        return result
