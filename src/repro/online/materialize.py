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

from ..backends import resolve_backend
from ..core.columnar import code_matrix
from ..core.thresholds import as_threshold
from ..errors import PlanError
from ..lattice.lattice import CubeLattice


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
    """Precomputed leaf cuboids answering arbitrary-threshold queries.

    Each leaf is one :class:`~repro.core.columnar.CellRun` (its cells
    sorted by cell, as columns) — the representation, and the
    ``group_by`` / ``add_rows`` calls, a
    :class:`~repro.serve.store.CubeStore` shares."""

    def __init__(self, relation, dims=None, cluster_spec=None, cost_model=None,
                 backend="simulated", leaves=None, workers=None):
        """``backend`` names the :mod:`repro.backends` entry whose
        ``leaf_runs`` precomputes the leaves: ``"simulated"`` runs them
        through the simulated ASL cluster (``precompute_seconds`` is the
        modelled makespan, as in the Section 5.1 comparison; takes
        ``cluster_spec`` / ``cost_model``), ``"local"`` aggregates each
        leaf over a columnar frame at real machine speed
        (``precompute_seconds`` is the measured wall clock; ``workers``
        > 1 spreads the leaves over the supervised process pool,
        ``None`` or ``1`` stays in-process).  An option the backend does
        not take is refused, not ignored.

        ``leaves`` restricts the precompute to a subset of the
        processing tree's leaf cuboids (one shard's worth, for the
        sharded serving tier); the default materializes them all."""
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
        entry = resolve_backend(backend)
        if entry.leaf_runs is None:
            raise PlanError(
                "the %s backend writes stores (CubeStore.build), not "
                "in-memory materializations" % (backend,))
        options = entry.given_options(
            cluster_spec=cluster_spec, cost_model=cost_model, workers=workers)
        #: leaf cuboid -> CellRun of its unfiltered (minsup-1) cells;
        #: runs are immutable, an insert replaces them
        self._runs, self.precompute_seconds = entry.leaf_runs(
            relation, self.dims, self.leaves, **options)
        self.total_rows = len(relation)
        self.total_measure = sum(relation.measures)
        #: bumped by every insert so serving caches can invalidate
        #: (same contract as :class:`repro.serve.store.CubeStore`)
        self.generation = 1

    def leaf_items(self, leaf):
        """The leaf's cells as one :class:`CellRun` (the surface
        ``CubeStore.leaf_items`` has)."""
        try:
            return self._runs[leaf]
        except KeyError:
            raise PlanError(
                "cuboid %r is not a materialized leaf" % (leaf,)) from None

    def insert(self, relation):
        """Incrementally fold new rows into the materialized leaves.

        The leaves hold *unfiltered* cells (minsup 1), so appending data
        is a pure accumulation — no rescan of the original input: each
        leaf's run is merged with the new rows projected onto its
        dimensions.  The new relation must share the materialization's
        dimensions.
        """
        positions = relation.dim_indices(self.dims)
        codes = code_matrix(
            [tuple(row[p] for p in positions) for row in relation.rows],
            len(self.dims))
        for leaf, run in self._runs.items():
            self._runs[leaf] = run.add_rows(
                codes[[self.dims.index(d) for d in leaf]], relation.measures)
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
        :class:`~repro.core.thresholds.Threshold`.  Cells sharing the
        query's prefix are adjacent in the covering leaf's run, so this
        is one :meth:`CellRun.group_by
        <repro.core.columnar.CellRun.group_by>`.
        Returns ``{cell: (count, sum)}``.
        """
        threshold = as_threshold(minsup)
        cuboid = self._lattice.canonical(cuboid)
        if not cuboid:
            if threshold.qualifies(self.total_rows, self.total_measure):
                return {(): (self.total_rows, self.total_measure)}
            return {}
        run = self._runs[self.covering_leaf(cuboid)]
        return run.group_by(len(cuboid), threshold)

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
