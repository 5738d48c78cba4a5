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

import copy

from .. import obs
from ..backends import resolve_backend
from ..core.columnar import CellRun, RunCells, code_matrix
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


class LeafSnapshot:
    """One immutable state of a leaf holder, and the only read path.

    ``dims``, ``leaves``, ``shard``, ``generation``, ``total_rows`` and
    ``total_measure`` are fixed at construction and :meth:`leaf_items`
    returns the same cells for as long as the snapshot lives, so a
    reader that pins one answers exactly that generation — cells and
    label from the same object — however many appends or compactions
    land meanwhile, and takes no lock to do it.  A :class:`LeafHolder`
    publishes a new snapshot per change and never edits one.

    Each leaf is one :class:`~repro.core.columnar.CellRun` (its cells
    sorted by cell, as columns), here a ready mapping ``runs``; the
    store's snapshot overrides :meth:`leaf_items` to load and merge
    lazily.
    """

    def __init__(self, dims, leaves, runs, generation, total_rows,
                 total_measure, shard=None):
        self.dims = tuple(dims)
        self.leaves = leaves
        self.shard = shard
        self.generation = generation
        self.total_rows = total_rows
        self.total_measure = total_measure
        self._lattice = CubeLattice(self.dims)
        self._leaf_set = frozenset(leaves)
        self.runs = runs

    def replace(self, **state):
        """The successor: a copy with ``state`` replaced.  ``self`` is
        never edited — that is what lets a reader hold it without a lock."""
        successor = copy.copy(self)
        successor.__dict__.update(state)
        return successor

    def leaf_items(self, leaf):
        """The leaf's cells as one :class:`CellRun`."""
        try:
            return self.runs[leaf]
        except KeyError:
            raise PlanError(
                "cuboid %r is not a materialized leaf" % (leaf,)) from None

    def canonical(self, cuboid):
        """Normalize a cuboid to schema order."""
        return self._lattice.canonical(cuboid)

    def covering_leaf(self, cuboid):
        """The held leaf that has (canonical) ``cuboid`` as a prefix.

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
        if self.shard is not None:
            raise PlanError(
                "no stored leaf covers cuboid %r on shard %d/%d (placement "
                "assigns its covering leaf to another shard)"
                % (cuboid, self.shard[0], self.shard[1]))
        raise PlanError("no materialized leaf covers cuboid %r" % (cuboid,))

    def owned_cuboids(self):
        """Every cuboid whose *covering leaf* this snapshot holds.

        Each held leaf ``L`` covers exactly two cuboids whose
        ``covering_leaf`` is ``L`` itself: ``L`` and ``L[:-1]`` (for the
        last-dimension-only leaf that second cuboid is ``()``).  Across
        the shards of a :class:`~repro.serve.cluster.ShardMap` these
        sets partition the whole lattice, so a fan-out to all shards
        covers every cuboid exactly once.
        """
        owned = []
        for leaf in self.leaves:
            owned.append(leaf)
            owned.append(leaf[:-1])
        return owned

    def query(self, cuboid, minsup=1):
        """Answer ``GROUP BY cuboid HAVING <threshold>``.

        ``minsup`` may be an integer or any
        :class:`~repro.core.thresholds.Threshold`.  Cells sharing the
        query's prefix are adjacent in the covering leaf's run, so this
        is one :meth:`CellRun.group_by
        <repro.core.columnar.CellRun.group_by>`.  Returns the rolled-up
        run as a read-only ``{cell: (count, sum)}`` mapping
        (:class:`~repro.core.columnar.RunCells`); the apex answer is a
        run over no dimensions.
        """
        threshold = as_threshold(minsup)
        cuboid = self._lattice.canonical(cuboid)
        with obs.span("store.query", cuboid="/".join(cuboid)) as span:
            if not cuboid:
                agg = (self.total_rows, self.total_measure)
                return RunCells(CellRun.from_cell(
                    (), (), agg if threshold.qualifies(*agg) else None))
            run = self.leaf_items(self.covering_leaf(cuboid))
            out = run.group_by(len(cuboid), threshold)
            if span:
                span.set(cells=len(out))
            return RunCells(out)

    def iceberg(self, minsup=1):
        """The iceberg cube over every cuboid this snapshot covers.

        Returns ``{cuboid: {cell: (count, sum)}}`` (each answer a
        :meth:`query` mapping) restricted to the cuboids in
        :meth:`owned_cuboids` — a shard's share of the full cube; an
        unsharded holder answers the entire lattice.
        """
        return {cuboid: self.query(cuboid, minsup=minsup)
                for cuboid in self.owned_cuboids()}

    def canonical_cell(self, cuboid, cell):
        """``(cuboid, cell)`` in schema order: the coordinates move with
        the dimensions."""
        return self._lattice.canonical_cell(cuboid, cell)

    def point(self, cuboid, cell, minsup=1):
        """One cell of one cuboid: ``(count, sum)`` or ``None`` — a
        ``searchsorted`` per coordinate on the covering leaf's run
        (:meth:`CellRun.lookup <repro.core.columnar.CellRun.lookup>`).
        ``cell`` lists its coordinates in ``cuboid``'s order, whatever
        that is."""
        threshold = as_threshold(minsup)
        cuboid, cell = self._lattice.canonical_cell(cuboid, cell)
        if not cuboid:
            agg = (self.total_rows, self.total_measure)
            return agg if threshold.qualifies(*agg) else None
        agg = self.leaf_items(self.covering_leaf(cuboid)).lookup(cell)
        if agg is not None and threshold.qualifies(*agg):
            return agg
        return None


class LeafHolder:
    """What :class:`LeafMaterialization` and
    :class:`~repro.serve.store.CubeStore` share: a current
    :class:`LeafSnapshot` in ``_snapshot`` — replaced, never edited —
    and a read surface that is one delegation to it per method."""

    generation = property(lambda self: self._snapshot.generation)
    total_rows = property(lambda self: self._snapshot.total_rows)
    total_measure = property(lambda self: self._snapshot.total_measure)

    def snapshot(self):
        """The current :class:`LeafSnapshot`; pin it to read one
        generation across several calls."""
        return self._snapshot

    def leaf_items(self, leaf):
        """The leaf's cells as one :class:`CellRun`."""
        return self.snapshot().leaf_items(leaf)

    def canonical(self, cuboid):
        """Normalize a cuboid to schema order."""
        return self._snapshot.canonical(cuboid)

    def covering_leaf(self, cuboid):
        """The held leaf that has (canonical) ``cuboid`` as a prefix."""
        return self._snapshot.covering_leaf(cuboid)

    def owned_cuboids(self):
        """Every cuboid whose *covering leaf* this holder has."""
        return self._snapshot.owned_cuboids()

    def query(self, cuboid, minsup=1):
        """Answer ``GROUP BY cuboid HAVING <threshold>`` as a read-only
        ``{cell: (count, sum)}`` mapping (:meth:`LeafSnapshot.query`)."""
        return self.snapshot().query(cuboid, minsup)

    def point(self, cuboid, cell, minsup=1):
        """One cell of one cuboid: ``(count, sum)`` or ``None``."""
        return self.snapshot().point(cuboid, cell, minsup)

    def iceberg(self, minsup=1):
        """The iceberg cube over :meth:`owned_cuboids` — the holder's
        share of the full cube, at one generation."""
        return self.snapshot().iceberg(minsup)


class LeafMaterialization(LeafHolder):
    """Precomputed leaf cuboids answering arbitrary-threshold queries,
    held in memory; :meth:`insert` publishes the next snapshot."""

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
        entry = resolve_backend(backend)
        if entry.leaf_runs is None:
            raise PlanError(
                "the %s backend writes stores (CubeStore.build), not "
                "in-memory materializations" % (backend,))
        options = entry.given_options(
            cluster_spec=cluster_spec, cost_model=cost_model, workers=workers)
        runs, self.precompute_seconds = entry.leaf_runs(
            relation, self.dims, self.leaves, **options)
        #: generation 1; every insert publishes the next one, so serving
        #: caches can invalidate (same contract as
        #: :class:`repro.serve.store.CubeStore`)
        self._snapshot = LeafSnapshot(
            self.dims, self.leaves, runs, 1, len(relation),
            sum(relation.measures))

    def insert(self, relation):
        """Incrementally fold new rows into the materialized leaves.

        The leaves hold *unfiltered* cells (minsup 1), so appending data
        is a pure accumulation — no rescan of the original input: each
        leaf's run is merged with the new rows projected onto its
        dimensions, and the result is published as the next snapshot.
        The new relation must share the materialization's dimensions.
        """
        positions = relation.dim_indices(self.dims)
        codes = code_matrix(
            [tuple(row[p] for p in positions) for row in relation.rows],
            len(self.dims))
        old = self._snapshot
        self._snapshot = old.replace(
            runs={leaf: run.add_rows(
                codes[[self.dims.index(d) for d in leaf]], relation.measures)
                for leaf, run in old.runs.items()},
            generation=old.generation + 1,
            total_rows=old.total_rows + len(relation),
            total_measure=old.total_measure + sum(relation.measures))

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

    def query_cube(self, minsup):
        """Answer the *whole* iceberg cube at a new threshold.

        Every cuboid is served from its covering leaf; this is the
        online stage of the Section 5.1 comparison.
        """
        from ..core.result import CubeResult

        threshold = as_threshold(minsup)
        snap = self._snapshot
        result = CubeResult(self.dims)
        for cuboid in CubeLattice(self.dims).cuboids(include_all=False):
            for cell, (count, value) in snap.query(cuboid, threshold).items():
                result.add_cell(cuboid, cell, count, value)
        if threshold.qualifies(snap.total_rows, snap.total_measure):
            result.add_cell((), (), snap.total_rows, snap.total_measure)
        return result
