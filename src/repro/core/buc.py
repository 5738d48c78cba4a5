"""BUC — BottomUpCube (Beyer & Ramakrishnan) and the shared kernel.

:class:`BucEngine` implements bottom-up cube computation over an index
array: each recursion level sorts a row-index range by the next
dimension, scans it into value groups, prunes groups below ``minsup``
and recurses.  The engine serves four masters:

* sequential BUC (:func:`buc_iceberg_cube`) — the thesis' Figure 2.9;
* RP — one engine per processor, depth-first writing (Figure 3.1);
* BPP — BPP-BUC over a data chunk, breadth-first writing (Figure 3.5);
* PT — BPP-BUC over full or chopped subtree tasks (Figure 3.10).

The two write orders differ exactly as in Figure 3.4: depth-first emits
each cell the moment its partition qualifies (scattering output across
cuboids); breadth-first completes every cuboid as one contiguous block
before descending.

The engine counts sorts, scans and groups into an
:class:`~repro.core.stats.OpStats`, which the simulated cluster turns
into CPU time.

The *refinement* machinery — how a row-index range is partitioned by
one dimension — is a swappable strategy (``kernel=``): the default
:class:`~repro.core.columnar.PythonKernel` reproduces the seed
behaviour bit-for-bit (cells *and* OpStats pricing, so every simulated
figure is unchanged), while ``"numpy"`` (or ``"auto"``) selects the
vectorised kernel from :mod:`repro.core.columnar` for real wall-clock
work.  Both kernels refine in ascending code order with stable
within-group row order, so the produced cells are identical.
"""

from .. import obs
from ..errors import PlanError
from ..lattice.processing_tree import ProcessingTree, SubtreeTask
from .columnar import resolve_kernel
from .stats import OpStats
from .thresholds import as_threshold, validate_measures
from .writer import ResultWriter


class PrefixCache:
    """Sort-sharing cache for consecutive tasks on one processor.

    PT's affinity scheduling (Section 3.4) hands a worker tasks whose
    subtree roots share a prefix with its previous task, so the worker's
    data is already partitioned on that shared prefix.  The cache keeps
    the qualifying group boundaries along the last root path; a new task
    resumes refinement from the deepest shared level instead of
    re-sorting from scratch.

    Validity: every sort the engine performs happens strictly inside one
    group of the level it descends from, so shallower group boundaries
    survive deeper work.  Diverging from the cached path truncates the
    cache to the shared depth.
    """

    def __init__(self):
        self.path = []  # list of (dim_name, groups) per refined level

    def shared_depth(self, root):
        """How many leading root dimensions match the cached path."""
        depth = 0
        for (name, _groups), dim in zip(self.path, root):
            if name != dim:
                break
            depth += 1
        return depth


class BucEngine:
    """Bottom-up cube computation over one in-memory relation."""

    def __init__(self, relation, dims, minsup, writer, stats=None, counting_sort=False,
                 kernel="python"):
        """``counting_sort=True`` enables the BUC paper's linear-time
        refinement: ranges are bucketed by code instead of comparison
        -sorted whenever a dimension's cardinality is small relative to
        the range (``CountingSort`` in Beyer & Ramakrishnan).  Off by
        default so the simulated-cluster calibration (comparison-sort
        pricing) matches the thesis' figures; the ablation bench
        measures the difference.

        ``kernel`` selects the refinement machinery: ``"python"`` (the
        default, seed-identical), ``"numpy"`` or ``"auto"`` (the
        vectorised kernel, see :mod:`repro.core.columnar`), or a prebuilt
        kernel instance — in which case ``relation`` may be ``None``
        (worker processes build kernels from shared column buffers)."""
        self.dims = tuple(dims)
        self.threshold = as_threshold(minsup)
        self._qualifies = self.threshold.qualifies
        self.writer = writer
        self.stats = stats if stats is not None else OpStats()
        self.counting_sort = counting_sort
        self.tree = ProcessingTree(self.dims)
        self.kernel = resolve_kernel(kernel)(relation, self.dims, counting_sort)
        self._dim_pos = {name: i for i, name in enumerate(self.dims)}

    def __len__(self):
        return len(self.kernel)

    def all_aggregate(self):
        """``(count, sum)`` of the whole input — the ``all`` cell."""
        return self.kernel.all_aggregate()

    def _refine(self, start, end, dim_position):
        """Partition ``idx[start:end]`` by one column into value groups.

        Returns a list of ``(value, s, e, count, sum)``; the kernel
        charges the sort (or linear bucketing) and scan to the stats
        ledger.
        """
        return self.kernel.refine(start, end, dim_position, self.stats)

    def _refine_to_root(self, task, cache=None):
        """Partition the whole input down to the task's root prefix.

        Returns qualifying ``(cell, s, e, count, sum)`` groups at root
        level; groups below ``minsup`` are pruned on the way (safe: every
        node in the subtree contains all root dimensions).  With a
        :class:`PrefixCache`, refinement resumes from the deepest level
        shared with the previous task's root (prefix affinity).
        """
        groups = [((), 0, len(self.kernel), len(self.kernel), None)]
        depth = 0
        if cache is not None:
            depth = cache.shared_depth(task.root)
            del cache.path[depth:]
            if depth:
                groups = cache.path[depth - 1][1]
        for name in task.root[depth:]:
            position = self._dim_pos[name]
            segments = [(s, e) for _cell, s, e, _count, _total in groups]
            refined = []
            for (cell, _s, _e, _count, _total), seg_groups in zip(
                groups,
                self.kernel.refine_segments(segments, position, self.stats,
                                            self.threshold),
            ):
                for value, s2, e2, count, total in seg_groups:
                    refined.append((cell + (value,), s2, e2, count, total))
            groups = refined
            if cache is not None:
                cache.path.append((name, groups))
        return groups

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_task(self, task, breadth_first, cache=None):
        """Compute every node of ``task`` (a :class:`SubtreeTask`).

        The ``all`` node (empty prefix) is never written here — callers
        aggregate it separately, as the thesis does ("we do not include
        the aggregation for the node all as one of the tasks").

        ``cache`` (a :class:`PrefixCache`) enables PT's sort sharing
        between consecutive tasks on the same processor.
        """
        if not isinstance(task, SubtreeTask):
            raise PlanError("expected a SubtreeTask, got %r" % (task,))
        with obs.span("buc.task") as span:
            if span:
                span.set(root="/".join(task.root) if task.root else "(all)",
                         breadth_first=breadth_first)
            groups = self._refine_to_root(task, cache=cache)
            root_cuboid = task.root
            children = task.active_children(self.tree)
            if breadth_first:
                if root_cuboid:
                    self.writer.write_block(
                        root_cuboid,
                        [(cell, count, total)
                         for cell, _s, _e, count, total in groups]
                    )
                self._breadth_first(self.kernel.level_from_groups(groups),
                                    children)
            else:
                if root_cuboid:
                    for cell, s, e, count, total in groups:
                        self.writer.write_cell(root_cuboid, cell, count, total)
                        self._depth_first(root_cuboid, cell, s, e,
                                          children_override=children)
                else:
                    # Depth-first from the (unwritten) all node.
                    for _cell, s, e, _count, _total in groups:
                        self._depth_first((), (), s, e,
                                          children_override=children)

    def _depth_first(self, node, cell, start, end, children_override=None):
        """Classic BUC recursion: write each qualifying cell, then descend."""
        children = (
            children_override if children_override is not None else self.tree.children(node)
        )
        for child in children:
            position = self._dim_pos[child[-1]]
            for value, s, e, count, total in self._refine(start, end, position):
                if self._qualifies(count, total):
                    child_cell = cell + (value,)
                    self.writer.write_cell(child, child_cell, count, total)
                    self._depth_first(child, child_cell, s, e)

    def _breadth_first(self, level, children):
        """BPP-BUC recursion: finish each cuboid's block before descending.

        ``level`` is kernel-specific level state (parallel cells /
        starts / counts / sums columns for one cuboid).  Every sibling
        group of a cuboid is refined by the same dimension, so the whole
        level goes through ``kernel.refine_level`` in one call — the
        vectorised kernels partition an entire cuboid with a single
        composite-key pass instead of one call per cell — and the block
        is written column-wise in bulk.
        """
        for child in children:
            position = self._dim_pos[child[-1]]
            grandchildren = self.tree.children(child)
            with obs.span("buc.cuboid") as span:
                refined = self.kernel.refine_level(
                    level, position, self.stats, self.threshold,
                    need_rows=bool(grandchildren),
                )
                cells, _starts, counts, sums = refined
                self.writer.write_columns(child, cells, counts, sums)
                if span:
                    span.set(cuboid="/".join(child), cells=len(cells))
            if len(cells) and grandchildren:
                self._breadth_first(refined, grandchildren)


def buc_iceberg_cube(relation, dims=None, minsup=1, breadth_first=False, writer=None,
                     counting_sort=False, kernel="python"):
    """Sequential BUC over all ``2**d`` cuboids (including ``all``).

    Returns ``(CubeResult, OpStats, ResultWriter)`` so callers can
    inspect both the cells and the I/O pattern.  ``counting_sort``
    enables the BUC paper's linear bucketing for low-cardinality
    dimensions; ``kernel`` swaps the refinement machinery (``"python"``
    keeps the seed pricing, ``"numpy"``/``"auto"`` run the vectorised
    kernel).
    """
    if dims is None:
        dims = relation.dims
    dims = tuple(dims)
    if writer is None:
        writer = ResultWriter(dims)
    threshold = as_threshold(minsup)
    validate_measures(threshold, relation)
    stats = OpStats()
    stats.read_tuples += len(relation)
    engine = BucEngine(relation, dims, threshold, writer, stats,
                       counting_sort=counting_sort, kernel=kernel)
    count, total = engine.all_aggregate()
    if threshold.qualifies(count, total):
        writer.write_cell((), (), count, total)
    engine.run_task(SubtreeTask(()), breadth_first=breadth_first)
    return writer.result, stats, writer
