"""Driver, mapper and reducer of the one-round MapReduce backend.

Execution shape (one shuffle round, as in Sundararajan & Yan):

1. **Map** — every input split becomes one map task.  The mapper
   streams the split's chunks; per chunk it packs all rows into 63-bit
   keys at once, forms the ``(leaf x row)`` grid ``keys & leaf_masks``
   in leaf blocks sized from the memory budget, sorts each grid row
   and folds equal cells (:func:`~repro.core.columnar.fold_sorted`)
   into pending ``(leaf, key, count, sum)`` columns.  Crossing the
   budget at a chunk boundary spills the folded columns as sorted,
   partitioned run files (see :mod:`repro.mr.shuffle`).
2. **Shuffle** — nothing moves: runs are already partitioned on the
   shared filesystem.  The driver records each task's winning attempt
   and sweeps orphaned attempt directories left by killed workers.
3. **Reduce** — reducer ``p`` block-merges the sorted runs of
   partition ``p`` (bounded memory, see
   :func:`~repro.mr.shuffle.merge_blocks`).  In *store* mode each leaf
   streams, as columns, through a :class:`~repro.serve.store.LeafWriter`
   (atomic per-leaf commit) at minsup 1; in *cube* mode cells pass the iceberg
   threshold and each leaf's immediate prefix cuboid is folded from
   the same sorted blocks, so the two phases together cover the entire
   lattice (every non-leaf cuboid is some leaf minus its last
   dimension, and the apex comes from the map-phase totals).

Both phases run under :func:`repro.parallel.local.supervised_map`:
killed or hung workers (including ``--faults`` injection) are retried,
and because run files are durable and attempt-scoped, a re-executed
task reproduces its output byte-for-byte.
"""

import math
import os
import shutil
import signal
import tempfile
import time

import numpy as np

from .. import obs
from ..core.columnar import fold_sorted, qualifying_mask, unpack_codes
from ..core.result import CubeResult
from ..core.thresholds import as_threshold
from ..data.stream import RelationStream, stream_from_relation
from ..errors import PlanError
from ..parallel.local import _HANG_SECONDS, SupervisorLog, supervised_map
from ..serve.cluster import stable_shard_hash
from ..serve.store import CubeStore, LeafWriter, build_generations
from .planner import plan_mapreduce
from .shuffle import (
    ENTRY_BYTES,
    attempt_dir,
    fold_columns,
    merge_blocks,
    spill_columns,
)

#: Default budget per mapper (bytes of estimated pending-column
#: footprint before a spill).
DEFAULT_MEMORY_BUDGET = 64 << 20

#: Floor on the budget: below this the mapper cannot hold even a few
#: thousand entries and the run explodes into tiny spills.
MIN_MEMORY_BUDGET = 64 << 10

#: Peak resident bytes per ``(leaf x row)`` grid cell while
#: :func:`_combine_block` folds a block (grid, permutation, sorted
#: copies, fold outputs): ``tracemalloc`` reads 57 B when every cell is
#: distinct, 25-35 B otherwise.  Sizes the mapper's leaf blocks.
GRID_CELL_BYTES = 64


class MRStats:
    """Aggregated per-phase telemetry of one MapReduce run.

    Assembled by the driver from the stats each worker returns (the
    obs runtime is not installed in child processes, so workers report
    and the driver records).
    """

    __slots__ = ("map_tasks", "reduce_tasks", "rows", "spills", "runs",
                 "spill_bytes", "spill_records", "orphan_files_swept",
                 "runs_merged", "records_reduced", "cells_written",
                 "map_seconds", "reduce_seconds", "map_recovery",
                 "reduce_recovery")

    def __init__(self):
        self.map_tasks = 0
        self.reduce_tasks = 0
        self.rows = 0
        self.spills = 0
        self.runs = 0
        self.spill_bytes = 0
        self.spill_records = 0
        self.orphan_files_swept = 0
        self.runs_merged = 0
        self.records_reduced = 0
        self.cells_written = 0
        self.map_seconds = 0.0
        self.reduce_seconds = 0.0
        self.map_recovery = SupervisorLog()
        self.reduce_recovery = SupervisorLog()

    def __repr__(self):
        return ("MRStats(maps=%d, reduces=%d, rows=%d, spills=%d, "
                "spill_bytes=%d, cells=%d)"
                % (self.map_tasks, self.reduce_tasks, self.rows, self.spills,
                   self.spill_bytes, self.cells_written))


# ----------------------------------------------------------------------
# map side (runs in worker processes)
# ----------------------------------------------------------------------

_MAP_STATE = None


def _init_map_worker(plan, shuffle_dir, memory_budget, row_positions,
                     require_nonnegative, fault_plan):
    global _MAP_STATE
    _MAP_STATE = (plan, shuffle_dir, memory_budget, row_positions,
                  require_nonnegative, fault_plan)


def _combine_block(keys, measures, masks, first_leaf):
    """Fold one block of the ``(leaf x row)`` grid into run columns.

    Row ``j`` of the grid holds every input row's key masked down to
    leaf ``first_leaf + j``; a stable sort per grid row keeps input
    order within a cell, so sums accumulate in row order.
    """
    grid = keys[None, :] & masks[:, None]
    order = np.argsort(grid, axis=1, kind="stable")
    grid = np.take_along_axis(grid, order, axis=1).ravel()
    sums = measures[order].ravel()
    del order
    leaves = np.repeat(
        np.arange(first_leaf, first_leaf + len(masks), dtype=np.int32),
        len(keys))
    return fold_sorted(leaves, grid, None, sums)


def _map_task(job):
    """Stream one split into combined, partitioned, sorted spill runs.

    Returns ``(task_id, stats)`` where stats carries the winning
    attempt, the run files written (paths relative to the shuffle
    directory) and the split's row/measure totals.
    """
    task_id, attempt, split, traceparent = job
    with obs.activate(traceparent):
        return _map_task_impl(task_id, attempt, split)


def _map_task_impl(task_id, attempt, split):
    (plan, shuffle_dir, memory_budget, row_positions,
     require_nonnegative, fault_plan) = _MAP_STATE
    directive = (fault_plan.local_fault(task_id, attempt)
                 if fault_plan is not None else None)
    if directive == "hang":
        time.sleep(_HANG_SECONDS)
    kill_pending = directive == "kill"

    directory = attempt_dir(shuffle_dir, task_id, attempt)
    os.makedirs(directory, exist_ok=True)
    max_entries = max(1024, memory_budget // ENTRY_BYTES)
    shifts = np.array(plan.packing.shifts, dtype=np.int64)
    leaf_masks = np.array(plan.leaf_masks, dtype=np.int64)
    partition_of_leaf = np.array(plan.partition_of_leaf, dtype=np.int64)

    pending = []  # column 4-tuples in emission order
    entries = 0
    runs = []
    spill_no = 0
    rows_total = 0
    measure_total = 0.0

    def flush(run):
        nonlocal spill_no
        written = spill_columns(run, partition_of_leaf, directory, spill_no)
        spill_no += 1
        for partition, path, nbytes, records in written:
            runs.append((partition,
                         os.path.relpath(path, shuffle_dir),
                         nbytes, records))
        if kill_pending:
            # The injected crash fires only after the spill's run files
            # are durable — re-execution must recover from disk state a
            # real mid-task SIGKILL would leave behind.
            os.kill(os.getpid(), signal.SIGKILL)

    for rows, measures in split.iter_chunks():
        values = np.array(measures, dtype=np.float64)
        if require_nonnegative and values.min() < 0:
            raise PlanError(
                "threshold requires non-negative measures; split %d "
                "contains a negative measure" % split.split_id)
        codes = np.array(rows, dtype=np.int64)
        if row_positions is not None:
            codes = codes[:, row_positions]
        keys = np.bitwise_or.reduce(codes << shifts, axis=1)
        # A grid block gets a quarter of the budget: pending columns
        # hold about another quarter while they accumulate, and the
        # fold's peak (ENTRY_BYTES) only starts after the block is freed.
        block = max(1, memory_budget // 4 // (GRID_CELL_BYTES * len(keys)))
        for first in range(0, len(leaf_masks), block):
            piece = _combine_block(keys, values,
                                   leaf_masks[first:first + block], first)
            pending.append(piece)
            entries += len(piece[1])
        rows_total += len(rows)
        measure_total += math.fsum(measures)
        # Budget check at chunk boundaries, on *folded* entries: pending
        # can overshoot by at most one chunk's worth of new entries
        # (documented in DESIGN 6.11).
        if entries >= max_entries:
            run = fold_columns(pending)
            pending, entries = [run], len(run[1])
            if entries >= max_entries:
                flush(run)
                pending, entries = [], 0

    if pending or not runs:
        flush(fold_columns(pending))
    elif kill_pending:
        os.kill(os.getpid(), signal.SIGKILL)

    return task_id, {
        "attempt": attempt,
        "rows": rows_total,
        "measure": measure_total,
        "spills": spill_no,
        "runs": runs,
    }


# ----------------------------------------------------------------------
# reduce side (runs in worker processes)
# ----------------------------------------------------------------------

_REDUCE_STATE = None


def _init_reduce_worker(plan, shuffle_dir, mode, out_dir, shards, threshold,
                        fault_plan):
    global _REDUCE_STATE
    _REDUCE_STATE = (plan, shuffle_dir, mode, out_dir, shards, threshold,
                     fault_plan)


def _leaf_directory(out_dir, shards, leaf):
    if shards is None:
        return out_dir, None
    shard_index = stable_shard_hash(leaf) % shards
    return os.path.join(out_dir, "shard-%d" % shard_index), shard_index


def _leaf_segments(leaves):
    """``(leaf_id, start, stop)`` of every constant stretch of a sorted
    leaf column."""
    ids, starts = np.unique(leaves, return_index=True)
    stops = np.append(starts[1:], len(leaves))
    return zip(ids.tolist(), starts.tolist(), stops.tolist())


def _unpack_cells(packing, keys, positions):
    """Cell tuples for a column of (masked) packed keys, field by field."""
    return list(zip(*(
        ((keys >> packing.shifts[p]) & packing.masks[p]).tolist()
        for p in positions)))


def _reduce_task(job):
    """Merge one partition's runs and emit its leaves.

    Store mode returns ``{leaf: (shard_index, manifest_entry)}`` after
    committing each leaf file atomically; cube mode returns the
    qualifying cells of every cuboid the partition owns (each leaf plus
    its immediate prefix) as ``{cuboid: [cells, counts, sums]}``.
    """
    reduce_id, attempt, payload, traceparent = job
    with obs.activate(traceparent):
        return _reduce_task_impl(reduce_id, attempt, payload)


def _reduce_task_impl(reduce_id, attempt, payload):
    partition, run_relpaths = payload
    (plan, shuffle_dir, mode, out_dir, shards, threshold,
     fault_plan) = _REDUCE_STATE
    directive = (fault_plan.local_fault(reduce_id, attempt)
                 if fault_plan is not None else None)
    if directive == "hang":
        time.sleep(_HANG_SECONDS)
    kill_pending = directive == "kill"

    paths = [os.path.join(shuffle_dir, rel) for rel in run_relpaths]
    stats = {"attempt": attempt, "runs_merged": len(paths),
             "records": 0, "cells": 0}
    packing = plan.packing

    if mode == "store":
        entries = {}
        generations = {}  # leaf directory -> its build_generations
        writer = None
        current_leaf_id = None
        committed = 0

        def commit():
            nonlocal writer, committed
            leaf = plan.leaves[current_leaf_id]
            _dir, shard_index = _leaf_directory(out_dir, shards, leaf)
            entries[leaf] = (shard_index, writer.commit())
            writer = None
            committed += 1
            if kill_pending and committed == 1:
                # Die only after the first leaf is durably committed:
                # re-execution must overwrite it byte-identically and
                # finish the rest.
                os.kill(os.getpid(), signal.SIGKILL)

        for leaves, keys, counts, sums in merge_blocks(paths):
            stats["records"] += len(keys)
            stats["cells"] += len(keys)
            for leaf_id, lo, hi in _leaf_segments(leaves):
                if leaf_id != current_leaf_id:
                    if writer is not None:
                        commit()
                    current_leaf_id = leaf_id
                    leaf = plan.leaves[leaf_id]
                    directory, _shard = _leaf_directory(out_dir, shards, leaf)
                    os.makedirs(directory, exist_ok=True)
                    if directory not in generations:
                        generations[directory] = build_generations(directory)
                    writer = LeafWriter(directory, leaf,
                                        generations[directory].get(leaf, 1))
                writer.add(
                    unpack_codes(packing, keys[lo:hi],
                                 plan.leaf_positions[leaf_id]),
                    counts[lo:hi], sums[lo:hi])
        if writer is not None:
            commit()
        if kill_pending:
            os.kill(os.getpid(), signal.SIGKILL)
        return reduce_id, {"stats": stats, "entries": entries}

    # cube mode: threshold the leaf cells, and fold each leaf's sorted
    # records into its immediate prefix cuboid (the leaf minus the last
    # dimension, whose field is the key's lowest bits).
    cells_out = {}
    prefix_masks = np.array(
        [packing.mask_for(positions[:-1])
         for positions in plan.leaf_positions], dtype=np.int64)

    def emit(run, trim):
        """Record the qualifying cells of ``run``; ``trim`` drops each
        leaf's last dimension (the run holds prefix-cuboid cells)."""
        keep = qualifying_mask(threshold, run[2], run[3])
        leaves, keys, counts, sums = (column[keep] for column in run)
        for leaf_id, lo, hi in _leaf_segments(leaves):
            width = len(plan.leaves[leaf_id]) - trim
            out = cells_out.setdefault(plan.leaves[leaf_id][:width],
                                       ([], [], []))
            out[0].extend(_unpack_cells(
                packing, keys[lo:hi], plan.leaf_positions[leaf_id][:width]))
            out[1].extend(counts[lo:hi].tolist())
            out[2].extend(sums[lo:hi].tolist())
        return len(keys)

    # The last prefix group of a block may continue in the next one: its
    # records (at most the last dimension's cardinality) are carried
    # over un-folded, so a group's sum never depends on the block size.
    carry = None
    for run in merge_blocks(paths):
        stats["records"] += len(run[1])
        stats["cells"] += emit(run, 0)
        leaves, keys, counts, sums = run
        masks = prefix_masks[leaves]
        wanted = masks != 0  # single-dimension leaves: prefix is the apex
        piece = (leaves[wanted], keys[wanted] & masks[wanted],
                 counts[wanted], sums[wanted])
        if carry is not None:
            piece = tuple(np.concatenate(pair) for pair in zip(carry, piece))
        if not len(piece[1]):
            continue
        still_open = np.count_nonzero((piece[0] == piece[0][-1])
                                      & (piece[1] == piece[1][-1]))
        closed = len(piece[1]) - still_open
        emit(fold_sorted(*(column[:closed] for column in piece)), 1)
        carry = tuple(column[closed:] for column in piece)
    if carry is not None:
        emit(fold_sorted(*carry), 1)
    if kill_pending:
        os.kill(os.getpid(), signal.SIGKILL)
    return reduce_id, {"stats": stats, "cells": cells_out}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def _as_stream(source, dims):
    """Accept a Relation or a RelationStream; return (stream, dims)."""
    if isinstance(source, RelationStream):
        stream = source
        dims = tuple(dims) if dims is not None else stream.dims
        missing = [d for d in dims if d not in stream.dims]
        if missing:
            raise PlanError(
                "dims %r not in stream schema %r" % (missing, stream.dims))
        return stream, dims
    stream = stream_from_relation(source, dims=dims)
    return stream, stream.dims


def _sweep_orphans(shuffle_dir, winning):
    """Remove attempt directories that lost to a re-execution.

    ``winning`` maps task id to its winning attempt.  Returns the
    number of orphaned files (runs and torn temps) deleted.
    """
    removed = 0
    try:
        names = sorted(os.listdir(shuffle_dir))
    except OSError:
        return 0
    for name in names:
        if not name.startswith("map-"):
            continue
        try:
            task_part, attempt_part = name.split("-a", 1)
            task_id = int(task_part[len("map-"):])
            attempt = int(attempt_part)
        except ValueError:
            continue
        if winning.get(task_id) == attempt:
            continue
        path = os.path.join(shuffle_dir, name)
        removed += len(os.listdir(path))
        shutil.rmtree(path, ignore_errors=True)
    return removed


def _run_phases(stream, dims, mode, out_dir, shards, threshold, workers,
                reducers, memory_budget, fault_plan, batch_timeout,
                shuffle_dir, keep_shuffle):
    """The shared map -> sweep -> reduce pipeline; returns
    ``(plan, totals, reduce_results, stats)``."""
    if memory_budget is None:
        memory_budget = DEFAULT_MEMORY_BUDGET
    if memory_budget < MIN_MEMORY_BUDGET:
        raise PlanError(
            "--mr-memory-budget must be >= %d bytes, got %d"
            % (MIN_MEMORY_BUDGET, memory_budget))
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if reducers is None:
        reducers = max(1, workers)

    cards = stream.cardinality_list(dims)
    plan = plan_mapreduce(dims, cards, reducers, n_rows=stream.n_rows)
    row_positions = None
    if dims != stream.dims:
        index_of = {name: i for i, name in enumerate(stream.dims)}
        row_positions = [index_of[name] for name in dims]
    require_nonnegative = (threshold is not None
                           and threshold.requires_nonnegative_measures)

    own_shuffle = shuffle_dir is None
    if own_shuffle:
        shuffle_dir = tempfile.mkdtemp(prefix="repro-mr-")
    else:
        os.makedirs(shuffle_dir, exist_ok=True)

    stats = MRStats()
    active = obs.current()
    try:
        # ---- map phase -------------------------------------------------
        map_jobs = {i: split for i, split in enumerate(stream.splits)}
        started = time.perf_counter()
        with obs.span("mr.map", tasks=len(map_jobs)) as span:
            map_results = supervised_map(
                map_jobs, workers, _map_task, _init_map_worker,
                (plan, shuffle_dir, memory_budget, row_positions,
                 require_nonnegative, fault_plan),
                fault_plan=fault_plan, batch_timeout=batch_timeout,
                log=stats.map_recovery, name="mr_map",
            )
            stats.map_seconds = time.perf_counter() - started
            stats.map_tasks = len(map_results)
            for result in map_results.values():
                stats.rows += result["rows"]
                stats.spills += result["spills"]
                stats.runs += len(result["runs"])
                for _p, _rel, nbytes, records in result["runs"]:
                    stats.spill_bytes += nbytes
                    stats.spill_records += records
            if span:
                span.set(rows=stats.rows, spills=stats.spills,
                         spill_bytes=stats.spill_bytes,
                         seconds=round(stats.map_seconds, 6))
        totals = (
            sum(map_results[t]["rows"] for t in sorted(map_results)),
            math.fsum(map_results[t]["measure"] for t in sorted(map_results)),
        )

        # ---- sweep orphaned attempts ----------------------------------
        winning = {t: r["attempt"] for t, r in map_results.items()}
        stats.orphan_files_swept = _sweep_orphans(shuffle_dir, winning)
        if stats.orphan_files_swept:
            obs.event("mr.orphan_sweep", files=stats.orphan_files_swept)
        if active is not None:
            active.registry.counter(
                "repro_mr_spill_bytes_total",
                "Bytes written to shuffle run files.").inc(stats.spill_bytes)
            active.registry.counter(
                "repro_mr_orphan_files_total",
                "Orphaned spill files swept after the map phase.",
            ).inc(stats.orphan_files_swept)

        # ---- reduce phase ----------------------------------------------
        by_partition = {}
        for task_id in sorted(map_results):
            for partition, rel, _b, _r in map_results[task_id]["runs"]:
                by_partition.setdefault(partition, []).append(rel)
        n_map_tasks = len(map_jobs)
        reduce_jobs = {
            n_map_tasks + partition: (partition, sorted(relpaths))
            for partition, relpaths in by_partition.items()
        }
        started = time.perf_counter()
        with obs.span("mr.reduce", tasks=len(reduce_jobs)) as span:
            reduce_results = supervised_map(
                reduce_jobs, workers, _reduce_task, _init_reduce_worker,
                (plan, shuffle_dir, mode, out_dir, shards, threshold,
                 fault_plan),
                fault_plan=fault_plan, batch_timeout=batch_timeout,
                log=stats.reduce_recovery, name="mr_reduce",
            ) if reduce_jobs else {}
            stats.reduce_seconds = time.perf_counter() - started
            stats.reduce_tasks = len(reduce_results)
            for result in reduce_results.values():
                stats.runs_merged += result["stats"]["runs_merged"]
                stats.records_reduced += result["stats"]["records"]
                stats.cells_written += result["stats"]["cells"]
            if span:
                span.set(runs_merged=stats.runs_merged,
                         cells=stats.cells_written,
                         seconds=round(stats.reduce_seconds, 6))
        if active is not None:
            active.registry.counter(
                "repro_mr_runs_merged_total",
                "Shuffle runs merged by reducers.").inc(stats.runs_merged)
            active.registry.counter(
                "repro_mr_cells_total",
                "Cells emitted by reducers.").inc(stats.cells_written)

        # A reducer killed mid-leaf leaves its LeafWriter's ``.tmp.<pid>``
        # file behind in the output directory; the winning attempt wrote
        # its own temp under a different pid, so the orphan survives the
        # commit.  Sweep them before the store is assembled.
        if out_dir is not None:
            torn = 0
            for dirpath, _dirnames, filenames in os.walk(out_dir):
                for filename in filenames:
                    if ".tmp." in filename:
                        os.unlink(os.path.join(dirpath, filename))
                        torn += 1
            if torn:
                stats.orphan_files_swept += torn
                obs.event("mr.torn_leaf_sweep", files=torn)
        return plan, totals, reduce_results, stats
    finally:
        if own_shuffle and not keep_shuffle:
            shutil.rmtree(shuffle_dir, ignore_errors=True)


def mapreduce_materialize(source, directory, dims=None, workers=None,
                          reducers=None, memory_budget=None, shards=None,
                          fault_plan=None, batch_timeout=None,
                          shuffle_dir=None, keep_shuffle=False):
    """``store build --backend mapreduce``: leaves straight to disk.

    ``source`` is a :class:`~repro.data.relation.Relation` or (the
    point of this backend) a :class:`~repro.data.stream.RelationStream`
    whose rows never fit in memory.  Leaves are written at minsup 1 —
    the store's usual contract, so any later threshold is answerable.

    With ``shards=N`` a single pass routes each leaf into
    ``directory/shard-<i>`` by the stable covering-leaf hash and one
    manifest is assembled per shard (same placement and totals as N
    separate ``CubeStore.build(shard=(i, N))`` runs).  Returns the open
    :class:`~repro.serve.store.CubeStore` — or the list of per-shard
    stores — with the run's :class:`MRStats` attached as ``.mr_stats``.
    """
    stream, dims = _as_stream(source, dims)
    if shards is not None and shards < 1:
        raise PlanError("shards must be >= 1, got %r" % (shards,))
    directory = str(directory)
    plan, totals, reduce_results, stats = _run_phases(
        stream, dims, "store", directory, shards, None, workers, reducers,
        memory_budget, fault_plan, batch_timeout, shuffle_dir, keep_shuffle)

    entries = {}
    for result in reduce_results.values():
        entries.update(result["entries"])
    # A leaf receives no record only when the input is empty; the store
    # contract still wants every leaf present.
    for leaf in plan.leaves:
        if leaf not in entries:
            leaf_dir, shard_index = _leaf_directory(directory, shards, leaf)
            os.makedirs(leaf_dir, exist_ok=True)
            writer = LeafWriter(leaf_dir, leaf,
                                build_generations(leaf_dir).get(leaf, 1))
            entries[leaf] = (shard_index, writer.commit())

    total_rows, total_measure = totals
    if shards is None:
        store = CubeStore.assemble(
            directory, dims, {leaf: entry for leaf, (_s, entry) in
                              entries.items()},
            total_rows=total_rows, total_measure=total_measure)
        store.mr_stats = stats
        return store
    stores = []
    for index in range(shards):
        shard_entries = {leaf: entry for leaf, (s, entry) in entries.items()
                         if s == index}
        store = CubeStore.assemble(
            os.path.join(directory, "shard-%d" % index), dims, shard_entries,
            total_rows=total_rows, total_measure=total_measure,
            shard=(index, shards))
        store.mr_stats = stats
        stores.append(store)
    return stores


def mapreduce_iceberg_cube(source, dims=None, minsup=1, workers=None,
                           reducers=None, memory_budget=None,
                           fault_plan=None, batch_timeout=None,
                           shuffle_dir=None, keep_shuffle=False):
    """``cube --backend mapreduce``: a full iceberg CubeResult.

    Collects every qualifying cell in memory, so this is the
    verification-scale entry point; use :func:`mapreduce_materialize`
    when the *output* is also bigger than RAM.  The returned result has
    the run's :class:`MRStats` as ``.mr_stats`` and the supervisor's
    recovery log as ``.recovery`` (matching the local backend).
    """
    stream, dims = _as_stream(source, dims)
    threshold = as_threshold(minsup)
    plan, totals, reduce_results, stats = _run_phases(
        stream, dims, "cube", None, None, threshold, workers, reducers,
        memory_budget, fault_plan, batch_timeout, shuffle_dir, keep_shuffle)

    result = CubeResult(dims)
    for reduce_id in sorted(reduce_results):
        for cuboid, columns in reduce_results[reduce_id]["cells"].items():
            result.add_columns(cuboid, *columns)
    total_rows, total_measure = totals
    if total_rows and threshold.qualifies(total_rows, total_measure):
        result.add_cell((), (), total_rows, total_measure)
    result.mr_stats = stats
    result.recovery = stats.map_recovery
    return result
