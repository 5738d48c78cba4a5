"""The external shuffle: sorted columnar runs on disk, block-merged.

A *run* is four parallel numpy columns — ``leaf:i4, key:i8, count:i8,
sum:f8`` — sorted by ``(leaf, key)``, each ``(leaf, key)`` unique (in
cube mode the records are rows, ``(task, root key, row key, measure)``,
and a ``(task, root key)`` group repeats).  Mappers keep their pending
emissions as such columns; crossing the memory budget *spills* them:
folded once (:func:`fold_columns`; cube rows are only sorted), split by
the plan's reducer assignment, and written as one run file per touched
partition (:func:`spill_columns`).  Reducers later stream their
partition's runs through :func:`merge_blocks` (:func:`merge_groups`).

Publishing protocol (what makes crash recovery work):

* every run is :func:`~repro.core.export.publish`-ed to its ``.run``
  name — a SIGKILLed writer can leave temp debris but never a short
  ``.run`` file (the rename is atomic, and the page cache outlives the
  process).  Runs are scratch, so they are not durable (no fsync): a
  power loss kills the driver, and the job with it;
* runs live in *attempt-scoped* directories
  (``map-<task>-a<attempt>/``), so a re-executed map task can never
  mix its output with its dead predecessor's;
* the driver records the winning attempt per task and sweeps every
  other attempt directory before the reduce phase starts.

On disk a run is the columns interleaved as fixed 28-byte
little-endian records (:data:`RUN_DTYPE`, the packed ``<iqqd``
layout) — seek-free sequential reads, no parsing, byte-stable across
re-executions.

Block merge: :func:`merge_blocks` reads a window of the next
:data:`MERGE_BLOCK` records of each run.  Each step takes from every
window the records that sort ``<=`` the smallest window-end ``(leaf,
key)``.  That cut is complete — a run's later records sort strictly
after its window's end (keys are unique within a run, and a cube run's
window ends on a whole group), hence after the cut — so no ``(leaf,
key)`` is ever split across two steps.  The taken slices are
concatenated in run-path order, stable-sorted and folded: equal keys
add up in path order whatever the block size, so float sums are
bit-identical run to run as long as callers pass sorted paths (they
do).
"""

import contextlib
import os

import numpy as np

from ..core.columnar import fold_sorted, lex_order
from ..core.export import publish
from ..errors import PlanError

#: One shuffle record: leaf id, packed cell key, count, measure sum.
RUN_DTYPE = np.dtype([("leaf", "<i4"), ("key", "<i8"), ("count", "<i8"),
                      ("sum", "<f8")])
RECORD_SIZE = RUN_DTYPE.itemsize

#: Peak resident bytes per pending mapper entry: 28 B of columns plus
#: :func:`fold_columns`' high-water mark (the concatenated copy, then
#: either the fused sort key with its permutation or one sorted copy
#: with the fold's outputs).  ``tracemalloc`` over 10^4-10^6 entries
#: reads 28 + 73 = 101 B when every entry is distinct (28 + 52 = 80 B
#: at 16 duplicates per key, where the key and its permutation are the
#: peak); 110 keeps the headroom and keeps spill points where they
#: were.  The budget divides by this.
ENTRY_BYTES = 110

#: Records buffered per run by :func:`merge_blocks`: reducer memory is
#: O(runs x MERGE_BLOCK x 28 B) however long the runs are.
MERGE_BLOCK = 4_096

#: Peak bytes per row of a cube reducer's batch, cells written aside
#: (``tracemalloc``: 28 + 288-294 B at d = 10, 28 + 169-202 at d = 4).
GROUP_ROW_BYTES = 512


def attempt_dir(shuffle_dir, task_id, attempt):
    """The attempt-scoped directory one map task writes its runs into."""
    return os.path.join(shuffle_dir, "map-%05d-a%d" % (task_id, attempt))


def run_name(partition, spill_no):
    return "part-%03d-run-%04d.run" % (partition, spill_no)


def _columns(records):
    """A structured record array as contiguous, aligned columns."""
    return tuple(np.ascontiguousarray(records[name])
                 for name in RUN_DTYPE.names)


#: The run with no records.
EMPTY_RUN = _columns(np.empty(0, dtype=RUN_DTYPE))


def write_block(path, leaves, keys, counts, sums):
    """Publish one sorted run (:func:`~repro.core.export.publish`, not
    durable: a run is scratch that only a live job reads); returns the
    byte size."""
    records = np.empty(len(keys), dtype=RUN_DTYPE)
    for name, column in zip(RUN_DTYPE.names, (leaves, keys, counts, sums)):
        records[name] = column
    publish(path, records.tofile)
    return records.nbytes


def write_run(path, records):
    """:func:`write_block` for ``(leaf, key, count, sum)`` tuples."""
    return write_block(path, *_columns(
        np.array(list(records), dtype=RUN_DTYPE)))


def sort_columns(pieces):
    """Concatenate column 4-tuples (in emission order), stable-sorted
    on ``(leaf, key)`` (:func:`lex_order`)."""
    if not pieces:
        return EMPTY_RUN
    columns = [np.concatenate(column) for column in zip(*pieces)]
    order = lex_order(columns[:2])
    for i, column in enumerate(columns):  # one sorted copy at a time
        columns[i] = column[order]
    return tuple(columns)


def fold_columns(pieces):
    """:func:`sort_columns`, then fold equal ``(leaf, key)``."""
    return fold_sorted(*sort_columns(pieces))


def spill_columns(run, partition_of_leaf, directory, spill_no):
    """Externalize one folded run as per-partition sorted run files.

    ``partition_of_leaf`` is an integer array indexed by leaf id.
    Returns ``[(partition, path, bytes, records), ...]`` for the runs
    written (empty partitions write nothing).
    """
    partitions = partition_of_leaf[run[0]]
    written = []
    for partition in np.flatnonzero(np.bincount(partitions)).tolist():
        chosen = partitions == partition
        path = os.path.join(directory, run_name(partition, spill_no))
        nbytes = write_block(path, *(column[chosen] for column in run))
        written.append((partition, path, nbytes, nbytes // RECORD_SIZE))
    return written


def _count_through(records, leaf, key):
    """How many leading records of sorted ``records`` are <= (leaf, key)."""
    leaves, keys = records["leaf"], records["key"]
    lo = np.searchsorted(leaves, leaf, side="left")
    hi = np.searchsorted(leaves, leaf, side="right")
    return int(lo + np.searchsorted(keys[lo:hi], key, side="right"))


def _last(records):
    return int(records["leaf"][-1]), int(records["key"][-1])


def _merged(paths, whole_groups):
    """The block merge's steps, unfolded; ``whole_groups`` first grows
    each window to the end of its last ``(leaf, key)`` group."""
    with contextlib.ExitStack() as stack:
        runs = [stack.enter_context(open(path, "rb")) for path in paths]
        starts = [0] * len(runs)
        while True:
            windows = []
            for run, start in zip(runs, starts):
                run.seek(start * RECORD_SIZE)  # re-read what was not taken
                window = more = np.fromfile(run, RUN_DTYPE, MERGE_BLOCK)
                while whole_groups and len(more) == MERGE_BLOCK:
                    more = np.fromfile(run, RUN_DTYPE, MERGE_BLOCK)
                    more = more[:_count_through(more, *_last(window))]
                    window = np.concatenate([window, more])
                windows.append(window)
            ends = [_last(window) for window in windows if len(window)]
            if not ends:
                return
            taken = []
            for i, window in enumerate(windows):
                n = _count_through(window, *min(ends))
                taken.append(_columns(window[:n]))
                starts[i] += n
            yield sort_columns(taken)


def merge_blocks(paths):
    """Merge sorted runs block by block, summing equal ``(leaf, key)``.

    Yields folded ``(leaves, keys, counts, sums)`` columns; the blocks
    are in global sorted order and share no key.  Pass ``paths`` in
    sorted order for deterministic float accumulation (see module
    docstring).
    """
    for block in _merged(paths, False):
        yield fold_sorted(*block)


def merge_groups(paths, budget):
    """Cube runs as batches of whole ``(task, root)`` groups of one task,
    rows in path order, at most ``budget // GROUP_ROW_BYTES`` rows; one
    group over that raises :class:`~repro.errors.PlanError`."""
    limit = budget // GROUP_ROW_BYTES
    batch, held = [], 0
    for block in _merged(paths, True):
        tasks, roots = block[0], block[1]
        ends = np.append(np.flatnonzero((tasks[1:] != tasks[:-1])
                                        | (roots[1:] != roots[:-1])) + 1,
                         len(roots))
        lo = 0
        while lo < len(roots):
            task_end = int(np.searchsorted(tasks, tasks[lo], "right"))
            same = not batch or batch[0][0][0] == tasks[lo]
            fits = ends[(ends > lo) & (ends <= min(lo + limit - held,
                                                   task_end)) & same]
            if not (len(fits) or batch):  # one group over the budget
                size = int(ends[ends > lo][0]) - lo
                raise PlanError(
                    "root group %#x of cube task %d holds %d rows (%d B each)"
                    ", over the reducer memory budget of %d bytes"
                    % (roots[lo], tasks[lo], size, GROUP_ROW_BYTES, budget))
            if len(fits):
                batch.append(tuple(column[lo:fits[-1]] for column in block))
                held, lo = held + int(fits[-1]) - lo, int(fits[-1])
            if not len(fits) or lo < task_end:  # the batch is full
                yield tuple(np.concatenate(column) for column in zip(*batch))
                batch, held = [], 0
    if batch:
        yield tuple(np.concatenate(column) for column in zip(*batch))


def merge_runs(paths):
    """:func:`merge_blocks` record by record: aggregated
    ``(leaf_id, key, count, sum)`` tuples in global sorted order."""
    for block in merge_blocks(paths):
        yield from zip(*(column.tolist() for column in block))
