"""The external shuffle: sorted columnar runs on disk, block-merged.

A *run* is four parallel numpy columns — ``leaf:i4, key:i8, count:i8,
sum:f8`` — sorted by ``(leaf, key)`` with every ``(leaf, key)`` unique.
Mappers keep their pending emissions as such columns; crossing the
memory budget *spills* them: folded once (:func:`fold_columns`),
split by the plan's leaf-to-reducer assignment, and written as one run
file per touched partition (:func:`spill_columns`).  Reducers later
stream their partition's runs through :func:`merge_blocks`.

Durability protocol (what makes crash recovery work):

* every run is written to a ``.tmp`` name, fsynced and ``os.replace``d
  into its final ``.run`` name — a SIGKILLed writer can leave ``.tmp``
  debris but never a short ``.run`` file;
* runs live in *attempt-scoped* directories
  (``map-<task>-a<attempt>/``), so a re-executed map task can never
  mix its output with its dead predecessor's;
* the driver records the winning attempt per task and sweeps every
  other attempt directory before the reduce phase starts.

On disk a run is the columns interleaved as fixed 28-byte
little-endian records (:data:`RUN_DTYPE`, the packed ``<iqqd``
layout) — seek-free sequential reads, no parsing, byte-stable across
re-executions.

Block merge: :func:`merge_blocks` holds at most :data:`MERGE_BLOCK`
records per run.  Each step takes from every buffer the records that
sort ``<=`` the smallest buffer-end ``(leaf, key)``.  That cut is
complete — a run's unread records sort strictly after its buffer's
end (keys are unique within a run), hence after the cut — so no
``(leaf, key)`` is ever split across two steps.  The taken slices are
concatenated in run-path order, stable-sorted and folded: equal keys
add up in path order whatever the block size, so float sums are
bit-identical run to run as long as callers pass sorted paths (they
do).
"""

import contextlib
import os

import numpy as np

from ..core.columnar import fold_sorted

#: One shuffle record: leaf id, packed cell key, count, measure sum.
RUN_DTYPE = np.dtype([("leaf", "<i4"), ("key", "<i8"), ("count", "<i8"),
                      ("sum", "<f8")])
RECORD_SIZE = RUN_DTYPE.itemsize

#: Peak resident bytes per pending mapper entry: 28 B of columns plus
#: :func:`fold_columns`' high-water mark (the concatenated copy, the
#: ``lexsort`` permutation, one sorted copy, the fold's outputs).
#: ``tracemalloc`` over 10^4-10^6 entries reads 101 B when every entry
#: is distinct (72 B at 16 duplicates per key); 110 keeps the headroom
#: for ``lexsort``'s untraced merge scratch (4 B) and keeps spill
#: points where they were.  The budget divides by this.
ENTRY_BYTES = 110

#: Records buffered per run by :func:`merge_blocks`: reducer memory is
#: O(runs x MERGE_BLOCK x 28 B) however long the runs are.
MERGE_BLOCK = 4_096


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
    """Write one sorted run durably; returns the byte size.

    The ``.tmp`` + fsync + ``os.replace`` dance means a crash mid-write
    leaves no ``.run`` file at all — readers never see a torn run.
    """
    records = np.empty(len(keys), dtype=RUN_DTYPE)
    for name, column in zip(RUN_DTYPE.names, (leaves, keys, counts, sums)):
        records[name] = column
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "wb") as handle:
        records.tofile(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return records.nbytes


def write_run(path, records):
    """:func:`write_block` for ``(leaf, key, count, sum)`` tuples."""
    return write_block(path, *_columns(
        np.array(list(records), dtype=RUN_DTYPE)))


def fold_columns(pieces):
    """Concatenate column 4-tuples (in emission order) into one run:
    stable ``lexsort`` on ``(leaf, key)``, then fold equal keys."""
    if not pieces:
        return EMPTY_RUN
    columns = [np.concatenate(column) for column in zip(*pieces)]
    order = np.lexsort((columns[1], columns[0]))
    for i, column in enumerate(columns):  # one sorted copy at a time
        columns[i] = column[order]
    del order
    return fold_sorted(*columns)


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


def _count_through(buffer, leaf, key):
    """How many leading records of sorted ``buffer`` are <= (leaf, key)."""
    leaves, keys = buffer[0], buffer[1]
    lo = np.searchsorted(leaves, leaf, side="left")
    hi = np.searchsorted(leaves, leaf, side="right")
    return int(lo + np.searchsorted(keys[lo:hi], key, side="right"))


def merge_blocks(paths):
    """Merge sorted runs block by block, summing equal ``(leaf, key)``.

    Yields folded ``(leaves, keys, counts, sums)`` columns; the blocks
    are in global sorted order and share no key.  Pass ``paths`` in
    sorted order for deterministic float accumulation (see module
    docstring).
    """
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(path, "rb")) for path in paths]
        buffers = [EMPTY_RUN] * len(paths)
        while True:
            for i, handle in enumerate(handles):
                short = MERGE_BLOCK - len(buffers[i][0])
                if handle is None or not short:
                    continue
                more = _columns(np.fromfile(handle, dtype=RUN_DTYPE,
                                            count=short))
                if len(more[0]) < short:
                    handles[i] = None  # exhausted; ExitStack closes it
                buffers[i] = tuple(np.concatenate(pair)
                                   for pair in zip(buffers[i], more))
            ends = [(int(b[0][-1]), int(b[1][-1]))
                    for b in buffers if len(b[0])]
            if not ends:
                return
            cut = min(ends)
            taken = []
            for i, buffer in enumerate(buffers):
                n = _count_through(buffer, *cut)
                taken.append(tuple(column[:n] for column in buffer))
                buffers[i] = tuple(column[n:] for column in buffer)
            yield fold_columns(taken)


def merge_runs(paths):
    """:func:`merge_blocks` record by record: aggregated
    ``(leaf_id, key, count, sum)`` tuples in global sorted order."""
    for block in merge_blocks(paths):
        yield from zip(*(column.tolist() for column in block))
