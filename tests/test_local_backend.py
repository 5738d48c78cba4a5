"""The real multiprocess backend agrees with the oracle."""

import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan, Slowdown, TaskFailure
from repro.core import SumThreshold
from repro.core.buc import BucEngine, buc_iceberg_cube
from repro.core.columnar import (
    CellRun, ColumnarFrame, RunCells, aggregate_cuboid)
from repro.core.naive import naive_iceberg_cube
from repro.core.thresholds import as_threshold
from repro.data import Relation, zipf_relation
from repro.errors import PlanError, WorkerCrashError
from repro.lattice.processing_tree import ProcessingTree, binary_divide
from repro.parallel import local, shm
from repro.parallel.local import (
    TASKS_PER_WORKER,
    _batched,
    _init_worker,
    _run_task,
    multiprocess_iceberg_cube,
    multiprocess_leaf_cells,
)
from repro.parallel.shm import DEV_SHM

#: The names the pool's one kernel answers to in ``buc_iceberg_cube``.
KERNEL_NAMES = ["auto", "numpy"]


class TestMultiprocessCube:
    @pytest.mark.parametrize("minsup", [1, 2, 5])
    def test_single_worker_matches_naive(self, small_skewed, minsup):
        expected = naive_iceberg_cube(small_skewed, minsup=minsup)
        got = multiprocess_iceberg_cube(small_skewed, minsup=minsup, workers=1)
        assert got.equals(expected), got.diff(expected)

    def test_pool_matches_naive(self, small_skewed):
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        assert got.equals(expected), got.diff(expected)

    def test_sum_threshold(self, small_skewed):
        threshold = SumThreshold(30.0)
        expected = naive_iceberg_cube(small_skewed, minsup=threshold)
        got = multiprocess_iceberg_cube(small_skewed, minsup=threshold, workers=2)
        assert got.equals(expected)

    def test_sales_example(self, sales):
        expected = naive_iceberg_cube(sales, minsup=2)
        got = multiprocess_iceberg_cube(sales, minsup=2, workers=2)
        assert got.equals(expected)

    def test_empty_relation(self):
        rel = Relation(("A", "B"), [])
        got = multiprocess_iceberg_cube(rel, workers=1)
        assert got.total_cells() == 0

    def test_validation(self, small_uniform):
        with pytest.raises(PlanError):
            multiprocess_iceberg_cube(small_uniform, workers=0)
        with pytest.raises(PlanError):
            multiprocess_iceberg_cube(small_uniform, dims=())
        bad = Relation(("A",), [(0,)], [-1.0])
        with pytest.raises(PlanError):
            multiprocess_iceberg_cube(bad, minsup=SumThreshold(1.0))

    def test_dims_subset(self, small_uniform):
        expected = naive_iceberg_cube(small_uniform, dims=("A", "C"), minsup=2)
        got = multiprocess_iceberg_cube(small_uniform, dims=("A", "C"),
                                        minsup=2, workers=2)
        assert got.equals(expected)


class TestKernelAndBatching:
    """The pool's kernel and its worker count all reach the same cells,
    and the pool deals one job per subtree task, largest first."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_forced_kernel_matches_naive(self, small_skewed, kernel):
        # The pool has one kernel; sequential BUC forced onto it by
        # either of its names agrees with the pool and with naive.
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        sequential, _, _ = buc_iceberg_cube(small_skewed, minsup=2,
                                            kernel=kernel, breadth_first=True)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        assert got.equals(expected), got.diff(expected)
        assert sequential.equals(expected), sequential.diff(expected)

    def test_unknown_kernel_is_a_plan_error(self, small_skewed):
        with pytest.raises(PlanError):
            buc_iceberg_cube(small_skewed, kernel="fortran")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_one_job_per_task_largest_first_none_in_the_parent(
            self, monkeypatch, workers):
        # Seen from outside: what the cube hands the supervisor, and
        # which process runs BUC.  Every subtree task is one job, jobs
        # go in non-increasing node count, and the parent computes no
        # task itself.  Two workers divide the tree into 16 equal
        # tasks; three divide it into 24 of two sizes, which dispatch
        # reorders.
        rel = zipf_relation(600, [6, 5, 4, 4, 3, 3], skew=1.0, seed=5)
        dispatched, parent_tasks, pid = [], [], os.getpid()
        real_map, real_run_task = local.supervised_map, BucEngine.run_task

        def recording_map(jobs, workers, task_fn, initializer, initargs,
                          **kwargs):
            dispatched.append((list(jobs), initargs[3]))
            return real_map(jobs, workers, task_fn, initializer, initargs,
                            **kwargs)

        def recording_run_task(engine, task, *args, **kwargs):
            if os.getpid() == pid:
                parent_tasks.append(task)
            return real_run_task(engine, task, *args, **kwargs)

        monkeypatch.setattr(local, "supervised_map", recording_map)
        monkeypatch.setattr(BucEngine, "run_task", recording_run_task)
        got = multiprocess_iceberg_cube(rel, minsup=2, workers=workers)
        assert got.equals(naive_iceberg_cube(rel, minsup=2))
        assert parent_tasks == []
        tree = ProcessingTree(rel.dims)
        want = binary_divide(tree, workers * TASKS_PER_WORKER)
        [(jobs, tasks)] = dispatched
        assert tasks == want
        assert sorted(jobs) == list(range(len(want)))
        sizes = [tasks[index].size(tree) for index in jobs]
        assert sizes == sorted(sizes, reverse=True)
        assert (jobs != sorted(jobs)) == (workers == 3)

    def test_worker_count_does_not_change_cells(self, small_uniform):
        baseline = multiprocess_iceberg_cube(small_uniform, minsup=2,
                                             workers=1)
        for workers in (2, 3):
            got = multiprocess_iceberg_cube(small_uniform, minsup=2,
                                            workers=workers)
            assert got.equals(baseline), got.diff(baseline)


class TestSupervisedChaos:
    """Fault plans SIGKILL and hang REAL worker processes; the
    supervisor detects the damage, respawns the pool, retries the lost
    batches, and the cells still match the oracle exactly."""

    def test_fault_free_run_reports_quiet_recovery_log(self, small_skewed):
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        fault_plan=FaultPlan())
        assert got.recovery is not None
        assert got.recovery.retries == 0
        assert got.recovery.respawns == 0
        assert got.recovery.worker_crashes == 0
        assert got.recovery.stalls == 0

    def test_sigkilled_worker_is_recovered(self, small_skewed):
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        plan = FaultPlan(failures=[TaskFailure(0, 0)], backoff_s=0.01)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        fault_plan=plan)
        assert got.equals(expected), got.diff(expected)
        assert got.recovery.worker_crashes >= 1
        assert got.recovery.respawns >= 1
        assert got.recovery.retries >= 1

    def test_two_crashes_and_a_hang_still_oracle_exact(self, small_skewed):
        # The acceptance scenario: kill two batches' workers AND hang a
        # third past the batch timeout, all in one run.
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        plan = FaultPlan(failures=[TaskFailure(0, 0), TaskFailure(2, 0)],
                         slowdowns=[Slowdown(1, 4.0)], backoff_s=0.01)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=3,
                                        fault_plan=plan, batch_timeout=1.0)
        assert got.equals(expected), got.diff(expected)
        # A crash aborts the round, so the hung batch may be recovered
        # by the respawn before its stall is separately diagnosed; either
        # way every lost batch was retried.
        assert got.recovery.worker_crashes >= 1
        assert got.recovery.respawns >= 1
        assert got.recovery.retries >= 2

    def test_hung_worker_is_detected_as_a_stall(self, small_skewed):
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        plan = FaultPlan(slowdowns=[Slowdown(1, 4.0)], backoff_s=0.01)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        fault_plan=plan, batch_timeout=1.0)
        assert got.equals(expected), got.diff(expected)
        assert got.recovery.stalls >= 1
        assert got.recovery.respawns >= 1

    def test_retry_budget_exhaustion_raises_worker_crash_error(
            self, small_uniform):
        plan = FaultPlan(failure_rate=1.0, max_retries=1, backoff_s=0.01)
        with pytest.raises(WorkerCrashError) as exc_info:
            multiprocess_iceberg_cube(small_uniform, workers=2,
                                      fault_plan=plan)
        assert exc_info.value.attempts > 1
        assert "retry budget" in str(exc_info.value)

    def test_repeated_crashes_of_same_batch_respect_backoff_cap(
            self, small_uniform):
        plan = FaultPlan(failures=[TaskFailure(0, 0), TaskFailure(0, 1)],
                         max_retries=3, backoff_s=0.01)
        expected = naive_iceberg_cube(small_uniform, minsup=2)
        got = multiprocess_iceberg_cube(small_uniform, minsup=2, workers=2,
                                        fault_plan=plan)
        assert got.equals(expected)
        assert got.recovery.retries >= 2
        assert got.recovery.backoff_seconds > 0.0

    def test_fault_path_equals_fault_free_path_cell_for_cell(
            self, small_skewed):
        clean = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        plan = FaultPlan(failures=[TaskFailure(1, 0)], backoff_s=0.01)
        faulted = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                            fault_plan=plan)
        assert faulted.equals(clean), faulted.diff(clean)


class _RefuseSecondCreate:
    """``multiprocessing.shared_memory`` with a full ``/dev/shm`` on
    the second segment a process creates."""

    def __init__(self, real):
        self.real = real
        self.creates = 0

    def SharedMemory(self, name=None, create=False, size=0):
        if create:
            self.creates += 1
            if self.creates == 2:
                raise OSError(28, "No space left on device")
        return self.real.SharedMemory(name=name, create=create, size=size)


def _overflow_relation():
    """60 rows whose cardinalities blow the 63-bit packed-key budget."""
    rows = [(2 ** 40 + i % 3, i % 5, 2 ** 35 * (i % 4)) for i in range(60)]
    return Relation(("A", "B", "C"), rows, [float(i % 7) for i in range(60)])


def _rsm_segments():
    """Names of repro shared-memory segments currently in /dev/shm."""
    if not os.path.isdir(DEV_SHM):
        return set()
    return {entry for entry in os.listdir(DEV_SHM)
            if entry.startswith("rsm-")}


class TestDataPlane:
    """The shared-memory transport, one job per task and the
    observed pipe fallback all produce exactly the oracle's cells — and
    leak no segments, even when a writer is SIGKILLed mid-write."""

    def test_one_task_per_job_matches_naive(self, small_skewed):
        # Every subtree task rides its own job and ships its own result
        # segment; the parent merges them into the oracle's cells.
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("trouble", ["missing", "refused"])
    def test_observed_fallback_matches_naive(self, small_skewed, trouble,
                                             monkeypatch):
        # No flag selects the pipe: it is what a payload rides when its
        # segment cannot be had.  "missing": the platform has no
        # multiprocessing.shared_memory.  "refused": the second create
        # of every process fails with ENOSPC — the frame still ships by
        # segment, each forked worker's first result (its own second
        # create: the count is inherited) falls back, later ones do not.
        if trouble == "missing":
            monkeypatch.setattr(shm, "_shared_memory", None)
        else:
            monkeypatch.setattr(shm, "_shared_memory",
                                _RefuseSecondCreate(shm._shared_memory))
        before = _rsm_segments()
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        assert got.equals(expected), got.diff(expected)
        leaves = [("A", "B"), ("B", "C"), ("C", "D"), ("A",)]
        inline = multiprocess_leaf_cells(small_skewed, leaves, workers=1)
        pooled = multiprocess_leaf_cells(small_skewed, leaves, workers=2)
        assert all(pooled[leaf].encode() == inline[leaf].encode()
                   for leaf in leaves)
        assert _rsm_segments() == before

    def test_tuple_key_overflow_relation_matches_naive(self):
        # Cardinalities past the 63-bit packed-key budget: the frame
        # carries packing=None, and results ride the same code-matrix
        # segments as any other relation's.
        rel = _overflow_relation()
        assert ColumnarFrame.from_relation(rel, rel.dims).packing is None
        expected = naive_iceberg_cube(rel, minsup=2)
        got = multiprocess_iceberg_cube(rel, minsup=2, workers=2)
        assert got.equals(expected), got.diff(expected)

    def test_no_segments_leak_after_a_clean_run(self, small_skewed):
        before = _rsm_segments()
        multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        assert _rsm_segments() == before

    def test_chaos_sigkill_mid_segment_write_sweeps_the_leak(
            self, small_skewed, monkeypatch, tmp_path):
        # The worker that creates job 0's result segment SIGKILLs
        # itself right after, once (the flag file outlives it; forked
        # workers inherit the patch).  The supervisor must respawn,
        # sweep the orphaned segment, re-run the job, and still hand
        # back the oracle's cells.
        create, flag = shm.ShmTransport.create, tmp_path / "killed"

        def create_then_die(transport, nbytes, tag="seg"):
            segment = create(transport, nbytes, tag)
            if tag == "b0" and not flag.exists():
                flag.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return segment

        monkeypatch.setattr(shm.ShmTransport, "create", create_then_die)
        before = _rsm_segments()
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        backoff_s=0.01)
        assert got.equals(expected), got.diff(expected)
        assert got.recovery.worker_crashes >= 1
        assert got.recovery.respawns >= 1
        assert got.recovery.segments_swept >= 1
        assert _rsm_segments() == before

    def test_leaf_cells_match_inline_aggregation(self, small_uniform):
        leaves = [("A", "B"), ("B", "C"), ("C", "D"), ("A",)]
        frame = ColumnarFrame.from_relation(small_uniform,
                                            small_uniform.dims)
        expected = {leaf: aggregate_cuboid(frame, leaf) for leaf in leaves}
        pooled = multiprocess_leaf_cells(small_uniform, leaves, workers=2)
        inline = multiprocess_leaf_cells(small_uniform, leaves, workers=1)
        for built in (pooled, inline):
            assert {leaf: run.cells() for leaf, run in built.items()} \
                == expected
        assert all(pooled[leaf].encode() == inline[leaf].encode()
                   for leaf in leaves)
        assert _rsm_segments() == set()

    def test_batched_yields_lazy_index_ranges(self):
        gen = _batched(7, 3)
        assert iter(gen) is gen  # a generator: nothing materialized
        assert list(gen) == [(0, 3), (3, 6), (6, 7)]
        assert list(_batched(0, 4)) == []
        assert list(_batched(2, 10)) == [(0, 2)]


@pytest.fixture
def tuples_built(monkeypatch):
    """Cell counts of every ``CellRun.cells`` call in this process (the
    one place a run's cells become tuples); a call in a pool worker
    fails its batch."""
    calls, cells, pid = [], CellRun.cells, os.getpid()

    def counting(run):
        assert os.getpid() == pid, "a pool worker built cell tuples"
        built = cells(run)
        calls.append(len(built))
        return built

    monkeypatch.setattr(CellRun, "cells", counting)
    return calls


class TestColumnarResult:
    """The pool's cube stays columns until a caller reads a cuboid: a
    result holds read-only ``RunCells`` views over the shipped columns,
    and still takes writes by copying a view first."""

    @pytest.mark.parametrize("relation", ["packed", "overflow", "refused"])
    def test_no_cell_is_a_tuple_until_its_cuboid_is_read(
            self, small_skewed, relation, tuples_built, monkeypatch):
        rel = _overflow_relation() if relation == "overflow" else small_skewed
        if relation == "refused":
            # Each worker's first result rides the pool pipe.
            monkeypatch.setattr(shm, "_shared_memory",
                                _RefuseSecondCreate(shm._shared_memory))
        got = multiprocess_iceberg_cube(rel, minsup=2, workers=2)
        expected = naive_iceberg_cube(rel, minsup=2)
        assert got.total_cells() == expected.total_cells()
        assert tuples_built == []
        cuboid = max(got.cuboids, key=lambda c: len(got.cuboids[c]))
        assert isinstance(got.cuboids[cuboid], RunCells)
        assert dict(got.cuboids[cuboid]) == expected.cuboids[cuboid]
        assert tuples_built == [len(expected.cuboids[cuboid])]
        assert got.equals(expected), got.diff(expected)

    def test_a_pooled_result_still_takes_writes(self, small_skewed):
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2)
        other = multiprocess_iceberg_cube(small_skewed, minsup=3, workers=2)
        want = naive_iceberg_cube(small_skewed, minsup=2)
        want_other = naive_iceberg_cube(small_skewed, minsup=3)
        cuboid = max(want.cuboids, key=lambda c: len(want.cuboids[c]))
        cell = next(iter(want.cuboids[cuboid]))
        fresh = tuple(-1 for _ in cuboid)
        for result in (got, want):
            result.add_cell(cuboid, cell, 1, 0.5)
            result.add_columns(cuboid, [fresh], [2], [1.5])
            result.add_columns(("B",), np.array([[0, 99]]), np.array([1, 1]),
                               np.array([1.0, 1.0]))
            result.merge_from(other if result is got else want_other)
        assert got.equals(want), got.diff(want)
        assert other.equals(want_other), other.diff(want_other)
        assert isinstance(other.cuboids[cuboid], RunCells)

    @settings(max_examples=40, deadline=None)
    @given(n_dims=st.integers(1, 4), n_rows=st.integers(0, 120),
           minsup=st.integers(1, 3), data=st.data())
    def test_shipped_blocks_are_strictly_increasing(self, n_dims, n_rows,
                                                    minsup, data):
        # What lets the parent keep each block as a run without a fold;
        # up to 120 rows take both the vector and the small-range paths.
        dims = ("A", "B", "C", "D")[:n_dims]
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * n_dims),
                                  min_size=n_rows, max_size=n_rows))
        rel = Relation(dims, rows, [1.0] * len(rows))
        frame = ColumnarFrame.from_relation(rel, dims)
        tasks = binary_divide(ProcessingTree(dims), 4)
        _init_worker(("direct", frame), as_threshold(minsup), tasks=tasks)
        for i in range(len(tasks)):
            _bid, (tag, blocks) = _run_task((i, 0, i, None))
            assert tag == "items"
            for cuboid, view in blocks:
                codes = view.run.codes
                assert codes.shape == (len(cuboid), len(view))
                cells = list(zip(*codes.tolist()))
                assert all(a < b for a, b in zip(cells, cells[1:]))


@st.composite
def tiny_relations(draw):
    n_dims = draw(st.integers(1, 3))
    cards = [draw(st.integers(1, 4)) for _ in range(n_dims)]
    n_rows = draw(st.integers(0, 25))
    dims = tuple("ABC"[:n_dims])
    rows = [tuple(draw(st.integers(0, c - 1)) for c in cards)
            for _ in range(n_rows)]
    measures = [float(draw(st.integers(0, 9))) for _ in range(n_rows)]
    return Relation(dims, rows, measures)


class TestPropertyIdentity:
    """Property-based: the pool stays cell-identical to sequential BUC
    with the seed python kernel on arbitrary small relations."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @settings(max_examples=5, deadline=None)
    @given(relation=tiny_relations(), minsup=st.integers(1, 3))
    def test_pool_matches_buc_python(self, kernel, relation, minsup):
        expected, _stats, _writer = buc_iceberg_cube(relation, minsup=minsup)
        sequential, _stats, _writer = buc_iceberg_cube(
            relation, minsup=minsup, kernel=kernel, breadth_first=True)
        got = multiprocess_iceberg_cube(relation, minsup=minsup, workers=2)
        assert got.equals(expected), got.diff(expected)
        assert sequential.equals(expected), sequential.diff(expected)
