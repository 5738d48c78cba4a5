"""The real multiprocess backend agrees with the oracle."""

import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan, Slowdown, TaskFailure
from repro.core import SumThreshold
from repro.core.buc import buc_iceberg_cube
from repro.core.columnar import ColumnarFrame, aggregate_cuboid
from repro.core.naive import naive_iceberg_cube
from repro.data import Relation
from repro.errors import PlanError, WorkerCrashError
from repro.parallel.local import (
    _batched,
    multiprocess_iceberg_cube,
    multiprocess_leaf_cells,
)
from repro.parallel import shm
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
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        batch_size=3)
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
    """The pool's kernel and the scheduling knobs all reach the same
    cells."""

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

    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_batch_size_does_not_change_cells(self, small_skewed, batch_size):
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        batch_size=batch_size)
        assert got.equals(expected), got.diff(expected)

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
                                        batch_size=2, fault_plan=plan,
                                        batch_timeout=1.0)
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
                                        batch_size=2, fault_plan=plan,
                                        batch_timeout=1.0)
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


def _rsm_segments():
    """Names of repro shared-memory segments currently in /dev/shm."""
    if not os.path.isdir(DEV_SHM):
        return set()
    return {entry for entry in os.listdir(DEV_SHM)
            if entry.startswith("rsm-")}


class TestDataPlane:
    """The shared-memory transport, auto-calibrated batching and the
    observed pipe fallback all produce exactly the oracle's cells — and
    leak no segments, even when a writer is SIGKILLed mid-write."""

    def test_auto_calibrated_batching_matches_naive(self, small_skewed):
        # batch_size=None (the default): a calibration pass times the
        # tail tasks in-process, then packs cost-balanced batches.
        expected = naive_iceberg_cube(small_skewed, minsup=2)
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        batch_size=None)
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
        got = multiprocess_iceberg_cube(small_skewed, minsup=2, workers=2,
                                        batch_size=1)
        assert got.equals(expected), got.diff(expected)
        leaves = [("A", "B"), ("B", "C"), ("C", "D"), ("A",)]
        inline = multiprocess_leaf_cells(small_skewed, leaves, workers=1)
        pooled = multiprocess_leaf_cells(small_skewed, leaves, workers=2,
                                         batch_size=1)
        assert all(pooled[leaf].encode() == inline[leaf].encode()
                   for leaf in leaves)
        assert _rsm_segments() == before

    def test_tuple_key_overflow_relation_matches_naive(self):
        # Cardinalities past the 63-bit packed-key budget: the frame
        # carries packing=None and results ride the one-int64-per-
        # coordinate fallback encoding.
        rows = [(2 ** 40 + i % 3, i % 5, 2 ** 35 * (i % 4))
                for i in range(60)]
        rel = Relation(("A", "B", "C"), rows,
                       [float(i % 7) for i in range(60)])
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
        # The worker that creates batch 0's result segment SIGKILLs
        # itself right after, once (the flag file outlives it; forked
        # workers inherit the patch).  The supervisor must respawn,
        # sweep the orphaned segment, re-run the batch, and still hand
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
                                        batch_size=3, backoff_s=0.01)
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
        pooled = multiprocess_leaf_cells(small_uniform, leaves, workers=2,
                                         batch_size=1)
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
