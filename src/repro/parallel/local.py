"""Real multi-process cube computation (not simulated), supervised.

The simulated cluster reproduces the *paper's* measurements; this
module is for users who just want their cube faster on a multi-core
machine.  It parallelizes the way PT does — the BUC processing tree is
binary-divided into many subtree tasks (Section 3.4), dealt to a
process pool one task per job, largest first — and each worker runs real
BUC over the task's subtree: threshold pruning cuts work exactly as in
the sequential algorithm, and a per-worker :class:`PrefixCache` shares
root-prefix sorts between consecutive tasks (PT's affinity idea, here
as a cache because the pool, not us, picks who runs what).

**Data plane.**  Both directions of worker traffic run over shared
memory (:mod:`repro.parallel.shm`), not pickled Python objects — the one
transport; a segment the operating system refuses (an ``OSError`` at
creation, which is also what a platform without
``multiprocessing.shared_memory`` reads as) sends that one payload over
the pool pipe instead, as the inline single-worker path always does:

* *Input*: the :class:`~repro.core.columnar.ColumnarFrame` is written
  once into a run-scoped segment; workers map it read-only and build
  their kernels over zero-copy views.  Forked workers used to get this
  for free from copy-on-write, but spawn platforms re-pickled the frame
  per worker per pool respawn — now every platform ships one copy.
* *Results*: the numpy kernel hands every breadth-first cuboid block
  over as a sorted code matrix with its counts and sums; a worker keeps
  each as a :class:`~repro.core.columnar.CellRun`, writes a task's
  blocks into a fresh segment as raw columns
  (:func:`~repro.parallel.shm.encode_result`, one mode whatever the
  cardinalities) and returns only a ``(kind, name, nbytes)``
  descriptor.  The parent attaches, copies the segment once, unlinks,
  and stores each cuboid as a read-only
  :class:`~repro.core.columnar.RunCells` view over that copy — no fold
  (a breadth-first block is already sorted and distinct) and no cell
  tuple until a caller reads the cuboid.  Decoding overlaps the
  workers' remaining compute instead of serializing after it.  Leaf
  batches (:func:`multiprocess_leaf_cells`) ship each leaf as its
  encoded :class:`~repro.core.columnar.CellRun`: columns in, columns
  out, no cell tuple on either side of the segment.

**Scheduling.**  Every subtree task is one job, and jobs enter the
pool's shared call queue largest first (non-increasing
``task.size(tree)``, the task's node count; ties keep division order).
The queue is demand-driven: an idle worker pulls the next job the
moment it finishes, so the big subtrees start at once and the small
ones back-fill whichever worker frees up last — longest-processing-time
list scheduling with the node count as its only cost estimate; the
parent computes no task (why no timing probe: DESIGN §6.12).

**Supervision.**  Real workers die (OOM killer, segfaulting C
extensions, an operator's stray ``kill -9``) and hang (NFS stalls, a
deadlocked import).  The dispatch loop is therefore a supervisor, not a
bare ``Pool.map``: every batch is tracked individually, a worker death
(``BrokenProcessPool``) or a stall longer than ``batch_timeout``
seconds tears the pool down, respawns it, and retries only the
unfinished batches — with full-jitter capped exponential backoff
(uniform in [0, cap], seeded by the fault plan) and a per-batch
retry budget whose exhaustion raises
:class:`~repro.errors.WorkerCrashError`.  Each respawn also sweeps the
run's shared-memory prefix: a worker SIGKILLed mid-write leaks its
half-written segment (its descriptor died with it), and the sweep
reclaims it before the batch re-executes.  Faults come from outside:
a seedable :class:`~repro.cluster.faults.FaultPlan` passed as
``fault_plan`` SIGKILLs and hangs *real* worker processes
(:meth:`~repro.cluster.faults.FaultPlan.local_fault`), the tests patch
the transport to kill one that has just created a segment, and the
fault-free path produces exactly the cells it always did.

Results are exactly the library's usual cells and are validated against
the naive oracle in the test suite.  This backend intentionally has no
timing model: wall-clock here is your machine's, not the thesis'.
"""

import os
import random
import signal
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context

from .. import obs
from ..core.buc import BucEngine, PrefixCache
from ..core.columnar import (
    CellRun, ColumnarFrame, NumpyKernel, RunCells, decode_runs,
    encode_runs, leaf_run)
from ..core.result import CubeResult
from ..core.thresholds import as_threshold, validate_measures
from ..errors import PlanError, WorkerCrashError
from ..lattice.processing_tree import ProcessingTree, binary_divide
from .shm import ShmTransport, decode_result, encode_result

#: Tasks per worker requested from binary division: each one pool job
#: here, and one copy of every row in the MapReduce cube's shuffle
#: (:func:`repro.mr.planner.cube_tasks`).  Every extra task re-refines
#: part of its root path.  At 2 workers on 2 cores (medians of 9
#: interleaved cubes, two sets) 8 and 16 read within noise on a 4 000-row
#: d = 10 pool cube (0.15-0.16 s vs 0.16-0.17 s at minsup 5) and on the
#: 1 000-row MapReduce cube (0.078-0.083 s vs 0.085-0.092 s); 4 read
#: 0.14 s and 0.075-0.081 s.  Wider pools were not measured.
TASKS_PER_WORKER = 8

#: Default per-batch stall window: if no batch completes for this many
#: seconds, the outstanding ones are declared hung and retried on a
#: fresh pool.  Generous — a legitimate batch is seconds, not minutes.
DEFAULT_BATCH_TIMEOUT = 300.0

#: Default per-batch retry budget when no fault plan supplies one.
DEFAULT_MAX_RETRIES = 3

#: Real-seconds ceiling on one exponential-backoff sleep.
BACKOFF_CAP_S = 2.0

#: How long an injected "hang" fault sleeps — far past any sane batch
#: timeout, so the stall detector (not luck) has to recover it.
_HANG_SECONDS = 3600.0

#: Leaf batches per worker in a store build
#: (:func:`multiprocess_leaf_cells`): consecutive leaves are grouped so
#: a 512-leaf build ships a few segments per worker, not one per leaf.
BATCHES_PER_WORKER = 4

# Worker-process state, set once by the pool initializer.
_STATE = None


class _WorkerState:
    """Per-process state, reused for every batch this worker runs."""

    def __init__(self, frame_ship, threshold, fault_plan=None, tasks=(),
                 transport=None, mode="cube"):
        self.frame_segment = None
        if frame_ship[0] == "segment":
            _tag, meta, descriptor = frame_ship
            self.frame_segment = transport.attach(descriptor)
            frame = ColumnarFrame.from_buffers(meta, self.frame_segment.buf)
        else:
            frame = frame_ship[1]
        self.frame = frame
        self.dims = frame.dims
        self.threshold = threshold
        self.tasks = tasks
        self.transport = transport
        self.fault_plan = fault_plan
        self.engine = None
        self.cache = None
        if mode == "cube":
            self.engine = BucEngine(None, frame.dims, threshold, writer=None,
                                    kernel=NumpyKernel(frame))
            self.cache = PrefixCache()


class _Blocks(list):
    """The pool's BUC writer: every cuboid block a batch writes, as
    ``(cuboid, RunCells)`` items over the kernel's own columns (a
    breadth-first block is sorted and distinct, so nothing is folded)."""

    def write_columns(self, cuboid, codes, counts, sums):
        if len(counts):
            self.append((cuboid, RunCells(CellRun(cuboid, codes, counts,
                                                  sums))))


def _init_worker(frame_ship, threshold, fault_plan=None, tasks=(),
                 transport=None, mode="cube"):
    global _STATE
    _STATE = _WorkerState(frame_ship, threshold, fault_plan, tasks,
                          transport, mode)


def _inject_fault(state, batch_id, attempt):
    plan = state.fault_plan
    if plan is None:
        return
    action = plan.local_fault(batch_id, attempt)
    if action == "kill":
        # A real, uncatchable death — exactly what a segfault or the
        # OOM killer looks like from the supervisor's side.
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "hang":
        time.sleep(_HANG_SECONDS)


def _ship_result(state, batch_id, items, encode, n_cells):
    """Send one job's results back: segment descriptor or inline.

    With a transport, ``encode(items)`` (bytes) is written into a fresh
    shared-memory segment and only ``("seg", descriptor, n_cells)``
    crosses the pipe; without one (the inline path), or when the segment
    cannot be created, the items ride the pipe as ``("items", items)``.
    ``items`` is a list of ``(cuboid, RunCells)`` pairs (a cube task)
    or of :class:`CellRun` (a leaf batch).
    """
    if state.transport is None:
        return ("items", items)
    payload = encode(items)
    try:
        segment = state.transport.create(len(payload), tag="b%d" % batch_id)
    except OSError:
        return ("items", items)
    if payload:
        segment.buf[:len(payload)] = payload
    descriptor = segment.descriptor
    segment.close()
    return ("seg", descriptor, n_cells)


def _run_task(job):
    """Run one subtree task; returns ``(job_id, shipped)``.

    ``job`` is ``(job_id, attempt, index, traceparent)`` where ``index``
    picks the task out of the list shipped once at pool init; the id and
    attempt feed the fault injector so kills and hangs are deterministic
    per plan, and ``traceparent`` (or ``None``) carries the submitting
    run's trace context across the pool pipe.
    """
    job_id, attempt, index, traceparent = job
    state = _STATE
    _inject_fault(state, job_id, attempt)
    with obs.activate(traceparent):
        blocks = state.engine.writer = _Blocks()
        state.engine.run_task(state.tasks[index], breadth_first=True,
                              cache=state.cache)
        dims = state.dims
        return job_id, _ship_result(
            state, job_id, blocks,
            lambda items: encode_result(items, dims),
            sum(len(cells) for _cuboid, cells in blocks))


def _run_leaf_batch(job):
    """Aggregate one batch of leaf cuboids (minsup-1 store precompute)."""
    batch_id, attempt, (lo, hi), traceparent = job
    state = _STATE
    _inject_fault(state, batch_id, attempt)
    with obs.activate(traceparent):
        runs = [leaf_run(state.frame, leaf) for leaf in state.tasks[lo:hi]]
        return batch_id, _ship_result(state, batch_id, runs, encode_runs,
                                      sum(map(len, runs)))


def _batched(n_tasks, size):
    """Yield consecutive ``(lo, hi)`` index ranges of ``size`` items.

    Lazy on purpose: no sliced task lists are materialized up front —
    workers slice their own range out of the task list they already
    hold, and the ranges themselves are two ints each.
    """
    for lo in range(0, n_tasks, size):
        yield (lo, min(lo + size, n_tasks))


class SupervisorLog:
    """Recovery telemetry of one supervised local run.

    Attached to the returned :class:`CubeResult` as ``.recovery`` so the
    CLI (and tests) can report what the supervisor had to do.
    """

    __slots__ = ("retries", "respawns", "worker_crashes", "stalls",
                 "backoff_seconds", "segments_swept")

    def __init__(self):
        #: batch re-executions (any cause)
        self.retries = 0
        #: pool teardown + rebuild cycles
        self.respawns = 0
        #: rounds lost to a dead worker (BrokenProcessPool)
        self.worker_crashes = 0
        #: rounds lost to the stall detector (hung worker)
        self.stalls = 0
        #: real seconds slept in retry backoffs
        self.backoff_seconds = 0.0
        #: orphaned shared-memory segments reclaimed by respawn sweeps
        self.segments_swept = 0

    def __repr__(self):
        return ("SupervisorLog(retries=%d, respawns=%d, crashes=%d, "
                "stalls=%d, swept=%d)" % (self.retries, self.respawns,
                                          self.worker_crashes, self.stalls,
                                          self.segments_swept))


def _pool_context():
    # Prefer fork (cheap spawn; the input segment maps either way); fall
    # back to spawn, where initargs carry only the segment descriptor.
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context("spawn")


def _abandon_pool(executor):
    """Tear down a broken or stalled pool without waiting on hung workers.

    A worker asleep in an injected hang (or a real NFS stall) never
    drains the call queue, so it must be reaped directly — otherwise the
    executor's management thread (and the interpreter's atexit hook)
    would join it forever.  ``_processes`` is the executor's
    pid -> Process map; it must be captured *before* ``shutdown``, which
    drops the reference even with ``wait=False``.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover - already dead
            pass
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=5.0)


class SupervisedPool:
    """A supervised process pool that serves several maps.

    The generic supervisor behind both the local cube backend and the
    MapReduce engine (:mod:`repro.mr`, whose two phases share one
    pool).  ``initializer(*initargs)`` sets up per-worker state once per
    process; workers are forked on the first :meth:`map`, one per job up
    to ``workers``, and kept until :meth:`close` (or the ``with``
    block's end), unless a crash or stall tears them down.  A later map
    with more jobs than the live pool has workers (and fewer than
    ``workers``) gets a wider pool in its place, so no map runs on
    fewer processes than it would have on a pool of its own.
    ``workers == 1`` without a fault plan runs every job inline, in
    this process, with no supervision.

    A pool whose worker dies (``BrokenProcessPool``) or that completes
    nothing for ``batch_timeout`` seconds is torn down and respawned;
    the unfinished jobs are retried with full-jitter capped exponential
    backoff.  A job that fails more than ``max_retries`` times raises
    :class:`~repro.errors.WorkerCrashError`.
    """

    def __init__(self, workers, initializer, initargs, fault_plan=None,
                 batch_timeout=None, max_retries=None, backoff_s=0.05):
        if batch_timeout is None:
            batch_timeout = DEFAULT_BATCH_TIMEOUT
        if max_retries is None:
            max_retries = (fault_plan.max_retries if fault_plan is not None
                           else DEFAULT_MAX_RETRIES)
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.fault_plan = fault_plan
        self.batch_timeout = batch_timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.inline = workers == 1 and fault_plan is None
        self._initialized = False
        self._executor = None
        self._size = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        """Shut the workers down (waiting for them); idempotent."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _abandon(self):
        _abandon_pool(self._executor)
        self._executor = None

    def map(self, jobs, task_fn, log=None, name="local", on_result=None,
            on_respawn=None):
        """Run every job to completion; returns ``{job_id: result}``.

        ``jobs`` is a list of payloads (ids are their indices) or a
        ``{job_id: payload}`` mapping; ``task_fn`` is a module-level
        function invoked in the worker as ``task_fn((job_id, attempt,
        payload, traceparent))`` and must return ``(job_id, result)``.
        The ``traceparent`` element (a header string or ``None``)
        carries the caller's distributed-trace context across the pool
        pipe — task functions re-activate it so any spans they record
        join the submitting request's trace.

        ``on_result(job_id, raw)`` — when given — transforms each
        completed job's return value the moment its future resolves
        (the stored value is the callback's return).  The local backend
        decodes and merges result segments here, overlapped with the
        workers' remaining compute.  ``on_respawn()`` runs after every
        pool teardown, before the retry round — the hook where the
        shared-memory sweep reclaims segments of SIGKILLed writers.
        Recovery telemetry goes to ``log`` (a :class:`SupervisorLog`);
        ``name`` prefixes the obs spans/counters (``<name>.batch``,
        ``repro_<name>_batches_total``, ...) so each consumer's
        telemetry stays distinct.
        """
        if log is None:
            log = SupervisorLog()
        pending = (dict(jobs) if isinstance(jobs, dict)
                   else dict(enumerate(jobs)))
        # The caller's trace position, captured once: every job ships it
        # over the pool pipe, and every <name>.batch span links to it.
        ctx = obs.context()
        traceparent = obs.inject()
        if self.inline:
            # No fault injection means no supervision is needed, so skip
            # the pool and run in-process.
            if not self._initialized:
                self.initializer(*self.initargs)
                self._initialized = True
            out = {}
            for bid, payload in sorted(pending.items()):
                raw = task_fn((bid, 0, payload, traceparent))[1]
                out[bid] = (on_result(bid, raw) if on_result is not None
                            else raw)
            return out
        attempts = dict.fromkeys(pending, 0)
        results = {}
        active = obs.current()
        # Full-jitter backoff: sleeping uniform(0, capped-exponential) keeps
        # respawning supervisors from synchronizing into retry thundering
        # herds.  Seeded from the fault plan so injected-fault runs stay
        # reproducible; unseeded (wall-entropy) otherwise.
        jitter = random.Random(self.fault_plan.seed
                               if self.fault_plan is not None else None)
        while pending:
            size = min(self.workers, len(pending))
            if self._executor is not None and self._size < size:
                self.close()
            if self._executor is None:
                self._size = size
                self._executor = ProcessPoolExecutor(
                    max_workers=size,
                    mp_context=_pool_context(),
                    initializer=self.initializer,
                    initargs=self.initargs,
                )
            executor = self._executor
            broken = stalled = False
            try:
                futures = {
                    executor.submit(task_fn, (bid, attempts[bid], payload,
                                              traceparent)): bid
                    for bid, payload in sorted(pending.items())
                }
                round_start = (active.tracer.now() if active is not None
                               else 0.0)
                not_done = set(futures)
                while not_done and not broken:
                    done, not_done = wait(not_done, timeout=self.batch_timeout,
                                          return_when=FIRST_COMPLETED)
                    if not done:
                        # No batch finished inside the window: a worker is
                        # hung.  Everything still outstanding is retried.
                        stalled = True
                        break
                    for future in done:
                        bid = futures[future]
                        try:
                            _bid, items = future.result()
                        except BrokenProcessPool:
                            broken = True
                            continue
                        if on_result is not None:
                            items = on_result(bid, items)
                        results[bid] = items
                        del pending[bid]
                        if active is not None:
                            # Dispatch-to-completion on the supervisor's
                            # clock (batches run concurrently in workers).
                            active.tracer.add_span(
                                "%s.batch" % name, round_start,
                                active.tracer.now() - round_start, tid="pool",
                                attrs={"batch": bid, "attempt": attempts[bid]},
                                clock="wall",
                                trace_id=ctx.trace_id if ctx else None,
                                parent_id=ctx.span_id if ctx else None)
                            active.registry.counter(
                                "repro_%s_batches_total" % name,
                                "Supervised pool batches completed.",
                            ).inc()
            except BaseException:
                # A job (or on_result) raised: the queued jobs finish
                # before the error propagates, as they always did.
                if not (broken or stalled):
                    self.close()
                raise
            finally:
                if broken or stalled:
                    self._abandon()
            if not pending:
                break
            # Crash or stall: charge an attempt to every unfinished batch,
            # enforce the budget, back off, respawn and go again.
            log.respawns += 1
            if broken:
                log.worker_crashes += 1
            if stalled:
                log.stalls += 1
            obs.event("%s.respawn" % name,
                      cause="crash" if broken else "stall",
                      unfinished=len(pending))
            if on_respawn is not None:
                # The pool is fully torn down here — no writer is alive —
                # so leaked segments of dead workers can be swept safely.
                on_respawn()
            if active is not None:
                active.registry.counter(
                    "repro_%s_respawns_total" % name,
                    "Pool teardown + respawn cycles.", ("cause",)
                ).inc(cause="crash" if broken else "stall")
            worst = None
            for bid in pending:
                attempts[bid] += 1
                log.retries += 1
                if worst is None or attempts[bid] > attempts[worst]:
                    worst = bid
            if active is not None:
                active.registry.counter(
                    "repro_%s_retries_total" % name,
                    "Batch re-executions after a crash or stall.",
                ).inc(len(pending))
            if attempts[worst] > self.max_retries:
                raise WorkerCrashError(
                    worst, attempts[worst],
                    "worker died or hung on every attempt")
            ceiling = min(BACKOFF_CAP_S,
                          self.backoff_s * 2.0 ** (attempts[worst] - 1))
            pause = jitter.uniform(0.0, ceiling)
            if pause > 0:
                time.sleep(pause)
                log.backoff_seconds += pause
        return results


def supervised_map(jobs, workers, task_fn, initializer, initargs,
                   fault_plan=None, batch_timeout=None, max_retries=None,
                   backoff_s=0.05, log=None, name="local", on_result=None,
                   on_respawn=None):
    """Run every job to completion on a :class:`SupervisedPool` of its
    own (the one-shot form, see :meth:`SupervisedPool.map`)."""
    with SupervisedPool(workers, initializer, initargs,
                        fault_plan=fault_plan, batch_timeout=batch_timeout,
                        max_retries=max_retries,
                        backoff_s=backoff_s) as pool:
        return pool.map(jobs, task_fn, log=log, name=name,
                        on_result=on_result, on_respawn=on_respawn)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def multiprocess_iceberg_cube(relation, dims=None, minsup=1, workers=None,
                              fault_plan=None, batch_timeout=None,
                              max_retries=None, backoff_s=0.05):
    """Compute the iceberg cube with a supervised local process pool.

    ``workers`` defaults to the machine's CPU count (capped at 8).  The
    processing tree is divided into roughly ``TASKS_PER_WORKER`` subtree
    tasks per worker, each one job, dealt largest first through the
    pool's demand-driven queue.  Workers refine with
    :class:`~repro.core.columnar.NumpyKernel`.

    Robustness knobs: a worker death or a stall longer than
    ``batch_timeout`` seconds (default :data:`DEFAULT_BATCH_TIMEOUT`)
    becomes a retry on a respawned pool, each batch at most
    ``max_retries`` times (default: the fault plan's budget, else
    :data:`DEFAULT_MAX_RETRIES`) with full-jitter capped exponential
    backoff from ``backoff_s``.  ``fault_plan`` injects real kills and
    hangs for testing (see
    :meth:`~repro.cluster.faults.FaultPlan.local_fault`); every pool
    respawn sweeps the run's shared-memory segments so SIGKILLed
    writers leak nothing.

    Returns a :class:`~repro.core.result.CubeResult` whose ``.recovery``
    attribute is a :class:`SupervisorLog` (``None`` on the inline
    single-worker path).
    """
    if dims is None:
        dims = relation.dims
    dims = tuple(dims)
    if not dims:
        raise PlanError("need at least one cube dimension")
    threshold = as_threshold(minsup)
    validate_measures(threshold, relation)
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers < 1:
        raise PlanError("workers must be >= 1, got %r" % (workers,))
    if batch_timeout is None:
        batch_timeout = DEFAULT_BATCH_TIMEOUT
    if batch_timeout <= 0:
        raise PlanError("batch_timeout must be > 0, got %r" % (batch_timeout,))
    if max_retries is None:
        max_retries = (fault_plan.max_retries if fault_plan is not None
                       else DEFAULT_MAX_RETRIES)
    if max_retries < 0:
        raise PlanError("max_retries must be >= 0, got %r" % (max_retries,))

    with obs.span("local.cube") as span:
        if span:
            span.set(rows=len(relation), dims=len(dims), workers=workers)
        frame = ColumnarFrame.from_relation(relation, dims)
        tree = ProcessingTree(dims)
        result = CubeResult(dims)
        result.recovery = None

        def merge(items):
            _merge_items(result, items)

        if workers == 1 and fault_plan is None:
            # Inline: sequential BUC over the columnar kernel, no pool,
            # no transport.
            _init_worker(("direct", frame), threshold,
                         tasks=binary_divide(tree, 1))
            _, shipped = _run_task((0, 0, 0, obs.inject()))
            merge(shipped[1])
        else:
            tasks = binary_divide(tree, workers * TASKS_PER_WORKER)
            log = SupervisorLog()
            result.recovery = log
            _pooled_cube(frame, tree, tasks, threshold, workers, fault_plan,
                         batch_timeout, max_retries, backoff_s, log, merge)
            if span:
                span.set(retries=log.retries, respawns=log.respawns,
                         crashes=log.worker_crashes, stalls=log.stalls,
                         swept=log.segments_swept)

        count = frame.n_rows
        total = sum(frame.measures)
        if threshold.qualifies(count, total):
            result.add_cell((), (), count, total)
        if span:
            span.set(cells=result.total_cells())
        return result


def _pooled_cube(frame, tree, tasks, threshold, workers, fault_plan,
                 batch_timeout, max_retries, backoff_s, log, merge):
    """The pool side of :func:`multiprocess_iceberg_cube`: ship the
    frame, deal one job per task, decode-and-merge, clean up."""
    # Job j runs task order[j], and the pool submits jobs in id order:
    # largest subtree first, ties in division order.
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i].size(tree))
    transport, frame_ship, frame_segment = _open_transport(frame)
    try:
        initargs = (frame_ship, threshold, fault_plan, tasks, transport,
                    "cube")
        supervised_map(
            order, workers, _run_task, _init_worker, initargs,
            fault_plan=fault_plan, batch_timeout=batch_timeout,
            max_retries=max_retries, backoff_s=backoff_s, log=log,
            on_result=_make_decoder(
                transport, merge, lambda buf: decode_result(buf, frame.dims)),
            on_respawn=_make_sweeper(transport, frame_segment, log),
        )
    finally:
        _close_transport(transport, frame_segment, log)


def _open_transport(frame):
    """Set up the run's data plane.

    Returns ``(transport, frame_ship, frame_segment)``.  The frame ships
    as ``("direct", frame)`` over the pool's own fork/pickle, with no
    segment, when it is empty (nothing worth a segment) or its segment
    cannot be created.
    """
    transport = ShmTransport(uuid.uuid4().hex[:12])
    frame_segment = None
    frame_ship = ("direct", frame)
    nbytes = frame.buffer_nbytes()
    if nbytes:
        try:
            frame_segment = transport.create(nbytes, tag="frame")
        except OSError:
            nbytes = 0  # nothing went through a segment
        else:
            frame.write_buffers(frame_segment.buf)
            frame_ship = ("segment", frame.buffer_meta(),
                          frame_segment.descriptor)
    active = obs.current()
    if active is not None:
        active.registry.counter(
            "repro_local_shm_bytes_total",
            "Bytes shipped through shared-memory segments.", ("direction",)
        ).inc(nbytes, direction="input")
    return transport, frame_ship, frame_segment


def _make_decoder(transport, merge, decode):
    """Per-batch completion hook: attach, ``decode`` the segment's
    buffer, merge, unlink."""
    active = obs.current()

    def on_result(bid, shipped):
        tag = shipped[0]
        if tag == "items":
            merge(shipped[1])
            return len(shipped[1])
        _tag, descriptor, n_cells = shipped
        with obs.span("local.decode") as span:
            segment = transport.attach(descriptor)
            try:
                items = decode(segment.buf)
            finally:
                segment.unlink()
            merge(items)
            if span:
                span.set(batch=bid, cells=n_cells,
                         bytes=descriptor[2])
        if active is not None:
            active.registry.counter(
                "repro_local_shm_bytes_total",
                "Bytes shipped through shared-memory segments.",
                ("direction",)
            ).inc(descriptor[2], direction="result")
        return n_cells

    return on_result


def _make_sweeper(transport, frame_segment, log):
    keep = (frame_segment.name,) if frame_segment is not None else ()

    def on_respawn():
        swept = transport.sweep(exclude=keep)
        log.segments_swept += swept
        if swept:
            obs.event("local.shm_sweep", segments=swept)
            active = obs.current()
            if active is not None:
                active.registry.counter(
                    "repro_local_segments_swept_total",
                    "Leaked result segments reclaimed after pool respawns.",
                ).inc(swept)

    return on_respawn


def _close_transport(transport, frame_segment, log):
    if frame_segment is not None:
        frame_segment.unlink()
    log.segments_swept += transport.sweep()


def _merge_items(result, items):
    """Merge one batch's ``(cuboid, RunCells)`` items into the result.

    Tree division partitions the cuboids across tasks, so the common
    case is a fresh cuboid (its view stored, zero per-cell work); the
    accumulate branch of :meth:`CubeResult.add_columns` is defensive —
    correct either way.
    """
    for cuboid, cells in items:
        run = cells.run
        result.add_columns(cuboid, run.codes, run.counts, run.sums)


def multiprocess_leaf_cells(relation, leaves, dims=None, workers=None,
                            fault_plan=None, batch_timeout=None,
                            max_retries=None, backoff_s=0.05):
    """Aggregate ``leaves`` (minsup-1, all cells kept) on the pool.

    The store-build analogue of :func:`multiprocess_iceberg_cube`: each
    worker maps the shared frame and computes whole leaf cuboids with
    :func:`~repro.core.columnar.leaf_run`; each returns as its encoded
    :class:`~repro.core.columnar.CellRun` in a segment, consecutive
    leaves grouped :data:`BATCHES_PER_WORKER` batches per worker.
    Returns ``{leaf: CellRun}``.

    ``workers=None`` or ``1`` aggregates inline (no pool).  Faults,
    retries and the respawn sweep behave exactly as in the cube path —
    it is the same supervisor.
    """
    if dims is None:
        dims = relation.dims
    dims = tuple(dims)
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers < 1:
        raise PlanError("workers must be >= 1, got %r" % (workers,))
    leaves = [tuple(leaf) for leaf in leaves]
    frame = ColumnarFrame.from_relation(relation, dims)
    with obs.span("local.leaves") as span:
        if span:
            span.set(rows=len(relation), leaves=len(leaves), workers=workers)
        if workers == 1 and fault_plan is None or not leaves:
            return {leaf: leaf_run(frame, leaf) for leaf in leaves}
        out = {}

        def merge(runs):
            for run in runs:
                out[run.dims] = run

        jobs = list(_batched(len(leaves), max(
            1, len(leaves) // (workers * BATCHES_PER_WORKER))))
        log = SupervisorLog()
        transport, frame_ship, frame_segment = _open_transport(frame)
        try:
            initargs = (frame_ship, as_threshold(1), fault_plan, leaves,
                        transport, "leaves")
            supervised_map(
                jobs, workers, _run_leaf_batch, _init_worker, initargs,
                fault_plan=fault_plan, batch_timeout=batch_timeout,
                max_retries=max_retries, backoff_s=backoff_s, log=log,
                name="local_leaves",
                on_result=_make_decoder(transport, merge, decode_runs),
                on_respawn=_make_sweeper(transport, frame_segment, log),
            )
        finally:
            _close_transport(transport, frame_segment, log)
        if span:
            span.set(cells=sum(len(run) for run in out.values()),
                     respawns=log.respawns)
        return out
