"""Real multi-process cube computation (not simulated), supervised.

The simulated cluster reproduces the *paper's* measurements; this
module is for users who just want their cube faster on a multi-core
machine.  It parallelizes the way PT does — the BUC processing tree is
binary-divided into many subtree tasks (Section 3.4), dealt to a
process pool in demand-balanced batches — and each worker runs real
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
* *Results*: workers encode each batch's cells as bit-packed
  ``(packed_key, count, sum)`` arrays (the frame's 63-bit
  :class:`~repro.core.columnar.KeyPacking`; tuple-key relations take
  the exact one-``int64``-per-coordinate fallback) into a fresh
  segment and return only a ``(kind, name, nbytes)`` descriptor.  The
  parent attaches, decodes with numpy, merges, and unlinks — decoding
  overlaps the workers' remaining compute instead of serializing after
  it.  Leaf batches (:func:`multiprocess_leaf_cells`) ship each leaf as
  its encoded :class:`~repro.core.columnar.CellRun` instead: columns in,
  columns out, no cell tuple on either side of the segment.

**Scheduling.**  Tasks are sorted largest-first and dealt through the
pool's shared call queue, which is demand-driven: an idle worker pulls
the next batch the moment it finishes, so fast workers drain the tail
that would otherwise wait on a straggler.  Batch granularity is
auto-tuned (``batch_size=None``): a calibration pass times the smallest
subtree tasks in-process to estimate per-node cost, then packs tasks
into variable-size batches of roughly :data:`TARGET_BATCH_SECONDS`
each — big subtrees ride alone, the long tail of tiny ones is grouped
so per-batch dispatch overhead stays amortized.  An explicit integer
``batch_size`` keeps the old fixed batching.

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
    ColumnarFrame, NumpyKernel, decode_runs, encode_runs, leaf_run)
from ..core.result import CubeResult
from ..core.thresholds import as_threshold, validate_measures
from ..core.writer import ResultWriter
from ..errors import PlanError, WorkerCrashError
from ..lattice.processing_tree import ProcessingTree, binary_divide
from .shm import ShmTransport, decode_result, encode_result

#: Tasks per worker requested from binary division; enough granularity
#: for demand balancing without drowning in per-task root re-sorts
#: (every extra task re-refines part of its root path, and every
#: non-adjacent batch re-refines it cold — measured, halving this from
#: 16 cut 4-worker overhead by ~25% on the scaling workload).
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

#: Calibrated batching aims for batches of roughly this much estimated
#: work each — long enough to amortize dispatch + transport, short
#: enough that the demand scheduler can rebalance around stragglers.
TARGET_BATCH_SECONDS = 0.05

#: Upper bound on batch size from the work-split side: however cheap
#: tasks look, keep at least this many batches per worker so the tail
#: cannot collapse into one straggler.  Kept low on purpose: a worker
#: pays a cold root-path re-refinement per non-adjacent batch, so more
#: batches buy balance at a real CPU price (LPT submission order makes
#: a few well-sized batches balance well already).
BATCHES_PER_WORKER = 4

#: At most this many of the smallest tasks are timed in-process by the
#: calibration pass (their results are kept, not thrown away).
PROBE_TASKS_MAX = 4

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
            self.engine = BucEngine(
                None, frame.dims, threshold, writer=ResultWriter(frame.dims),
                kernel=NumpyKernel(frame),
            )
            self.cache = PrefixCache()


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
    """Send one batch's results back: segment descriptor or inline.

    With a transport, ``encode(items)`` (bytes) is written into a fresh
    shared-memory segment and only ``("seg", descriptor, n_cells)``
    crosses the pipe; without one (the inline path), or when the segment
    cannot be created, the items ride the pipe as ``("items", items)``.
    ``items`` is a list of ``(cuboid, cells)`` pairs (cube batches) or
    of :class:`CellRun` (leaf batches).
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


def _run_batch(job):
    """Run one batch of subtree tasks; returns ``(batch_id, shipped)``.

    ``job`` is ``(batch_id, attempt, (lo, hi), traceparent)`` where
    ``lo:hi`` is an index range into the task list shipped once at pool
    init; the id and attempt feed the fault injector so kills and hangs
    are deterministic per plan, and ``traceparent`` (or ``None``)
    carries the submitting run's trace context across the pool pipe.
    """
    batch_id, attempt, (lo, hi), traceparent = job
    state = _STATE
    _inject_fault(state, batch_id, attempt)
    with obs.activate(traceparent):
        writer = ResultWriter(state.dims)
        state.engine.writer = writer
        for task in state.tasks[lo:hi]:
            state.engine.run_task(task, breadth_first=True, cache=state.cache)
        items = list(writer.result.cuboids.items())
        frame = state.frame
        return batch_id, _ship_result(
            state, batch_id, items,
            lambda items: encode_result(items, frame.dims, frame.packing),
            sum(len(cells) for _cuboid, cells in items))


def _run_leaf_batch(job):
    """Aggregate one batch of leaf cuboids (minsup-1 store precompute)."""
    batch_id, attempt, (lo, hi), traceparent = job
    state = _STATE
    _inject_fault(state, batch_id, attempt)
    with obs.activate(traceparent):
        runs = [leaf_run(state.frame, leaf) for leaf in state.tasks[lo:hi]]
        return batch_id, _ship_result(state, batch_id, runs, encode_runs,
                                      sum(map(len, runs)))


def _batched(n_tasks, batch_size):
    """Yield consecutive ``(lo, hi)`` index ranges of ``batch_size``.

    Lazy on purpose: no sliced task lists are materialized up front —
    workers slice their own range out of the task list they already
    hold, and the ranges themselves are two ints each.
    """
    for lo in range(0, n_tasks, batch_size):
        yield (lo, min(lo + batch_size, n_tasks))


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


def supervised_map(jobs, workers, task_fn, initializer, initargs,
                   fault_plan=None, batch_timeout=None, max_retries=None,
                   backoff_s=0.05, log=None, name="local", on_result=None,
                   on_respawn=None):
    """Run every job to completion on a supervised process pool.

    The generic supervisor behind both the local cube backend and the
    MapReduce engine (:mod:`repro.mr`).  ``jobs`` is a list of payloads
    (ids are their indices) or a ``{job_id: payload}`` mapping;
    ``task_fn`` is a module-level function invoked in the worker as
    ``task_fn((job_id, attempt, payload, traceparent))`` and must return
    ``(job_id, result)``; ``initializer``/``initargs`` set up per-worker
    state once per process.  The ``traceparent`` element (a header
    string or ``None``) carries the caller's distributed-trace context
    across the pool pipe — task functions re-activate it so any spans
    they record join the submitting request's trace.  Returns
    ``{job_id: result}``.

    ``on_result(job_id, raw)`` — when given — transforms each completed
    job's return value the moment its future resolves (the stored value
    is the callback's return).  The local backend decodes and merges
    result segments here, overlapped with the workers' remaining
    compute.  ``on_respawn()`` runs after every pool teardown, before
    the retry round — the hook where the shared-memory sweep reclaims
    segments of SIGKILLed writers.

    A pool whose worker dies (``BrokenProcessPool``) or that completes
    nothing for ``batch_timeout`` seconds is torn down and respawned;
    the unfinished jobs are retried with full-jitter capped exponential
    backoff.  A job that fails more than ``max_retries`` times raises
    :class:`~repro.errors.WorkerCrashError`.  ``name`` prefixes the obs
    spans/counters (``<name>.batch``, ``repro_<name>_batches_total``,
    ...) so each consumer's telemetry stays distinct.
    """
    if batch_timeout is None:
        batch_timeout = DEFAULT_BATCH_TIMEOUT
    if max_retries is None:
        max_retries = (fault_plan.max_retries if fault_plan is not None
                       else DEFAULT_MAX_RETRIES)
    if log is None:
        log = SupervisorLog()
    pending = dict(jobs) if isinstance(jobs, dict) else dict(enumerate(jobs))
    # The caller's trace position, captured once: every job ships it
    # over the pool pipe, and every <name>.batch span links to it.
    ctx = obs.context()
    traceparent = obs.inject()
    if workers == 1 and fault_plan is None:
        # Inline fast path: no fault injection means no supervision is
        # needed, so skip the pool and run in-process.
        initializer(*initargs)
        out = {}
        for bid, payload in sorted(pending.items()):
            raw = task_fn((bid, 0, payload, traceparent))[1]
            out[bid] = on_result(bid, raw) if on_result is not None else raw
        return out
    context = _pool_context()
    attempts = dict.fromkeys(pending, 0)
    results = {}
    active = obs.current()
    # Full-jitter backoff: sleeping uniform(0, capped-exponential) keeps
    # respawning supervisors from synchronizing into retry thundering
    # herds.  Seeded from the fault plan so injected-fault runs stay
    # reproducible; unseeded (wall-entropy) otherwise.
    jitter = random.Random(fault_plan.seed if fault_plan is not None else None)
    while pending:
        executor = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        )
        broken = stalled = False
        try:
            futures = {
                executor.submit(
                    task_fn, (bid, attempts[bid], payload, traceparent)): bid
                for bid, payload in sorted(pending.items())
            }
            round_start = active.tracer.now() if active is not None else 0.0
            not_done = set(futures)
            while not_done and not broken:
                done, not_done = wait(not_done, timeout=batch_timeout,
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
        finally:
            if broken or stalled:
                _abandon_pool(executor)
            else:
                executor.shutdown(wait=True)
        if not pending:
            break
        # Crash or stall: charge an attempt to every unfinished batch,
        # enforce the budget, back off, respawn and go again.
        log.respawns += 1
        if broken:
            log.worker_crashes += 1
        if stalled:
            log.stalls += 1
        obs.event("%s.respawn" % name, cause="crash" if broken else "stall",
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
        if attempts[worst] > max_retries:
            raise WorkerCrashError(
                worst, attempts[worst],
                "worker died or hung on every attempt")
        ceiling = min(BACKOFF_CAP_S, backoff_s * 2.0 ** (attempts[worst] - 1))
        pause = jitter.uniform(0.0, ceiling)
        if pause > 0:
            time.sleep(pause)
            log.backoff_seconds += pause
    return results


# ----------------------------------------------------------------------
# adaptive batching
# ----------------------------------------------------------------------
def _calibrate(tree, tasks, engine, cache, merge):
    """Time a few tail tasks in-process; returns ``(rate, n_probed)``.

    ``rate`` is estimated seconds per processing-tree node.  The probed
    tasks are really computed (their cells go through ``merge`` and are
    not dispatched again), so the probe is bounded twice: at most
    :data:`PROBE_TASKS_MAX` tasks *and* at most ~3% of the tree's
    nodes — calibration must stay a rounding error next to the work it
    schedules.  Returns a rate of ``None`` when there is nothing safe
    to probe.
    """
    if len(tasks) < 2:
        return None, 0
    budget = max(1, sum(task.size(tree) for task in tasks) // 32)
    n_probe = 0
    nodes = 0
    for task in reversed(tasks[1:]):
        size = task.size(tree)
        if n_probe and (nodes + size > budget or n_probe >= PROBE_TASKS_MAX):
            break
        nodes += size
        n_probe += 1
    probed = tasks[-n_probe:]
    writer = ResultWriter(engine.dims)
    engine.writer = writer
    started = time.perf_counter()
    for task in probed:
        engine.run_task(task, breadth_first=True, cache=cache)
    elapsed = time.perf_counter() - started
    merge(list(writer.result.cuboids.items()))
    # Clock noise floor: a probe faster than the timer can resolve
    # still yields a usable (tiny) rate; zero nodes cannot happen
    # (every task has >= 1 node).
    return max(elapsed, 1e-6) / nodes, n_probe


def _plan_batches(tree, tasks, workers, rate):
    """Pack consecutive tasks into ``(lo, hi)`` ranges of ~equal cost.

    Consecutive ranges keep each batch's tasks prefix-adjacent (the
    worker's :class:`PrefixCache` shares their root sorts); each range
    accumulates tasks until it reaches the target cost, so one big
    subtree rides alone while the long tail of tiny tasks is grouped —
    the estimated-seconds analogue of PT's fixed batch counts.

    The returned batches are ordered costliest-first.  The pool's call
    queue is demand-driven (idle workers pull the next batch), so
    costliest-first submission is longest-processing-time list
    scheduling: big batches start immediately and the cheap tail
    back-fills whichever worker frees up last.
    """
    costs = [task.size(tree) * rate for task in tasks]
    total = sum(costs)
    target = max(TARGET_BATCH_SECONDS,
                 total / max(1, workers * BATCHES_PER_WORKER))
    jobs = []
    lo = 0
    acc = 0.0
    for i, cost in enumerate(costs):
        acc += cost
        if acc >= target:
            jobs.append((acc, (lo, i + 1)))
            lo = i + 1
            acc = 0.0
    if lo < len(tasks):
        jobs.append((acc, (lo, len(tasks))))
    jobs.sort(key=lambda job: job[0], reverse=True)
    return [rng for _cost, rng in jobs]


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def multiprocess_iceberg_cube(relation, dims=None, minsup=1, workers=None,
                              batch_size=None, fault_plan=None,
                              batch_timeout=None, max_retries=None,
                              backoff_s=0.05):
    """Compute the iceberg cube with a supervised local process pool.

    ``workers`` defaults to the machine's CPU count (capped at 8).  The
    processing tree is divided into roughly ``TASKS_PER_WORKER`` subtree
    tasks per worker, sorted largest-first and dealt through the pool's
    demand-driven queue.  ``batch_size=None`` (the default) runs the
    calibration pass: the smallest tasks are timed in-process and
    batches are packed to ~:data:`TARGET_BATCH_SECONDS` of estimated
    work each; an integer keeps fixed-size batches.  Workers refine
    with :class:`~repro.core.columnar.NumpyKernel`.

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
    if batch_size is not None and batch_size < 1:
        raise PlanError("batch_size must be >= 1, got %r" % (batch_size,))
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
            span.set(rows=len(relation), dims=len(dims), workers=workers,
                     batch_size=batch_size or 0)
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
            _, shipped = _run_batch((0, 0, (0, 1), obs.inject()))
            merge(shipped[1])
        else:
            # Tasks stay in tree (DFS) order: consecutive tasks share
            # root prefixes, so each worker's PrefixCache keeps its
            # sorts warm.  Balance comes from cost-aware batch packing
            # plus demand dispatch, not from reordering.
            tasks = binary_divide(tree, workers * TASKS_PER_WORKER)
            log = SupervisorLog()
            result.recovery = log
            _pooled_cube(frame, tree, tasks, threshold, workers, batch_size,
                         fault_plan, batch_timeout, max_retries, backoff_s,
                         log, merge)
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


def _pooled_cube(frame, tree, tasks, threshold, workers, batch_size,
                 fault_plan, batch_timeout, max_retries, backoff_s, log,
                 merge):
    """The pool side of :func:`multiprocess_iceberg_cube`: calibrate,
    ship the frame, dispatch, decode-and-merge, clean up."""
    transport, frame_ship, frame_segment = _open_transport(frame)
    try:
        if batch_size is None:
            engine = BucEngine(
                None, frame.dims, threshold, writer=ResultWriter(frame.dims),
                kernel=NumpyKernel(frame),
            )
            with obs.span("local.calibrate") as cal_span:
                rate, n_probed = _calibrate(tree, tasks, engine,
                                            PrefixCache(), merge)
                if n_probed:
                    tasks = tasks[:-n_probed]
                if rate is None:
                    jobs = [(i, i + 1) for i in range(len(tasks))]
                else:
                    jobs = _plan_batches(tree, tasks, workers, rate)
                if cal_span:
                    cal_span.set(probed=n_probed, batches=len(jobs),
                                 node_seconds=rate or 0.0)
        else:
            jobs = list(_batched(len(tasks), batch_size))
        if not jobs:
            return
        on_result = _make_decoder(
            transport, merge,
            lambda buf: decode_result(buf, frame.dims, frame.packing))
        initargs = (frame_ship, threshold, fault_plan, tasks, transport,
                    "cube")
        supervised_map(
            jobs, workers, _run_batch, _init_worker, initargs,
            fault_plan=fault_plan, batch_timeout=batch_timeout,
            max_retries=max_retries, backoff_s=backoff_s, log=log,
            on_result=on_result,
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
    """Merge one batch's ``(cuboid, cells)`` items into the result.

    Tree division partitions the cuboids across tasks, so the common
    case is a fresh cuboid (one dict assignment, zero per-cell work);
    the accumulate branch is defensive — correct either way.
    """
    for cuboid, cells in items:
        mine = result.cuboids.get(cuboid)
        if mine is None:
            result.cuboids[cuboid] = cells if isinstance(cells, dict) \
                else dict(cells)
        else:
            for cell, (count, value) in cells.items():
                existing = mine.get(cell)
                if existing is None:
                    mine[cell] = (count, value)
                else:
                    mine[cell] = (existing[0] + count, existing[1] + value)


def multiprocess_leaf_cells(relation, leaves, dims=None, workers=None,
                            batch_size=None, fault_plan=None,
                            batch_timeout=None, max_retries=None,
                            backoff_s=0.05):
    """Aggregate ``leaves`` (minsup-1, all cells kept) on the pool.

    The store-build analogue of :func:`multiprocess_iceberg_cube`: each
    worker maps the shared frame and computes whole leaf cuboids with
    :func:`~repro.core.columnar.leaf_run`; each returns as its encoded
    :class:`~repro.core.columnar.CellRun` in a segment.  Returns
    ``{leaf: CellRun}``.

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

        if batch_size is None:
            batch_size = max(1, len(leaves) //
                             max(1, workers * BATCHES_PER_WORKER))
        jobs = list(_batched(len(leaves), batch_size))
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
