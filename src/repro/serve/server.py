"""A concurrent iceberg-query front-end over a :class:`CubeStore`.

:class:`CubeServer` admits queries through a thread pool and answers
each from the cheapest source available::

    cache hit  ->  stored leaf scan

The cache is the LRU :class:`~repro.serve.cache.QueryCache`; the store
is a :class:`~repro.serve.store.CubeStore` (or any object with the same
``snapshot()``/``append`` surface, e.g. a ``LeafMaterialization``).  A
cuboid the store does not cover — a dimension left out of the
materialization, a sibling shard's cuboid — is refused with the
snapshot's own :class:`~repro.errors.SchemaError` /
:class:`~repro.errors.PlanError` (HTTP 400): the server never goes back
to raw rows.  Every answer is recorded in
:class:`~repro.serve.telemetry.ServerTelemetry`.

**Degradation ladder** (:mod:`repro.serve.resilience`): admission is
bounded — past ``max_pending`` in-flight queries, :meth:`submit` sheds
with a fast :class:`~repro.errors.ServerOverloadedError` (HTTP 429)
instead of queueing unboundedly.  Each query can carry a wall-clock
deadline (created at admission, so queue time counts) that turns into
:class:`~repro.errors.DeadlineExceededError` (HTTP 504).  Both are
visible in :meth:`stats` and the ``/healthz`` endpoint.

``serve_http`` exposes the same surface as a JSON HTTP endpoint (pure
stdlib ``http.server``) for point, roll-up and drill-down queries::

    GET /query?cuboid=A,B&minsup=2        # group-by (roll-up / drill-down
                                          #   by dropping / adding dims)
    GET /query?cuboid=A&deadline_ms=50    # per-query deadline
    GET /point?cuboid=A,B&cell=3,1        # one cell, O(log n) lookup
    GET /cube?minsup=2                    # this store's whole cube share
    POST /append                          # fold a JSON row delta in
                                          #   (idempotent with batch_id)
    GET /wal?since=3                      # pending WAL batches newer
                                          #   than generation 3 (replica
                                          #   repair / anti-entropy)
    GET /stats                            # cache + latency + resilience
    GET /metrics                          # Prometheus text exposition
    GET /trace?since=7                    # span export newer than buffer
                                          #   seq 7 (router trace collector)
    GET /cuboids                          # dims and stored leaves
    GET /healthz                          # liveness + generation + shard
                                          #   + degradation state

Every data answer is read from one pinned ``store.snapshot()`` and
carries that snapshot's ``generation`` — cells and label come from the
same immutable object, so an ``append`` landing mid-read can neither
mislabel an answer nor make it wait.  ``/cube?at=G`` reads generation
``G`` from the last :data:`RETAINED_SNAPSHOTS` snapshots (HTTP 409 if
not held): the sharded router (:mod:`repro.serve.cluster`) pins on it.

``/metrics`` serves the server's :class:`~repro.obs.metrics
.MetricsRegistry` (request counters, latency histograms, degradation
events) in text exposition format; the counters are incremented by the
same telemetry calls that feed ``/stats``, so the two endpoints always
agree.  With :func:`repro.obs.install` active, each query additionally
records a ``serve.query`` span (a cache miss is an event on it).

Errors are always structured JSON — ``400`` for malformed queries,
``404`` for unknown paths, ``413`` for oversized requests, ``429`` when
shedding, ``504`` past a deadline — never an HTML traceback (the
handler stack is :mod:`repro.serve.http`, shared with the router).
"""

import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from .. import obs
from ..core.columnar import CellRun, encode_runs
from ..core.thresholds import as_threshold
from ..errors import (
    DeadlineExceededError,
    GenerationSkewError,
    PlanError,
    ServerOverloadedError,
    StoreCorruptError,
)
from .cache import QueryCache
from .http import (
    CELLRUN_TYPE,
    HttpEndpoint,
    JsonRequestHandler,
    answer_payload,
    cube_payload,
    parse_cell,
    parse_cuboid,
    parse_since,
    parse_threshold,
)
from .ingest import trace_id_of
from .resilience import AdmissionGate, Deadline
from .store import AppendResult
from .telemetry import ServerTelemetry

#: One served answer: the canonical cuboid, the threshold text, the
#: ``{cell: (count, sum)}`` dict, where it came from, how long it took,
#: and the generation of the snapshot the cells were read from.
QueryAnswer = namedtuple(
    "QueryAnswer",
    ("cuboid", "threshold", "cells", "source", "latency_s", "generation"),
)

#: One store-shard's share of the full iceberg cube, computed at a
#: single generation (the ``/cube`` fan-out unit).
CubeAnswer = namedtuple(
    "CubeAnswer", ("cuboids", "threshold", "generation", "latency_s")
)

#: Latest snapshots a server keeps answerable by generation
#: (``/cube?at=G``).  They share runs by reference — across a compaction,
#: the superseded ones too.  With 8, a shard under an unpaced writer had
#: moved up to 12 generations past a router's pin by its second round.
RETAINED_SNAPSHOTS = 32


class CubeServer:
    """Thread-pooled query serving over a persistent cube store."""

    def __init__(self, store, cache_size=256, max_workers=8,
                 max_pending=None, default_deadline_s=None, registry=None):
        """``max_pending`` bounds admitted-but-unfinished queries (default
        ``16 * max_workers``, minimum 64) — the excess is shed.
        ``default_deadline_s`` applies to queries that don't carry their
        own deadline (``None``: no deadline).  ``registry`` is the
        metrics registry behind ``GET /metrics`` (default: the installed
        :mod:`repro.obs` registry, else a private one).
        """
        self.store = store
        self.cache = QueryCache(cache_size)
        self.telemetry = ServerTelemetry(registry=registry)
        self.registry = self.telemetry.registry
        self.default_deadline_s = default_deadline_s
        if max_pending is None:
            max_pending = max(64, 16 * max_workers)
        self.gate = AdmissionGate(max_pending)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="cube-query"
        )
        self._write_lock = threading.Lock()
        #: the latest snapshots published, oldest first: a tuple replaced
        #: under ``_write_lock``, so readers scan it without a lock
        self._retained = (store.snapshot(),)
        self._close_lock = threading.Lock()
        self._endpoints = []
        self._closed = False

    # ------------------------------------------------------------------
    # query paths
    # ------------------------------------------------------------------
    def query(self, cuboid, minsup=1, deadline_s=None):
        """Answer one group-by, cache -> store.

        ``deadline_s`` (seconds, or a prebuilt
        :class:`~repro.serve.resilience.Deadline`) bounds the query's
        wall clock; past it, :class:`~repro.errors.DeadlineExceededError`
        is raised instead of continuing dead work.  Returns a
        :class:`QueryAnswer`; ``.cells`` maps each qualifying cell to
        its ``(count, sum)`` pair.
        """
        start = perf_counter()
        deadline = self._deadline(deadline_s)
        with obs.span("serve.query") as span:
            try:
                answer = self._query(cuboid, minsup, deadline, start)
            except DeadlineExceededError:
                self.telemetry.bump("deadline_exceeded")
                if span:
                    span.set(cuboid=list(cuboid), outcome="deadline_exceeded")
                raise
            if span:
                span.set(cuboid=list(answer.cuboid), source=answer.source,
                         cells=len(answer.cells))
            return answer

    def _query(self, cuboid, minsup, deadline, start):
        threshold = as_threshold(minsup)
        if deadline is not None:
            deadline.check("admission queue")
        snap = self.store.snapshot()
        canonical = snap.canonical(cuboid)
        cells, source = self._answer(snap, canonical, threshold, deadline)
        latency = perf_counter() - start
        self.telemetry.record(source, latency)
        return QueryAnswer(canonical, threshold.describe(), cells, source,
                           latency, snap.generation)

    def _answer(self, snap, canonical, threshold, deadline):
        """cache -> store, from one pinned state.

        Cells and generation both come from ``snap``, so whatever
        :meth:`append` publishes meanwhile, the answer is one
        generation's and is cached under that generation.
        """
        cells = self.cache.get(canonical, threshold, snap.generation)
        if cells is not None:
            return cells, "cache"
        if deadline is not None:
            deadline.check("store scan")
        obs.event("serve.cache_miss")
        cells = snap.query(canonical, minsup=threshold)
        self.cache.put(canonical, threshold, snap.generation, cells)
        if deadline is not None:
            # The answer is cached for the next caller either way, but a
            # reply past its budget is honestly late.
            deadline.check("reply")
        return cells, "store"

    def point(self, cuboid, cell, minsup=1):
        """One cell of one cuboid (a ``searchsorted`` on the covering
        leaf's run)."""
        start = perf_counter()
        threshold = as_threshold(minsup)
        snap = self.store.snapshot()
        canonical = snap.canonical(cuboid)
        agg = snap.point(canonical, cell, minsup=threshold)
        cells = {tuple(cell): agg} if agg is not None else {}
        latency = perf_counter() - start
        self.telemetry.record("store", latency)
        return QueryAnswer(canonical, threshold.describe(), cells, "store",
                           latency, snap.generation)

    def iceberg(self, minsup=1, deadline_s=None, at=None):
        """This store's whole share of the iceberg cube, one generation.

        Answers every cuboid in ``owned_cuboids()`` (the full lattice
        for an unsharded store, this shard's partition otherwise) from
        a single snapshot — the unit a
        :class:`~repro.serve.cluster.CubeRouter` fans out and merges.
        ``at`` picks a retained generation instead of the current one.
        Returns a :class:`CubeAnswer`.
        """
        start = perf_counter()
        threshold = as_threshold(minsup)
        deadline = self._deadline(deadline_s)
        with obs.span("serve.cube") as span:
            snap = self._snapshot_at(at)
            cuboids = snap.iceberg(minsup=threshold)
            if deadline is not None:
                try:
                    deadline.check("reply")
                except DeadlineExceededError:
                    self.telemetry.bump("deadline_exceeded")
                    raise
            latency = perf_counter() - start
            self.telemetry.record("store", latency)
            if span:
                span.set(cuboids=len(cuboids), generation=snap.generation)
        return CubeAnswer(cuboids, threshold.describe(), snap.generation,
                          latency)

    def _snapshot_at(self, at):
        """The current snapshot, or the retained one of generation ``at``."""
        current = self.store.snapshot()
        for snap in (current, *self._retained):
            if at is None or snap.generation == at:
                return snap
        raise GenerationSkewError(
            "generation %d is not retained here (holds %d..%d)"
            % (at, self._retained[0].generation, current.generation))

    def submit(self, cuboid, minsup=1, deadline_s=None):
        """Admit a query to the thread pool; returns a Future.

        Admission is bounded: past ``max_pending`` unfinished queries
        this sheds immediately with
        :class:`~repro.errors.ServerOverloadedError` rather than growing
        the queue.  The deadline clock starts *now* — time spent queued
        counts, so an aged-out query fails fast when it reaches a
        worker.
        """
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        deadline = self._deadline(deadline_s)
        return self._admit(self.query, cuboid, minsup, deadline_s=deadline)

    def submit_point(self, cuboid, cell, minsup=1):
        """Admit a point lookup to the thread pool; returns a Future."""
        return self._admit(self.point, cuboid, cell, minsup)

    def submit_cube(self, minsup=1, deadline_s=None, at=None):
        """Admit a whole-share iceberg read (:meth:`iceberg`) to the pool."""
        return self._admit(self.iceberg, minsup, deadline_s, at)

    def query_many(self, queries):
        """Answer ``(cuboid, minsup)`` pairs concurrently, in order."""
        futures = [self.submit(cuboid, minsup) for cuboid, minsup in queries]
        return [future.result() for future in futures]

    def _admit(self, fn, *args, **kwargs):
        if self._closed:
            raise PlanError("server is closed")
        try:
            self.gate.acquire()
        except ServerOverloadedError:
            # Same counter feeds /stats events and /metrics, so the two
            # endpoints agree on shed counts by construction.
            self.telemetry.bump("shed")
            raise
        # Pool threads have their own (empty) span stacks; carry the
        # submitting thread's trace context across so serve.* spans
        # opened in the worker parent under the caller's span.
        ctx = obs.context()
        if ctx is not None:
            inner = fn

            def fn(*a, **k):
                with obs.activate(ctx):
                    return inner(*a, **k)
        try:
            future = self._pool.submit(fn, *args, **kwargs)
        except BaseException:
            self.gate.release()
            raise
        future.add_done_callback(lambda _future: self.gate.release())
        return future

    def _deadline(self, deadline_s):
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if deadline_s is None or isinstance(deadline_s, Deadline):
            return deadline_s
        return Deadline(deadline_s)

    # ------------------------------------------------------------------
    # maintenance and stats
    # ------------------------------------------------------------------
    def append(self, relation, batch_id=None):
        """Fold new rows into the store; cached answers go stale.

        Serialized against other appends; an in-flight reader keeps the
        snapshot it pinned, and the generation bump keeps the cache from
        mixing the two.  The new snapshot joins the retained window.

        ``batch_id`` makes the append idempotent: a batch the store
        already applied is acknowledged with ``applied=False`` instead
        of double-counting — the contract that lets clients and the
        router retry ``POST /append`` freely.  Returns an
        :class:`~repro.serve.store.AppendResult`.
        """
        with self._write_lock:
            result = self.store.append(relation, batch_id=batch_id)
            # an in-memory LeafMaterialization returns nothing
            applied = getattr(result, "applied", True)
            snap = self.store.snapshot()
            if applied:
                self._retained = (*self._retained, snap)[-RETAINED_SNAPSHOTS:]
        return AppendResult(snap.generation, applied,
                            getattr(result, "batch_id", batch_id))

    def wal_batches(self, since):
        """Pending WAL batches newer than generation ``since`` as JSON
        (the ``GET /wal`` body the router's anti-entropy sweep reads)."""
        reply = self.store.wal_batches_since(int(since))
        return {
            "generation": reply["generation"],
            "base_generation": reply["base_generation"],
            "truncated": reply["truncated"],
            "batches": [
                {
                    "generation": record.generation,
                    "batch_id": record.batch_id,
                    "trace_id": trace_id_of(record.batch_id),
                    "dims": list(record.dims),
                    "rows": [list(row) for row in record.rows],
                    "measures": list(record.measures),
                }
                for record in reply["batches"]
            ],
        }

    def trace_payload(self, since=0):
        """This process's span export (the ``GET /trace?since=`` body).

        ``since`` pages by buffer sequence number; the router collector
        passes the largest ``seq`` it has seen back on the next scrape.
        A server running without obs installed reports
        ``enabled: false`` so the collector can name the gap instead of
        silently missing a node.
        """
        active = obs.current()
        shard = getattr(self.store, "shard", None)
        node = "shard%d" % shard[0] if shard else "store"
        if active is None:
            return {"enabled": False, "node": node, "spans": []}
        return active.tracer.payload(since=since, node=node)

    def stats(self):
        """Server-wide counters: store shape, cache, latency, resilience."""
        snap = self.store.snapshot()
        return {
            "dims": list(snap.dims),
            "leaves": len(snap.leaves),
            "generation": snap.generation,
            "total_rows": snap.total_rows,
            "cache": self.cache.stats(),
            "telemetry": self.telemetry.summary(),
            "resilience": {
                "admission": self.gate.stats(),
                "default_deadline_s": self.default_deadline_s,
            },
        }

    def health(self):
        """Liveness *and* serving state (the ``/healthz`` body).

        Beyond a bare liveness probe: the store generation (so a router
        can tell "alive" from "serving a stale generation"), the
        integrity level the store was opened at, shard placement, dims,
        the admission state and the RED numbers
        (:meth:`~repro.serve.telemetry.ServerTelemetry.red`) —
        everything a health-checking router needs to route, pin, fail
        over and report per shard without a second request.
        """
        gate = self.gate.stats()
        shard = getattr(self.store, "shard", None)
        wal_stats = getattr(self.store, "wal_stats", None)
        wal = wal_stats() if wal_stats is not None else None
        return {
            "status": "closed" if self._closed else "ok",
            # the WAL's own view when there is one, so the reply is one
            # state's: dims, shard and leaves never change
            "generation": (wal["generation"] if wal is not None
                           else self.store.generation),
            "verify": getattr(self.store, "verify_mode", "off"),
            "dims": list(self.store.dims),
            "shard": ({"index": shard[0], "of": shard[1]}
                      if shard is not None else None),
            "leaves": len(self.store.leaves),
            "pending": gate["pending"],
            "max_pending": gate["limit"],
            "shed": gate["shed"],
            "wal": wal,
            "red": self.telemetry.red(),
        }

    # ------------------------------------------------------------------
    # HTTP endpoint
    # ------------------------------------------------------------------
    def serve_http(self, host="127.0.0.1", port=0):
        """Start the JSON endpoint on a background thread.

        ``port`` 0 picks a free port.  Returns an :class:`HttpEndpoint`
        whose ``.url`` is ready immediately; ``.close()`` stops it.
        """
        if self._closed:
            raise PlanError("server is closed")
        endpoint = HttpEndpoint(self, _CubeRequestHandler, host, port,
                                "cube-http")
        self._endpoints.append(endpoint)
        return endpoint

    def close(self, cancel_pending=False):
        """Stop the endpoint(s) and the worker pool.  Idempotent.

        Deterministic teardown: after :meth:`close` returns, every
        future :meth:`submit` handed out is *done* — drained to a real
        answer by default, or cancelled (``CancelledError``) when
        ``cancel_pending`` is true and the query had not started.  New
        submissions raise :class:`~repro.errors.PlanError` the moment
        close begins.  A second (or concurrent) close is a no-op.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            endpoints, self._endpoints = self._endpoints, []
        for endpoint in endpoints:
            endpoint.close()
        self._pool.shutdown(wait=True, cancel_futures=cancel_pending)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def _parse_deadline(params):
    raw = params.get("deadline_ms")
    if raw is None:
        return None
    deadline_ms = float(raw[0])
    if deadline_ms <= 0:
        raise ValueError("deadline_ms must be > 0, got %r" % (raw[0],))
    return deadline_ms / 1000.0


class _CubeRequestHandler(JsonRequestHandler):
    server_version = "repro-serve/1.0"
    error_kinds = (
        (ServerOverloadedError, 429, "overloaded", None),
        # a router's pin this replica lags or no longer holds: not broken
        (GenerationSkewError, 409, "generation_skew", None),
        (DeadlineExceededError, 504, "deadline", None),
        (StoreCorruptError, 500, "corrupt", None),
    )
    get_routes = {
        "/query": "_get_query", "/point": "_get_point", "/cube": "_get_cube",
        "/stats": "_get_stats", "/metrics": "_get_metrics",
        "/cuboids": "_get_cuboids", "/wal": "_get_wal",
        "/trace": "_get_trace", "/healthz": "_get_healthz",
    }
    post_routes = {"/append": "_post_append"}

    def _get_query(self, params):
        # Through the bounded gate: overload sheds here with a fast
        # 429 instead of stacking requests on the HTTP threads.
        self._answer(self.app.submit(
            parse_cuboid(params), parse_threshold(params),
            deadline_s=_parse_deadline(params)))

    def _get_point(self, params):
        self._answer(self.app.submit_point(
            parse_cuboid(params), parse_cell(params), parse_threshold(params)))

    def _answer(self, future):
        answer = future.result()
        if not self._reply_runs(answer, {answer.cuboid: answer.cells}):
            self._reply(200, answer_payload(answer, source=answer.source))

    def _get_cube(self, params):
        at = params.get("at")
        answer = self.app.submit_cube(
            parse_threshold(params), deadline_s=_parse_deadline(params),
            at=None if at is None else int(at[0])).result()
        if not self._reply_runs(answer, answer.cuboids):
            self._reply(200, cube_payload(answer))

    def _reply_runs(self, answer, cuboids):
        """Answer in cell runs if the client asked for them (a router
        does); ``False`` leaves the reply to the JSON path."""
        if CELLRUN_TYPE not in self.headers.get("Accept", ""):
            return False
        body = encode_runs(CellRun.from_cells(cuboid, cells)
                           for cuboid, cells in cuboids.items())
        self._send(200, body, CELLRUN_TYPE, (
            ("X-Repro-Generation", str(answer.generation)),
            ("X-Repro-Threshold", answer.threshold)))
        return True

    def _get_metrics(self, params):
        self._reply_text(200, self.app.registry.to_prometheus())

    def _get_cuboids(self, params):
        snap = self.app.store.snapshot()
        self._reply(200, {
            "dims": list(snap.dims),
            "leaves": [list(leaf) for leaf in snap.leaves],
            "generation": snap.generation,
        })

    def _get_wal(self, params):
        self._reply(200, self.app.wal_batches(parse_since(params)))

    def _post_append(self, params):
        relation, batch_id = self._read_append(self.app.store.dims)
        result = self.app.append(relation, batch_id=batch_id)
        self._reply(200, {"generation": result.generation,
                          "rows": len(relation),
                          "total_rows": self.app.store.total_rows,
                          "applied": result.applied,
                          "batch_id": result.batch_id})

