"""Sharded, replicated serving: one logical cube that survives node loss.

The paper computes iceberg cubes on a *cluster* of commodity PCs; this
module serves them the same way.  The leaf cuboids a
:class:`~repro.serve.store.CubeStore` materializes are partitioned
across N store shards by a **stable hash of the covering-leaf prefix**
(:class:`ShardMap`), each shard runs R replica
:class:`~repro.serve.server.CubeServer` processes over identical shard
stores, and a stateless :class:`CubeRouter` in front fans queries out,
merges results, and fails over — the cluster, not any one box, is the
unit of availability.

**Placement** (:class:`ShardMap`).  Every cuboid's answer comes from
its covering leaf (``covering_leaf``: append the last dimension), so
hashing the covering leaf places every cuboid on exactly one shard and
keeps roll-ups of the same leaf together.  The hash is
:func:`stable_shard_hash` — BLAKE2b over the dimension names — so
placement survives Python hash randomization and process restarts; the
shard's ``(index, of)`` is recorded in the store manifest and any
mismatch (a re-shard without a rebuild) is refused, never silently
misrouted.

**Failover.**  Each replica sits behind its own
:class:`~repro.serve.resilience.CircuitBreaker`: a timeout, connection
error or 5xx records a failure and the query retries on a sibling
replica immediately; a tripped breaker takes the dead replica out of
rotation so it stops eating latency budget, and half-open probes (plus
the optional background health checker polling ``/healthz``) bring it
back when it recovers.  When *every* replica of a shard is down the
router answers a structured :class:`~repro.errors.ShardUnavailableError`
(HTTP 503 naming the shard) — an honest partial outage, never a wrong
or silently truncated answer.

**Durable fan-out** (:meth:`CubeRouter.append`).  Row deltas are
delivered to every replica in parallel, each delivery retried under a
capped full-jitter :class:`~repro.serve.resilience.RetryPolicy` and
gated on the replica's circuit breaker, and the whole batch travels
under one idempotence key — replicas acknowledge a replayed batch
instead of re-applying it, so the router (or a client whose
router died mid-call) can always retry safely.  The background health
sweep doubles as **anti-entropy repair**: a replica whose generation
lags its shard's freshest sibling gets the missing WAL batches fetched
from that sibling (``GET /wal``) and re-delivered with their original
batch ids, converging the shard without operator action.

**Generation consistency.**  Replicas answer from one immutable store
snapshot and label the answer with its generation, so a single-shard
answer is one generation's by construction.  A cross-shard fan-out
(:meth:`CubeRouter.cube`) pins the lowest generation round one
returned and asks only the shards that were ahead for their share *at*
it — each replica retains its latest snapshots — so two rounds at most.
A replica that does not hold the pin answers 409: the router raises
:class:`~repro.errors.GenerationSkewError` (HTTP 503: retry) instead of
mixing generations.

Topology bootstrap is one line per shard::

    router = CubeRouter([
        ["http://10.0.0.1:8642", "http://10.0.0.2:8642"],   # shard 0
        ["http://10.0.0.3:8642", "http://10.0.0.4:8642"],   # shard 1
        ["http://10.0.0.5:8642", "http://10.0.0.6:8642"],   # shard 2
    ])
    answer = router.query(("A", "B"), minsup=2)   # routed, failed over
    full = router.cube(minsup=5)                  # fanned out, one gen

The CLI front-ends this as ``repro-cube store build --shards N``,
``repro-cube serve --shard i/N`` and ``repro-cube router``.
"""

import json
import threading
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from hashlib import blake2b
from http.client import HTTPConnection, HTTPException
from time import perf_counter
from urllib.parse import quote, urlsplit

from .. import obs
from ..core.columnar import RunCells, decode_runs
from ..core.thresholds import AndThreshold, CountThreshold, SumThreshold, as_threshold
from ..errors import (
    GenerationSkewError,
    PlanError,
    ReplicaError,
    ReproError,
    SchemaError,
    ShardUnavailableError,
)
from ..lattice.lattice import CubeLattice
from ..obs.metrics import (
    MetricsRegistry,
    federate_prometheus,
    merge_histogram_buckets,
    quantile_from_buckets,
)
from ..obs.trace import merge_chrome_traces
from ..online.materialize import leaf_cuboids
from .http import (
    CELLRUN_TYPE,
    MAX_REQUEST_BYTES,
    HttpEndpoint,
    JsonRequestHandler,
    parse_cell,
    parse_cuboid,
    parse_threshold,
)
from .ingest import stamped_batch_id
from .resilience import CircuitBreaker, Deadline, RetryPolicy

__all__ = [
    "ShardMap",
    "ReplicaClient",
    "CubeRouter",
    "RouterAnswer",
    "RouterCubeAnswer",
    "stable_shard_hash",
]

#: One routed answer: where it came from (shard / replica index), how
#: many failovers it took, and the single store generation it carries.
#: ``cells`` is a read-only mapping over the run the replica sent
#: (:class:`~repro.core.columnar.RunCells`).
RouterAnswer = namedtuple(
    "RouterAnswer",
    ("cuboid", "threshold", "cells", "generation", "shard", "replica",
     "failovers", "latency_s"),
)

#: One merged cross-shard cube: every cuboid in the lattice, all read at
#: the same pinned ``generation`` (``attempts`` counts fan-out rounds);
#: ``cuboids`` maps each cuboid to its cells as in :data:`RouterAnswer`.
RouterCubeAnswer = namedtuple(
    "RouterCubeAnswer",
    ("cuboids", "threshold", "generation", "attempts", "latency_s"),
)

#: One replica answer as :meth:`ReplicaClient.get_runs` reads it.
RunsAnswer = namedtuple("RunsAnswer", ("cuboids", "generation", "threshold"))


def stable_shard_hash(leaf):
    """A placement hash that never moves: BLAKE2b over the leaf's
    ``/``-joined dimension names.

    Deliberately *not* Python's ``hash()`` — that is randomized per
    process (``PYTHONHASHSEED``), which would scatter a cuboid across
    different shards on every restart.
    """
    digest = blake2b("/".join(leaf).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardMap:
    """Stable assignment of leaf cuboids (and their covered prefixes)
    to ``n_shards`` shards.

    Every cuboid maps to exactly one shard — the one owning its
    covering leaf — and the assignment is a pure function of the
    dimension names and the shard count, so router, builder and every
    replica agree without coordination.
    """

    def __init__(self, dims, n_shards):
        if n_shards < 1:
            raise PlanError("n_shards must be >= 1, got %r" % (n_shards,))
        self.dims = tuple(dims)
        if not self.dims:
            raise PlanError("need at least one dimension")
        self.n_shards = int(n_shards)
        self._lattice = CubeLattice(self.dims)
        self.leaves = leaf_cuboids(self.dims)
        self._leaf_set = frozenset(self.leaves)
        self._assignment = {
            leaf: stable_shard_hash(leaf) % self.n_shards for leaf in self.leaves
        }

    def canonical(self, cuboid):
        """Normalize a cuboid to schema order."""
        return self._lattice.canonical(cuboid)

    def canonical_cell(self, cuboid, cell):
        """``(cuboid, cell)`` in schema order: the coordinates move with
        the dimensions."""
        return self._lattice.canonical_cell(cuboid, cell)

    def covering_leaf(self, cuboid):
        """The leaf whose shard answers ``cuboid`` (same rule as the
        store: append the last dimension unless already present)."""
        cuboid = self._lattice.canonical(cuboid)
        if cuboid and cuboid[-1] == self.dims[-1]:
            return cuboid
        return cuboid + (self.dims[-1],)

    def shard_of(self, cuboid):
        """The one shard index that owns ``cuboid``'s covering leaf."""
        return self._assignment[self.covering_leaf(cuboid)]

    def leaves_for(self, shard):
        """The leaf cuboids assigned to shard ``shard`` (build subset)."""
        if not 0 <= shard < self.n_shards:
            raise PlanError(
                "shard index %r out of range for %d shard(s)"
                % (shard, self.n_shards))
        return [leaf for leaf in self.leaves
                if self._assignment[leaf] == shard]

    def counts(self):
        """Leaves per shard (placement balance, for stats and tests)."""
        out = [0] * self.n_shards
        for shard in self._assignment.values():
            out[shard] += 1
        return out

    def validate_store(self, store, shard):
        """Refuse a store whose recorded placement disagrees with this map.

        A store built as shard ``i`` of ``N`` must only ever serve as
        shard ``i`` of ``N``: opening it under a different sharding
        (re-shard without rebuild) or a different dimension set would
        silently misroute queries, so it is an error, not a warning.
        """
        if tuple(store.dims) != self.dims:
            raise SchemaError(
                "store dims %r do not match the shard map's %r"
                % (tuple(store.dims), self.dims))
        recorded = getattr(store, "shard", None)
        if recorded is None:
            raise PlanError(
                "store %r is unsharded (no shard metadata in its manifest); "
                "rebuild it with shard=(%d, %d)"
                % (store.directory, shard, self.n_shards))
        if recorded != (shard, self.n_shards):
            raise PlanError(
                "store %r was built as shard %d/%d but is being served as "
                "shard %d/%d — re-sharding requires a rebuild, refusing"
                % (store.directory, recorded[0], recorded[1], shard,
                   self.n_shards))
        expected = frozenset(self.leaves_for(shard))
        if frozenset(store.leaves) != expected:
            raise PlanError(
                "store %r leaf set does not match the stable placement for "
                "shard %d/%d" % (store.directory, shard, self.n_shards))

    def __repr__(self):
        return "ShardMap(dims=%r, n_shards=%d, leaves=%s)" % (
            self.dims, self.n_shards, self.counts())


def _threshold_query(threshold):
    """Serialize a threshold into ``/query``-style URL parameters."""
    parts = []

    def emit(t):
        if isinstance(t, AndThreshold):
            for condition in t.conditions:
                emit(condition)
        elif isinstance(t, CountThreshold):
            parts.append("minsup=%d" % t.min_count)
        elif isinstance(t, SumThreshold):
            parts.append("min_sum=%s" % repr(t.min_sum))
        else:
            raise PlanError(
                "the router can forward count/sum thresholds only, got %r"
                % (t,))

    emit(as_threshold(threshold))
    return "&".join(parts)


def _merge_red(entries):
    """One shard's rate/errors/duration from its replicas' sweep entries.

    Requests and errors are sums over the replicas (errors = sheds +
    deadline overruns); latency quantiles come from the replicas'
    *merged* histogram buckets — a true shard-level distribution, not an
    average of averages.  An entry without a ``red`` block (a replica
    that was down) contributes nothing.
    """
    reds = [entry["red"] for entry in entries if entry.get("red")]
    merged = merge_histogram_buckets([red["buckets"] for red in reds])
    return {
        "requests": sum(red["requests"] for red in reds),
        "errors": sum(red["errors"] for red in reds),
        "p50_s": quantile_from_buckets(merged, 0.50),
        "p95_s": quantile_from_buckets(merged, 0.95),
        "p99_s": quantile_from_buckets(merged, 0.99),
    }


class ReplicaClient:
    """A thin HTTP client for one replica of one shard.

    Connections are kept alive: idle ones wait in a LIFO, and one goes
    back only after a complete reply the replica did not mark
    ``Connection: close``.  A request is re-sent once, on a fresh
    connection, only when a *reused* connection failed before any status
    line arrived — the replica closed it while it sat idle, so nothing
    was answered.  A timeout or a reply cut short is never re-sent.

    Failures that justify failover — connection errors, timeouts, 5xx,
    429 (overloaded) and 504 (deadline) — raise
    :class:`~repro.errors.ReplicaError`; a 409 (a lagging replica, not a
    dead one) raises :class:`~repro.errors.GenerationSkewError` and
    other 4xx replies — a bad query is bad on every replica — raise
    :class:`~repro.errors.PlanError`, neither burning a failover.
    """

    #: statuses worth retrying on a sibling replica
    FAILOVER_STATUSES = frozenset({429, 500, 502, 503, 504})

    def __init__(self, url, timeout_s=10.0):
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self._netloc = urlsplit(self.url).netloc
        self._idle = []  # list.append / list.pop are atomic: no lock

    def get_json(self, path):
        return self._json(self._request("GET", path)[1])

    def get_text(self, path):
        """Fetch a raw text body (the replica's ``/metrics`` page).

        Same failure mapping as the JSON calls, minus the decode step.
        """
        return self._request("GET", path)[1].decode("utf-8")

    def get_runs(self, path):
        """A ``/query``, ``/point`` or ``/cube`` answer read as cell runs
        (``Accept:`` :data:`~repro.serve.http.CELLRUN_TYPE`): a
        :data:`RunsAnswer`, each run held as a
        :class:`~repro.core.columnar.RunCells` mapping.  A 200 in any
        other content type, or one that does not parse, is a
        :class:`~repro.errors.ReplicaError`."""
        response, body = self._request("GET", path, {"Accept": CELLRUN_TYPE})
        try:
            if response.getheader("Content-Type") != CELLRUN_TYPE:
                raise ValueError("reply is %s, not %s" % (
                    response.getheader("Content-Type"), CELLRUN_TYPE))
            return RunsAnswer(
                {run.dims: RunCells(run) for run in decode_runs(body)},
                int(response.getheader("X-Repro-Generation")),
                response.getheader("X-Repro-Threshold"))
        except (SchemaError, TypeError, ValueError) as exc:
            raise ReplicaError(self.url, "malformed cell-run reply (%s)"
                               % exc) from None

    def post_json(self, path, payload):
        body = json.dumps(payload).encode()
        if len(body) > MAX_REQUEST_BYTES:
            raise PlanError(
                "append delta of %d bytes exceeds the %d byte request limit; "
                "split it into smaller batches" % (len(body), MAX_REQUEST_BYTES))
        return self._json(self._request(
            "POST", path, {"Content-Type": "application/json"}, body)[1])

    def _json(self, body):
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise ReplicaError(self.url, "malformed JSON reply (%s)" % exc) \
                from None

    def _request(self, method, path, headers=None, body=None):
        """``(response, body bytes)`` of one 2xx reply; every other
        outcome raises as the class docstring says."""
        headers = dict(headers or {})
        # Every outbound call carries the caller's trace position, so
        # replica-side spans parent under the router span that caused
        # them.  No context, no header — the replica starts fresh.
        traceparent = obs.inject()
        if traceparent is not None:
            headers["traceparent"] = traceparent
        try:
            connection, reused = self._idle.pop(), True
        except IndexError:
            connection, reused = self._connect(), False
        try:
            try:
                connection.request(method, path, body, headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # (RemoteDisconnected is a ConnectionResetError: the
                # replica hung up before a status line.)
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                connection.request(method, path, body, headers)
                response = connection.getresponse()
            data = response.read()
        except (OSError, HTTPException) as exc:
            # HTTPException: the replica died mid-reply (IncompleteRead)
            connection.close()
            raise ReplicaError(self.url, str(exc) or repr(exc)) from None
        if response.will_close:
            connection.close()
        else:
            self._idle.append(connection)
        status = response.status
        if 200 <= status < 300:
            return response, data
        try:
            detail = json.loads(data).get("error", "no detail")
        except Exception:
            detail = "no detail"
        if status in self.FAILOVER_STATUSES:
            raise ReplicaError(self.url, detail, status=status)
        if status == 409:
            raise GenerationSkewError("replica %s: %s" % (self.url, detail))
        raise PlanError("replica %s rejected the request (HTTP %d): %s"
                        % (self.url, status, detail))

    def _connect(self):
        return HTTPConnection(self._netloc, timeout=self.timeout_s)

    def close(self):
        """Close the idle connections (a request in flight keeps its own)."""
        idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __repr__(self):
        return "ReplicaClient(%s)" % self.url


class CubeRouter:
    """A stateless fan-out/merge router over N shards x R replicas.

    ``shard_replicas`` is a list of shards, each a list of replica base
    URLs.  ``dims`` may be given up front; otherwise the router
    discovers them from the first replica that answers ``/healthz`` (and
    validates every replica's recorded shard placement against its
    configured position — a misplaced or re-sharded replica is refused).

    Thread-safe; queries may be issued concurrently.  The router keeps
    no cube state — only breakers, health snapshots and metrics — so
    any number of routers can front the same cluster.
    """

    def __init__(self, shard_replicas, dims=None, timeout_s=10.0,
                 breaker_factory=None, health_interval_s=0.0, registry=None,
                 append_deadline_s=None, retry_policy=None):
        if not shard_replicas:
            raise PlanError("need at least one shard")
        self.shards = []
        for urls in shard_replicas:
            urls = list(urls)
            if not urls:
                raise PlanError("every shard needs at least one replica URL")
            self.shards.append([ReplicaClient(u, timeout_s) for u in urls])
        self.n_shards = len(self.shards)
        if breaker_factory is None:
            breaker_factory = lambda: CircuitBreaker(  # noqa: E731
                failure_threshold=3, reset_after_s=2.0)
        self.breakers = {
            (s, r): breaker_factory()
            for s, replicas in enumerate(self.shards)
            for r in range(len(replicas))
        }
        self._shard_map = ShardMap(dims, self.n_shards) if dims else None
        self._lock = threading.Lock()
        self._rr = [0] * self.n_shards
        self._health = {}  # (shard, replica) -> last /healthz snapshot
        self._endpoints = []
        self._closed = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * self.n_shards,
                            sum(len(r) for r in self.shards)),
            thread_name_prefix="cube-router")
        if retry_policy is None:
            retry_policy = RetryPolicy()
        self.append_policy = retry_policy
        if append_deadline_s is not None and float(append_deadline_s) <= 0:
            raise PlanError("append_deadline_s must be > 0, got %r"
                            % (append_deadline_s,))
        self.append_deadline_s = append_deadline_s
        if registry is None:
            active = obs.current()
            registry = active.registry if active is not None \
                else MetricsRegistry()
        self.registry = registry
        self._requests = registry.counter(
            "repro_router_requests_total",
            "Routed requests by kind and outcome.", ("kind", "outcome"))
        self._latency = registry.histogram(
            "repro_router_latency_seconds",
            "Latency of answered routed requests, by kind "
            "(query/point/cube/append).", ("kind",))
        self._failovers = registry.counter(
            "repro_router_failovers_total",
            "Replica failures that caused a failover attempt, per shard.",
            ("shard",))
        self._unavailable = registry.counter(
            "repro_router_shard_unavailable_total",
            "Requests answered 503 because a whole shard was down.",
            ("shard",))
        self._health_checks = registry.counter(
            "repro_router_health_checks_total",
            "Background /healthz probes by result.", ("status",))
        self._append_retries = registry.counter(
            "repro_router_append_retries_total",
            "Append attempts that failed and were retried, per shard.",
            ("shard",))
        self._anti_entropy = registry.counter(
            "repro_router_anti_entropy_total",
            "Anti-entropy repair actions by outcome.", ("outcome",))
        self._replica_up = registry.gauge(
            "repro_router_replica_up",
            "1 if the replica's last health probe succeeded, else 0.",
            ("shard", "replica"))
        self._replica_lag = registry.gauge(
            "repro_router_replica_lag",
            "Generations the replica lags its shard's freshest sibling "
            "(anti-entropy's repair signal).", ("shard", "replica"))
        self._scrape_failures = registry.counter(
            "repro_router_scrape_failures_total",
            "Replica scrapes (federation/trace collection) that failed.",
            ("kind",))
        self._health_thread = None
        self.health_interval_s = float(health_interval_s)
        if self.health_interval_s > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop, name="router-health", daemon=True)
            self._health_thread.start()

    # ------------------------------------------------------------------
    # topology discovery
    # ------------------------------------------------------------------
    def _ensure_map(self):
        map_ = self._shard_map
        if map_ is not None:
            return map_
        errors = []
        for shard, replicas in enumerate(self.shards):
            for replica, client in enumerate(replicas):
                try:
                    health = client.get_json("/healthz")
                except (ReplicaError, PlanError) as exc:
                    errors.append(str(exc))
                    continue
                with self._lock:
                    if self._shard_map is None:
                        self._shard_map = ShardMap(
                            tuple(health["dims"]), self.n_shards)
                self._validate_placement(shard, health)
                return self._shard_map
        raise ShardUnavailableError(
            0, sum(len(r) for r in self.shards),
            "no replica answered /healthz to bootstrap the shard map: "
            + "; ".join(errors))

    def _validate_placement(self, shard, health):
        """Refuse replicas whose recorded shard placement is wrong."""
        recorded = health.get("shard")
        if recorded is None:
            if self.n_shards == 1:
                return  # an unsharded store behind a 1-shard router is fine
            raise PlanError(
                "replica of shard %d serves an unsharded store but the "
                "router is configured with %d shards" % (shard, self.n_shards))
        if (int(recorded["index"]), int(recorded["of"])) \
                != (shard, self.n_shards):
            raise PlanError(
                "replica configured as shard %d/%d reports shard %d/%d — "
                "re-sharding requires rebuilding the stores, refusing"
                % (shard, self.n_shards,
                   int(recorded["index"]), int(recorded["of"])))

    def shard_for(self, cuboid):
        """Which shard answers ``cuboid`` (placement introspection)."""
        return self._ensure_map().shard_of(cuboid)

    # ------------------------------------------------------------------
    # one-shard calls with failover
    # ------------------------------------------------------------------
    def _call_shard(self, shard, path):
        """Call one shard, failing over across its replicas.

        Replicas are tried in round-robin rotation, skipping those whose
        breaker is open; a :class:`~repro.errors.ReplicaError` records a
        breaker failure and moves on to the next sibling.  Returns
        ``(RunsAnswer, replica_index, failovers)``; raises
        :class:`~repro.errors.ShardUnavailableError` when no replica
        could answer.
        """
        replicas = self.shards[shard]
        with self._lock:
            start = self._rr[shard]
            self._rr[shard] += 1
        failures = []
        failovers = 0
        for k in range(len(replicas)):
            index = (start + k) % len(replicas)
            client = replicas[index]
            breaker = self.breakers[(shard, index)]
            if not breaker.allow():
                failures.append("%s: circuit breaker open" % client.url)
                continue
            try:
                runs = client.get_runs(path)
            except ReplicaError as exc:
                breaker.record_failure()
                failures.append(str(exc))
                failovers += 1
                self._failovers.inc(shard=str(shard))
                obs.event("router.failover", shard=shard, replica=index)
                continue
            breaker.record_success()
            return runs, index, failovers
        self._unavailable.inc(shard=str(shard))
        obs.event("router.shard_unavailable", shard=shard)
        raise ShardUnavailableError(shard, len(replicas),
                                    "; ".join(failures))

    @staticmethod
    def _traced(ctx, fn, *args):
        """Run ``fn`` on a pool thread under the submitter's trace
        context (pool threads otherwise start their own traces)."""
        with obs.activate(ctx):
            return fn(*args)

    # ------------------------------------------------------------------
    # query surface
    # ------------------------------------------------------------------
    def query(self, cuboid, minsup=1):
        """One group-by, routed to the owning shard with failover."""
        return self._routed("query", cuboid, minsup, "")

    def point(self, cuboid, cell, minsup=1):
        """One cell lookup, routed to the owning shard with failover;
        the cell travels (and is answered) in the canonical cuboid's
        order."""
        cuboid, cell = self._ensure_map().canonical_cell(cuboid, cell)
        return self._routed(
            "point", cuboid, minsup,
            "&cell=" + ",".join(str(int(v)) for v in cell))

    def _routed(self, kind, cuboid, minsup, extra_query):
        start = perf_counter()
        threshold = as_threshold(minsup)
        shard_map = self._ensure_map()
        canonical = shard_map.canonical(cuboid)
        shard = shard_map.shard_of(canonical)
        path = "/%s?cuboid=%s%s&%s" % (
            kind, quote(",".join(canonical), safe=","), extra_query,
            _threshold_query(threshold))
        with obs.span("router." + kind) as span:
            try:
                runs, replica, failovers = self._call_shard(shard, path)
            except ReproError:
                self._requests.inc(kind=kind, outcome="error")
                raise
            self._requests.inc(kind=kind, outcome="ok")
            if span:
                span.set(cuboid=list(canonical), shard=shard,
                         replica=replica, failovers=failovers)
            latency = perf_counter() - start
            self._latency.observe(latency, kind=kind)
        [(cuboid, cells)] = runs.cuboids.items()
        return RouterAnswer(cuboid, runs.threshold, cells, runs.generation,
                            shard, replica, failovers, latency)

    def cube(self, minsup=1):
        """The full iceberg cube, fanned out and pinned to one generation.

        Every shard contributes the cuboids it owns.  Round one asks
        each shard for its current share; the lowest generation returned
        is the pin, and round two asks only the shards that were ahead
        for their share at the pin (``/cube?at=G``) — two rounds at
        most, whatever the append rate.  A replica that does not hold
        the pin raises :class:`~repro.errors.GenerationSkewError` rather
        than the router mixing generations.
        """
        start = perf_counter()
        threshold = as_threshold(minsup)
        self._ensure_map()
        path = "/cube?" + _threshold_query(threshold)
        with obs.span("router.cube") as span:
            # Fan-out threads have no span stack of their own; hand them
            # this thread's context so the traceparent each ReplicaClient
            # injects names the router.cube span as parent.
            ctx = obs.context()
            try:
                responses = self._fan_out(ctx, range(self.n_shards), path)
                pinned = min(r.generation for r in responses.values())
                ahead = [s for s, r in responses.items()
                         if r.generation != pinned]
                responses.update(self._fan_out(
                    ctx, ahead, "%s&at=%d" % (path, pinned)))
            except GenerationSkewError:
                self._requests.inc(kind="cube", outcome="generation_skew")
                raise
            except ReproError:
                self._requests.inc(kind="cube", outcome="error")
                raise
            # Shards own disjoint cuboids: their answers concatenate.
            merged = {}
            for runs in responses.values():
                merged.update(runs.cuboids)
            self._requests.inc(kind="cube", outcome="ok")
            rounds = 2 if ahead else 1
            if span:
                span.set(cuboids=len(merged), generation=pinned,
                         attempts=rounds)
            latency = perf_counter() - start
            self._latency.observe(latency, kind="cube")
        return RouterCubeAnswer(
            merged, threshold.describe(), pinned, rounds, latency)

    def _fan_out(self, ctx, shards, path):
        """``{shard: RunsAnswer}`` of ``path``, asked of ``shards`` at once."""
        futures = {
            s: self._pool.submit(self._traced, ctx, self._call_shard, s, path)
            for s in shards
        }
        return {s: future.result()[0] for s, future in futures.items()}

    def _append_replica(self, shard, replica, payload, deadline):
        """Deliver one append to one replica, retrying with backoff.

        Consults the replica's circuit breaker before every try (a
        tripped replica is skipped and left to anti-entropy repair, the
        same way the query path skips it) and records every outcome on
        it.  Transient :class:`~repro.errors.ReplicaError` failures are
        retried under the router's :class:`RetryPolicy`; a
        :class:`~repro.errors.PlanError` (the replica answered, and said
        no) is permanent.  Retrying is safe because every delivery
        carries the batch's idempotence key: a replica that applied the
        batch but lost the reply just acknowledges the duplicate.
        """
        attempts = self.append_policy.attempts
        client = self.shards[shard][replica]
        breaker = self.breakers[(shard, replica)]
        outcome = {"shard": shard, "replica": replica, "ok": False}
        last_error = "no attempt made"
        for attempt in range(attempts):
            if not breaker.allow():
                outcome["error"] = "circuit breaker open"
                outcome["skipped"] = True
                obs.event("router.append_breaker_skip",
                          shard=shard, replica=replica)
                return outcome
            if deadline is not None and deadline.expired():
                outcome["error"] = ("append deadline exceeded after %d "
                                    "attempts (%s)" % (attempt, last_error))
                return outcome
            try:
                reply = client.post_json("/append", payload)
            except ReplicaError as exc:
                breaker.record_failure()
                last_error = str(exc)
                self._failovers.inc(shard=str(shard))
                if attempt + 1 < attempts:
                    self._append_retries.inc(shard=str(shard))
                    obs.event("router.append_retry", shard=shard,
                              replica=replica, attempt=attempt)
                    if self.append_policy.pause(attempt, deadline):
                        continue
                    outcome["error"] = ("append deadline cannot absorb "
                                        "backoff (%s)" % last_error)
                    return outcome
                outcome["error"] = last_error
                outcome["attempts"] = attempt + 1
                return outcome
            except PlanError as exc:
                outcome["error"] = str(exc)
                outcome["permanent"] = True
                outcome["attempts"] = attempt + 1
                return outcome
            breaker.record_success()
            outcome.update(
                ok=True, generation=reply.get("generation"),
                applied=reply.get("applied", True),
                attempts=attempt + 1)
            return outcome
        return outcome  # pragma: no cover - loop always returns

    def append(self, relation, batch_id=None, deadline_s=None):
        """Fold a row delta into *every* replica of every shard.

        Each replica applies the delta to its own store (replicas do not
        share disks), so the cluster's generations converge as the posts
        land; reads stay consistent throughout via the generation
        protocol.  Deliveries run in parallel; the whole batch travels
        under one idempotence key (the caller's ``batch_id``, else one
        minted here) and each replica gets the full retry budget (capped
        full-jitter backoff, breaker-aware — see
        :meth:`_append_replica`), so retries — including a *client*
        retrying this very call after a crash — can never double-count
        rows.

        Returns a summary with per-replica outcomes (``applied`` counts
        acknowledgements, ``duplicates`` the acks that were replays).  A
        shard whose replicas *all* failed raises
        :class:`~repro.errors.ShardUnavailableError` — that shard would
        otherwise be permanently stale; re-calling with the same
        ``batch_id`` is the safe recovery.
        """
        start = perf_counter()
        with obs.span("router.append", rows=len(relation)) as span:
            if batch_id is None:
                # Stamp the batch with the live trace id: every later
                # sighting of this id — replica WAL, retry, anti-entropy
                # re-delivery — correlates back to this append's trace.
                batch_id = stamped_batch_id(obs.trace_id())
            batch_id = str(batch_id)
            if span:
                span.set(batch_id=batch_id)
            payload = {
                "dims": list(relation.dims),
                "rows": [list(row) for row in relation.rows],
                "measures": list(relation.measures),
                "batch_id": batch_id,
            }
            if deadline_s is None:
                deadline_s = self.append_deadline_s
            deadline = Deadline(deadline_s) if deadline_s is not None else None
            ctx = obs.context()
            futures = {
                (shard, replica): self._pool.submit(
                    self._traced, ctx, self._append_replica, shard, replica,
                    payload, deadline)
                for shard, replicas in enumerate(self.shards)
                for replica in range(len(replicas))
            }
            outcomes = [futures[key].result() for key in sorted(futures)]
            for shard, replicas in enumerate(self.shards):
                ok = sum(1 for o in outcomes
                         if o["shard"] == shard and o["ok"])
                if ok == 0:
                    errors = "; ".join(
                        o.get("error", "?") for o in outcomes
                        if o["shard"] == shard)
                    self._unavailable.inc(shard=str(shard))
                    obs.event("router.shard_unavailable", shard=shard)
                    self._requests.inc(kind="append", outcome="unavailable")
                    raise ShardUnavailableError(
                        shard, len(replicas),
                        "append failed on every replica (%s); batch %s is "
                        "safe to resubmit — idempotence keys deduplicate"
                        % (errors, batch_id))
            applied = sum(1 for o in outcomes if o["ok"])
            duplicates = sum(1 for o in outcomes
                             if o["ok"] and not o.get("applied", True))
            self._requests.inc(kind="append",
                               outcome="ok" if applied == len(outcomes)
                               else "partial")
            self._latency.observe(perf_counter() - start, kind="append")
            if span:
                span.set(applied=applied, duplicates=duplicates)
        return {"rows": len(relation), "replicas": len(outcomes),
                "applied": applied, "duplicates": duplicates,
                "batch_id": batch_id, "outcomes": outcomes}

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def check_health(self):
        """One synchronous sweep of every replica's ``/healthz``.

        Success closes the replica's breaker (recovered replicas rejoin
        rotation); failure records a breaker failure (dead replicas trip
        out).  A replica reporting the wrong shard placement is marked
        ``misplaced`` and counted as a failure — better to lose a
        replica than to serve another shard's cuboids.  The snapshot is
        remembered for :meth:`health` (each healthy entry keeps the
        replica's ``red`` block, which :meth:`health` merges per shard)
        and drives the anti-entropy sweep.
        """
        snapshot = {}
        for shard, replicas in enumerate(self.shards):
            for replica, client in enumerate(replicas):
                key = (shard, replica)
                breaker = self.breakers[key]
                try:
                    health = client.get_json("/healthz")
                    self._validate_placement(shard, health)
                except (ReplicaError, PlanError, SchemaError, KeyError) as exc:
                    status = "misplaced" if isinstance(exc, PlanError) \
                        else "down"
                    breaker.record_failure()
                    self._health_checks.inc(status=status)
                    self._replica_up.set(
                        0, shard=str(shard), replica=str(replica))
                    snapshot[key] = {"url": client.url, "status": status,
                                     "error": str(exc)}
                    continue
                breaker.record_success()
                self._health_checks.inc(status="ok")
                self._replica_up.set(1, shard=str(shard), replica=str(replica))
                snapshot[key] = {
                    "url": client.url, "status": health.get("status", "ok"),
                    "generation": health.get("generation"),
                    "verify": health.get("verify"),
                    "wal": health.get("wal"),
                    "red": health.get("red"),
                }
        with self._lock:
            self._health = snapshot
        # Per-replica generation lag against the shard's freshest healthy
        # sibling: exported as a gauge, and what anti-entropy repairs by.
        for shard in range(self.n_shards):
            generations = {
                replica: int(state["generation"])
                for (s, replica), state in sorted(snapshot.items())
                if s == shard and state.get("status") == "ok"
                and state.get("generation") is not None
            }
            if not generations:
                continue
            target = max(generations.values())
            for replica, generation in generations.items():
                self._replica_lag.set(target - generation,
                                      shard=str(shard), replica=str(replica))
            if min(generations.values()) < target:
                self._repair_shard(shard, generations, snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # anti-entropy repair
    # ------------------------------------------------------------------
    def _repair_shard(self, shard, generations, snapshot):
        """Re-deliver missing WAL batches to generation-lagging replicas.

        ``generations`` maps the shard's healthy replicas to their
        generation.  The freshest replica is the repair *source*: its
        pending (un-compacted) WAL batches are fetched over ``GET /wal``
        and re-POSTed — original batch ids and all — to every healthy
        sibling whose generation lags.
        Replays land in WAL order and duplicates are acknowledged
        idempotently, so repair converges the replicas to cell-exact
        equality without any coordination beyond the health sweep that
        is already running.  A replica that lags below the source's WAL
        *base* (those batches were compacted away) is counted
        ``unrepairable`` — it needs a store resync, which repair will
        not guess at.
        """
        target = max(generations.values())
        source = min(r for r, g in generations.items() if g == target)
        source_base = int((snapshot[(shard, source)].get("wal") or {})
                          .get("base_generation", target))
        for replica, generation in generations.items():
            if generation >= target:
                continue
            if generation < source_base:
                # The batches it missed predate the source's last
                # compaction — the WAL can no longer replay them.
                self._anti_entropy.inc(outcome="unrepairable")
                obs.event("router.anti_entropy_unrepairable",
                          shard=shard, replica=replica,
                          reason="lags below the source WAL base "
                                 "(%d < %d): store resync required"
                                 % (generation, source_base))
                continue
            self._repair_replica(shard, replica, source, source_base)

    def _repair_replica(self, shard, replica, source, source_base):
        """Fetch the source's pending WAL batches and re-POST them all.

        Every pending batch is re-delivered (the lagging replica's own
        generation cannot name *which* batches it missed when failures
        interleaved), relying on idempotence keys to turn the already-
        applied ones into cheap duplicate acks and the missing ones into
        real appends — after which both replicas have applied the same
        batch set and their generations agree.
        """
        source_client = self.shards[shard][source]
        client = self.shards[shard][replica]
        try:
            reply = source_client.get_json("/wal?since=%d" % source_base)
        except (ReplicaError, PlanError) as exc:
            self._anti_entropy.inc(outcome="fetch_failed")
            obs.event("router.anti_entropy_fetch_failed", shard=shard,
                      source=source, error=str(exc))
            return
        if reply.get("truncated"):
            self._anti_entropy.inc(outcome="unrepairable")
            obs.event("router.anti_entropy_unrepairable", shard=shard,
                      replica=replica,
                      reason="source WAL truncated during repair")
            return
        delivered = applied = 0
        for batch in reply.get("batches", []):
            payload = {"dims": batch["dims"], "rows": batch["rows"],
                       "measures": batch["measures"],
                       "batch_id": batch["batch_id"]}
            try:
                ack = client.post_json("/append", payload)
            except (ReplicaError, PlanError) as exc:
                self._anti_entropy.inc(outcome="redeliver_failed")
                obs.event("router.anti_entropy_redeliver_failed",
                          shard=shard, replica=replica, error=str(exc))
                return
            delivered += 1
            if ack.get("applied", True):
                applied += 1
        self._anti_entropy.inc(outcome="repaired")
        obs.event("router.anti_entropy_repaired", shard=shard,
                  replica=replica, source=source, delivered=delivered,
                  applied=applied)

    def _health_loop(self):
        while True:
            try:
                self.check_health()
            except Exception:  # pragma: no cover - belt and braces
                pass  # a health sweep must never kill the router
            if self._closed.wait(self.health_interval_s):
                return

    def health(self):
        """The router's own ``/healthz`` body: per-shard replica states.

        Read off the last :meth:`check_health` sweep, RED numbers
        included, so it asks no replica anything — the numbers are as
        fresh as ``health_interval_s``.
        """
        with self._lock:
            snapshot = dict(self._health)
        if not snapshot:
            # No sweep has run yet (health checker off, or just booted):
            # probe synchronously rather than guess the cluster is down.
            snapshot = self.check_health()
        shards = []
        degraded = []
        for shard, replicas in enumerate(self.shards):
            entries = []
            up = 0
            for replica, client in enumerate(replicas):
                state = snapshot.get((shard, replica), {"url": client.url,
                                                        "status": "unknown"})
                state = dict(state)
                state["breaker_local"] = self.breakers[(shard, replica)].state
                entries.append(state)
                if state["status"] == "ok" \
                        and state["breaker_local"] != "open":
                    up += 1
            if up == 0:
                degraded.append(shard)
            shards.append({"shard": shard, "replicas": entries, "up": up,
                           "red": _merge_red(entries)})
        status = "ok" if not degraded else "degraded"
        return {"status": status, "n_shards": self.n_shards,
                "degraded_shards": degraded, "shards": shards}

    def stats(self):
        """Router-wide latency, per-replica breaker states and health.

        ``latency`` is read off ``repro_router_latency_seconds``, one
        entry per kind in the shape of a server's ``by_source``.
        """
        latency = {}
        for kind in ("query", "point", "cube", "append"):
            summary = self._latency.summary(kind=kind)
            latency[kind] = {
                "count": summary["count"],
                "p50_ms": round(1000.0 * summary["p50"], 3),
                "p95_ms": round(1000.0 * summary["p95"], 3),
                "p99_ms": round(1000.0 * summary["p99"], 3),
            }
        return {
            "n_shards": self.n_shards,
            "replicas": [len(r) for r in self.shards],
            "latency": latency,
            "breakers": {
                "%d/%d" % key: breaker.stats()
                for key, breaker in sorted(self.breakers.items())
            },
            "health": self.health(),
        }

    # ------------------------------------------------------------------
    # observability: trace collection + metrics federation
    # ------------------------------------------------------------------
    def _scrape_replicas(self, path, kind, json_body=False):
        """Fetch ``path`` from every replica in parallel.

        Returns ``{(shard, replica): body}`` for the replicas that
        answered.  A failed scrape is counted and skipped — federation
        degrades to the reachable subset instead of failing the page
        (the ``shard``/``replica`` labels make the gap visible).
        """
        def fetch(client):
            return client.get_json(path) if json_body \
                else client.get_text(path)

        futures = {
            (shard, replica): self._pool.submit(fetch, client)
            for shard, replicas in enumerate(self.shards)
            for replica, client in enumerate(replicas)
        }
        out = {}
        for key, future in futures.items():
            try:
                out[key] = future.result()
            except (ReplicaError, PlanError):
                self._scrape_failures.inc(kind=kind)
        return out

    def federated_metrics(self):
        """One Prometheus page for the whole cluster.

        The router's own registry passes through unlabelled; every
        replica's scrape is relabelled with ``shard``/``replica`` before
        merging, so per-replica series stay distinguishable and summing
        them back (``sum by (shard)``, or plain ``sum``) reproduces each
        replica's own totals exactly.
        """
        sources = [({}, self.registry.to_prometheus())]
        scrapes = self._scrape_replicas("/metrics", "metrics")
        for (shard, replica) in sorted(scrapes):
            sources.append((
                {"shard": str(shard), "replica": str(replica)},
                scrapes[(shard, replica)]))
        return federate_prometheus(sources)

    def trace_payload(self, since=0):
        """The router's own span export (``GET /trace?since=`` body)."""
        active = obs.current()
        if active is None:
            return {"enabled": False, "node": "router", "spans": []}
        return active.tracer.payload(since=since, node="router")

    def collect_trace(self, path=None):
        """Merge the whole cluster's spans into one Chrome trace.

        Scrapes every replica's ``GET /trace`` and merges with the
        router's own buffer: one process track per node, spans aligned
        on the shared wall clock, correlated by trace id.  With ``path``
        the merged JSON is also written to disk (the ``router
        --trace-out`` artifact).
        """
        processes = [("router", self.trace_payload())]
        scrapes = self._scrape_replicas("/trace?since=0", "trace",
                                        json_body=True)
        for (shard, replica) in sorted(scrapes):
            processes.append((
                "shard%d/replica%d" % (shard, replica),
                scrapes[(shard, replica)]))
        merged = merge_chrome_traces(processes)
        if path is not None:
            with open(path, "w") as handle:
                json.dump(merged, handle, indent=1)
                handle.write("\n")
        return merged

    # ------------------------------------------------------------------
    # HTTP endpoint + lifecycle
    # ------------------------------------------------------------------
    def serve_http(self, host="127.0.0.1", port=0):
        """Expose the router over JSON HTTP (same surface shape as a
        replica, so clients cannot tell one box from the cluster)."""
        if self._closed.is_set():
            raise PlanError("router is closed")
        endpoint = HttpEndpoint(self, _RouterRequestHandler, host, port,
                                "router-http")
        self._endpoints.append(endpoint)
        return endpoint

    def close(self):
        """Stop the health checker, endpoints and fan-out pool, and close
        the connections kept alive to the replicas."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        endpoints, self._endpoints = self._endpoints, []
        for endpoint in endpoints:
            endpoint.close()
        self._pool.shutdown(wait=True)
        for replicas in self.shards:
            for client in replicas:
                client.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return "CubeRouter(%d shards, %s replicas)" % (
            self.n_shards, [len(r) for r in self.shards])


class _RouterRequestHandler(JsonRequestHandler):
    server_version = "repro-router/1.0"
    error_kinds = (
        # The honest partial outage: name the shard, never guess.
        (ShardUnavailableError, 503, "shard_unavailable", "shard"),
        # Honest retry signal: a replica could not answer at the pinned
        # generation; never a mislabeled or mixed answer.
        (GenerationSkewError, 503, "generation_skew", None),
    )
    get_routes = {
        "/query": "_get_query", "/point": "_get_point", "/cube": "_get_cube",
        "/healthz": "_get_healthz", "/stats": "_get_stats",
        "/metrics": "_get_metrics", "/trace": "_get_trace",
        "/trace/cluster": "_get_cluster_trace",
    }
    post_routes = {"/append": "_post_append"}

    def _get_query(self, params):
        self._answer(self.app.query(
            parse_cuboid(params), parse_threshold(params)))

    def _get_point(self, params):
        self._answer(self.app.point(
            parse_cuboid(params), parse_cell(params), parse_threshold(params)))

    def _answer(self, answer):
        self._reply_answer(answer, shard=answer.shard,
                           replica=answer.replica,
                           failovers=answer.failovers)

    def _get_cube(self, params):
        answer = self.app.cube(parse_threshold(params))
        self._reply_answer(answer, attempts=answer.attempts)

    def _get_metrics(self, params):
        # The federated page: this router's registry plus every
        # replica's scrape, relabelled shard/replica and merged.
        self._reply_text(200, self.app.federated_metrics())

    def _get_cluster_trace(self, params):
        self._reply(200, self.app.collect_trace())

    def _post_append(self, params):
        relation, batch_id = self._read_append()
        self._reply(200, self.app.append(relation, batch_id=batch_id))

