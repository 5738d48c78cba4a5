"""The pipeline cube -> build -> warm -> flood -> ingest -> kill+recover
-> compact against the library's public entry points, run in *rounds*.

One round is one whole pipeline on a freshly built store; a run repeats
rounds until ``--seconds`` are used and every timing metric is the
median over the rounds.  So each stage is sampled across the whole run
rather than in one block of it: on a shared host, whose speed drifts
over seconds, that is what makes two runs agree.

Every stage is timed with ``time.perf_counter`` in the driver and
wrapped in a ``bench.stage`` span; every call into the library is
wrapped in a ``bench.call`` span naming the called layer.  With tracing
off both are the no-op span, so the untraced run pays one ``None`` check
per call.  Every answer is checked (see :class:`Checker`); a mismatch
never raises mid-run, it is counted, reported and fails the command.
"""

import hashlib
import os
import shutil
import statistics
import threading
import time
from contextlib import contextmanager

from repro import obs
from repro.data import stream_from_relation
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.mr import mapreduce_iceberg_cube, mapreduce_materialize
from repro.online import LeafMaterialization
from repro.parallel import multiprocess_iceberg_cube
from repro.serve import CubeRouter, CubeServer, CubeStore, ShardMap

import trace as tracing
from probes import leaf_fingerprints, probe_json_bytes
from servers import ServerGroup, scrape
from workloads import BATCH_ROWS, Query, digest, filter_minsup

WORKERS = 2
MR_MEMORY_BUDGET = 1 << 20
#: Map tasks the MapReduce input is cut into: each spills at least
#: once, so every reducer merges several runs (the budget alone cannot
#: force a spill, it is only checked at 4 096-row chunk boundaries).
MR_SPLITS = 8
STAGES = ("cube", "build", "warm", "flood", "ingest", "recover", "compact")
#: What a round of the untraced run does.  Recovery and compaction are
#: the two dearest stages of a round (a WAL replay and a rewrite of every
#: leaf); with them a run has half as many rounds, and no timing repeats
#: within its bound.  They run, and are checked, in the traced run, which
#: reports them as per-layer metrics.
UNTRACED_STAGES = STAGES[:5]
#: Length of one flood slice and slices per round; the flood reports its
#: median slice over all rounds.
SLICE_S = 0.3
SLICES_PER_ROUND = 2
#: Pause between two appends.  A writer appending back to back holds the
#: store lock almost continuously, and an in-process reader then fails
#: with GenerationSkewError after 8 starved attempts; a producer that
#: breathes between micro-batches is also the realistic one.
APPEND_THINK_S = 0.02
#: Pause between two requests of the reader that runs beside the writer
#: (a polling dashboard).  A saturating in-process reader takes the GIL
#: from the writer every 5 ms, and append latency then measures thread
#: scheduling (it repeated within a third; paced, within a tenth).
READER_THINK_S = 0.005
#: The second batch and every Nth after it are re-sent with the same
#: batch id (the duplicate must be acknowledged, never re-applied).
DUPLICATE_EVERY = 8
N_SHARDS = 2
#: Replicas per shard.  One: with two, an append fans out to four server
#: processes at once on the reference box's two cores, and its latency
#: measures the scheduler.
N_REPLICAS = 1


#: Seconds :func:`calibrate` takes on the reference box (2 vCPUs of a
#: Xeon @ 2.1 GHz under KVM, python 3.11) while its host is quiet.
CALIBRATION_REFERENCE_S = 0.0077


def calibrate():
    """Seconds a fixed piece of pure-Python work takes right now.

    The benchmark runs on a few cores of a shared host whose speed moves
    by a quarter to a half for minutes at a time (every timing of a run
    moves with it, this one too), which is more than any bound a metric
    may carry.  So this is timed before and after every stage sample, and
    the run's median of it, over ``CALIBRATION_REFERENCE_S``, is the
    *host slowdown* by which the end-to-end timings are divided: they
    read as seconds on the quiet reference box."""
    started = time.perf_counter()
    cells = {}
    for i in range(50000):
        key = (i & 63, i % 7)
        cells[key] = cells.get(key, 0) + i
    return time.perf_counter() - started


def call(layer, fn):
    """The ``bench.call`` span around one public call into ``layer``."""
    return obs.span("bench.call", layer=layer, fn=fn)


class Checker:
    """Counts operations attempted and failed, keeping the first few
    failure descriptions for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._lock = threading.Lock()

    def check(self, ok, what):
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.notes) < 10:
                    self.notes.append(what)

    def error(self, what, exc):
        self.check(False, "%s: %s: %s" % (what, exc.__class__.__name__, exc))


def mr_source(relation):
    """``relation`` cut into ``MR_SPLITS`` map tasks."""
    return stream_from_relation(
        relation, split_rows=max(1, -(-len(relation) // MR_SPLITS)))


def payload_cells(payload):
    """An HTTP ``/query`` body's cells as ``{cell: (count, sum)}``."""
    return {tuple(entry["cell"]): (entry["count"], entry["sum"])
            for entry in payload["cells"]}


def dir_bytes(directory):
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def manifest_sha256(directory):
    with open(os.path.join(directory, "manifest.json"), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ----------------------------------------------------------------------
# serving paths
# ----------------------------------------------------------------------

class InProcess:
    """``CubeServer.query`` / ``.append`` called directly (no HTTP)."""

    layer = "serve.server"
    replicas = 1
    #: Closed-loop clients of the flood.  One: two threads calling into
    #: one interpreter hand its lock back and forth, which halves the
    #: throughput and triples its spread from slice to slice (README,
    #: findings), so the number would measure the hand-offs.
    clients = 1
    #: Cold starts timed per round (an in-process one takes 30 ms).
    warm_repeats = 3

    def __init__(self, run):
        self.run = run
        self.store = None
        self.server = None

    def start(self):
        directory = self.run.store_dirs[0]
        started = time.perf_counter()
        with call("serve.store", "CubeStore.open"):
            self.store = CubeStore.open(directory, verify="full", wal=True,
                                        compact_after=None)
        self.run.numbers["replay_s"] = time.perf_counter() - started
        self.server = CubeServer(self.store,
                                 cache_size=self.run.spec.cache_size,
                                 max_workers=WORKERS)

    def ask(self, query):
        answer = self.server.query(query.cuboid, query.minsup)
        return answer.cells, answer.generation

    def append(self, batch, batch_id):
        result = self.server.append(batch, batch_id=batch_id)
        return result.applied

    def state(self):
        """``[(label, total_rows, generation)]`` of every store served."""
        return [("store", self.store.total_rows, self.store.generation)]

    def stats(self):
        return {"store": self.server.stats()}

    def stop(self):
        # The in-process crash: drop the store without close(), so
        # nothing is flushed beyond what each acknowledged append
        # already fsync'd.  (CubeServer.query never starts the server's
        # thread pool, so there is nothing to join either.)
        self.store = self.server = None

    def release_stores(self):
        """Hand the (recovered) store over for the compact stage."""
        stores, self.store, self.server = [self.store], None, None
        return stores


class OverHttp:
    """One ``repro serve`` subprocess, queried with the stdlib client."""

    layer = "http"
    replicas = 1
    #: Closed-loop clients of the flood: as many as the server has
    #: threads (and the reference box cores).
    clients = 2
    warm_repeats = 1

    def __init__(self, run):
        self.run = run
        self.group = run.servers
        self.server = None

    def _specs(self):
        spec = self.run.spec
        return [("store", self.run.store_dirs[0],
                 ["--cache-size", str(spec.cache_size),
                  "--threads", str(WORKERS),
                  "--compact-after", str(spec.compact_after)])]

    def start(self):
        started = time.perf_counter()
        with call("serve.server", "repro serve (spawn)"):
            (self.server,) = self.group.spawn_all(self._specs())
        self.run.spawn_s.append(time.perf_counter() - started)

    def ask(self, query):
        path = "/query?cuboid=%s&minsup=%d" % (",".join(query.cuboid),
                                               query.minsup)
        payload = self.server.client.get_json(path)
        return payload_cells(payload), payload["generation"]

    def append(self, batch, batch_id):
        reply = self.server.client.post_json("/append", {
            "dims": list(batch.dims),
            "rows": [list(row) for row in batch.rows],
            "measures": list(batch.measures),
            "batch_id": batch_id,
        })
        return reply["applied"]

    def stop(self):
        self.run.collect_traces()  # a killed server takes its spans along
        self.group.kill_all()
        self.server = None

    def state(self):
        return [(label, body["total_rows"], body["generation"])
                for label, body in sorted(
                    scrape(self.group.servers, "/stats").items())]

    def stats(self):
        return scrape(self.group.servers, "/stats")

    def release_stores(self):
        """Stop the servers and open what they served in the driver: one
        replica per shard (the stage times compaction, not how many
        copies of it a deployment runs)."""
        self.stop()
        started = time.perf_counter()
        stores = [CubeStore.open(directory, verify="off", wal=True,
                                 compact_after=None)
                  for directory in self.run.store_dirs[::self.replicas]]
        self.run.numbers["replay_s"] = time.perf_counter() - started
        return stores


class ThroughRouter(OverHttp):
    """One server subprocess per shard behind an in-driver router."""

    layer = "serve.cluster"
    replicas = N_REPLICAS

    def __init__(self, run):
        super().__init__(run)
        self.router = None

    def _specs(self):
        spec = self.run.spec
        return [
            ("shard%d/replica%d" % (shard, replica),
             self.run.store_dirs[shard * N_REPLICAS + replica],
             ["--shard", "%d/%d" % (shard, N_SHARDS),
              "--cache-size", str(spec.cache_size),
              "--threads", str(WORKERS),
              "--compact-after", str(spec.compact_after)])
            for shard in range(N_SHARDS) for replica in range(N_REPLICAS)
        ]

    def start(self):
        started = time.perf_counter()
        with call("serve.server", "repro serve (spawn)"):
            servers = self.group.spawn_all(self._specs())
        self.run.spawn_s.append(time.perf_counter() - started)
        urls = [[servers[shard * N_REPLICAS + replica].url
                 for replica in range(N_REPLICAS)]
                for shard in range(N_SHARDS)]
        with call("serve.cluster", "CubeRouter + check_health"):
            # Its own registry: each router incarnation's counters are
            # read once, when it is closed.
            self.router = CubeRouter(urls, dims=self.run.inputs.dims,
                                     timeout_s=30.0,
                                     registry=MetricsRegistry())
            # One sweep, so appends know the cluster is WAL-enabled
            # without probing every replica per batch.
            self.router.check_health()

    def ask(self, query):
        if query.kind == "cube":
            answer = self.router.cube(query.minsup)
            return answer.cuboids, answer.generation
        if query.kind == "point":
            answer = self.router.point(query.cuboid, query.cell, query.minsup)
        else:
            answer = self.router.query(query.cuboid, query.minsup)
        return answer.cells, answer.generation

    def append(self, batch, batch_id):
        summary = self.router.append(batch, batch_id=batch_id)
        if summary["applied"] != summary["replicas"]:
            raise ReproError("append reached %d of %d replicas"
                             % (summary["applied"], summary["replicas"]))
        return summary["duplicates"] == 0

    def stop(self):
        if self.router is not None:
            self.run.router_counters(self.router)
            self.router.close()
            self.router = None
        super().stop()


SERVING = {"inproc": InProcess, "http": OverHttp, "router": ThroughRouter}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

class Run:
    """State and stages of one run (several rounds) of one workload."""

    def __init__(self, inputs, tmp, seconds, traced, plant=None):
        self.inputs = inputs
        self.spec = inputs.spec
        self.tmp = tmp
        self.seconds = seconds
        self.traced = traced
        self.stages = STAGES if traced else UNTRACED_STAGES
        #: fault planted by the benchmark's own tests: "wrong_answer"
        #: corrupts one oracle entry, "kill_replica" SIGKILLs a server
        #: mid-flood (both in the first round)
        self.plant = plant
        self.check = Checker()
        #: stage -> seconds of each round (the metric is the median)
        self.samples = {}
        #: seconds per round not inside any timed stage (directory
        #: copies and removals, verification passes between stages)
        self.glue_samples = []
        self.calibration_s = []    # every sample of calibrate()
        self.glue_s = 0.0
        self.round_s = []
        self.spawn_s = []
        self.numbers = {}      # facts gathered along the way, by name
        self.router_stats = {}
        self.trace_payloads = []
        self.servers = ServerGroup(tmp, traced)
        self.serving = SERVING[self.spec.serving](self)
        # of the current round
        self.round_dir = None
        self.store_dirs = []
        self.shuffle_dir = None
        self.acked_batches = 0
        self.compacted_stores = []

    # -- helpers -------------------------------------------------------
    @contextmanager
    def timed(self, name):
        """One sample of stage ``name``."""
        before = calibrate()
        with obs.span("bench.stage", stage=name):
            started = time.perf_counter()
            yield
            self.samples.setdefault(name, []).append(
                time.perf_counter() - started)
        self.calibration_s += (before, calibrate())

    @contextmanager
    def glue(self):
        started = time.perf_counter()
        yield
        self.glue_s += time.perf_counter() - started

    def median_s(self, name):
        return statistics.median(self.samples[name])

    def host_slowdown(self):
        """How much slower than the quiet reference box the host ran
        during this run (see :func:`calibrate`)."""
        return statistics.median(self.calibration_s) / CALIBRATION_REFERENCE_S

    def ask(self, query):
        """One timed request; returns ``(answer, generation, seconds)``."""
        started = time.perf_counter()
        with call(self.serving.layer, query.kind):
            answer, generation = self.serving.ask(query)
        return answer, generation, time.perf_counter() - started

    def router_counters(self, router):
        families = router.registry.to_json()
        for short, name in (
                ("append_retries", "repro_router_append_retries_total"),
                ("failovers", "repro_router_failovers_total"),
                ("generation_retries",
                 "repro_router_generation_retries_total")):
            total = sum(families.get(name, {}).get("series", {}).values())
            self.router_stats[short] = self.router_stats.get(short, 0) + total

    def collect_traces(self):
        """Scrape every live server's spans (called just before they are
        killed, so once per server incarnation)."""
        if not self.traced or not self.servers.servers:
            return
        incarnation = len(self.spawn_s)
        for label, payload in sorted(
                scrape(self.servers.servers, "/trace?since=0").items()):
            self.trace_payloads.append(
                ("%s#%d" % (label, incarnation), payload))

    # -- rounds --------------------------------------------------------
    def run(self):
        """Rounds until ``--seconds`` are used (at least one)."""
        deadline = time.perf_counter() + self.seconds
        while True:
            started = time.perf_counter()
            self.round(len(self.round_s))
            now = time.perf_counter()
            self.round_s.append(now - started)
            # stop when the next round would end further past the
            # deadline than this one ended before it
            if now + 0.5 * statistics.median(self.round_s) >= deadline:
                break

    def round(self, number):
        self.glue_s = 0.0
        with self.glue():
            self.end_round()  # the previous round's servers and files
            self.round_dir = os.path.join(self.tmp, "round-%d" % number)
        for stage in self.stages:
            getattr(self, stage)(number)
        self.glue_samples.append(self.glue_s)

    def end_round(self):
        """Stop every server, release every store and remove the files
        of the round (the last round's are left to the probes, then go
        with the run's directory)."""
        self.close()
        if self.round_dir is not None:
            shutil.rmtree(self.round_dir, ignore_errors=True)
        self.store_dirs = []
        self.acked_batches = 0

    def close(self):
        """Stop every server and release every store (all exit paths)."""
        try:
            self.serving.stop()
        finally:
            self.servers.kill_all()
            for store in self.compacted_stores:
                store.close()
            self.compacted_stores = []

    # -- stages --------------------------------------------------------
    def cube(self, number):
        inputs, spec = self.inputs, self.spec
        results = []
        with self.timed("cube"):  # one cube at every threshold
            for minsup in spec.cube_minsups:
                if spec.backend == "mapreduce":
                    with call("mr", "mapreduce_iceberg_cube"):
                        result = mapreduce_iceberg_cube(
                            mr_source(inputs.cube_relation),
                            minsup=minsup, workers=WORKERS,
                            memory_budget=MR_MEMORY_BUDGET,
                            shuffle_dir=os.path.join(
                                self.round_dir, "shuffle-cube-%d" % minsup))
                    self.numbers["mr_cube"] = result.mr_stats
                else:
                    with call("parallel.local",
                              "multiprocess_iceberg_cube"):
                        result = multiprocess_iceberg_cube(
                            inputs.cube_relation, minsup=minsup,
                            workers=WORKERS)
                results.append((minsup, result))
        with self.glue():
            self.numbers["respawns"] = self.numbers.get("respawns", 0) + sum(
                result.recovery.respawns for _m, result in results
                if result.recovery is not None)
            totals = self.numbers.setdefault("cube_cells", {})
            for minsup, result in results:
                cells = result.total_cells()
                self.check.check(
                    totals.setdefault(minsup, cells) == cells,
                    "cube minsup %d: %d cells, an earlier round had %d"
                    % (minsup, cells, totals[minsup]))
                if number:
                    continue  # the same input gave the same count: enough
                for cuboid, oracle in inputs.cube_oracle.items():
                    self.check.check(
                        result.cuboids.get(cuboid, {})
                        == filter_minsup(oracle, minsup),
                        "cube minsup %d cuboid %s differs from naive"
                        % (minsup, "/".join(cuboid)))

    def _build_once(self, root):
        """Raw relation -> closed store(s) under ``root``; returns the
        directories (one per shard)."""
        inputs, spec = self.inputs, self.spec
        shards = range(N_SHARDS) if spec.serving == "router" else (None,)
        built = []
        cells = materialize_s = write_s = 0
        for shard in shards:
            directory = os.path.join(
                root, "store" if shard is None else "shard-%d" % shard)
            if spec.backend == "mapreduce":
                with call("mr", "mapreduce_materialize"):
                    store = mapreduce_materialize(
                        mr_source(inputs.relation), directory,
                        workers=WORKERS,
                        memory_budget=MR_MEMORY_BUDGET,
                        shuffle_dir=os.path.join(root, "shuffle"),
                        keep_shuffle=True)
                self.numbers["mr_build"] = store.mr_stats
            else:
                # CubeStore.build(backend="local", workers=2, shard=...)
                # is exactly these two calls; making them here lets the
                # two layers be timed apart.
                leaves = None if shard is None else ShardMap(
                    inputs.dims, N_SHARDS).leaves_for(shard)
                started = time.perf_counter()
                with call("online.materialize", "LeafMaterialization"):
                    leaf_cells = LeafMaterialization(
                        inputs.relation, backend="local", leaves=leaves,
                        workers=WORKERS)
                middle = time.perf_counter()
                with call("serve.store", "CubeStore.from_materialization"):
                    store = CubeStore.from_materialization(
                        leaf_cells, directory,
                        shard=None if shard is None else (shard, N_SHARDS))
                materialize_s += middle - started
                write_s += time.perf_counter() - middle
                del leaf_cells
            cells += store.total_cells()
            with call("serve.store", "CubeStore.close"):
                store.close()
            built.append(directory)
        self.numbers.setdefault("materialize_s", []).append(materialize_s)
        self.numbers.setdefault("store_write_s", []).append(write_s)
        self.numbers["store_cells"] = cells
        return built

    def build(self, number):
        with self.timed("build"):
            dirs = self._build_once(self.round_dir)
        with self.glue():
            shas = tuple(manifest_sha256(d) for d in dirs)
            self.check.check(
                self.numbers.setdefault("manifest_shas", shas) == shas,
                "round %d's build wrote a different manifest" % number)
            if not number:
                self.numbers["leaf_fingerprints"] = [
                    leaf_fingerprints(d) for d in dirs]
                self.numbers["store_bytes"] = sum(dir_bytes(d) for d in dirs)
            self.shuffle_dir = os.path.join(self.round_dir, "shuffle")
            for directory in dirs:
                self.store_dirs.append(directory)
                # Replicas do not share disks: each gets its own copy.
                for replica in range(1, self.serving.replicas):
                    copy = "%s-replica%d" % (directory, replica)
                    shutil.copytree(directory, copy)
                    self.store_dirs.append(copy)

    def warm(self, number):
        inputs = self.inputs
        if self.plant == "wrong_answer" and not number:
            query = inputs.warm_queries[0]
            cell = next(iter(inputs.base[query.cuboid]))
            count, total = inputs.base[query.cuboid][cell]
            inputs.base[query.cuboid][cell] = (count + 1, total)
        for repeat in range(self.serving.warm_repeats):
            if repeat:
                with self.glue():
                    self.serving.stop()  # each repeat starts cold
            with self.timed("warm"):
                self.serving.start()
                for query in inputs.warm_queries:
                    try:
                        answer, _generation, _s = self.ask(query)
                    except ReproError as exc:
                        self.check.error("warm %r" % (query,), exc)
                        continue
                    if query.kind == "cube":
                        ok = inputs.check_cube(answer, query.minsup)
                    else:
                        ok = answer == inputs.expected(query)
                    self.check.check(
                        ok, "warm answer differs from naive: %r" % (query,))

    def _client(self, ctx, offset, stop, latencies, until=None,
                moving=False):
        """One closed-loop client: next request only after the reply
        (``moving``: the ingest stage's paced reader)."""
        inputs = self.inputs
        sequence, population = inputs.sequence, inputs.population
        position = offset
        with obs.activate(ctx):
            while not stop.is_set() and (until is None
                                         or time.perf_counter() < until):
                index = sequence[position % len(sequence)]
                position += self.serving.clients
                query = population[index]
                if moving and query.kind == "cube":
                    # A full-cube fan-out takes longer than the gap
                    # between two appends, so under steady ingest the
                    # replicas answer it 503 (generation skew, 8 tries);
                    # the benchmark only sends requests that succeed.
                    continue
                try:
                    answer, generation, seconds = self.ask(query)
                except ReproError as exc:
                    self.check.error("query %r" % (query,), exc)
                    continue
                latencies.append(seconds)
                if not moving:
                    ok = (inputs.check_cube(answer, query.minsup)
                          if query.kind == "cube"
                          else digest(answer) == inputs.digests[index])
                    self.check.check(
                        ok, "flood answer differs from naive: %r" % (query,))
                    continue
                if query.kind == "query" and query.minsup == 1:
                    # The store moves under the reader, so no fixed
                    # oracle applies; at minsup 1 the counts must still
                    # add up to the rows of the generation the answer
                    # was pinned to.
                    self.check.check(
                        digest(answer)[1] == inputs.rows_at(generation),
                        "answer at generation %d does not cover %d rows: %r"
                        % (generation, inputs.rows_at(generation), query))
                time.sleep(READER_THINK_S)

    def _flood_slice(self, offset):
        """The serving path's closed-loop clients for one slice; returns
        ``(sorted latencies, wall)``."""
        ctx = obs.context()
        stop = threading.Event()
        clients = self.serving.clients
        per_client = [[] for _ in range(clients)]
        started = time.perf_counter()
        until = started + SLICE_S
        threads = [
            threading.Thread(
                target=self._client,
                args=(ctx, offset + k, stop, per_client[k], until))
            for k in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return sorted(s for client in per_client for s in client), wall

    def flood(self, number):
        active = obs.current()
        slices = self.numbers.setdefault("flood_slices", [])
        with self.timed("flood"):
            for k in range(SLICES_PER_ROUND):
                if k == 1 and self.plant == "kill_replica" and not number:
                    victim = self.servers.servers[0]
                    victim.proc.kill()
                    victim.proc.wait()
                # A/B inside the traced run: odd slices run with the
                # driver's tracer off, so obs.overhead_ratio compares
                # like with like (same caches, same data, same second).
                dark = self.traced and k % 2 == 1
                offset = (number * SLICES_PER_ROUND + k) * 997
                if not dark:
                    latencies, wall = self._flood_slice(offset)
                else:
                    # The span keeps the dark slice out of the stage's
                    # layer split (it opens while the tracer is still
                    # installed and closes after it is back).
                    with call(tracing.UNTRACED, "flood slice"):
                        obs.uninstall()
                        try:
                            latencies, wall = self._flood_slice(offset)
                        finally:
                            obs.install(registry=active.registry,
                                        tracer=active.tracer)
                # (traced, latencies, wall)
                slices.append((self.traced and not dark, latencies, wall))
        with self.glue():
            self.numbers["stats_after_flood"] = self.serving.stats()
            if (self.traced and self.servers.servers
                    and "json_bytes" not in self.numbers):
                self.numbers["json_bytes"] = probe_json_bytes(
                    self.servers.servers[0], self.inputs)

    def ingest(self, number):
        inputs = self.inputs
        appends = []
        reader_latencies = []
        duplicates = 0
        stop = threading.Event()
        with self.timed("ingest"):
            reader = threading.Thread(
                target=self._client,
                args=(obs.context(), 0, stop, reader_latencies),
                kwargs={"moving": True})
            reader.start()
            try:
                for i, batch in enumerate(inputs.batches):
                    batch_id = "bench-%d-%d" % (inputs.seed, i)
                    started = time.perf_counter()
                    try:
                        with call(self.serving.layer, "append"):
                            applied = self.serving.append(batch, batch_id)
                    except ReproError as exc:
                        self.check.error("append %d" % i, exc)
                        continue
                    appends.append(time.perf_counter() - started)
                    self.acked_batches += 1
                    self.check.check(applied, "batch %d acknowledged as a "
                                     "duplicate on first delivery" % i)
                    if i % DUPLICATE_EVERY == 1:
                        try:
                            again = self.serving.append(batch, batch_id)
                        except ReproError as exc:
                            self.check.error("re-sent append %d" % i, exc)
                            continue
                        duplicates += 1
                        self.check.check(
                            not again, "re-sent batch %d was applied twice" % i)
                    time.sleep(APPEND_THINK_S)
            finally:
                stop.set()
                reader.join()
        n = self.numbers
        n.setdefault("append_latencies", []).extend(appends)
        if appends:
            # An append costs more the more batches are pending (50 ms
            # for the first on the d=10 store, 160 ms for the eighth), so
            # a round is summed up by its mean over the same positions.
            n.setdefault("append_round_means", []).append(
                sum(appends) / len(appends))
        n.setdefault("reader_latencies", []).extend(reader_latencies)
        n["duplicates_acked"] = n.get("duplicates_acked", 0) + duplicates
        with self.glue():
            self.verify("post-ingest")
            n["stats_after_ingest"] = self.serving.stats()
            if self.spec.serving == "router":
                health = self.serving.router.check_health()
                generations = [state.get("generation") or 0
                               for state in health.values()]
                n["replica_lag_max"] = max(
                    n.get("replica_lag_max", 0),
                    max(generations) - min(generations))

    def verify(self, when):
        """Every store holds exactly the acknowledged rows, and a sample
        of queried cuboids answers cell-for-cell what naive says about
        base + every acknowledged batch."""
        inputs = self.inputs
        rows = inputs.rows + BATCH_ROWS * self.acked_batches
        state = self.serving.state()
        self.check.check(len(state) == len(self.store_dirs),
                         "%s: %d of %d stores answered /stats"
                         % (when, len(state), len(self.store_dirs)))
        for label, total_rows, generation in state:
            self.check.check(
                total_rows == rows and generation == 1 + self.acked_batches,
                "%s %s: %d rows at generation %d, acknowledged %d rows in "
                "%d batches" % (when, label, total_rows, generation, rows,
                                self.acked_batches))
        if self.acked_batches != len(inputs.batches):
            return  # the oracle covers the full stream only
        # Once round the sample per replica: a router alternates
        # replicas, so each one answers every sampled cuboid it owns.
        for _round in range(self.serving.replicas):
            for cuboid in inputs.verify_cuboids:
                try:
                    answer, _generation, _s = self.ask(
                        Query("query", cuboid, 1, None))
                except ReproError as exc:
                    self.check.error("%s %r" % (when, cuboid), exc)
                    continue
                self.check.check(
                    answer == inputs.final[cuboid],
                    "%s answer differs from naive: %s"
                    % (when, "/".join(cuboid)))

    def recover(self, _number):
        with self.timed("recover"):
            self.serving.stop()
            self.serving.start()
            self.verify("post-recover")

    def compact(self, _number):
        with self.glue():
            stores = self.compacted_stores = self.serving.release_stores()
            pending = sum(s.wal_stats()["pending_batches"] for s in stores)
            # full-store rewrites per store: the background compactions
            # that already ran, plus the explicit one below
            after = self.spec.compact_after
            self.numbers["compactions"] = 1 + (
                round((self.acked_batches - pending / len(stores)) / after)
                if after else 0)
            before = [leaf_fingerprints(s.directory) for s in stores]
        rows = self.inputs.rows + BATCH_ROWS * self.acked_batches
        with self.timed("compact"):
            for store in stores:
                with call("serve.ingest", "CubeStore.compact"):
                    store.compact()
        with self.glue():
            rewritten = 0
            for store, was in zip(stores, before):
                rewritten += sum(
                    nbytes for name, (sha, nbytes)
                    in leaf_fingerprints(store.directory).items()
                    if was.get(name, (None,))[0] != sha)
                self.check.check(
                    store.wal_stats()["pending_batches"] == 0
                    and store.total_rows == rows,
                    "compacted store %s lost rows" % store.directory)
            self.numbers["compact_bytes_rewritten"] = rewritten
