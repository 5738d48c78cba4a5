"""Cluster smoke: what only real processes show (CI job).

One logical cube served by 3 shards x 2 replicas — each replica a REAL
``repro-cube serve`` subprocess on its own copy of its shard store —
fronted by an in-process :class:`CubeRouter`.  Everything else the
router does under failure (a dropped or cut reply and its re-send, a
fresh router re-sending every batch id, failover counts, down-marking,
anti-entropy by digest) runs in one process, seeded and replayable:
``TestClusterMachine`` and the router tests over ``tests/wire.py``.
What stays here:

1. **SIGKILL mid-flood while an append lands** — 500 Zipf-weighted
   queries (plus periodic whole-cube fan-outs) from 8 threads; one
   replica is SIGKILLed and a row delta appended through the router
   meanwhile.  Every answer matches the oracle of the generation it
   reports, and the router counted failovers.
2. **Restart on the old port, one sweep** — the killed replica comes
   back on its port; one health sweep reads it up and repairs the
   append it missed, so both replicas answer generation 2.
3. **Whole-shard loss** — both replicas of that shard SIGKILLed: the
   router's HTTP answers a structured 503 naming it, siblings serve.
4. **Unpaced ingest** — 60 back-to-back appends into a 512-leaf store
   (background compaction every 8) beside one reader: no read fails,
   and none waits as long as one compaction takes.

Run:  PYTHONPATH=src python tests/smoke_cluster.py
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from urllib.request import urlopen

from repro import obs
from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation
from repro.errors import ShardUnavailableError
from repro.lattice.lattice import CubeLattice
from repro.serve import CubeRouter, CubeServer, CubeStore

DIMS = ("A", "B", "C", "D")
N_SHARDS, N_REPLICAS = 3, 2
N_QUERIES = 500
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def spawn_replica(directory, *flags, port=0):
    """Start one real ``repro-cube serve`` process over ``directory``
    (``flags``: more ``serve`` options); returns ``(proc, url)``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", directory,
         "--port", str(port), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("replica %s died during startup" % directory)
        if line.startswith("listening on "):
            return proc, line.split()[2]
    raise AssertionError("replica never reported its URL")


def kill(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()


def unpaced_ingest(root):
    """Appends with no think time beside a reader (in process).

    Compaction runs off the append and read paths, so neither side may
    ever wait one out: every read is answered, from the generation it
    pinned, in less time than a single compaction takes.
    """
    dims = tuple("ABCDEFGHIJ")
    n_appends, batch_rows = 60, 64
    relation = zipf_relation(250 + n_appends * batch_rows, dims=dims,
                             cardinalities=(6,) * len(dims), skew=1.0, seed=5)
    directory = os.path.join(root, "unpaced")
    CubeStore.build(relation.slice(0, 250), directory,
                    backend="local").close()
    cuboids = list(combinations(dims, 2))
    done = threading.Event()
    latencies, errors = [], []

    def reader():
        i = 0
        while not done.is_set():
            started = time.perf_counter()
            try:
                answer = server.query(cuboids[i % len(cuboids)], 1)
                rows = 250 + batch_rows * (answer.generation - 1)
                if sum(c for c, _s in answer.cells.values()) != rows:
                    errors.append("generation %d answered with another's "
                                  "cells" % answer.generation)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(repr(exc))
            latencies.append(time.perf_counter() - started)
            i += 1
            time.sleep(0.001)

    with obs.installed() as active:
        store = CubeStore.open(directory, compact_after=8)
        server = CubeServer(store)
        thread = threading.Thread(target=reader)
        thread.start()
        for i in range(n_appends):
            at = 250 + i * batch_rows
            server.append(relation.slice(at, at + batch_rows),
                          batch_id="unpaced-%d" % i)
        done.set()
        thread.join()
        server.close()
        store.close()  # waits out a background compaction still running
        compaction = min(span.duration for span
                         in active.tracer.spans("ingest.compact"))
    latencies.sort()
    assert not errors, errors[:3]
    assert latencies[-1] < compaction, (
        "a read waited %.3f s; one compaction is %.3f s"
        % (latencies[-1], compaction))
    print("unpaced ingest: %d appends beside a reader, %d reads answered, "
          "the slowest in %.1f ms; the quickest compaction took %.1f ms"
          % (n_appends, len(latencies), 1e3 * latencies[-1],
             1e3 * compaction))


def main():
    root = tempfile.mkdtemp(prefix="cluster-smoke-")
    base = zipf_relation(600, dims=DIMS, cardinalities=(4, 5, 6, 7),
                         skew=1.0, seed=23)
    delta = Relation(DIMS, [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)],
                     [5.0, 7.0, 9.0])
    cuboids = list(CubeLattice(DIMS).cuboids(include_all=False)) + [()]
    oracles = {
        generation: {(cuboid, minsup): {
            cell: agg for cell, agg in naive_cuboid(relation, cuboid).items()
            if agg[0] >= minsup}
            for cuboid in cuboids for minsup in (1, 2, 3, 4)}
        for generation, relation in (
            (1, base), (2, Relation(DIMS, base.rows + delta.rows,
                                    base.measures + delta.measures)))}

    processes, urls = {}, []
    for shard in range(N_SHARDS):
        built = os.path.join(root, "build-%d" % shard)
        CubeStore.build(base, built, backend="local",
                        shard=(shard, N_SHARDS)).close()
        urls.append([])
        for replica in range(N_REPLICAS):
            directory = os.path.join(root, "shard-%d-r%d" % (shard, replica))
            shutil.copytree(built, directory)
            processes[(shard, replica)], url = spawn_replica(
                directory, "--shard", "%d/%d" % (shard, N_SHARDS))
            urls[-1].append(url)
    print("cluster up: %d shards x %d replicas" % (N_SHARDS, N_REPLICAS))

    # -- 1. SIGKILL mid-flood while an append lands ----------------------
    router = CubeRouter(urls, timeout_s=10.0)
    rng = random.Random(17)
    weights = [1.0 / (rank + 1) for rank in range(len(cuboids))]
    victim = router.shard_for(("A",))
    issued = threading.Semaphore(0)
    wrong, generations = [], set()

    def one_query(i):
        minsup = rng.randint(1, 4)
        if i % 61 == 0:
            answer = router.cube(minsup=minsup)
            got = answer.cuboids.items()
        else:
            cuboid = rng.choices(cuboids, weights)[0]
            answer = router.query(cuboid, minsup=minsup)
            got = [(cuboid, answer.cells)]
        generations.add(answer.generation)
        for cuboid, cells in got:
            if cells != oracles[answer.generation][(cuboid, minsup)]:
                wrong.append((cuboid, minsup, answer.generation))
        issued.release()

    def chaos():
        for _ in range(N_QUERIES // 4):
            issued.acquire()
        kill(processes[(victim, 0)])
        for _ in range(N_QUERIES // 4):
            issued.acquire()
        summary = router.append(delta)
        print("chaos: SIGKILLed replica 0 of shard %d mid-flood, then "
              "appended through the router (%d/%d replicas)"
              % (victim, summary["applied"], summary["replicas"]))

    chaos_thread = threading.Thread(target=chaos)
    chaos_thread.start()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(one_query, range(N_QUERIES)))
    chaos_thread.join()
    assert not wrong, "WRONG ANSWERS: %r" % wrong[:5]
    assert generations == {1, 2}, generations
    failovers = sum(router.registry.to_json()[
        "repro_router_failovers_total"]["series"].values())
    assert failovers > 0, "the kill never exercised failover"
    print("flood: %d answers oracle-exact across generations {1, 2}, "
          "%d failovers" % (N_QUERIES, failovers))

    # -- 2. restart on the old port, one sweep ---------------------------
    port = int(urls[victim][0].rsplit(":", 1)[1])
    processes[(victim, 0)], _url = spawn_replica(
        os.path.join(root, "shard-%d-r0" % victim),
        "--shard", "%d/%d" % (victim, N_SHARDS), port=port)
    router.check_health()  # the sweep a health interval would run
    answers = [router.query(("A",), minsup=2) for _ in range(2)]
    assert {answer.replica for answer in answers} == {0, 1}, answers
    for answer in answers:
        assert (answer.failovers, answer.generation) == (0, 2), answer
        assert answer.cells == oracles[2][(("A",), 2)]
    print("restart: back on port %d, one sweep read it up and repaired "
          "the append it missed" % port)

    # -- 3. whole-shard loss: a structured 503 over the router's HTTP ----
    for replica in range(N_REPLICAS):
        kill(processes[(victim, replica)])
    endpoint = router.serve_http()
    try:
        urlopen(endpoint.url + "/query?cuboid=A&minsup=2")
        raise AssertionError("router endpoint invented an answer")
    except urllib.error.HTTPError as error:
        detail = json.loads(error.read())
        assert (error.code, detail["kind"], detail["shard"]) \
            == (503, "shard_unavailable", victim), detail
    other = next(c for c in cuboids if c and router.shard_for(c) != victim)
    assert router.query(other, minsup=2).cells == oracles[2][(other, 2)]
    try:
        router.query(("A",), minsup=2)
        raise AssertionError("whole shard down but the query was answered")
    except ShardUnavailableError as exc:
        assert exc.shard == victim, exc
    print("shard loss: shard %d answered structured 503s, siblings kept "
          "serving" % victim)

    router.close()
    for proc in processes.values():
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    unpaced_ingest(root)
    shutil.rmtree(root, ignore_errors=True)
    print("CLUSTER SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
