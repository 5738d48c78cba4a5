"""Cluster chaos smoke test: node loss under live fire (CI job).

One logical cube served by 3 shards x 2 replicas — each replica a REAL
``repro-cube serve`` subprocess on its own copy of its shard store —
fronted by an in-process :class:`CubeRouter`.  The acceptance criteria
of the sharded serving tier, asserted end-to-end:

1. **Flood** — 500 Zipf-weighted iceberg queries (plus periodic
   whole-cube fan-outs) stream through the router from 8 threads.
2. **Chaos** — mid-flood, one replica is SIGKILLed (a node loss, not a
   clean shutdown) and a row delta is appended *through the router*
   concurrently with the reads.
3. **Zero wrong answers** — every response is validated against the
   oracle for the generation it reports: generation 1 answers must
   match the base relation, generation 2 answers the appended one.
   A response mixing the two generations has no matching oracle and
   fails the run.
4. **Failover is observable** — the router's metrics must show
   failovers > 0, its stats the dead replica's circuit breaker tripped,
   and every query answered despite the kill.
5. **Honest partial degradation** — after the dead replica's sibling is
   also killed, queries owned by that shard must raise a structured
   :class:`ShardUnavailableError` naming it (HTTP 503 through the
   router's endpoint), while the surviving shards keep answering.

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
import urllib.error
from concurrent.futures import ThreadPoolExecutor
from urllib.request import urlopen

from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation
from repro.errors import ShardUnavailableError
from repro.lattice.lattice import CubeLattice
from repro.serve import CubeRouter, CubeStore

DIMS = ("A", "B", "C", "D")
N_SHARDS, N_REPLICAS = 3, 2
N_QUERIES = 500
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def build_oracles(relations):
    """``{generation: {(cuboid, minsup): cells}}`` for every cuboid."""
    lattice = CubeLattice(DIMS)
    cuboids = list(lattice.cuboids(include_all=False)) + [()]
    oracles = {}
    for generation, relation in relations.items():
        table = {}
        for cuboid in cuboids:
            base = naive_cuboid(relation, cuboid)
            for minsup in (1, 2, 3, 4):
                table[(cuboid, minsup)] = {
                    cell: agg for cell, agg in base.items()
                    if agg[0] >= minsup
                }
        oracles[generation] = table
    return oracles


def spawn_replica(directory, shard):
    """Start one real ``repro-cube serve`` process; returns (proc, url)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", directory,
         "--shard", "%d/%d" % (shard, N_SHARDS), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                "replica died during startup (shard %d)" % shard)
        if line.startswith("listening on "):
            url = line.split()[2]
            return proc, url
    raise AssertionError("replica never reported its URL")


def main():
    root = tempfile.mkdtemp(prefix="cluster-chaos-")
    base = zipf_relation(600, dims=DIMS, cardinalities=(4, 5, 6, 7),
                         skew=1.0, seed=23)
    delta = Relation(DIMS, [(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)],
                     [5.0, 7.0, 9.0])
    merged = Relation(DIMS, list(base.rows) + list(delta.rows),
                      list(base.measures) + list(delta.measures))
    oracles = build_oracles({1: base, 2: merged})

    # -- build shard stores, one private copy per replica ---------------
    processes, urls = {}, []
    for shard in range(N_SHARDS):
        built = os.path.join(root, "build-%d" % shard)
        CubeStore.build(base, built, backend="local",
                        shard=(shard, N_SHARDS)).close()
        replica_urls = []
        for replica in range(N_REPLICAS):
            directory = os.path.join(root, "shard-%d-r%d" % (shard, replica))
            shutil.copytree(built, directory)
            proc, url = spawn_replica(directory, shard)
            processes[(shard, replica)] = proc
            replica_urls.append(url)
        urls.append(replica_urls)
    print("cluster up: %d shards x %d replicas (pids %s)"
          % (N_SHARDS, N_REPLICAS,
             sorted(p.pid for p in processes.values())))

    router = CubeRouter(urls, timeout_s=10.0)
    lattice = CubeLattice(DIMS)
    cuboids = list(lattice.cuboids(include_all=False)) + [()]
    rng = random.Random(17)
    # Zipf-ish weights: low-index cuboids dominate, like a real workload.
    weights = [1.0 / (rank + 1) for rank in range(len(cuboids))]

    victim_shard = router.shard_for(("A",))
    kill_at, append_at = N_QUERIES // 4, N_QUERIES // 2
    issued = threading.Semaphore(0)
    wrong = []
    rounds = []
    generations_seen = set()

    def one_query(i):
        cuboid = rng.choices(cuboids, weights)[0]
        minsup = rng.randint(1, 4)
        if i % 61 == 0:
            # Periodic whole-cube fan-out: the generation-pinning path,
            # which must answer on its first call, append or not.
            answer = router.cube(minsup=minsup)
            rounds.append(answer.attempts)
            generations_seen.add(answer.generation)
            table = oracles[answer.generation]
            for sub, cells in answer.cuboids.items():
                if cells != table[(sub, minsup)]:
                    wrong.append(("cube", sub, minsup, answer.generation))
        else:
            answer = router.query(cuboid, minsup=minsup)
            generations_seen.add(answer.generation)
            if answer.cells != oracles[answer.generation][(cuboid, minsup)]:
                wrong.append(("query", cuboid, minsup, answer.generation))
        issued.release()

    def chaos():
        for _ in range(kill_at):
            issued.acquire()
        victim = processes[(victim_shard, 0)]
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        print("chaos: SIGKILLed replica 0 of shard %d (pid %d) mid-flood"
              % (victim_shard, victim.pid))
        for _ in range(append_at - kill_at):
            issued.acquire()
        summary = router.append(delta)
        print("chaos: appended %d rows through the router (%d/%d replicas, "
              "dead one unreachable)" % (summary["rows"], summary["applied"],
                                         summary["replicas"]))

    chaos_thread = threading.Thread(target=chaos)
    chaos_thread.start()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(one_query, range(N_QUERIES)))
    chaos_thread.join()

    assert not wrong, "WRONG ANSWERS: %r" % wrong[:5]
    assert generations_seen <= {1, 2}, generations_seen
    assert 2 in generations_seen, "append never became visible"
    metrics = router.registry.to_prometheus()
    failovers = sum(
        float(line.rsplit(" ", 1)[1])
        for line in metrics.splitlines()
        if line.startswith("repro_router_failovers_total{"))
    assert failovers > 0, "kill never exercised failover:\n%s" % metrics
    # the breaker drill: the dead replica's breaker tripped it out of
    # rotation (its sibling's never did)
    breakers = router.stats()["breakers"]
    assert breakers["%d/0" % victim_shard]["trips"] >= 1, breakers
    assert breakers["%d/1" % victim_shard]["trips"] == 0, breakers
    assert rounds and max(rounds) <= 2, rounds
    print("flood: %d queries all oracle-exact across generations %s "
          "(%d failovers, %d breaker trip(s) on the dead replica, %d cube "
          "fan-outs in at most %d round(s))"
          % (N_QUERIES, sorted(generations_seen), int(failovers),
             breakers["%d/0" % victim_shard]["trips"], len(rounds),
             max(rounds)))

    # -- whole-shard loss: honest, structured, partial -------------------
    survivor = processes[(victim_shard, 1)]
    os.kill(survivor.pid, signal.SIGKILL)
    survivor.wait()
    try:
        router.query(("A",), minsup=2)
        raise AssertionError("whole shard down but the query was answered")
    except ShardUnavailableError as exc:
        assert exc.shard == victim_shard, exc
    other = next(c for c in cuboids
                 if c and router.shard_for(c) != victim_shard)
    answer = router.query(other, minsup=2)
    assert answer.cells == oracles[2][(other, 2)]

    endpoint = router.serve_http()
    try:
        urlopen(endpoint.url + "/query?cuboid=A&minsup=2")
        raise AssertionError("router endpoint invented an answer")
    except urllib.error.HTTPError as error:
        assert error.code == 503, error.code
        detail = json.loads(error.read())
        assert detail["kind"] == "shard_unavailable", detail
        assert detail["shard"] == victim_shard, detail
    router.check_health()  # the sweep a health interval would run
    health = router.health()
    assert health["status"] == "degraded"
    assert health["degraded_shards"] == [victim_shard]
    print("shard loss: shard %d answered structured 503s, siblings kept "
          "serving, health=degraded" % victim_shard)

    router.close()
    for proc in processes.values():
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    shutil.rmtree(root, ignore_errors=True)
    print("CLUSTER CHAOS SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
