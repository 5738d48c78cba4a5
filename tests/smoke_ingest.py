"""Ingestion chaos smoke test: exactly-once ingest under fire (CI job).

The durable-ingestion acceptance criteria, asserted end-to-end with real
processes and real SIGKILLs:

1. **Flood** — 500 Zipf-weighted iceberg queries stream through a
   router fronting 2 WAL-enabled replica subprocesses while deltas are
   appended; every answer is validated against the oracle for the
   generation it reports.
2. **Chaos** — mid-flood one replica is SIGKILLed; appends keep landing
   on the survivor (the dead replica is marked down and skipped), and
   every batch is **deliberately re-sent twice** with its original batch
   id — the duplicated retries a crashing client would produce.
3. **Router restart** — the router is torn down mid-stream and a fresh
   one (no memory of what was delivered) re-sends every batch id; the
   replicas must acknowledge without re-applying.
4. **Anti-entropy repair** — the killed replica restarts stale; one
   health sweep must re-deliver its missed WAL batches from the
   survivor and converge both replicas to cell-exact equality.
5. **Unpaced ingest** — 60 back-to-back appends into a 512-leaf store
   (background compaction every 8) beside one reader: no read fails,
   and none waits as long as one compaction takes.

Gate: zero lost rows, zero double-counted rows, zero wrong answers,
nobody waits for compaction.  A writer SIGKILLed on either side of its
WAL publish or manifest replace is tier-1 (``TestCrashWindows``).

Run:  PYTHONPATH=src python tests/smoke_ingest.py
"""

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

from repro import obs
from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation
from repro.serve import CubeRouter, CubeServer, CubeStore, RetryPolicy

DIMS = ("A", "B", "C", "D")
N_QUERIES = 500
N_BATCHES = 3
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def delta_batch(seed, n=6):
    rows = [((seed + i) % 4, (seed * 3 + i) % 5, (seed + i) % 6, i % 7)
            for i in range(n)]
    return Relation(DIMS, rows, [float(seed + i) for i in range(n)])


def merged(base, batches):
    rows, measures = list(base.rows), list(base.measures)
    for batch in batches:
        rows.extend(batch.rows)
        measures.extend(batch.measures)
    return Relation(DIMS, rows, measures)


def oracle(relation, cuboid, minsup):
    return {cell: agg for cell, agg in naive_cuboid(relation, cuboid).items()
            if agg[0] >= minsup}


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
        append_s = []
        started = time.perf_counter()
        for i in range(n_appends):
            at = 250 + i * batch_rows
            tick = time.perf_counter()
            server.append(relation.slice(at, at + batch_rows),
                          batch_id="unpaced-%d" % i)
            append_s.append(time.perf_counter() - tick)
        wall = time.perf_counter() - started
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
    print("unpaced ingest: %d appends in %.2f s beside a reader -- %d reads "
          "answered, read p99 %.1f ms (max %.1f), slowest append %.1f ms; "
          "the quickest compaction took %.2f s and nobody waited for it"
          % (n_appends, wall, len(latencies),
             1e3 * latencies[int(0.99 * (len(latencies) - 1))],
             1e3 * latencies[-1], 1e3 * max(append_s), compaction))


def spawn_replica(directory, port=0):
    """Start one real ``repro-cube serve`` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", directory,
         "--compact-after", "4", "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            raise AssertionError("replica died during startup")
        if line.startswith("listening on "):
            url = line.split()[2]
            return proc, url
    raise AssertionError("replica never reported its URL")


def main():
    root = tempfile.mkdtemp(prefix="ingest-chaos-")
    base = zipf_relation(500, dims=DIMS, cardinalities=(4, 5, 6, 7),
                         skew=1.0, seed=31)
    batches = [delta_batch(seed) for seed in range(3, 3 + N_BATCHES)]

    # Per-generation oracles: generation g answered from base + the
    # first g-1 batches (queries are validated at whatever generation
    # the replica reports).
    population = [
        (cuboid, minsup)
        for size in (1, 2)
        for cuboid in combinations(DIMS, size)
        for minsup in (1, 2, 3)
    ]
    oracles = {}
    for generation in range(1, N_BATCHES + 2):
        relation = merged(base, batches[:generation - 1])
        oracles[generation] = {
            (cuboid, minsup): oracle(relation, cuboid, minsup)
            for cuboid, minsup in population
        }
    final = merged(base, batches)

    # -- replicated serving: 1 shard x 2 WAL replicas --------------------
    built = os.path.join(root, "base")
    CubeStore.build(base, built, backend="local").close()
    directories, processes, urls = [], [], []
    for replica in range(2):
        directory = os.path.join(root, "replica-%d" % replica)
        shutil.copytree(built, directory)
        proc, url = spawn_replica(directory)
        directories.append(directory)
        processes.append(proc)
        urls.append(url)
    victim_port = int(urls[0].rsplit(":", 1)[1])
    print("replicas up: %s (pids %s)" % (urls, [p.pid for p in processes]))

    router = CubeRouter([urls], timeout_s=10.0,
                        retry_policy=RetryPolicy(attempts=3, base_s=0.01,
                                                 cap_s=0.05))
    rng = random.Random(19)
    weights = [1.0 / (rank + 1) for rank in range(len(population))]
    issued = threading.Semaphore(0)
    wrong = []
    generations_seen = set()
    duplicates_acked = [0]

    def one_query(i):
        try:
            cuboid, minsup = rng.choices(population, weights)[0]
            answer = router.query(cuboid, minsup=minsup)
            generations_seen.add(answer.generation)
            expected = oracles.get(answer.generation, {}).get(
                (cuboid, minsup))
            if answer.cells != expected:
                wrong.append((cuboid, minsup, answer.generation))
        except Exception as exc:  # noqa: BLE001 - surfaced after the flood
            wrong.append(("query-error", repr(exc), i))
        finally:
            issued.release()

    def chaos():
        for _ in range(N_QUERIES // 4):
            issued.acquire()
        os.kill(processes[0].pid, signal.SIGKILL)
        processes[0].wait()
        print("chaos: SIGKILLed replica 0 (pid %d) mid-flood"
              % processes[0].pid)
        for _ in range(N_QUERIES // 4):
            issued.acquire()
        for index, batch in enumerate(batches):
            batch_id = "smoke-%d" % index
            summary = router.append(batch, batch_id=batch_id)
            assert summary["applied"] >= 1, summary
            # the duplicated retries a crashing client would produce
            for _ in range(2):
                retry = router.append(batch, batch_id=batch_id)
                assert retry["applied"] >= 1, retry
                assert retry["duplicates"] == retry["applied"], retry
                duplicates_acked[0] += retry["duplicates"]
        print("chaos: %d batches appended through the router, every one "
              "re-sent twice (%d duplicate acks, zero re-applies)"
              % (N_BATCHES, duplicates_acked[0]))

    chaos_thread = threading.Thread(target=chaos)
    chaos_thread.start()
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(one_query, range(N_QUERIES)))
    chaos_thread.join()

    assert not wrong, "WRONG ANSWERS: %r" % wrong[:5]
    assert generations_seen <= set(oracles), generations_seen
    assert duplicates_acked[0] == 2 * N_BATCHES, duplicates_acked
    answer = router.query(("A",), minsup=1)
    assert answer.generation == N_BATCHES + 1, (
        "appends never became visible: generation %s" % answer.generation)
    assert answer.cells == oracles[N_BATCHES + 1][(("A",), 1)]
    print("flood: %d queries oracle-exact across generations %s"
          % (N_QUERIES, sorted(generations_seen)))

    # -- router killed mid-stream: a fresh one re-sends everything -------
    router.close()
    router = CubeRouter([urls], timeout_s=10.0,
                        retry_policy=RetryPolicy(attempts=3, base_s=0.01,
                                                 cap_s=0.05))
    for index, batch in enumerate(batches):
        retry = router.append(batch, batch_id="smoke-%d" % index)
        assert retry["duplicates"] == retry["applied"], retry
    print("router restart: fresh router re-sent all %d batch ids, every "
          "ack was a dedup" % N_BATCHES)

    # -- the dead replica restarts stale; anti-entropy repairs it --------
    proc, url = spawn_replica(directories[0], port=victim_port)
    processes[0] = proc
    assert url == urls[0], "replica restarted on the wrong port"
    snapshot = router.check_health()  # the sweep runs anti-entropy repair
    for _ in range(20):  # the replica may need a moment to warm up
        generations = [state.get("generation")
                       for state in snapshot.values()]
        if generations[0] == generations[1] == N_BATCHES + 1:
            break
        time.sleep(0.25)
        snapshot = router.check_health()
    generations = sorted(state.get("generation")
                         for state in snapshot.values())
    assert generations == [N_BATCHES + 1] * 2, (
        "anti-entropy never converged the replicas: %s" % generations)

    # both replicas must now answer the final oracle, cell-exact
    for cuboid, minsup in (("A",), 1), (("A", "B"), 2), (("C", "D"), 1):
        want = oracle(final, cuboid, minsup)
        for replica in range(2):
            answer = router.query(cuboid, minsup=minsup)
            assert answer.cells == want, (cuboid, minsup)
    want_cells = oracle(final, ("A",), 1)
    total = sum(count for count, _ in want_cells.values())
    got = router.query(("A",), minsup=1).cells
    got_total = sum(count for count, _ in got.values())
    assert got == want_cells and got_total == total, (
        "lost or double-counted rows: %s vs %s" % (got_total, total))
    print("anti-entropy: restarted replica repaired from sibling WAL, "
          "both at generation %d, totals exact (%d rows)"
          % (N_BATCHES + 1, total))

    router.close()
    for proc in processes:
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    unpaced_ingest(root)
    shutil.rmtree(root, ignore_errors=True)
    print("INGEST CHAOS SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
