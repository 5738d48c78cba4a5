"""Concurrency smoke test for the serving layer (CI job, not pytest).

Starts a :class:`CubeServer` over a freshly built store, fires 100
queries concurrently from a 16-thread pool (a Zipf-flavoured repeated
workload, so the cache gets real traffic), and asserts every response
matches the naive single-threaded oracle, with cache hits and a stale
entry invalidated after an append.  This guards against data
races — torn leaf lists, cache entries crossing generations, telemetry
corruption — that deterministic unit tests won't reliably catch.

Run:  PYTHONPATH=src python tests/smoke_concurrency.py
"""

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro import CubeServer, CubeStore, cluster1, zipf_relation
from repro.core.naive import naive_cuboid

N_QUERIES = 100
N_THREADS = 16


def main():
    relation = zipf_relation(2_000, [9, 7, 5, 4, 3], skew=1.0, seed=11)
    half = len(relation) // 2

    with tempfile.TemporaryDirectory() as tmp:
        store = CubeStore.build(relation.slice(0, half), tmp,
                                cluster_spec=cluster1(4))
        server = CubeServer(store, max_workers=N_THREADS)

        # Warm the cache on the half-built store, then append: the stale
        # entries must be invalidated, not served, by the workload below.
        server.query(("A",), 1)
        server.query(("A", "B"), 2)
        server.append(relation.slice(half, len(relation)))

        cuboids = [
            ("A",), ("B",), ("C",), ("D",), ("E",),
            ("A", "B"), ("A", "C"), ("B", "D"), ("C", "E"),
            ("A", "B", "C"), ("B", "C", "D"), ("A", "B", "C", "D", "E"),
        ]
        # Zipf-ish repetition: early cuboids dominate, so the cache works.
        workload = [
            (cuboids[(i * i) % len(cuboids) if i % 3 else 0], 1 + i % 3)
            for i in range(N_QUERIES)
        ]
        expected = {}
        for cuboid, minsup in set(workload):
            expected[(cuboid, minsup)] = {
                cell: agg
                for cell, agg in naive_cuboid(relation, cuboid).items()
                if agg[0] >= minsup
            }

        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(server.query, cuboid, minsup)
                       for cuboid, minsup in workload]
            answers = [future.result() for future in futures]

        mismatches = 0
        for (cuboid, minsup), answer in zip(workload, answers):
            want = expected[(cuboid, minsup)]
            got = answer.cells
            if set(got) != set(want) or any(
                got[c][0] != want[c][0] or abs(got[c][1] - want[c][1]) > 1e-6
                for c in want
            ):
                mismatches += 1
                print("MISMATCH on %r minsup=%d (source=%s)"
                      % (cuboid, minsup, answer.source))

        stats = server.stats()
        server.close()
        store.close()

    print("answered %d queries on %d threads" % (len(answers), N_THREADS))
    print("cache: %d hits / %d misses (hit rate %.2f), %d invalidations"
          % (stats["cache"]["hits"], stats["cache"]["misses"],
             stats["cache"]["hit_rate"], stats["cache"]["invalidations"]))
    print("latency p50/p95/p99: %.3f / %.3f / %.3f ms"
          % (stats["telemetry"]["p50_ms"], stats["telemetry"]["p95_ms"],
             stats["telemetry"]["p99_ms"]))

    if mismatches:
        print("FAIL: %d of %d responses diverged from the oracle"
              % (mismatches, len(answers)))
        return 1
    if stats["cache"]["hit_rate"] <= 0:
        print("FAIL: repeated workload produced no cache hits")
        return 1
    if stats["telemetry"]["queries"] < N_QUERIES:
        print("FAIL: telemetry recorded %d queries, expected >= %d"
              % (stats["telemetry"]["queries"], N_QUERIES))
        return 1
    if stats["cache"]["invalidations"] == 0:
        print("FAIL: the post-append workload never invalidated a stale entry")
        return 1
    print("PASS: all %d concurrent responses oracle-exact" % len(answers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
