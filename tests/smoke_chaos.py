"""Chaos smoke test: kill, corrupt and overload the real paths (CI job).

Three acts, each asserting the acceptance criteria of the robustness
work end-to-end rather than via unit seams:

1. **Worker chaos** — a fault plan SIGKILLs real pool workers and hangs
   a batch past the supervisor's timeout; the cube must still match the
   single-process oracle cell-for-cell.
2. **Store crash sweep** — a writer process is SIGKILLed at *every*
   write boundary (``atomic_write`` / ``os.replace`` / ``os.unlink``,
   one child each, ``tests/crashes.py``) of a fresh build, a rebuild
   over a live store, an acknowledged ``append()`` and the
   ``compact()`` that folds it; each reopen at ``verify="full"`` must
   show one side of that step's commit — the acknowledged rows by WAL
   replay before the manifest replace, from the published leaf files
   after it; the old or the new store across a rebuild — oracle-exact,
   with the ``.tmp.<pid>`` debris of the real deaths swept and no
   ``.run`` file the manifest does not name.
3. **Overload flood** — hundreds of concurrent queries hit a small
   server over a store that left one dimension out: the admission gate
   must shed the excess, the poison traffic on the missing dimension
   must be refused every time (never computed, nothing to trip), and
   cache/store-served answers must keep flowing correctly throughout,
   with ``/healthz`` still ``ok`` at the end.

Run:  PYTHONPATH=src python tests/smoke_chaos.py
"""

import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from crashes import sweep

from repro import CubeServer, CubeStore, cluster1, zipf_relation
from repro.cluster.faults import FaultPlan, Slowdown, TaskFailure
from repro.core.naive import naive_cuboid, naive_iceberg_cube
from repro.errors import SchemaError, ServerOverloadedError
from repro.parallel.local import multiprocess_iceberg_cube


def act_one_worker_chaos():
    relation = zipf_relation(500, [8, 6, 5, 3], skew=1.0, seed=19)
    expected = naive_iceberg_cube(relation, minsup=2)

    plan = FaultPlan(failures=[TaskFailure(0, 0), TaskFailure(3, 0)],
                     slowdowns=[Slowdown(1, 4.0)], backoff_s=0.01)
    got = multiprocess_iceberg_cube(relation, minsup=2, workers=3,
                                    batch_size=2, fault_plan=plan,
                                    batch_timeout=1.0)
    assert got.equals(expected), got.diff(expected)
    recovery = got.recovery
    assert recovery.worker_crashes >= 1, recovery
    assert recovery.retries >= 2, recovery

    # A pure hang (no crash to pre-empt it) must be diagnosed as a stall.
    plan = FaultPlan(slowdowns=[Slowdown(0, 4.0)], backoff_s=0.01)
    got = multiprocess_iceberg_cube(relation, minsup=2, workers=2,
                                    batch_size=2, fault_plan=plan,
                                    batch_timeout=1.0)
    assert got.equals(expected), got.diff(expected)
    assert got.recovery.stalls >= 1, got.recovery
    print("act 1: SIGKILLed %d worker(s), survived %d stall(s), "
          "%d retries -- oracle-exact"
          % (recovery.worker_crashes, got.recovery.stalls,
             recovery.retries + got.recovery.retries))


def act_two_store_crash_sweep():
    report = sweep(("build", "rebuild", "append", "compact"), kill=True)
    assert sum(tally["debris"] for tally in report.values()), report
    for phase, tally in report.items():
        print("act 2: %-7s SIGKILLed at %2d boundaries + after the last -- "
              "%2d reopened before its commit, %2d after, %2d .tmp files "
              "swept; oracle-exact at verify=full"
              % (phase, tally["boundaries"], tally["before"], tally["after"],
                 tally["debris"]))


def act_three_overload_flood():
    relation = zipf_relation(1_500, [9, 7, 5, 4], skew=1.0, seed=23)
    n_queries, n_threads = 500, 32

    with tempfile.TemporaryDirectory() as tmp:
        # Materialize only three of the four dims: cuboids touching "D"
        # are outside the store, and the server never goes back to rows.
        store = CubeStore.build(relation, tmp, dims=("A", "B", "C"),
                                cluster_spec=cluster1(4))
        server = CubeServer(store, max_workers=4, max_pending=16)

        served = {("A",): dict(naive_cuboid(relation, ("A",))),
                  ("A", "B"): dict(naive_cuboid(relation, ("A", "B"))),
                  ("B", "C"): dict(naive_cuboid(relation, ("B", "C")))}
        expected = {
            cuboid: {cell: agg for cell, agg in cells.items() if agg[0] >= 2}
            for cuboid, cells in served.items()
        }

        counts = {"ok": 0, "shed": 0, "refused": 0, "wrong": 0}

        def client(i):
            cuboids = list(expected)
            if i % 5 == 0:
                try:  # poison traffic: a dimension the store left out
                    server.query(("A", "D"), 2)
                    counts["wrong"] += 1
                except SchemaError:
                    counts["refused"] += 1
                return
            cuboid = cuboids[i % len(cuboids)]
            try:
                future = server.submit(cuboid, 2)
            except ServerOverloadedError:
                counts["shed"] += 1
                return
            answer = future.result(timeout=30.0)
            if answer.cells == expected[cuboid]:
                counts["ok"] += 1
            else:
                counts["wrong"] += 1

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(client, range(n_queries)))

        stats = server.stats()["resilience"]
        health = server.health()
        cached = len(server.cache)
        server.close()
        store.close()

    assert counts["wrong"] == 0, counts
    assert counts["ok"] > 0, counts
    # every poison query was refused: none computed, none cached
    assert counts["refused"] == n_queries // 5, counts
    assert cached <= len(expected), cached
    # With 32 clients racing a 16-slot gate the flood must shed some load.
    assert stats["admission"]["shed"] > 0, stats
    assert health["status"] == "ok", health
    print("act 3: flood of %d queries -> %d served exactly, %d shed, %d on "
          "a dimension outside the store refused -- cache/store hits kept "
          "flowing, /healthz ok"
          % (n_queries, counts["ok"], stats["admission"]["shed"],
             counts["refused"]))


def main():
    act_one_worker_chaos()
    act_two_store_crash_sweep()
    act_three_overload_flood()
    print("PASS: chaos smoke survived worker kills, torn appends and "
          "overload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
