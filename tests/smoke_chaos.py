"""Chaos smoke test: kill, corrupt and overload the real paths (CI job).

Three acts, each asserting the acceptance criteria of the robustness
work end-to-end rather than via unit seams:

1. **Worker chaos** — a fault plan SIGKILLs real pool workers and hangs
   a batch past the supervisor's timeout; the cube must still match the
   single-process oracle cell-for-cell.
2. **Append crash sweep** — an acknowledged ``append()`` is followed by
   a ``compact()`` interrupted at *every* file operation (atomic_write /
   os.replace / os.unlink) in turn; each reopen must land on the new
   generation with the acknowledged rows — by WAL replay when the crash
   came before the manifest replace (the commit), from the published
   leaf files after it — with queries matching the full-store oracle at
   ``verify="full"``.
3. **Overload flood** — hundreds of concurrent queries hit a small
   server over a store that left one dimension out: the admission gate
   must shed the excess, the poison traffic on the missing dimension
   must be refused every time (never computed, nothing to trip), and
   cache/store-served answers must keep flowing correctly throughout,
   with ``/healthz`` still ``ok`` at the end.

Run:  PYTHONPATH=src python tests/smoke_chaos.py
"""

import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

from repro import CubeServer, CubeStore, cluster1, zipf_relation
from repro.cluster.faults import FaultPlan, Slowdown, TaskFailure
from repro.core.naive import naive_cuboid, naive_iceberg_cube
from repro.errors import SchemaError, ServerOverloadedError
from repro.parallel.local import multiprocess_iceberg_cube
from repro.serve import store as store_module


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


class Boom(RuntimeError):
    pass


class CrashingOps:
    """Wrap the store module's file ops to die after ``n`` calls."""

    def __init__(self, fail_after):
        self.fail_after = fail_after
        self.calls = 0

    def _tick(self):
        self.calls += 1
        if self.calls > self.fail_after:
            raise Boom("simulated crash at file op %d" % self.calls)


def act_two_append_crash_sweep():
    relation = zipf_relation(400, [8, 5, 6, 3], skew=1.0, seed=7)
    base = relation.slice(0, 300)
    delta = relation.slice(300, len(relation))

    real_atomic_write = store_module.atomic_write
    real_replace = store_module.os.replace
    real_unlink = store_module.os.unlink

    with tempfile.TemporaryDirectory() as tmp:
        new_dir = tmp + "/new-oracle"
        CubeStore.build(relation, new_dir).close()
        with CubeStore.open(new_dir, verify="off") as new_store:
            leaves = list(new_store.leaves)
            new_answers = {leaf: new_store.query(leaf, minsup=2)
                           for leaf in leaves}

        crash_point = 0
        # how each reopen got the acknowledged batch back: replayed
        # from the WAL (cut before the commit), or from the published
        # files — with the stale WAL record still to prune, or already
        # truncated and only superseded files (if anything) left over
        outcomes = {"replayed": 0, "pruned": 0, "published": 0}
        while True:
            ops = CrashingOps(crash_point)

            def crashing_write(path, writer, _ops=ops, **kwargs):
                _ops._tick()
                return real_atomic_write(path, writer, **kwargs)

            def crashing_replace(src, dst, _ops=ops):
                _ops._tick()
                return real_replace(src, dst)

            def crashing_unlink(path, _ops=ops):
                _ops._tick()
                return real_unlink(path)

            victim_dir = "%s/victim-%d" % (tmp, crash_point)
            CubeStore.build(base, victim_dir).close()
            store = CubeStore.open(victim_dir, verify="off")
            assert store.append(delta).applied  # acknowledged: durable
            store_module.atomic_write = crashing_write
            store_module.os.replace = crashing_replace
            store_module.os.unlink = crashing_unlink
            try:
                store.compact()
                completed = True
            except Boom:
                completed = False
            finally:
                store_module.atomic_write = real_atomic_write
                store_module.os.replace = real_replace
                store_module.os.unlink = real_unlink
                store.close()

            with CubeStore.open(victim_dir, verify="full") as reopened:
                assert reopened.generation == 2, (crash_point,
                                                  reopened.generation)
                assert reopened.total_rows == len(relation), crash_point
                for leaf in leaves:
                    got = reopened.query(leaf, minsup=2)
                    assert got == new_answers[leaf], (crash_point, leaf)
                recovery = reopened.recovery
                if recovery["wal_replayed"]:
                    assert recovery["wal_replayed"] == 1, crash_point
                    assert recovery["wal_pruned"] == 0, crash_point
                    outcomes["replayed"] += 1
                elif recovery["wal_pruned"]:
                    assert recovery["wal_pruned"] == 1, crash_point
                    outcomes["pruned"] += 1
                else:
                    outcomes["published"] += 1
                with open(victim_dir + "/manifest.json") as handle:
                    named = {entry["file"] for entry
                             in json.load(handle)["leaves"]}
                assert {name for name in os.listdir(victim_dir)
                        if name.endswith(".run")} == named, crash_point
            if completed:
                break
            crash_point += 1

    # both sides of the commit (the manifest replace) were hit
    assert all(outcomes.values()), outcomes
    print("act 2: append(); compact() interrupted at %d distinct crash "
          "points -- %d recovered by WAL replay, %d published with the "
          "stale WAL record pruned, %d published and truncated; always "
          "generation 2, no orphan left, all oracle-exact at verify=full"
          % (crash_point + 1, outcomes["replayed"],
             outcomes["pruned"], outcomes["published"]))
    return outcomes


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
    act_two_append_crash_sweep()
    act_three_overload_flood()
    print("PASS: chaos smoke survived worker kills, torn appends and "
          "overload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
