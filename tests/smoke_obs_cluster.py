"""Observability cluster smoke test: one trace, one scrape (CI job).

A 2-shard x 2-replica cluster — each replica a REAL ``repro-cube
serve`` subprocess started with ``--trace-out`` so observability is
installed in-process — fronted by an in-process :class:`CubeRouter`
under :func:`repro.obs.installed`.  The acceptance criteria of the
distributed-tracing and federation tier, asserted end-to-end:

1. **Flood** — 200 Zipf-weighted iceberg queries stream through the
   router, all oracle-exact.
2. **One trace id across processes** — a cross-shard ``cube()``
   produces replica-side ``serve.cube`` and ``store.query`` spans that
   carry the *router's* trace id, with ``serve.cube`` parenting
   directly under the router's ``router.cube`` span.
3. **One merged trace file** — ``collect_trace`` writes a single
   Chrome/Perfetto JSON with one process track per node (router plus
   every replica), loadable and self-describing.
4. **Federation adds up** — the router's federated ``/metrics`` totals
   for ``repro_server_requests_total`` equal the sum of the per-replica
   scrapes, every sample labelled with its shard/replica.
5. **RED + lag visible** — ``/healthz`` carries per-shard
   rate/errors/duration summaries (from the replicas' health replies),
   the router's own latency histogram counted every flood query, and
   the per-replica generation-lag gauge reads zero on a healthy
   cluster.
6. **Tracing stays near-free** — the kernelbench obs-overhead gate
   (instrumented/plain wall-time ratio) holds under its 5% target on a
   reduced workload.

Run:  PYTHONPATH=src python tests/smoke_obs_cluster.py
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from urllib.request import urlopen

import repro.obs as obs
from repro.bench.kernelbench import (
    CARDINALITIES,
    FAST_KERNEL,
    OBS_OVERHEAD_TARGET,
    _obs_overhead_ratio,
)
from repro.core.naive import naive_cuboid
from repro.data import zipf_relation
from repro.lattice.lattice import CubeLattice
from repro.obs.metrics import parse_prometheus
from repro.serve import CubeRouter, CubeStore

DIMS = ("A", "B", "C", "D")
N_SHARDS, N_REPLICAS = 2, 2
N_QUERIES = 200
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def spawn_replica(root, directory, shard, replica):
    """One real serve subprocess with observability installed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    trace_out = os.path.join(root, "replica-%d-%d.json" % (shard, replica))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", directory,
         "--shard", "%d/%d" % (shard, N_SHARDS), "--port", "0",
         "--trace-out", trace_out],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    for _ in range(40):
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                "replica died during startup (shard %d)" % shard)
        if line.startswith("listening on "):
            return proc, line.split()[2]
    raise AssertionError("replica never reported its URL")


def sum_requests(families):
    """Total of every ``repro_server_requests_total`` sample."""
    samples = families.get("repro_server_requests_total",
                           {}).get("samples", ())
    return sum(value for _name, _labels, value in samples)


def main():
    root = tempfile.mkdtemp(prefix="obs-cluster-smoke-")
    base = zipf_relation(500, dims=DIMS, cardinalities=(4, 5, 6, 7),
                         skew=1.0, seed=29)

    processes, urls = {}, []
    for shard in range(N_SHARDS):
        built = os.path.join(root, "build-%d" % shard)
        CubeStore.build(base, built, backend="local",
                        shard=(shard, N_SHARDS)).close()
        replica_urls = []
        for replica in range(N_REPLICAS):
            directory = os.path.join(root, "shard-%d-r%d" % (shard, replica))
            shutil.copytree(built, directory)
            proc, url = spawn_replica(root, directory, shard, replica)
            processes[(shard, replica)] = proc
            replica_urls.append(url)
        urls.append(replica_urls)
    print("cluster up: %d shards x %d replicas, all traced (pids %s)"
          % (N_SHARDS, N_REPLICAS,
             sorted(p.pid for p in processes.values())))

    with obs.installed() as active:
        router = CubeRouter(urls, timeout_s=10.0)
        lattice = CubeLattice(DIMS)
        cuboids = list(lattice.cuboids(include_all=False)) + [()]
        weights = [1.0 / (rank + 1) for rank in range(len(cuboids))]
        rng = random.Random(41)

        # -- 1. flood: 200 Zipf-weighted queries, oracle-exact ----------
        wrong = 0
        for _ in range(N_QUERIES):
            cuboid = rng.choices(cuboids, weights)[0]
            minsup = rng.randint(1, 4)
            answer = router.query(cuboid, minsup=minsup)
            oracle = {cell: agg
                      for cell, agg in naive_cuboid(base, cuboid).items()
                      if agg[0] >= minsup}
            wrong += answer.cells != oracle
        assert not wrong, "%d wrong answers in the flood" % wrong
        print("flood: %d queries oracle-exact through the traced router"
              % N_QUERIES)

        # -- 2. one cross-shard cube == one trace id everywhere ---------
        answer = router.cube(minsup=2)
        assert answer.cuboids, "cube() answered nothing"
        cube_span = next(s for s in reversed(active.tracer.spans())
                         if s.name == "router.cube")
        trace_id = cube_span.trace_id
        replica_payloads = []
        shards_joined = set()
        for (shard, replica), _proc in sorted(processes.items()):
            with urlopen(urls[shard][replica] + "/trace?since=0") as resp:
                payload = json.loads(resp.read())
            assert payload["enabled"] is True, (shard, replica)
            replica_payloads.append(
                ("shard%d/replica%d" % (shard, replica), payload))
            joined = [s for s in payload["spans"]
                      if s["trace_id"] == trace_id]
            if not joined:
                continue  # cube() fans out to ONE replica per shard
            by_name = {}
            for span in joined:
                by_name.setdefault(span["name"], span)
            serve_span = by_name["serve.cube"]
            assert serve_span["parent_id"] == cube_span.span_id, \
                "serve.cube did not parent under router.cube"
            assert "store.query" in by_name, \
                "store scan missing from the cube trace"
            assert by_name["store.query"]["parent_id"] == \
                serve_span["span_id"]
            shards_joined.add(shard)
        assert shards_joined == set(range(N_SHARDS)), \
            "shards in the cube trace: %s" % sorted(shards_joined)
        print("trace: cube() trace %s spans router -> serve.cube -> "
              "store.query on every shard" % trace_id)

        # -- 3. one merged Chrome trace, one track per node -------------
        trace_path = os.path.join(root, "cluster-trace.json")
        merged = router.collect_trace(path=trace_path)
        with open(trace_path) as handle:
            on_disk = json.load(handle)
        assert on_disk["traceEvents"], "merged trace file is empty"
        tracks = sorted(event["args"]["name"]
                        for event in merged["traceEvents"]
                        if event["name"] == "process_name")
        expected = sorted(["router"] + [
            "shard%d/replica%d" % (shard, replica)
            for shard in range(N_SHARDS) for replica in range(N_REPLICAS)])
        assert tracks == expected, tracks
        assert merged["otherData"]["disabled_processes"] == []
        cross = [event for event in merged["traceEvents"]
                 if event.get("ph") == "X"
                 and event.get("args", {}).get("trace_id") == trace_id]
        assert len({event["pid"] for event in cross}) >= 1 + N_SHARDS, \
            "cube trace should span the router and one replica per shard"
        print("trace: merged file has %d process tracks, %d events (%s)"
              % (len(tracks), len(merged["traceEvents"]), trace_path))

        # -- 4. federated /metrics totals == sum of replica scrapes -----
        direct_total = 0.0
        for shard in range(N_SHARDS):
            for replica in range(N_REPLICAS):
                with urlopen(urls[shard][replica] + "/metrics") as resp:
                    direct_total += sum_requests(
                        parse_prometheus(resp.read().decode()))
        federated = parse_prometheus(router.federated_metrics())
        federated_total = sum_requests(federated)
        assert federated_total == direct_total, \
            "federated %s != direct %s" % (federated_total, direct_total)
        for _name, labels, _value in federated[
                "repro_server_requests_total"]["samples"]:
            assert labels["shard"] in {"0", "1"}, labels
            assert labels["replica"] in {"0", "1"}, labels
        print("federation: repro_server_requests_total %d == sum of %d "
              "per-replica scrapes" % (federated_total,
                                       N_SHARDS * N_REPLICAS))

        # -- 5. RED summaries and replica lag -----------------------------
        health = router.health()
        assert health["status"] == "ok", health["status"]
        for shard in range(N_SHARDS):
            red = health["shards"][shard]["red"]
            assert red["requests"] > 0, red
            assert red["p95_s"] >= 0.0, red
        latency = router.stats()["latency"]
        assert latency["query"]["count"] == N_QUERIES, latency
        # check_health (inside health()) refreshed the lag gauges, so
        # read them off a scrape taken *after* it.
        after_health = parse_prometheus(router.registry.to_prometheus())
        lag_samples = [
            (labels, value) for _name, labels, value in after_health.get(
                "repro_router_replica_lag", {}).get("samples", ())]
        assert len(lag_samples) == N_SHARDS * N_REPLICAS, lag_samples
        assert all(value == 0.0 for _labels, value in lag_samples), \
            "healthy cluster reported generation lag: %s" % lag_samples
        print("health: RED summaries on every shard, %d queries in the "
              "router histogram, replica lag 0 across %d replicas"
              % (latency["query"]["count"], len(lag_samples)))

        router.close()

    for proc in processes.values():
        if proc.poll() is None:
            proc.terminate()
            proc.wait()
    shutil.rmtree(root, ignore_errors=True)

    # -- 6. obs overhead gate (reduced workload) ------------------------
    ratio = _obs_overhead_ratio(
        zipf_relation(4000, CARDINALITIES[6], skew=1.0, seed=29),
        minsup=2, kernel=FAST_KERNEL, repeats=3)
    assert ratio <= OBS_OVERHEAD_TARGET, \
        "obs overhead ratio %.3f exceeds %.2f" % (ratio, OBS_OVERHEAD_TARGET)
    print("overhead: instrumented/plain ratio %.3f <= %.2f (%s kernel)"
          % (ratio, OBS_OVERHEAD_TARGET, FAST_KERNEL))

    print("OBS CLUSTER SMOKE PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
