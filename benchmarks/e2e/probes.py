"""Per-layer probes: public functions timed alone on the run's own data.

Run only in the traced pass, after the pipeline and with the tracer
uninstalled, so they neither slow the end-to-end numbers nor pollute
the span tree.  Each returns plain numbers keyed by metric name.
"""

import json
import os
import random
import shutil
import time
from urllib.request import urlopen

from repro.core import buc_iceberg_cube
from repro.core.columnar import ColumnarFrame, aggregate_cuboid
from repro.data import stream_from_relation, zipf_relation
from repro.mr import shuffle
from repro.online import leaf_cuboids
from repro.parallel import multiprocess_iceberg_cube
from repro.parallel.shm import decode_result, encode_result
from repro.serve import CubeStore, QueryCache, WriteAheadLog
from repro.serve.ingest import decode_record, encode_record

from workloads import BATCH_ROWS

#: Leaves aggregated / loaded per probe (a seeded sample keeps d=10's
#: 512 leaves from costing a second build).
LEAF_SAMPLE = 96


def leaf_fingerprints(directory):
    """``{leaf file: (sha256, bytes)}`` from a store's manifest."""
    with open(os.path.join(directory, "manifest.json")) as handle:
        manifest = json.load(handle)
    return {entry["file"]: (entry["sha256"], entry["bytes"])
            for entry in manifest["leaves"]}


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def best_of(fn, repeats=3):
    return min(timed(fn)[1] for _ in range(repeats))


def probe_all(run, tmp):
    inputs = run.inputs
    rng = random.Random(inputs.seed)
    out = {}
    out.update(probe_data(inputs))
    out.update(probe_columnar(inputs, rng))
    out.update(probe_shm(inputs, rng))
    out.update(probe_mr(run, tmp))
    out.update(probe_store(run, rng))
    out.update(probe_ingest(inputs, tmp))
    out.update(probe_cache(inputs))
    return out


def probe_data(inputs):
    spec = inputs.spec
    seconds = best_of(lambda: (
        zipf_relation(inputs.rows, spec.cards, skew=1.0, seed=inputs.seed),
        stream_from_relation(inputs.relation)), repeats=2)
    return {"data.generate_s": seconds}


def probe_columnar(inputs, rng):
    relation = inputs.relation
    frame = ColumnarFrame.from_relation(relation)
    minsup = inputs.spec.cube_minsups[0]
    leaves = leaf_cuboids(inputs.dims)
    sample = rng.sample(leaves, min(LEAF_SAMPLE, len(leaves)))
    sample_s = timed(lambda: [aggregate_cuboid(frame, leaf)
                              for leaf in sample])[1]
    return {
        "columnar.frame_encode_s": best_of(
            lambda: ColumnarFrame.from_relation(relation)),
        "columnar.kernel_rows_per_s": len(relation) / best_of(
            lambda: buc_iceberg_cube(relation, minsup=minsup, kernel="auto"),
            repeats=2),
        # seconds for every leaf, extrapolated from the sample
        "columnar.leaf_aggregate_s": sample_s * len(leaves) / len(sample),
    }


def probe_shm(inputs, rng):
    frame = ColumnarFrame.from_relation(inputs.relation)
    leaves = leaf_cuboids(inputs.dims)
    items = [(leaf, aggregate_cuboid(frame, leaf))
             for leaf in rng.sample(leaves, min(8, len(leaves)))]
    blob, encode_s = timed(
        lambda: encode_result(items, frame.dims, frame.packing))
    buf = memoryview(bytes(blob))
    decode_s = best_of(lambda: decode_result(buf, frame.dims, frame.packing))
    encode_s = min(encode_s, best_of(
        lambda: encode_result(items, frame.dims, frame.packing), repeats=2))
    megabytes = len(buf) / 1e6
    return {"shm.encode_mb_per_s": megabytes / encode_s,
            "shm.decode_mb_per_s": megabytes / decode_s}


def probe_mr(run, tmp):
    """The merge half of the shuffle on the build's own run files, and
    the MapReduce-vs-pool ratio on the same relation (whose pool-built
    store must hold the same leaf files, byte for byte)."""
    out = {"mr.merge_records_per_s": 0.0, "mr.slowdown_vs_local": 0.0}
    if run.spec.backend != "mapreduce":
        return out
    reference = os.path.join(tmp, "probe-pool-store")
    CubeStore.build(run.inputs.relation, reference, backend="local",
                    workers=2).close()
    # Leaf by leaf, not manifest.json against manifest.json: the two
    # backends list the same leaves in different orders.
    run.check.check(
        [leaf_fingerprints(reference)] == run.numbers["leaf_fingerprints"],
        "the MapReduce-built store's leaf files differ from the pool's")
    shutil.rmtree(reference)
    shuffle_dir = run.shuffle_dir
    paths = sorted(
        os.path.join(root, name)
        for root, _dirs, files in os.walk(shuffle_dir)
        for name in files if name.startswith("part-000-"))
    if paths:
        records = list(shuffle.merge_runs(paths[:1]))
        rewrite = os.path.join(shuffle_dir, "probe.run")
        started = time.perf_counter()
        shuffle.write_run(rewrite, records)
        merged = sum(1 for _ in shuffle.merge_runs(paths))
        seconds = time.perf_counter() - started
        out["mr.merge_records_per_s"] = (len(records) + merged) / seconds
    minsup = run.spec.cube_minsups[0]
    reference, pool_s = timed(lambda: multiprocess_iceberg_cube(
        run.inputs.cube_relation, minsup=minsup, workers=2))
    mr_cells = run.numbers["cube_cells"][minsup]
    run.check.check(
        reference.total_cells() == mr_cells,
        "MapReduce cube has %d cells at minsup %d, the pool %d"
        % (mr_cells, minsup, reference.total_cells()))
    cube_s = run.median_s("cube") / len(run.spec.cube_minsups)
    out["mr.slowdown_vs_local"] = cube_s / pool_s
    out["mr.pool_cube_s"] = pool_s  # the ratio's base, for the report
    return out


def probe_store(run, rng):
    """Open, cold load, warm scan, point lookups and the delta merge on
    the (compacted) store the pipeline left behind."""
    inputs = run.inputs
    directory = run.compacted_stores[0].directory
    out = {}
    for level in ("quick", "full"):
        out["store.open_%s_s" % level] = best_of(
            lambda: CubeStore.open(directory, verify=level, wal=True,
                                   compact_after=None).close())
    store = CubeStore.open(directory, verify="off", wal=True,
                           compact_after=None)
    try:
        leaves = rng.sample(store.leaves, min(LEAF_SAMPLE, len(store.leaves)))
        cells, load_s = timed(
            lambda: sum(len(store.leaf_items(leaf)) for leaf in leaves))
        out["store.leaf_load_cells_per_s"] = cells / load_s

        # warm scans: group-bys from the population that this store
        # (one shard, for the router workload) covers
        owned = set(store.owned_cuboids())
        queries = [q for q in inputs.population
                   if q.kind == "query" and q.cuboid in owned][:64]
        for query in queries:
            store.query(query.cuboid, query.minsup)
        examined = results = 0
        started = time.perf_counter()
        for query in queries:
            answer = store.query(query.cuboid, query.minsup)
            results += len(answer)
            examined += len(store.leaf_items(
                store.covering_leaf(query.cuboid)))
        scan_s = time.perf_counter() - started
        out["store.scan_cells_per_s"] = examined / scan_s
        out["store.cells_examined_per_result"] = examined / max(1, results)

        # points: warm = leaf resident, cold = prefix-index seek + run scan
        points = []
        for query in queries[:32]:
            points.append((query.cuboid,
                           next(iter(inputs.base[query.cuboid]))))
        out["store.point_warm_us"] = 1e6 * timed(
            lambda: [store.point(c, cell) for c, cell in points]
        )[1] / len(points)
        store.close()
        store = CubeStore.open(directory, verify="off", wal=True,
                               compact_after=None)
        out["store.point_cold_us"] = 1e6 * timed(
            lambda: [store.point(c, cell) for c, cell in points]
        )[1] / len(points)

        # delta merge: the first read of each loaded leaf after an append
        loaded = [store.covering_leaf(q.cuboid) for q in queries]
        for leaf in loaded:
            store.leaf_items(leaf)
        store.append(inputs.batches[0], batch_id="bench-probe-delta")
        out["store.delta_merge_s"] = timed(
            lambda: [store.leaf_items(leaf) for leaf in loaded])[1]
    finally:
        store.close()
    return out


def probe_ingest(inputs, tmp):
    batch = inputs.batches[0]
    rows = [tuple(row) for row in batch.rows]
    wal_dir = os.path.join(tmp, "probe-wal")
    wal = WriteAheadLog(wal_dir)
    samples = sorted(
        timed(lambda g=g: wal.append(g, "probe-%d" % g, batch.dims, rows,
                                     batch.measures))[1]
        for g in range(2, 22))
    nbytes = wal.nbytes() / 20.0
    shutil.rmtree(wal_dir)
    record, encode_s = timed(lambda: [
        encode_record(2, "probe", batch.dims, rows, batch.measures)
        for _ in range(50)])
    decode_s = timed(lambda: [decode_record(r) for r in record])[1]
    return {
        "ingest.wal_append_ms": 1e3 * samples[len(samples) // 2],
        "ingest.encode_us_per_row": 1e6 * (encode_s + decode_s)
        / (50 * BATCH_ROWS),
        "ingest.wal_bytes_per_row": nbytes / BATCH_ROWS,
    }


def probe_cache(inputs):
    cache = QueryCache(256)
    queries = [q for q in inputs.population if q.kind == "query"][:128]
    value = {(): (1, 1.0)}
    started = time.perf_counter()
    for _ in range(20):
        for query in queries:
            cache.put(query.cuboid, query.minsup, 1, value)
            cache.get(query.cuboid, query.minsup, 1)
    seconds = time.perf_counter() - started
    return {"cache.get_us": 1e6 * seconds / (20 * len(queries) * 2)}


def probe_json_bytes(server, inputs):
    """Mean ``/query`` response size over a sample of the population."""
    sizes = []
    for query in [q for q in inputs.population if q.kind == "query"][:32]:
        url = "%s/query?cuboid=%s&minsup=%d" % (
            server.url, ",".join(query.cuboid), query.minsup)
        try:
            with urlopen(url, timeout=30) as response:
                sizes.append(len(response.read()))
        except OSError:
            continue
    return sum(sizes) / len(sizes) if sizes else 0.0
