"""Metric names, units and definitions — and the code that fills them.

``BENCHMARK.json`` carries name / unit / direction (and a bound for the
end-to-end ones) because its schema is fixed; the layer each per-layer
metric belongs to, where its number comes from, and which end-to-end
metric it is expected to move live here and are rendered into the
README's glossary.  ``tests/test_contract.py`` keeps the two in step.
"""

import statistics
from collections import namedtuple

from repro.obs import percentile

import trace as tracing
from pipeline import STAGES, WORKERS  # noqa: F401 (STAGES: for run.py)
from workloads import BATCH_ROWS

E2E = namedtuple("E2E", ("name", "unit", "better", "what"))
Layer = namedtuple("Layer", ("layer", "name", "unit", "better", "source",
                             "moves"))

END_TO_END = (
    E2E("setup_s", "s", "lower",
        "median of five input+oracle generations, plus the median round's "
        "time outside any timed stage (directory copies and removals, "
        "verification passes between stages)"),
    E2E("cube_rows_per_s", "rows/s", "higher",
        "cube-stage input rows x thresholds / seconds for one cube at "
        "every threshold (median round), workload's backend"),
    E2E("build_s", "s", "lower",
        "raw relation -> closed, durable store(s) on disk; median round"),
    E2E("store_bytes_per_cell", "B/cell", "lower",
        "bytes under the store directories / total_cells(); repeats "
        "exactly for a seed"),
    E2E("warm_s", "s", "lower",
        "open(verify=full, wal=True) or server spawn -> end of a first "
        "pass over 32 distinct group-bys (cold leaf loads), every answer "
        "oracle-checked; median round"),
    E2E("query_per_s", "1/s", "higher",
        "flood queries / wall, closed-loop clients (2 over HTTP, 1 in "
        "process); median 0.3 s slice over all rounds"),
    E2E("append_ms", "ms", "lower",
        "time to durable ack of one 64-row batch, paced reader running: "
        "mean over the round's batches (an append costs more the more "
        "are pending); median round"),
    E2E("peak_rss_mb", "MB", "lower",
        "max RSS of the driver and of any child (getrusage)"),
)

PER_LAYER = (
    Layer("data", "data.generate_s", "s", "lower", "probe",
          "setup_s, all"),
    Layer("core.columnar", "columnar.frame_encode_s", "s", "lower", "probe",
          "cube_rows_per_s, build_s @ compute_local"),
    Layer("core.columnar", "columnar.kernel_rows_per_s", "rows/s", "higher",
          "probe", "cube_rows_per_s @ compute_local"),
    Layer("core.columnar", "columnar.leaf_aggregate_s", "s", "lower", "probe",
          "build_s @ compute_local"),
    Layer("parallel.local", "local.cube_s", "s", "lower", "span",
          "cube_rows_per_s @ compute_local"),
    Layer("parallel.local", "local.batch_busy_s", "s", "lower", "span",
          "cube_rows_per_s @ compute_local"),
    Layer("parallel.local", "local.batches", "count", "lower", "span",
          "cube_rows_per_s @ compute_local"),
    Layer("parallel.local", "local.parent_decode_s", "s", "lower", "span",
          "cube_rows_per_s @ compute_local"),
    Layer("parallel.local", "local.worker_idle_share", "ratio", "lower",
          "span", "cube_rows_per_s @ compute_local (gates placement work)"),
    Layer("parallel.local", "local.respawns", "count", "lower", "counter",
          "failed"),
    Layer("parallel.shm", "shm.encode_mb_per_s", "MB/s", "higher", "probe",
          "cube_rows_per_s, build_s @ compute_local"),
    Layer("parallel.shm", "shm.decode_mb_per_s", "MB/s", "higher", "probe",
          "cube_rows_per_s, build_s @ compute_local"),
    Layer("parallel.shm", "shm.bytes_shipped", "B", "lower", "span",
          "cube_rows_per_s, build_s @ compute_local"),
    Layer("parallel.shm", "shm.leaked_segments", "count", "lower", "counter",
          "failed"),
    Layer("mr", "mr.map_s", "s", "lower", "counter",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.reduce_s", "s", "lower", "counter",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.records_shuffled", "count", "lower", "counter",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.spills", "count", "lower", "counter",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.spill_bytes", "B", "lower", "counter",
          "build_s, peak_rss_mb @ compute_mapreduce"),
    Layer("mr", "mr.runs_merged", "count", "lower", "counter",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.merge_records_per_s", "1/s", "higher", "probe",
          "cube_rows_per_s, build_s @ compute_mapreduce"),
    Layer("mr", "mr.slowdown_vs_local", "ratio", "lower", "probe",
          "the ROADMAP 7x number, with its base"),
    Layer("online.materialize", "materialize.s", "s", "lower", "driver timer",
          "build_s @ compute_local, serve_*"),
    Layer("online.materialize", "materialize.leaf_cells", "count", "lower",
          "counter", "store_bytes_per_cell"),
    Layer("serve.store", "store.write_s", "s", "lower", "driver timer",
          "build_s, all local builds"),
    Layer("serve.store", "store.bytes", "B", "lower", "counter",
          "store_bytes_per_cell"),
    Layer("serve.store", "store.open_quick_s", "s", "lower", "probe",
          "warm_s, recover_s"),
    Layer("serve.store", "store.open_full_s", "s", "lower", "probe",
          "warm_s, recover_s"),
    Layer("serve.store", "store.leaf_load_cells_per_s", "cells/s", "higher",
          "probe", "warm_s, query_p99_ms @ serve_scan_http"),
    Layer("serve.store", "store.scan_cells_per_s", "cells/s", "higher",
          "probe", "query_p99_ms, query_per_s @ serve_scan_http, compute_*; "
          "none @ serve_ingest_router"),
    Layer("serve.store", "store.cells_examined_per_result", "ratio", "lower",
          "probe", "same as scan_cells_per_s (wasted work)"),
    Layer("serve.store", "store.point_warm_us", "us", "lower", "probe",
          "query_p50_ms @ serve_ingest_router"),
    Layer("serve.store", "store.point_cold_us", "us", "lower", "probe",
          "query_p50_ms @ serve_ingest_router"),
    Layer("serve.store", "store.delta_merge_s", "s", "lower", "probe",
          "query_p95_ingest_ms, all"),
    Layer("serve.store", "store.compact_bytes_rewritten", "B", "lower",
          "counter", "compact_s, query_p95_ingest_ms"),
    Layer("serve.store", "store.write_amp", "ratio", "lower", "counter",
          "compact_s, append_rows_per_s"),
    Layer("serve.ingest", "ingest.wal_append_ms", "ms", "lower", "probe",
          "append_ms, all"),
    Layer("serve.ingest", "ingest.encode_us_per_row", "us", "lower", "probe",
          "append_ms, all"),
    Layer("serve.ingest", "ingest.wal_bytes_per_row", "B", "lower", "probe",
          "recover_s"),
    Layer("serve.ingest", "ingest.replay_s", "s", "lower", "driver timer",
          "recover_s"),
    Layer("serve.ingest", "ingest.append_max_ms", "ms", "lower",
          "driver timer", "query_p95_ingest_ms @ serve_ingest_router"),
    Layer("serve.ingest", "ingest.duplicates_acked", "count", "higher",
          "counter", "failed (a re-applied duplicate is a wrong answer)"),
    Layer("serve.cache", "cache.hit_rate", "ratio", "higher", "counter",
          "query_p50_ms, query_per_s @ serve_ingest_router; ~0 @ "
          "serve_scan_http"),
    Layer("serve.cache", "cache.evictions", "count", "lower", "counter",
          "query_per_s @ serve_scan_http"),
    Layer("serve.cache", "cache.stale_rejections", "count", "lower",
          "counter", "query_p95_ingest_ms @ serve_ingest_router"),
    Layer("serve.cache", "cache.get_us", "us", "lower", "probe",
          "query_p50_ms @ serve_ingest_router"),
    Layer("serve.server", "server.self_ms", "ms", "lower", "span",
          "query_p50_ms @ compute_*"),
    Layer("serve.server", "server.http_overhead_ms", "ms", "lower", "span",
          "query_p50_ms, query_p99_ms @ serve_scan_http"),
    Layer("serve.server", "server.json_bytes_per_query", "B", "lower",
          "probe", "query_p50_ms, query_p99_ms @ serve_scan_http"),
    Layer("serve.server", "server.shed_429", "count", "lower", "counter",
          "failed"),
    Layer("serve.server", "server.deadline_504", "count", "lower", "counter",
          "failed"),
    Layer("serve.server", "server.spawn_s", "s", "lower", "driver timer",
          "warm_s, recover_s @ serve_*"),
    Layer("serve.cluster", "router.self_ms", "ms", "lower", "span",
          "query_p50_ms @ serve_ingest_router"),
    Layer("serve.cluster", "router.cube_fanout_ms", "ms", "lower", "span",
          "query_p99_ms @ serve_ingest_router"),
    Layer("serve.cluster", "router.append_fanout_ms", "ms", "lower", "span",
          "append_ms @ serve_ingest_router"),
    Layer("serve.cluster", "router.append_retries", "count", "lower",
          "counter", "failed, append_rows_per_s"),
    Layer("serve.cluster", "router.failovers", "count", "lower", "counter",
          "failed, append_rows_per_s"),
    Layer("serve.cluster", "router.generation_retries", "count", "lower",
          "counter", "query_p99_ms @ serve_ingest_router"),
    Layer("serve.cluster", "router.replica_lag_max", "generations", "lower",
          "counter", "recover_s"),
    Layer("obs", "obs.overhead_ratio", "ratio", "lower", "driver timer",
          "must stay < 1.05 on flood stages"),
    Layer("obs", "obs.spans_recorded", "count", "lower", "counter",
          "obs.overhead_ratio"),
    Layer("obs", "obs.spans_dropped", "count", "lower", "counter",
          "must be 0 or the layer split is void"),
    # The issue's other end-to-end metrics.  The first four timings did
    # not repeat within a quarter over ten seeds on the 2-core sandbox (a
    # median that sits between the modes of a multi-modal latency
    # distribution, tails of 1-5 k samples, a stage wall that includes
    # compaction stalls), so they carry no bound; failed_share is 0 at
    # seed and is the command's failed / attempted.
    Layer("bench", "bench.query_p50_ms", "ms", "lower", "driver timer",
          "per-query latency at the client over the flood; median of the "
          "0.3 s slices' medians"),
    Layer("bench", "bench.query_p99_ms", "ms", "lower", "driver timer",
          "flood tail; n >= 1 000 on every workload"),
    Layer("bench", "bench.query_p95_ingest_ms", "ms", "lower",
          "driver timer", "reader latency during ingest (append and "
          "compaction stalls)"),
    Layer("bench", "bench.append_rows_per_s", "rows/s", "higher",
          "driver timer", "acked rows / ingest stage wall, think time "
          "included"),
    Layer("bench", "bench.failed_share", "ratio", "lower", "counter",
          "0 at seed; also the command's failed / attempted"),
    # The two dearest stages of a round: with them in the untraced run it
    # has half as many rounds, and nothing repeats within its bound.
    Layer("bench", "bench.recover_s", "s", "lower", "driver timer",
          "SIGKILL (in-process: the store dropped unclosed) -> restarted "
          "with WAL replay and a verification pass oracle-exact; median "
          "round"),
    Layer("bench", "bench.compact_s", "s", "lower", "driver timer",
          "explicit compact() of what is still pending on the recovered "
          "store(s), sequentially; median round"),
    Layer("bench", "bench.host_slowdown", "ratio", "lower", "driver timer",
          "median calibration loop of the run / its time on the quiet "
          "reference box; divides the end-to-end timings, not these"),
)

def flood_summary(slices):
    """Median slice of the floods of every round: ``(p50 s, queries/s,
    pooled latencies)``.
    Each slice is ``(traced, sorted latencies, wall)``."""
    pooled = sorted(s for _t, latencies, _w in slices for s in latencies)
    if not pooled:
        return 0.0, 0.0, pooled
    p50 = statistics.median(percentile(latencies, 50)
                            for _t, latencies, _w in slices)
    rate = statistics.median(len(latencies) / wall
                             for _t, latencies, wall in slices)
    return p50, rate, pooled


def end_to_end(run, setup_s):
    """Every end-to-end metric of one untraced run (``peak_rss_mb`` is
    filled in by the caller once every child has been reaped).  Timings
    are divided by the run's host slowdown (``pipeline.calibrate``)."""
    n = run.numbers
    _p50, rate, _pooled = flood_summary(n["flood_slices"])
    slowdown = run.host_slowdown()
    return {
        "setup_s": (setup_s + statistics.median(run.glue_samples)) / slowdown,
        "cube_rows_per_s": len(run.inputs.cube_relation)
        * len(run.spec.cube_minsups) / run.median_s("cube") * slowdown,
        "build_s": run.median_s("build") / slowdown,
        "store_bytes_per_cell": n["store_bytes"] / n["store_cells"],
        "warm_s": run.median_s("warm") / slowdown,
        "query_per_s": rate * slowdown,
        # (no append acknowledged: a failed run, which reports 0)
        "append_ms": 1e3 * statistics.median(
            n.get("append_round_means") or [0.0]) / slowdown,
        "peak_rss_mb": 0.0,
    }


def _mean_ms(seconds):
    return 1e3 * sum(seconds) / len(seconds) if seconds else 0.0


def _cache_totals(stats):
    totals = {"hits": 0, "misses": 0, "evictions": 0, "stale_rejections": 0}
    shed = deadline = 0
    for body in stats.values():
        for key in totals:
            totals[key] += body["cache"][key]
        shed += body["resilience"]["admission"]["shed"]
        deadline += body["telemetry"]["events"].get("deadline_exceeded", 0)
    return totals, shed, deadline


def per_layer(run, traces, probes, leaked_segments):
    """Every per-layer metric of one traced run."""
    n = run.numbers
    out = dict(probes)
    out.pop("mr.pool_cube_s", None)

    # parallel.local / shm: the pool spans of the cube stage, per cube
    # computed (the numbers must not grow with the rounds)
    cubes = traces.below_stage("cube", "local.cube")
    busy = window = 0.0
    batches = 0
    for merged in traces.below_stage("cube", "local.batch"):
        members = merged.get("members", [merged])
        batches += len(members)
        b, w = tracing.pool_busy(members, WORKERS)
        busy += b
        window += w
    decodes = traces.below_stage("cube", "local.decode")
    per_cube = 1.0 / max(1, len(cubes))
    out["local.cube_s"] = per_cube * sum(c["end"] - c["start"] for c in cubes)
    out["local.batch_busy_s"] = per_cube * busy
    out["local.batches"] = per_cube * batches
    out["local.parent_decode_s"] = per_cube * sum(s["self"] for s in decodes)
    out["local.worker_idle_share"] = (
        1.0 - busy / (WORKERS * window) if window else 0.0)
    out["local.respawns"] = n["respawns"]
    out["shm.bytes_shipped"] = per_cube * sum(
        s["attrs"].get("bytes", 0) for s in decodes)
    out["shm.leaked_segments"] = leaked_segments

    # mr: the engine's own counters, one cube run plus one build run
    stats = [n[key] for key in ("mr_cube", "mr_build") if key in n]
    out["mr.map_s"] = sum(s.map_seconds for s in stats)
    out["mr.reduce_s"] = sum(s.reduce_seconds for s in stats)
    out["mr.records_shuffled"] = sum(s.spill_records for s in stats)
    out["mr.spills"] = sum(s.spills for s in stats)
    out["mr.spill_bytes"] = sum(s.spill_bytes for s in stats)
    out["mr.runs_merged"] = sum(s.runs_merged for s in stats)

    out["materialize.s"] = statistics.median(n["materialize_s"])
    out["materialize.leaf_cells"] = n["store_cells"]
    out["store.write_s"] = statistics.median(n["store_write_s"])
    out["store.bytes"] = n["store_bytes"]
    out["store.compact_bytes_rewritten"] = n["compact_bytes_rewritten"]
    appended = BATCH_ROWS * run.acked_batches * len(run.compacted_stores)
    out["store.write_amp"] = (
        (out["ingest.wal_bytes_per_row"] * appended
         + n["compactions"] * n["compact_bytes_rewritten"])
        / (8.0 * (len(run.inputs.dims) + 1) * appended)) if appended else 0.0

    appends = n["append_latencies"]
    out["ingest.replay_s"] = n["replay_s"]
    out["ingest.append_max_ms"] = 1e3 * appends[-1] if appends else 0.0
    out["ingest.duplicates_acked"] = n["duplicates_acked"]

    totals, shed, deadline = _cache_totals(n["stats_after_ingest"])
    flood_totals, _shed, _deadline = _cache_totals(n["stats_after_flood"])
    flood_lookups = flood_totals["hits"] + flood_totals["misses"]
    out["cache.hit_rate"] = (flood_totals["hits"] / flood_lookups
                             if flood_lookups else 0.0)
    out["cache.evictions"] = totals["evictions"]
    out["cache.stale_rejections"] = totals["stale_rejections"]
    out["server.shed_429"] = shed
    out["server.deadline_504"] = deadline

    below = traces.below_stage("flood")
    out["server.self_ms"] = _mean_ms(
        [s["self"] for s in below if s["name"] == "serve.query"])
    out["server.http_overhead_ms"] = _mean_ms(
        [s["self"] for s in below if s["name"] == "bench.call"
         and s["attrs"].get("layer") == "http"])
    out["server.json_bytes_per_query"] = n.get("json_bytes", 0.0)
    out["server.spawn_s"] = (sum(run.spawn_s) / len(run.spawn_s)
                             if run.spawn_s else 0.0)
    out["router.self_ms"] = _mean_ms(
        [s["self"] for s in below
         if s["name"] in ("router.query", "router.point")])
    out["router.cube_fanout_ms"] = _mean_ms(
        [s["end"] - s["start"] for s in traces.spans
         if s["name"] == "router.cube"])
    out["router.append_fanout_ms"] = _mean_ms(
        [s["self"] for s in traces.spans if s["name"] == "router.append"])
    for short in ("append_retries", "failovers", "generation_retries"):
        out["router." + short] = run.router_stats.get(short, 0)
    out["router.replica_lag_max"] = n.get("replica_lag_max", 0)

    per_query = {True: [], False: []}
    for traced, latencies, wall in n["flood_slices"]:
        if latencies:
            per_query[traced].append(wall / len(latencies))
    out["obs.overhead_ratio"] = (
        statistics.median(per_query[True]) / statistics.median(per_query[False])
        if per_query[True] and per_query[False] else 0.0)
    out["obs.spans_recorded"] = len(traces.spans)
    out["obs.spans_dropped"] = traces.dropped
    p50, _rate, pooled = flood_summary(n["flood_slices"])
    out["bench.query_p50_ms"] = 1e3 * p50
    out["bench.query_p99_ms"] = 1e3 * percentile(pooled, 99)
    out["bench.query_p95_ingest_ms"] = 1e3 * percentile(
        n["reader_latencies"], 95)
    out["bench.append_rows_per_s"] = (
        BATCH_ROWS * len(appends) / run.median_s("ingest"))
    out["bench.failed_share"] = run.check.failed / max(1, run.check.attempted)
    out["bench.recover_s"] = run.median_s("recover")
    out["bench.compact_s"] = run.median_s("compact")
    out["bench.host_slowdown"] = run.host_slowdown()
    return out
