"""Cluster-wide tracing and the router's metrics.

Unit coverage for the distributed-trace context (128-bit trace ids,
``traceparent`` inject/extract/activate), histogram bucket merging,
trace-stamped batch ids and the worker-pool context pipe — plus a
subprocess end-to-end test asserting that one router query produces
spans with one shared trace id in both the router's and the replica's
``GET /trace`` output, and that the router's ``/metrics`` is its own.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from urllib.request import urlopen

import pytest

import repro.obs as obs
from repro.data import Relation, zipf_relation
from repro.obs.metrics import merge_histogram_buckets, quantile_from_buckets
from repro.obs.trace import (
    Tracer,
    format_traceparent,
    merge_chrome_traces,
    parse_traceparent,
)
from repro.parallel.local import supervised_map
from repro.serve import CubeRouter, CubeStore
from repro.serve.ingest import stamped_batch_id, trace_id_of

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(autouse=True)
def _no_leaked_install():
    obs.uninstall()
    yield
    obs.uninstall()


class TestTraceparent:
    def test_roundtrip(self):
        header = format_traceparent("ab" * 16, 0x1234)
        assert header == "00-" + "ab" * 16 + "-0000000000001234-01"
        ctx = parse_traceparent(header)
        assert ctx.trace_id == "ab" * 16
        assert ctx.span_id == 0x1234

    def test_malformed_is_none_never_an_error(self):
        for bad in (None, 42, "", "garbage", "00-short-beef-01",
                    "01-" + "ab" * 16 + "-0000000000001234-01",
                    "00-" + "0" * 32 + "-0000000000001234-01",  # zero trace
                    "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # zero span
                    "00-" + "AB" * 16 + "-00000000000012:4-01"):
            assert parse_traceparent(bad) is None, bad

    def test_case_and_whitespace_tolerated(self):
        header = "  00-" + "AB" * 16 + "-0000000000001234-01  "
        ctx = parse_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16


class TestTraceContext:
    def test_nested_spans_share_one_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            assert len(root.trace_id) == 32
            with tracer.span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert first.span_id != second.span_id

    def test_inject_extract_activate_joins_the_trace(self):
        tracer = Tracer()
        with tracer.span("caller") as caller:
            header = tracer.inject()
        assert header == format_traceparent(caller.trace_id, caller.span_id)
        # "Another process": a fresh root under the activated context.
        with tracer.activate(tracer.extract(header)):
            with tracer.span("callee") as callee:
                assert callee.trace_id == caller.trace_id
                assert callee.parent_id == caller.span_id
        # Deactivated: back to fresh traces.
        with tracer.span("after") as after:
            assert after.trace_id != caller.trace_id

    def test_activate_accepts_raw_header_and_none(self):
        tracer = Tracer()
        with tracer.activate("00-" + "cd" * 16 + "-00000000000000ff-01"):
            with tracer.span("joined") as span:
                assert span.trace_id == "cd" * 16
                assert span.parent_id == 0xFF
        with tracer.activate(None):
            with tracer.span("fresh") as span:
                assert span.trace_id != "cd" * 16

    def test_inject_without_context_is_none(self):
        tracer = Tracer()
        assert tracer.inject() is None
        assert tracer.current_context() is None

    def test_context_is_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("other-thread") as span:
                seen["trace"] = span.trace_id

        with tracer.span("main") as span:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["trace"] != span.trace_id

    def test_add_span_carries_explicit_trace(self):
        tracer = Tracer()
        span = tracer.add_span("sim.task", 0.0, 1.0, trace_id="ef" * 16,
                               parent_id=7)
        assert span.trace_id == "ef" * 16
        assert span.parent_id == 7
        exported = tracer.spans_json()[0]
        assert exported["trace_id"] == "ef" * 16

    def test_module_helpers_follow_install_switch(self):
        assert obs.inject() is None
        assert obs.context() is None
        assert obs.trace_id() is None
        with obs.activate(None):
            pass  # no-op when uninstalled
        # extract is stateless: works either way
        assert obs.extract(format_traceparent("12" * 16, 3)).span_id == 3
        with obs.installed():
            with obs.span("s"):
                assert obs.trace_id() is not None
                assert obs.inject() is not None


class TestDroppedSpans:
    def test_ring_buffer_drops_are_counted_and_exported(self):
        with obs.installed(max_spans=4) as active:
            for i in range(10):
                active.tracer.add_span("s%d" % i, 0.0, 1.0)
            assert active.tracer.dropped == 6
            counter = active.registry.get("repro_obs_spans_dropped_total")
            assert counter.value() == 6
            assert "repro_obs_spans_dropped_total 6" \
                in active.registry.to_prometheus()
            trace = active.tracer.chrome_trace()
            assert trace["otherData"]["dropped_spans"] == 6

    def test_payload_carries_drop_count(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            tracer.add_span("s", 0.0, 1.0)
        payload = tracer.payload(node="n")
        assert payload["dropped"] == 3
        assert payload["node"] == "n"
        merged = merge_chrome_traces([("n", payload)])
        assert merged["otherData"]["dropped_spans"] == 3
        assert merged["otherData"]["dropped_by_process"] == {"n": 3}


class TestTracePaging:
    def test_since_filters_by_sequence(self):
        tracer = Tracer()
        tracer.add_span("a", 0.0, 1.0)
        tracer.add_span("b", 1.0, 1.0)
        everything = tracer.spans_json()
        assert [s["name"] for s in everything] == ["a", "b"]
        high_water = everything[0]["seq"]
        newer = tracer.spans_json(since=high_water)
        assert [s["name"] for s in newer] == ["b"]
        assert tracer.spans_json(since=everything[-1]["seq"]) == []


class TestMergeChromeTraces:
    def test_one_process_track_per_node(self):
        t1, t2 = Tracer(), Tracer()
        with t1.span("router.query"):
            pass
        with t2.span("serve.query"):
            pass
        merged = merge_chrome_traces([
            ("router", t1.payload(node="router")),
            ("shard0/replica0", t2.payload(node="shard0")),
        ])
        names = {e["args"]["name"]: e["pid"] for e in merged["traceEvents"]
                 if e["name"] == "process_name"}
        assert names == {"router": 1, "shard0/replica0": 2}
        by_pid = {e["pid"]: e["name"] for e in merged["traceEvents"]
                  if e.get("ph") == "X"}
        assert by_pid == {1: "router.query", 2: "serve.query"}

    def test_disabled_node_is_named_not_silent(self):
        merged = merge_chrome_traces([
            ("router", Tracer().payload(node="router")),
            ("shard0/replica1", {"enabled": False, "spans": []}),
        ])
        assert merged["otherData"]["disabled_processes"] == ["shard0/replica1"]

    def test_wall_spans_align_on_shared_epoch(self):
        early, late = Tracer(), Tracer()
        late.epoch_unix = early.epoch_unix + 2.0  # started 2s later
        early.add_span("a", 1.0, 0.5, clock="wall")
        late.add_span("b", 1.0, 0.5, clock="wall")
        merged = merge_chrome_traces([
            ("early", early.payload()), ("late", late.payload())])
        ts = {e["name"]: e["ts"] for e in merged["traceEvents"]
              if e.get("ph") == "X"}
        assert ts["b"] - ts["a"] == pytest.approx(2.0 * 1e6)


class TestFederation:
    """Merging replicas' latency buckets: the shard RED of the sweep."""

    def test_merge_histogram_buckets(self):
        merged = merge_histogram_buckets([
            [(0.1, 1), (0.4, 4), ("+Inf", 5)],
            [(0.1, 2), (0.4, 2), ("+Inf", 7)],
        ])
        assert merged == [(0.1, 3.0), (0.4, 6.0), ("+Inf", 12.0)]

    def test_quantiles_from_merged_buckets(self):
        merged = [(0.1, 6.0), (0.4, 9.0), ("+Inf", 10.0)]
        assert quantile_from_buckets(merged, 0.50) == 0.1
        assert quantile_from_buckets(merged, 0.90) == 0.4
        # the +Inf bucket quotes the last finite bound
        assert quantile_from_buckets(merged, 1.0) == 0.4
        assert quantile_from_buckets([], 0.5) == 0.0
        assert quantile_from_buckets([(0.1, 0.0)], 0.5) == 0.0


class TestStampedBatchIds:
    def test_stamp_and_recover(self):
        trace = "ab" * 16
        batch = stamped_batch_id(trace)
        assert trace_id_of(batch) == trace
        assert batch != stamped_batch_id(trace)  # unique per mint

    def test_unstamped_ids_have_no_trace(self):
        assert trace_id_of(stamped_batch_id(None)) is None
        assert trace_id_of("not-hex-at-all") is None
        assert trace_id_of(None) is None
        assert trace_id_of("deadbeef") is None


def _record_traceparent(job):
    """Module-level task fn: echo the traceparent the pool shipped."""
    job_id, _attempt, _payload, traceparent = job
    return job_id, traceparent


def _noop_init():
    pass


class TestWorkerPoolPropagation:
    def test_inline_path_ships_the_context(self):
        with obs.installed():
            with obs.span("caller") as caller:
                out = supervised_map([None], workers=1,
                                     task_fn=_record_traceparent,
                                     initializer=_noop_init, initargs=())
                ctx = parse_traceparent(out[0])
                assert ctx.trace_id == caller.trace_id
                assert ctx.span_id == caller.span_id

    def test_no_context_ships_none(self):
        out = supervised_map([None], workers=1,
                             task_fn=_record_traceparent,
                             initializer=_noop_init, initargs=())
        assert out[0] is None

    def test_batch_spans_join_the_callers_trace(self):
        from repro.parallel.local import multiprocess_iceberg_cube

        relation = zipf_relation(60, dims=("A", "B"), cardinalities=(3, 4),
                                 skew=1.0, seed=5)
        with obs.installed() as active:
            with obs.span("driver") as driver:
                multiprocess_iceberg_cube(relation, ("A", "B"), minsup=1,
                                          workers=2)
            batches = active.tracer.spans("local.batch")
            assert batches
            for span in batches:
                assert span.trace_id == driver.trace_id


class TestRouterObservability(unittest.TestCase):
    """Subprocess e2e: one router query → one trace id on both sides."""

    @classmethod
    def setUpClass(cls):
        cls.root = tempfile.mkdtemp(prefix="obs-cluster-")
        cls.relation = zipf_relation(120, dims=("A", "B", "C"),
                                     cardinalities=(3, 4, 5), skew=1.0,
                                     seed=11)
        store_dir = os.path.join(cls.root, "store")
        CubeStore.build(cls.relation, store_dir, backend="local").close()
        env = dict(os.environ, PYTHONPATH=SRC)
        # --trace-out installs obs inside the replica, enabling /trace.
        cls.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", store_dir,
             "--port", "0",
             "--trace-out", os.path.join(cls.root, "replica-trace.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        for _ in range(40):
            line = cls.proc.stdout.readline()
            if not line:
                raise AssertionError("replica died during startup")
            if line.startswith("listening on "):
                cls.url = line.split()[2]
                break
        else:
            raise AssertionError("replica never reported its URL")

    @classmethod
    def tearDownClass(cls):
        cls.proc.terminate()
        cls.proc.wait(timeout=10)
        shutil.rmtree(cls.root, ignore_errors=True)

    def test_query_yields_one_shared_trace_id(self):
        with obs.installed() as active:
            router = CubeRouter([[self.url]], timeout_s=10.0)
            try:
                answer = router.query(("A",), minsup=1)
                assert answer.cells  # sanity: the query answered

                router_spans = {s.name: s
                                for s in active.tracer.spans()}
                root = router_spans["router.query"]
                assert len(root.trace_id) == 32

                with urlopen(self.url + "/trace?since=0") as response:
                    payload = json.loads(response.read())
                assert payload["enabled"] is True
                replica_spans = [s for s in payload["spans"]
                                 if s["trace_id"] == root.trace_id]
                by_name = {s["name"]: s for s in replica_spans}
                # serve.query joined the router's trace and parents
                # directly under the router.query span.
                assert by_name["serve.query"]["parent_id"] == root.span_id
                # the store scan is in the same trace, below serve.query
                assert "store.query" in by_name
            finally:
                router.close()

    def test_router_metrics_page_is_its_own_registry(self):
        # Prometheus scrapes each replica's /metrics itself; the
        # router's page carries the router's series and nothing else.
        with obs.installed() as active:
            router = CubeRouter([[self.url]], timeout_s=10.0)
            try:
                for _ in range(3):
                    router.query(("B",), minsup=1)
                endpoint = router.serve_http()
                with urlopen(endpoint.url + "/metrics") as response:
                    page = response.read().decode()
                assert page == active.registry.to_prometheus()
                assert 'repro_router_requests_total{kind="query",' \
                       'outcome="ok"} 3' in page
                assert "repro_server_" not in page
            finally:
                router.close()

    def test_collect_trace_has_one_track_per_node(self):
        with obs.installed():
            router = CubeRouter([[self.url]], timeout_s=10.0)
            try:
                router.query(("C",), minsup=1)
                merged = router.collect_trace()
                tracks = [e["args"]["name"] for e in merged["traceEvents"]
                          if e["name"] == "process_name"]
                assert tracks == ["router", "shard0/replica0"]
                assert merged["otherData"]["disabled_processes"] == []
            finally:
                router.close()

    def test_append_stamps_batch_ids_with_the_trace(self):
        # An unkeyed router append mints its idempotence key from the
        # live trace; the replica's WAL feed hands the trace id back, and
        # re-sending the key is acknowledged, not re-applied.
        delta = Relation(("A", "B", "C"), [(0, 0, 0)], [1.0])
        with obs.installed() as active:
            router = CubeRouter([[self.url]], timeout_s=10.0)
            try:
                summary = router.append(delta)
                root = active.tracer.spans("router.append")[-1]
                batch_id = summary["batch_id"]
                assert trace_id_of(batch_id) == root.trace_id
                generation = summary["outcomes"][0]["generation"]
                with urlopen("%s/wal?since=%d"
                             % (self.url, generation - 1)) as response:
                    feed = json.loads(response.read())
                assert [(b["batch_id"], b["trace_id"])
                        for b in feed["batches"]] == \
                    [(batch_id, root.trace_id)]
                again = router.append(delta, batch_id=batch_id)
                assert again["duplicates"] == 1
            finally:
                router.close()


class TestReplicaTraceDisabled(unittest.TestCase):
    """A replica without obs reports enabled=false, not a 500."""

    def test_trace_payload_disabled(self):
        from repro.serve.server import CubeServer

        root = tempfile.mkdtemp(prefix="obs-disabled-")
        try:
            relation = zipf_relation(40, dims=("A", "B"),
                                     cardinalities=(3, 3), skew=1.0, seed=3)
            store_dir = os.path.join(root, "store")
            CubeStore.build(relation, store_dir, backend="local").close()
            store = CubeStore.open(store_dir)
            server = CubeServer(store)
            try:
                payload = server.trace_payload()
                assert payload == {"enabled": False, "node": "store",
                                   "spans": []}
            finally:
                server.close()
                store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
