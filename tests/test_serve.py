"""The serving subsystem: persistent store, cache, server, telemetry."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.request import urlopen

import pytest

from repro.cluster import cluster1
from repro.core.naive import naive_cuboid
from repro.core.thresholds import CountThreshold, SumThreshold
from repro.errors import (
    DeadlineExceededError,
    PlanError,
    SchemaError,
    ServerOverloadedError,
)
from repro.online import LeafMaterialization
from repro.serve import (
    AdmissionGate,
    CubeRouter,
    CubeServer,
    CubeStore,
    Deadline,
    QueryCache,
    ServerTelemetry,
)
from repro.serve.telemetry import percentile


def oracle(relation, cuboid, minsup):
    return {
        cell: agg
        for cell, agg in naive_cuboid(relation, cuboid).items()
        if agg[0] >= minsup
    }


class HeldStore:
    """A store (and the snapshots it hands out) that runs ``hold()``
    before answering ``query`` — the server reads through
    ``snapshot()``, so that is the seam a slowed-down store wraps."""

    def __init__(self, inner, hold):
        self._inner, self._hold = inner, hold

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def snapshot(self):
        return HeldStore(self._inner.snapshot(), self._hold)

    def query(self, cuboid, minsup=1):
        self._hold()
        return self._inner.query(cuboid, minsup=minsup)


@pytest.fixture
def store(small_skewed, tmp_path):
    built = CubeStore.build(small_skewed, tmp_path / "store",
                            cluster_spec=cluster1(3))
    yield built
    built.close()


class TestCubeStore:
    def test_round_trip_matches_fresh_materialization(self, small_skewed, tmp_path):
        """Acceptance: build -> close -> reopen -> query, identical to a
        fresh LeafMaterialization on every cuboid and threshold."""
        CubeStore.build(small_skewed, tmp_path / "s", cluster_spec=cluster1(3)).close()
        reopened = CubeStore.open(tmp_path / "s")
        fresh = LeafMaterialization(small_skewed, cluster_spec=cluster1(3))
        for cuboid in ((), ("A",), ("A", "C"), ("B", "D"), ("A", "B", "C", "D")):
            for minsup in (1, 2, 4):
                assert reopened.query(cuboid, minsup) == fresh.query(cuboid, minsup)

    def test_query_matches_oracle(self, small_skewed, store):
        for cuboid in (("A",), ("C", "A"), ("B", "C", "D")):
            got = store.query(cuboid, minsup=2)
            expected = oracle(small_skewed, store.canonical(cuboid), 2)
            assert {k: (c, pytest.approx(v)) for k, (c, v) in got.items()} == expected

    def test_accepts_threshold_objects(self, small_skewed, store):
        got = store.query(("A",), minsup=SumThreshold(500))
        assert got
        assert all(v >= 500 for _c, v in got.values())

    def test_leaves_load_lazily(self, small_skewed, tmp_path):
        CubeStore.build(small_skewed, tmp_path / "s", cluster_spec=cluster1(2)).close()
        reopened = CubeStore.open(tmp_path / "s")
        assert reopened.loaded_leaves() == []
        reopened.query(("A",), minsup=1)
        assert reopened.loaded_leaves() == [("A", "D")]

    def test_point_query(self, small_skewed, store):
        full = store.query(("A", "B"), minsup=1)
        for cell, agg in list(full.items())[:5]:
            assert store.point(("A", "B"), cell) == agg
        assert store.point(("A", "B"), (999, 999)) is None

    def test_cold_point_loads_only_the_covering_leaf(self, small_skewed, tmp_path):
        CubeStore.build(small_skewed, tmp_path / "s", cluster_spec=cluster1(2)).close()
        reopened = CubeStore.open(tmp_path / "s")
        expected = oracle(small_skewed, ("A", "B"), 1)
        cell = sorted(expected)[0]
        count, value = reopened.point(("A", "B"), cell)
        assert (count, pytest.approx(value)) == expected[cell]
        # searchsorted on the one run it had to read; no other leaf touched
        assert reopened.loaded_leaves() == [("A", "B", "D")]

    def test_point_respects_threshold(self, small_skewed, store):
        full = store.query(("A",), minsup=1)
        cell = min(full, key=lambda c: full[c][0])
        too_high = full[cell][0] + 1
        assert store.point(("A",), cell, minsup=too_high) is None

    def test_append_matches_rebuild_and_bumps_generation(self, small_skewed, tmp_path):
        first = small_skewed.slice(0, 250)
        rest = small_skewed.slice(250, len(small_skewed))
        store = CubeStore.build(first, tmp_path / "s", cluster_spec=cluster1(2))
        assert store.generation == 1
        store.append(rest)
        assert store.generation == 2
        fresh = LeafMaterialization(small_skewed, cluster_spec=cluster1(2))
        for cuboid in (("A",), ("A", "B"), ("B", "D")):
            assert store.query(cuboid, 2) == fresh.query(cuboid, 2)
        store.close()
        # the append was persisted, not just in-memory
        reopened = CubeStore.open(tmp_path / "s")
        assert reopened.generation == 2
        assert reopened.total_rows == len(small_skewed)
        assert reopened.query(("A", "C"), 2) == fresh.query(("A", "C"), 2)

    def test_closed_store_rejects_queries(self, small_skewed, tmp_path):
        store = CubeStore.build(small_skewed, tmp_path / "s", cluster_spec=cluster1(2))
        store.close()
        with pytest.raises(PlanError):
            store.query(("A",))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SchemaError):
            CubeStore.open(tmp_path)

    def test_unknown_format_version(self, small_skewed, tmp_path):
        CubeStore.build(small_skewed, tmp_path / "s", cluster_spec=cluster1(2)).close()
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError):
            CubeStore.open(tmp_path / "s")

    def test_unknown_dimension_rejected(self, store):
        with pytest.raises(SchemaError):
            store.query(("A", "nope"))

    def test_total_cells_from_manifest(self, store):
        assert store.total_cells() == sum(
            len(store.leaf_items(leaf)) for leaf in store.leaves
        )


class TestQueryCache:
    def test_hit_after_put(self):
        cache = QueryCache(capacity=4)
        cache.put(("A",), 2, 1, {"x": 1})
        assert cache.get(("A",), 2, 1) == {"x": 1}
        assert cache.stats()["hits"] == 1

    def test_threshold_keying_is_canonical(self):
        cache = QueryCache(capacity=4)
        cache.put(("A",), 2, 1, "answer")
        # the int shorthand and the explicit threshold share an entry
        assert cache.get(("A",), CountThreshold(2), 1) == "answer"
        assert cache.get(("A",), SumThreshold(2), 1) is None
        # two bounds that agree to six significant digits are two keys
        cache.put(("A",), SumThreshold(1234568.0), 1, "higher bound")
        assert cache.get(("A",), SumThreshold(1234567.5), 1) is None

    def test_generation_invalidation(self):
        cache = QueryCache(capacity=4)
        cache.put(("A",), 2, 1, "old")
        assert cache.get(("A",), 2, 2) is None  # stale: dropped, not served
        assert cache.stats()["invalidations"] == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.put(("A",), 1, 1, "a")
        cache.put(("B",), 1, 1, "b")
        cache.get(("A",), 1, 1)  # A becomes most-recent
        cache.put(("C",), 1, 1, "c")  # evicts B
        assert cache.get(("B",), 1, 1) is None
        assert cache.get(("A",), 1, 1) == "a"
        assert cache.stats()["evictions"] == 1

    def test_capacity_zero_disables(self):
        cache = QueryCache(capacity=0)
        cache.put(("A",), 1, 1, "a")
        assert cache.get(("A",), 1, 1) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(PlanError):
            QueryCache(capacity=-1)

    def test_thread_safety_under_contention(self):
        cache = QueryCache(capacity=16)

        def worker(i):
            for j in range(200):
                cache.put(("D%d" % (j % 32),), 1, 1, j)
                cache.get(("D%d" % (j % 32),), 1, 1)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert len(cache) <= 16


class TestTelemetry:
    def test_percentile_nearest_rank(self):
        values = sorted(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile([], 50) == 0.0

    def test_summary_by_source(self):
        telemetry = ServerTelemetry()
        for latency in (0.001, 0.002, 0.003):
            telemetry.record("store", latency)
        telemetry.record("cache", 0.0001)
        summary = telemetry.summary()
        assert summary["queries"] == 4
        assert summary["by_source"]["store"]["count"] == 3
        assert summary["by_source"]["cache"]["count"] == 1
        assert summary["by_source"]["store"]["p50_ms"] == pytest.approx(2.0)
        assert set(summary["by_source"]) == {"cache", "store"}

    def test_percentiles_follow_the_latest_answers(self):
        telemetry = ServerTelemetry()
        for latency in [0.001] * 1024 + [1.0] * 4096:
            telemetry.record("store", latency)
        store = telemetry.summary()["by_source"]["store"]
        assert store["count"] == 5120
        assert store["mean_ms"] == pytest.approx(800.2)
        assert store["p50_ms"] == store["p99_ms"] == 1000.0

    def test_unknown_source_rejected(self):
        for source in ("disk", "compute"):
            with pytest.raises(ValueError):
                ServerTelemetry().record(source, 0.1)

    def test_concurrent_recording(self):
        telemetry = ServerTelemetry()

        def worker(_):
            for _i in range(100):
                telemetry.record("store", 0.001)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        assert len(telemetry) == 800
        # one ledger: /stats' count, the request counter and the
        # histogram's _count are the same registry series
        registry = telemetry.registry
        assert (telemetry.summary()["by_source"]["store"]["count"]
                == registry.get("repro_server_requests_total")
                .value(source="store")
                == registry.get("repro_server_latency_seconds")
                .summary(source="store")["count"] == 800)


class TestCubeServer:
    def test_cache_then_store_sources(self, store):
        with CubeServer(store) as server:
            first = server.query(("A", "B"), minsup=2)
            second = server.query(("B", "A"), minsup=CountThreshold(2))
            assert first.source == "store"
            assert second.source == "cache"  # canonical cuboid + threshold key
            assert first.cells == second.cells

    def test_concurrent_queries_oracle_exact_with_cache_hits(
            self, small_skewed, store):
        """Acceptance: >= 8 threads, every answer oracle-exact, and the
        repeated workload reports a positive cache hit rate."""
        workload = [
            (cuboid, minsup)
            for cuboid in (("A",), ("B",), ("A", "B"), ("A", "C"), ("B", "D"),
                           ("C", "D"), ("A", "B", "C"), ("A", "B", "C", "D"))
            for minsup in (1, 2, 3)
        ] * 3  # repeats make cache hits inevitable
        expected = {
            (cuboid, minsup): oracle(small_skewed, cuboid, minsup)
            for cuboid, minsup in set(workload)
        }
        with CubeServer(store, max_workers=8) as server:
            answers = server.query_many(workload)
            for (cuboid, minsup), answer in zip(workload, answers):
                got = {k: (c, pytest.approx(v)) for k, (c, v) in answer.cells.items()}
                assert got == expected[(cuboid, minsup)], (cuboid, minsup)
            stats = server.stats()
        assert stats["cache"]["hit_rate"] > 0
        assert stats["telemetry"]["queries"] == len(workload)

    @pytest.mark.parametrize("via", ["direct", "http"])
    @pytest.mark.parametrize("build, error", [
        ({"dims": ("A", "B", "C"), "cluster_spec": cluster1(2)}, SchemaError),
        ({"backend": "local", "shard": (0, 2)}, PlanError),
    ], ids=["partial", "sibling_shard"])
    def test_uncovered_cuboid_is_refused(self, small_skewed, tmp_path,
                                         build, error, via):
        """A dimension outside a partial store, or a sibling shard's
        cuboid: refused (HTTP 400), never computed, never cached."""
        import urllib.error

        held = CubeStore.build(small_skewed, tmp_path / "held", **build)
        if "shard" in build:
            owned = set(held.owned_cuboids())
            uncovered = next(c for c in [("A",), ("B",), ("A", "B"),
                                         ("B", "C")] if c not in owned)
        else:
            uncovered = ("A", "D")  # D is not in the materialized dims
        with CubeServer(held) as server:
            endpoint = server.serve_http(port=0)
            for _ in range(2):  # the second try finds nothing cached
                if via == "direct":
                    with pytest.raises(error):
                        server.query(uncovered, minsup=1)
                else:
                    with pytest.raises(urllib.error.HTTPError) as info:
                        urlopen("%s/query?cuboid=%s"
                                % (endpoint.url, ",".join(uncovered)))
                    assert info.value.code == 400
                    assert json.loads(info.value.read())["kind"] == \
                        "bad_request"
            assert len(server.cache) == 0
            assert len(server.telemetry) == 0
            with urlopen(endpoint.url + "/healthz") as response:
                assert json.loads(response.read())["status"] == "ok"
            # what the store does cover keeps answering
            covered = next(iter(held.owned_cuboids()))
            assert server.query(covered, minsup=2).cells == oracle(
                small_skewed, covered, 2)
        held.close()

    def test_append_invalidates_cached_answers(self, small_skewed, tmp_path):
        half = len(small_skewed) // 2
        base = small_skewed.slice(0, half)
        extra = small_skewed.slice(half, len(small_skewed))
        inc = CubeStore.build(base, tmp_path / "inc", cluster_spec=cluster1(2))
        with CubeServer(inc) as server:
            before = server.query(("A",), minsup=1)
            assert server.query(("A",), minsup=1).source == "cache"
            server.append(extra)
            after = server.query(("A",), minsup=1)
            assert after.source == "store"  # generation bump: no stale hit
            assert sum(c for c, _v in after.cells.values()) == len(small_skewed)
            assert sum(c for c, _v in before.cells.values()) == half
        inc.close()

    def test_server_over_in_memory_materialization(self, small_skewed):
        materialization = LeafMaterialization(small_skewed, cluster_spec=cluster1(2))
        with CubeServer(materialization) as server:
            answer = server.query(("A", "B"), minsup=2)
            assert answer.cells == oracle(small_skewed, ("A", "B"), 2)
            server.append(small_skewed.slice(0, 10))
            assert server.query(("A", "B"), minsup=2).source == "store"


class TestHttpEndpoint:
    @pytest.fixture
    def endpoint(self, store):
        server = CubeServer(store, max_workers=4)
        endpoint = server.serve_http(port=0)
        yield endpoint, server
        server.close()

    def _get(self, endpoint, path):
        with urlopen(endpoint.url + path) as response:
            return response.status, json.loads(response.read())

    def test_query_roll_up_and_drill_down(self, small_skewed, endpoint):
        endpoint, _server = endpoint
        status, rolled = self._get(endpoint, "/query?cuboid=A&minsup=2")
        assert status == 200
        assert rolled["source"] in ("store", "cache")
        expected = oracle(small_skewed, ("A",), 2)
        assert {tuple(c["cell"]): c["count"] for c in rolled["cells"]} == {
            cell: count for cell, (count, _v) in expected.items()
        }
        _status, drilled = self._get(endpoint, "/query?cuboid=A,B&minsup=2")
        assert len(drilled["cells"]) >= 0
        assert drilled["cuboid"] == ["A", "B"]

    def test_point_lookup(self, small_skewed, endpoint):
        endpoint, _server = endpoint
        expected = oracle(small_skewed, ("A", "B"), 1)
        cell = sorted(expected)[0]
        # the store, then an in-memory materialization: one read path
        with CubeServer(LeafMaterialization(
                small_skewed, backend="local")) as in_memory:
            for served in (endpoint, in_memory.serve_http(port=0)):
                _status, payload = self._get(
                    served, "/point?cuboid=A,B&cell=%d,%d" % cell)
                assert payload["cells"][0]["count"] == expected[cell][0]

    def test_min_sum_threshold(self, small_skewed, endpoint):
        endpoint, _server = endpoint
        _status, payload = self._get(endpoint, "/query?cuboid=A&min_sum=500")
        assert payload["threshold"] == "SUM(measure) >= 500"
        assert all(c["sum"] >= 500 for c in payload["cells"])

    def test_stats_and_cuboids(self, endpoint):
        endpoint, server = endpoint
        self._get(endpoint, "/query?cuboid=A&minsup=1")
        self._get(endpoint, "/query?cuboid=A&minsup=1")
        _status, stats = self._get(endpoint, "/stats")
        assert stats["cache"]["hits"] >= 1
        assert stats["telemetry"]["queries"] >= 2
        _status, cuboids = self._get(endpoint, "/cuboids")
        assert cuboids["dims"] == list(server.store.dims)
        assert len(cuboids["leaves"]) == len(server.store.leaves)

    def test_bad_requests(self, endpoint):
        endpoint, _server = endpoint
        import urllib.error
        for path in ("/query?cuboid=A,nope", "/query?cuboid=A&minsup=zero",
                     "/nothing"):
            with pytest.raises(urllib.error.HTTPError) as info:
                self._get(endpoint, path)
            assert info.value.code in (400, 404)

    def test_concurrent_http_clients(self, small_skewed, endpoint):
        endpoint, server = endpoint
        expected = {
            dim: oracle(small_skewed, (dim,), 2) for dim in small_skewed.dims
        }
        errors = []

        def client(i):
            dim = small_skewed.dims[i % len(small_skewed.dims)]
            try:
                with urlopen("%s/query?cuboid=%s&minsup=2" % (endpoint.url, dim)) as r:
                    payload = json.loads(r.read())
                got = {tuple(c["cell"]): c["count"] for c in payload["cells"]}
                want = {cell: count for cell, (count, _v) in expected[dim].items()}
                if got != want:
                    errors.append((dim, got, want))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((dim, exc))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(24)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]


class TestGracefulDegradation:
    """Bounded admission and deadlines."""

    def test_admission_gate_sheds_past_max_pending(self, store, small_skewed):
        release = threading.Event()

        server = CubeServer(HeldStore(store, lambda: release.wait(10.0)), max_workers=2, max_pending=64,
                            cache_size=0)
        server.gate = AdmissionGate(3)
        try:
            futures = [server.submit(("A",), 1) for _ in range(3)]
            with pytest.raises(ServerOverloadedError) as exc_info:
                server.submit(("A",), 1)
            assert exc_info.value.pending == 3
            release.set()
            for future in futures:
                assert future.result(timeout=10.0).cells
            # Completed queries release their slots: admission reopens.
            assert server.gate.stats()["pending"] == 0
            server.submit(("A",), 1).result(timeout=10.0)
        finally:
            release.set()
            server.close()

    def test_default_max_pending_scales_with_workers(self, store):
        server = CubeServer(store, max_workers=8)
        assert server.gate.limit == 128
        server.close()
        tiny = CubeServer(store, max_workers=1)
        assert tiny.gate.limit == 64
        tiny.close()

    def test_deadline_counts_queue_time(self, store):
        server = CubeServer(store)
        try:
            clock = [100.0]
            deadline = Deadline(0.05, clock=lambda: clock[0])
            clock[0] += 0.2  # the query "waited" 200 ms before running
            with pytest.raises(DeadlineExceededError) as exc_info:
                server.query(("A",), 1, deadline_s=deadline)
            assert "admission queue" in str(exc_info.value)
            assert server.telemetry.event_counts()["deadline_exceeded"] == 1
            # a whole-share read past its budget is counted the same way
            with pytest.raises(DeadlineExceededError):
                server.iceberg(1, deadline_s=deadline)
            assert server.telemetry.event_counts()["deadline_exceeded"] == 2
            assert server.health()["red"]["errors"] == 2
        finally:
            server.close()

    def test_query_without_deadline_is_unbounded(self, store, small_skewed):
        server = CubeServer(store)
        try:
            answer = server.query(("A",), 2)
            assert answer.cells == oracle(small_skewed, ("A",), 2)
        finally:
            server.close()

    def test_health_endpoint_surface(self, store):
        server = CubeServer(store, max_pending=77)
        try:
            health = server.health()
            assert health["status"] == "ok"
            assert health["max_pending"] == 77
        finally:
            server.close()
        assert server.health()["status"] == "closed"


class TestServerClose:
    """close() is idempotent and deterministically drains or cancels."""

    def test_close_is_idempotent_and_thread_safe(self, store):
        server = CubeServer(store)
        threads = [threading.Thread(target=server.close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        server.close()  # and once more for good measure

    def test_submit_after_close_raises(self, store):
        server = CubeServer(store)
        server.close()
        with pytest.raises(PlanError):
            server.submit(("A",), 1)
        with pytest.raises(PlanError):
            server.serve_http(port=0)

    def test_close_drains_in_flight_queries(self, store, small_skewed):
        server = CubeServer(store, max_workers=2)
        futures = [server.submit(("A",), 2) for _ in range(8)]
        server.close()
        for future in futures:
            assert future.done()
            assert future.result().cells == oracle(small_skewed, ("A",), 2)

    def test_close_cancel_pending_cancels_unstarted_work(self, store):
        import concurrent.futures

        release = threading.Event()

        server = CubeServer(HeldStore(store, lambda: release.wait(10.0)), max_workers=1, cache_size=0)
        running = server.submit(("A",), 1)
        queued = [server.submit(("A",), 1) for _ in range(4)]

        closer = threading.Thread(target=server.close,
                                  kwargs={"cancel_pending": True})
        closer.start()
        release.set()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert running.result(timeout=1.0).cells  # the started one drained
        for future in queued:
            assert future.done()
            assert future.cancelled() or future.result(timeout=1.0)
        assert any(future.cancelled() for future in queued)
        with pytest.raises(concurrent.futures.CancelledError):
            next(f for f in queued if f.cancelled()).result()

    def test_gate_slots_released_on_cancellation(self, store):
        release = threading.Event()

        server = CubeServer(HeldStore(store, lambda: release.wait(10.0)), max_workers=1, cache_size=0)
        for _ in range(5):
            server.submit(("A",), 1)
        release.set()
        server.close(cancel_pending=True)
        assert server.gate.stats()["pending"] == 0


class TestHttpHardening:
    """The endpoint degrades with structured JSON, never a traceback."""

    @pytest.fixture
    def endpoint(self, store):
        server = CubeServer(store, max_workers=4)
        endpoint = server.serve_http(port=0)
        yield endpoint, server
        server.close()

    @pytest.fixture
    def both(self, endpoint):
        """``[(label, HttpEndpoint)]``: the CubeServer endpoint and a
        CubeRouter endpoint in front of it.  The input bounds live in
        the one handler base, so each bound is asserted on each.  (A
        loop, not a pytest parametrisation: ids of tests the floor list
        names stay as they are.)"""
        replica, _server = endpoint
        with CubeRouter([[replica.url]]) as router:
            yield [("server", replica), ("router", router.serve_http(port=0))]

    def _get_error(self, endpoint, path, headers=None, data=None):
        import urllib.error
        from urllib.request import Request

        request = Request(endpoint.url + path, headers=headers or {},
                          data=data)
        try:
            with urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_unknown_path_is_structured_404(self, both):
        for label, endpoint in both:
            for data in (None, b"{}"):  # GET and POST
                status, payload = self._get_error(
                    endpoint, "/no/such/endpoint", data=data)
                assert status == 404, label
                assert payload["kind"] == "not_found"
                assert "Traceback" not in payload["error"]

    def test_malformed_query_is_structured_400(self, both):
        for label, endpoint in both:
            paths = ["/query?cuboid=A&minsup=zero",
                     "/query?cuboid=A,nope",
                     "/query?cuboid=A&min_sum=nan",
                     "/point?cuboid=A&cell=x"]
            if label == "server":  # the router takes no per-query deadline
                paths += ["/query?cuboid=A&deadline_ms=-5",
                          "/query?cuboid=A&deadline_ms=nan"]
            for path in paths:
                status, payload = self._get_error(endpoint, path)
                assert status == 400, (label, path)
                assert payload["kind"] == "bad_request"
                assert "Traceback" not in payload["error"]

    def test_oversized_content_length_is_413(self, both):
        huge = {"Content-Length": str(10 * 1024 * 1024)}
        for label, endpoint in both:
            for path, data in (("/query?cuboid=A", None),
                               ("/append", b"{}")):
                status, payload = self._get_error(
                    endpoint, path, headers=huge, data=data)
                assert status == 413, (label, path)
                assert payload["kind"] == "too_large"

    def test_overlong_path_is_400(self, both):
        for label, endpoint in both:
            status, payload = self._get_error(
                endpoint, "/query?cuboid=A&pad=" + "x" * 9000)
            assert status == 400, label
            assert payload == {"error": "request path too long",
                               "kind": "bad_request"}

    def test_malformed_content_length_is_400(self, both):
        for label, endpoint in both:
            status, payload = self._get_error(
                endpoint, "/query?cuboid=A",
                headers={"Content-Length": "banana"})
            assert status == 400, label

    def test_malformed_append_body_is_400(self, both):
        for label, endpoint in both:
            for body in (b"", b"{not json", b"[1, 2]", b'{"rows": "x"}'):
                status, payload = self._get_error(
                    endpoint, "/append", data=body)
                assert status == 400, (label, body)
                assert payload["kind"] == "bad_request"

    def test_keep_alive_replies_do_not_stall(self, both):
        # Header block and body in one write: sent as two, every reply
        # on a kept-alive connection waits out Nagle + delayed ACK
        # (~40 ms each, 1 s for these 25).
        import http.client
        from urllib.parse import urlsplit

        for label, endpoint in both:
            netloc = urlsplit(endpoint.url).netloc
            connection = http.client.HTTPConnection(netloc, timeout=10)
            try:
                connection.request("GET", "/query?cuboid=A&minsup=1")
                # connect, fill the caches
                warm = json.loads(connection.getresponse().read())["cells"]
                started = time.perf_counter()
                for _ in range(25):
                    connection.request("GET", "/query?cuboid=A&minsup=1")
                    response = connection.getresponse()
                    assert response.status == 200, label
                    assert json.loads(response.read())["cells"] == warm
                elapsed = time.perf_counter() - started
            finally:
                connection.close()
            assert elapsed < 0.5, (label, elapsed)

    def test_a_body_left_unread_ends_the_connection(self, both):
        # Kept open, the unread body would be parsed as the next request:
        # a refused request's body run, and replies out of step with
        # requests on a pooled connection.
        import socket

        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        for label, endpoint in both:
            for path, length, status in (
                    ("/nope", len(smuggled), b"404"),
                    ("/append", 10 * 1024 * 1024, b"413")):
                with socket.create_connection(
                        (endpoint.host, endpoint.port), timeout=3) as sock:
                    sock.sendall(b"POST %s HTTP/1.1\r\nHost: x\r\n"
                                 b"Content-Length: %d\r\n\r\n"
                                 % (path.encode(), length) + smuggled)
                    received = b""
                    while True:  # until EOF; a socket left open times out
                        try:
                            chunk = sock.recv(65536)
                        except ConnectionResetError:
                            break
                        if not chunk:
                            break
                        received += chunk
                assert received.startswith(b"HTTP/1.1 " + status), \
                    (label, received)
                assert received.count(b"HTTP/1.1 ") == 1, (label, received)

    def test_healthz_endpoint(self, endpoint):
        endpoint, server = endpoint
        status, payload = self._get_error(endpoint, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["max_pending"] == server.gate.limit

    def test_deadline_ms_param_maps_to_504(self, endpoint):
        endpoint, server = endpoint
        server.store = HeldStore(server.store, lambda: time.sleep(1.0))
        server.cache = QueryCache(0)
        status, payload = self._get_error(
            endpoint, "/query?cuboid=A&deadline_ms=50")
        assert status == 504
        assert payload["kind"] == "deadline"

    def test_overload_maps_to_429(self, store):
        release = threading.Event()

        server = CubeServer(HeldStore(store, lambda: release.wait(10.0)), max_workers=1,
                            max_pending=64, cache_size=0)
        server.gate = AdmissionGate(2)
        endpoint = server.serve_http(port=0)
        import urllib.error
        try:
            pool = ThreadPoolExecutor(max_workers=4)
            blockers = [pool.submit(urlopen, endpoint.url + "/query?cuboid=A")
                        for _ in range(2)]
            deadline = time.perf_counter() + 5.0
            while (server.gate.stats()["pending"] < 2
                   and time.perf_counter() < deadline):
                time.sleep(0.01)
            try:
                with urlopen(endpoint.url + "/query?cuboid=A") as r:
                    raise AssertionError("expected 429, got %d" % r.status)
            except urllib.error.HTTPError as error:
                assert error.code == 429
                assert json.loads(error.read())["kind"] == "overloaded"
            release.set()
            for blocker in blockers:
                blocker.result(timeout=10.0).close()
            pool.shutdown(wait=True)
        finally:
            release.set()
            server.close()


class TestQueryCacheWatermark:
    """A late writer's older answer must never replace a fresher one
    (what is left of the cache's side of the append race: the server
    reads cells and label from one snapshot, so nothing else can)."""

    def test_never_overwrites_a_fresher_entry(self):
        cache = QueryCache(capacity=4)
        cache.put(("A",), 1, 4, "new")
        cache.put(("A",), 1, 3, "old")  # late writer with an older answer
        assert cache.get(("A",), 1, 3) is None  # ... nor drops it on a miss
        assert cache.get(("A",), 1, 4) == "new"
        assert cache.stats()["stale_rejections"] == 1


class TestGenerationVerifiedReads:
    """Answers are read from one pinned snapshot: they carry its
    generation, and an append mid-query can neither mislabel an answer
    nor poison the cache."""

    def test_answers_carry_generation(self, store):
        server = CubeServer(store)
        try:
            assert server.query(("A",), minsup=2).generation == 1
            from repro.data import Relation
            server.append(Relation(store.dims, [(0, 0, 0, 0)], [1.0]))
            answer = server.query(("A",), minsup=2)
            assert answer.generation == 2
        finally:
            server.close()

    def test_append_during_query_answers_the_generation_it_pinned(
            self, small_skewed, store):
        from repro.data import Relation

        entered = threading.Event()
        release = threading.Event()

        def hold():  # only the first query blocks, on its snapshot
            if not entered.is_set():
                entered.set()
                release.wait(10.0)

        server = CubeServer(HeldStore(store, hold), cache_size=8)
        delta = Relation(store.dims, [(0, 0, 0, 0), (1, 1, 1, 1)],
                         [5.0, 7.0])
        merged_rows = list(small_skewed.rows) + list(delta.rows)
        merged = Relation(store.dims, merged_rows,
                          list(small_skewed.measures) + [5.0, 7.0])
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(server.query, ("A", "B"), 2)
                assert entered.wait(10.0)
                server.append(delta)  # lands while the query is in flight
                release.set()
                answer = future.result(timeout=10.0)
            # The in-flight query answers the generation it pinned with
            # that generation's cells, not a stale hybrid ...
            assert answer.generation == 1
            assert answer.cells == oracle(small_skewed, ("A", "B"), 2)
            # ... the next one the new generation with the merged cells,
            after = server.query(("A", "B"), 2)
            assert after.generation == 2 and after.source == "store"
            assert after.cells == oracle(merged, ("A", "B"), 2)
            # and each is cached under its own generation only.
            canonical = server.store.canonical(("A", "B"))
            assert server.cache.get(canonical, 2, 2) == after.cells
            assert server.query(("A", "B"), 2).source == "cache"
        finally:
            release.set()
            server.close()

    def test_iceberg_share_is_one_generation(self, store, small_skewed):
        server = CubeServer(store)
        try:
            answer = server.iceberg(minsup=3)
            assert answer.generation == 1
            assert set(answer.cuboids) == set(store.owned_cuboids())
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(small_skewed, cuboid, 3), cuboid
        finally:
            server.close()


class TestClusterHttpSurface:
    """The endpoint additions the router rides on: enriched /healthz,
    GET /cube and POST /append."""

    @pytest.fixture
    def endpoint(self, store):
        server = CubeServer(store, max_workers=4)
        endpoint = server.serve_http(port=0)
        yield endpoint, server
        server.close()

    def _get(self, endpoint, path):
        with urlopen(endpoint.url + path) as response:
            return response.status, json.loads(response.read())

    def test_healthz_reports_generation_verify_and_shard(self, endpoint):
        endpoint, server = endpoint
        _status, payload = self._get(endpoint, "/healthz")
        assert payload["generation"] == server.store.generation
        assert payload["verify"] == "off"  # freshly built, never verified
        assert payload["shard"] is None  # monolithic store
        assert tuple(payload["dims"]) == server.store.dims
        assert payload["leaves"] == len(server.store.leaves)

    def test_healthz_reports_open_verify_mode(self, store, tmp_path):
        reopened = CubeStore.open(store.directory, verify="full")
        server = CubeServer(reopened)
        try:
            assert server.health()["verify"] == "full"
        finally:
            server.close()
            reopened.close()

    def test_healthz_names_the_shard(self, small_skewed, tmp_path):
        store = CubeStore.build(small_skewed, tmp_path / "sharded",
                                backend="local", shard=(1, 2))
        server = CubeServer(store)
        try:
            assert server.health()["shard"] == {"index": 1, "of": 2}
        finally:
            server.close()
            store.close()

    def test_query_payload_carries_generation(self, endpoint):
        endpoint, _server = endpoint
        _status, payload = self._get(endpoint, "/query?cuboid=A&minsup=2")
        assert payload["generation"] == 1

    def test_cube_endpoint(self, small_skewed, endpoint):
        endpoint, server = endpoint
        status, payload = self._get(endpoint, "/cube?minsup=3")
        assert status == 200
        assert payload["generation"] == 1
        assert len(payload["cuboids"]) == len(server.store.owned_cuboids())
        for entry in payload["cuboids"]:
            cells = {tuple(e["cell"]): (e["count"], e["sum"])
                     for e in entry["cells"]}
            assert cells == oracle(small_skewed, tuple(entry["cuboid"]), 3)

    def test_post_append(self, small_skewed, endpoint):
        from urllib.request import Request

        endpoint, server = endpoint
        body = json.dumps({"dims": list(server.store.dims),
                           "rows": [[0, 0, 0, 0], [1, 1, 1, 1]],
                           "measures": [5.0, 7.0]}).encode()
        request = Request(endpoint.url + "/append", data=body,
                          headers={"Content-Type": "application/json"})
        with urlopen(request) as response:
            payload = json.loads(response.read())
        assert payload["generation"] == 2
        assert payload["rows"] == 2
        assert payload["total_rows"] == len(small_skewed) + 2
        _status, answer = self._get(endpoint, "/query?cuboid=A&minsup=2")
        assert answer["generation"] == 2

    def test_post_append_malformed_is_400(self, endpoint):
        import urllib.error
        from urllib.request import Request

        endpoint, _server = endpoint
        request = Request(endpoint.url + "/append", data=b"{not json",
                          headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as info:
            urlopen(request)
        assert info.value.code == 400
        assert json.loads(info.value.read())["kind"] == "bad_request"
