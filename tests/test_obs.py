"""The observability layer: stats, metrics, tracing, install switch."""

import json
import re
import threading

import pytest

import repro.obs as obs
from repro.core.buc import buc_iceberg_cube
from repro.obs.metrics import (
    HISTOGRAM_SAMPLE_WINDOW,
    MetricsRegistry,
    default_buckets,
    escape_label_value,
    format_value,
)
from repro.obs.stats import percentile
from repro.obs.trace import SIM_PID, WALL_PID, Tracer


@pytest.fixture(autouse=True)
def _no_leaked_install():
    """Every test starts and ends with instrumentation off."""
    obs.uninstall()
    yield
    obs.uninstall()


class TestPercentile:
    def test_nearest_rank(self):
        data = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(data, 50) == 5
        assert percentile(data, 95) == 10
        assert percentile(data, 10) == 1
        assert percentile(data, 11) == 2

    def test_edges(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 50, default=None) is None
        assert percentile([7], 0) == 7
        assert percentile([7], 100) == 7
        assert percentile([1, 2, 3], 0) == 1
        assert percentile([1, 2, 3], 100) == 3

    def test_float_p(self):
        # The seed implementation crashed on float p (float list index).
        assert percentile([1, 2, 3, 4], 99.9) == 4
        assert percentile([1, 2, 3, 4], 25.0) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], -1)
        with pytest.raises(ValueError):
            percentile([1], 100.1)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_labels_make_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", labelnames=("source",))
        counter.inc(source="cache")
        counter.inc(3, source="store")
        assert counter.value(source="cache") == 1
        assert counter.value(source="store") == 3
        assert counter.value(source="compute") == 0.0
        assert counter.series() == {("cache",): 1, ("store",): 3}

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("n_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_wrong_labels_rejected(self):
        counter = MetricsRegistry().counter("n_total", labelnames=("a",))
        with pytest.raises(ValueError):
            counter.inc(b=1)
        with pytest.raises(ValueError):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("pending")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6


class TestHistogram:
    def test_observe_and_summary(self):
        histogram = MetricsRegistry().histogram("latency_seconds")
        for value in (0.001, 0.002, 0.003, 0.004):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(0.01)
        assert summary["p50"] == 0.002
        assert summary["p95"] == 0.004

    def test_empty_summary(self):
        histogram = MetricsRegistry().histogram("latency_seconds")
        assert histogram.summary() == {
            "count": 0, "sum": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_sample_window_bounded(self):
        histogram = MetricsRegistry().histogram("x_seconds",
                                                buckets=(1.0, 2.0))
        for i in range(HISTOGRAM_SAMPLE_WINDOW + 50):
            histogram.observe(0.5)
        summary = histogram.summary()
        assert summary["count"] == HISTOGRAM_SAMPLE_WINDOW + 50

    def test_render_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("d_seconds", buckets=(1.0, 10.0))
        # 1.0 == a bound: ``le`` is inclusive, it lands in that bucket
        for value in (0.5, 1.0, 5.0, 50.0):
            histogram.observe(value)
        text = registry.to_prometheus()
        assert 'd_seconds_bucket{le="1.0"} 2' in text
        assert 'd_seconds_bucket{le="10.0"} 3' in text
        assert 'd_seconds_bucket{le="+Inf"} 4' in text
        assert "d_seconds_count 4" in text

    def test_default_buckets_sorted(self):
        buckets = default_buckets()
        assert list(buckets) == sorted(buckets)
        assert len(buckets) == 16


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("n_total", "help")
        b = registry.counter("n_total")
        assert a is b

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("n_total")
        with pytest.raises(ValueError):
            registry.gauge("n_total")
        with pytest.raises(ValueError):
            registry.counter("n_total", labelnames=("x",))

    def test_bad_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_to_json(self):
        registry = MetricsRegistry()
        registry.counter("n_total", "N.", ("kind",)).inc(2, kind="x")
        payload = registry.to_json()
        assert payload["n_total"]["kind"] == "counter"
        assert payload["n_total"]["series"] == {"kind=x": 2}
        json.dumps(payload)  # exporter contract: JSON-clean

    def test_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", labelnames=("path",))
        counter.inc(path='a\\b"c\nd')
        text = registry.to_prometheus()
        assert r'path="a\\b\"c\nd"' in text

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert escape_label_value("plain") == "plain"


def lint_prometheus(text):
    """A minimal exposition-format linter; returns declared families."""
    assert text.endswith("\n")
    types = {}
    for line in text.splitlines():
        if not line or line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in {"counter", "gauge", "histogram"}
            assert name not in types, "duplicate TYPE for %s" % name
            types[name] = kind
            continue
        match = re.match(
            r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$', line)
        assert match, "unparseable sample line: %r" % line
        name = match.group(1)
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in types or (family in types
                                 and types[family] == "histogram"), line
        float(match.group(3))  # values must parse
    return types


class TestPrometheusExposition:
    def test_lints_clean(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "Help with \\ and \n newline.").inc()
        registry.gauge("b", labelnames=("x",)).set(1.5, x="y")
        registry.histogram("c_seconds").observe(0.1)
        types = lint_prometheus(registry.to_prometheus())
        assert types == {"a_total": "counter", "b": "gauge",
                         "c_seconds": "histogram"}


class TestTracer:
    def test_span_nesting_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_attrs_and_events(self):
        tracer = Tracer()
        with tracer.span("work", rows=10) as span:
            span.set(cells=3)
            span.event("milestone", step=1)
        span, = tracer.spans()
        assert span.attrs == {"rows": 10, "cells": 3}
        name, ts, attrs = span.events[0]
        assert name == "milestone" and attrs == {"step": 1}
        assert span.start <= ts <= span.start + span.duration

    def test_standalone_event_is_instant(self):
        tracer = Tracer()
        tracer.event("tick", n=1)
        span, = tracer.spans()
        assert span.duration is None
        assert span.attrs == {"n": 1}

    def test_error_exit_flagged(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        span, = tracer.spans()
        assert span.attrs["error"] is True

    def test_bounded_buffer_evicts_oldest(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span("s%d" % i):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_add_span_records_sim_time(self):
        tracer = Tracer()
        tracer.add_span("T[AB]", 1.5, 0.25, tid="p3", attrs={"cpu_s": 0.2})
        span, = tracer.spans()
        assert span.clock == "sim"
        assert span.start == 1.5 and span.duration == 0.25
        assert span.tid == "p3"

    def test_name_filter(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.spans("b")] == ["b"]

    def test_threads_get_separate_stacks(self):
        tracer = Tracer()
        seen = []

        def worker():
            with tracer.span("child"):
                seen.append(tracer.current_span().parent_id)

        with tracer.span("main-span"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker's span must NOT nest under the main thread's span.
        assert seen == [None]

    def test_bad_max_spans(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestChromeTrace:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", rows=5):
            with tracer.span("inner"):
                pass
        tracer.add_span("T[A]", 2.0, 0.5, tid="p0")
        tracer.event("blip")
        path = tmp_path / "trace.json"
        exported = tracer.export_chrome(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(exported))
        events = loaded["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e.get("args", {}).get("name")) for e in meta}
        assert ("process_name", "wall clock") in names
        assert ("process_name", "simulated cluster") in names

        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert complete["T[A]"]["pid"] == SIM_PID
        assert complete["T[A]"]["ts"] == pytest.approx(2.0 * 1e6)
        assert complete["T[A]"]["dur"] == pytest.approx(0.5 * 1e6)
        assert complete["outer"]["pid"] == WALL_PID
        assert complete["outer"]["args"]["rows"] == 5
        # Parent linkage survives the export.
        assert complete["inner"]["args"]["parent_span_id"] == \
            complete["outer"]["args"]["span_id"]
        # ts/dur are consistent: the child sits inside the parent.
        assert complete["inner"]["ts"] >= complete["outer"]["ts"]
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "blip" for e in instants)
        assert loaded["otherData"]["dropped_spans"] == 0

    def test_nonjson_attrs_coerced(self):
        tracer = Tracer()
        with tracer.span("x", leaf=("a", "b"), obj=object()):
            pass
        trace = tracer.chrome_trace()
        json.dumps(trace)  # must not raise


class TestInstallApi:
    def test_off_by_default(self):
        assert obs.current() is None
        span = obs.span("anything")
        assert not span
        with span as inner:
            inner.set(a=1).event("e")  # all absorbed
        obs.event("nothing")  # no-op, no error

    def test_install_uninstall(self):
        active = obs.install()
        assert obs.current() is active
        with obs.span("s") as span:
            assert span
        assert len(active.tracer.spans()) == 1
        obs.uninstall()
        assert obs.current() is None

    def test_installed_restores_previous(self):
        outer = obs.install()
        with obs.installed() as inner:
            assert obs.current() is inner
            assert inner is not outer
        assert obs.current() is outer

    def test_install_accepts_custom_parts(self):
        registry = MetricsRegistry()
        tracer = Tracer(max_spans=7)
        active = obs.install(registry=registry, tracer=tracer)
        assert active.registry is registry
        assert active.tracer is tracer


class TestBucInstrumentation:
    def _relation(self):
        from repro.data.synthetic import uniform_relation

        return uniform_relation(300, [4, 4, 4], seed=3)

    def test_cuboid_spans_recorded(self):
        relation = self._relation()
        with obs.installed() as active:
            result, _stats, _writer = buc_iceberg_cube(
                relation, relation.dims, minsup=2, breadth_first=True)
        task_spans = active.tracer.spans("buc.task")
        assert len(task_spans) == 1
        cuboid_spans = active.tracer.spans("buc.cuboid")
        # 2^3 - 1 = 7 non-all cuboids in a 3-dim lattice.
        assert len(cuboid_spans) == 7
        by_name = {s.attrs["cuboid"]: s.attrs["cells"]
                   for s in cuboid_spans}
        for cuboid, cells in result.cuboids.items():
            if cuboid:
                assert by_name["/".join(cuboid)] == len(cells)

    def test_cells_identical_instrumented_or_not(self):
        relation = self._relation()
        plain = buc_iceberg_cube(relation, relation.dims, minsup=2)[0]
        with obs.installed():
            traced = buc_iceberg_cube(relation, relation.dims, minsup=2)[0]
        assert traced.equals(plain)


class TestSimulatorInstrumentation:
    def _run(self):
        from repro.cluster import cluster1
        from repro.parallel.pt import PT
        from repro.data.synthetic import uniform_relation

        relation = uniform_relation(300, [5, 5, 5], seed=9)
        return PT().run(relation, minsup=2, cluster_spec=cluster1(2))

    def test_sim_figures_bit_identical(self):
        plain = self._run()
        with obs.installed():
            traced = self._run()
        assert traced.makespan == plain.makespan
        assert traced.result.equals(plain.result)

    def test_task_spans_on_sim_clock_with_opstats(self):
        with obs.installed() as active:
            run = self._run()
        sim_spans = [s for s in active.tracer.spans() if s.clock == "sim"]
        assert sim_spans
        for span in sim_spans:
            assert span.attrs["machine"]
            assert span.attrs["cpu_s"] >= 0.0
            assert "opstats_read_tuples" in span.attrs
            # Simulated spans end within the simulated makespan.
            assert span.start + span.duration <= run.makespan + 1e-9
        tasks = active.registry.get("repro_sim_tasks_total")
        assert sum(tasks.series().values()) == len(sim_spans)
        wrapper, = active.tracer.spans("sim.run")
        assert wrapper.attrs["tasks"] == len(sim_spans)
        assert wrapper.attrs["makespan"] == run.makespan


class TestLocalBackendInstrumentation:
    def test_local_cube_span(self):
        from repro.data.synthetic import uniform_relation
        from repro.parallel.local import multiprocess_iceberg_cube

        relation = uniform_relation(300, [4, 4, 4], seed=5)
        with obs.installed() as active:
            result = multiprocess_iceberg_cube(relation, minsup=2, workers=1)
        span, = active.tracer.spans("local.cube")
        assert span.attrs["rows"] == 300
        assert span.attrs["cells"] == result.total_cells()


class TestServeMetricsAgreement:
    def test_bump_backed_by_registry(self):
        from repro.serve.telemetry import ServerTelemetry

        telemetry = ServerTelemetry()
        telemetry.bump("shed")
        telemetry.bump("shed")
        telemetry.bump("deadline_exceeded")
        counts = telemetry.event_counts()
        assert counts == {"shed": 2, "deadline_exceeded": 1}
        assert all(isinstance(v, int) for v in counts.values())
        text = telemetry.registry.to_prometheus()
        assert 'repro_server_events_total{event="shed"} 2' in text

    def test_record_lands_in_both_views(self):
        from repro.serve.telemetry import ServerTelemetry

        telemetry = ServerTelemetry()
        telemetry.record("cache", 0.002)
        telemetry.record("store", 0.004)
        summary = telemetry.summary()
        assert summary["queries"] == 2
        requests = telemetry.registry.get("repro_server_requests_total")
        assert sum(requests.series().values()) == 2
        lint_prometheus(telemetry.registry.to_prometheus())

    def test_telemetry_joins_installed_registry(self):
        from repro.serve.telemetry import ServerTelemetry

        with obs.installed() as active:
            telemetry = ServerTelemetry()
            assert telemetry.registry is active.registry


class TestServerMetricsEndpoint:
    def test_metrics_counts_match_stats(self, tmp_path):
        import urllib.request
        from repro.data.synthetic import uniform_relation
        from repro.serve import CubeServer, CubeStore

        relation = uniform_relation(300, [4, 4, 4], seed=2)
        store = CubeStore.build(relation, tmp_path / "store", backend="local")
        server = CubeServer(store, cache_size=8)
        endpoint = server.serve_http(host="127.0.0.1", port=0)
        try:
            for i in range(6):
                url = "%s/query?cuboid=%s&minsup=1" % (
                    endpoint.url, store.dims[i % len(store.dims)])
                with urllib.request.urlopen(url) as response:
                    json.loads(response.read())
            with urllib.request.urlopen(endpoint.url + "/metrics") as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain")
                text = response.read().decode()
            with urllib.request.urlopen(endpoint.url + "/stats") as response:
                stats = json.loads(response.read())
        finally:
            server.close()
            store.close()
        lint_prometheus(text)
        served = sum(
            int(float(line.rsplit(" ", 1)[1]))
            for line in text.splitlines()
            if line.startswith("repro_server_requests_total{"))
        assert served == stats["telemetry"]["queries"] == 6
