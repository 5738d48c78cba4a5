"""Self-time arithmetic on synthetic span trees."""

import pytest

import trace as tracing


def payload(spans, epoch=1000.0, dropped=0):
    return {"enabled": True, "epoch_unix": epoch, "dropped": dropped,
            "spans": spans}


def span(name, span_id, parent_id, start, duration, tid="main", **attrs):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "trace_id": "t", "tid": tid, "start": start,
            "duration": duration, "clock": "wall", "attrs": attrs}


def selves(traces):
    return {s["span_id"]: round(s["self"], 9) for s in traces.spans}


def test_self_time_is_duration_minus_covered_child_time():
    traces = tracing.TraceSet([("driver", payload([
        span("bench.stage", 1, None, 0.0, 10.0, stage="flood"),
        span("bench.call", 2, 1, 1.0, 4.0, layer="serve.server"),
        span("serve.query", 3, 2, 2.0, 2.0),
        span("store.query", 4, 3, 2.5, 1.0),
    ]))])
    assert selves(traces) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_overlapping_children_are_counted_once_and_clipped():
    traces = tracing.TraceSet([("driver", payload([
        span("bench.stage", 1, None, 0.0, 10.0, stage="flood"),
        span("bench.call", 2, 1, 1.0, 4.0, tid="client-0", layer="http"),
        span("bench.call", 3, 1, 3.0, 4.0, tid="client-1", layer="http"),
        # starts inside the parent, ends after it: only 1 s is covered
        span("bench.call", 4, 1, 9.0, 5.0, tid="client-1", layer="http"),
    ]))])
    # children cover [1, 7] and [9, 10] of the 10 s stage
    assert selves(traces)[1] == 3.0


def test_children_in_another_process_align_on_the_wall_clock():
    traces = tracing.TraceSet([
        ("driver", payload([
            span("router.query", 1, None, 5.0, 2.0)], epoch=1000.0)),
        # same instant, different tracer epoch: 1003 + 2.5 = 1000 + 5.5
        ("replica", payload([
            span("serve.query", 2, 1, 2.5, 1.0)], epoch=1003.0)),
    ])
    assert selves(traces) == {1: 1.0, 2: 1.0}


def test_instants_and_simulated_spans_are_ignored():
    raw = span("sim.task", 9, None, 0.0, 3.0)
    raw["clock"] = "sim"
    instant = span("serve.cache_miss", 8, None, 1.0, None)
    traces = tracing.TraceSet([("driver", payload([raw, instant]))])
    assert traces.spans == []


def test_pool_batches_coalesce_into_one_window():
    traces = tracing.TraceSet([("driver", payload([
        span("local.cube", 1, None, 0.0, 5.0),
        span("local.batch", 2, 1, 1.0, 1.0, tid="pool", batch=0),
        span("local.batch", 3, 1, 1.0, 2.0, tid="pool", batch=1),
        span("local.batch", 4, 1, 1.0, 3.0, tid="pool", batch=2),
    ]))])
    windows = [s for s in traces.spans if s["name"] == "local.batch"]
    assert len(windows) == 1
    assert windows[0]["self"] == 3.0          # not 1 + 2 + 3
    assert len(windows[0]["members"]) == 3
    assert selves(traces)[1] == 2.0


def test_pool_busy_replays_completions_onto_worker_slots():
    members = [
        span("local.batch", 2, 1, 1.0, 1.0, tid="pool", batch=0),
        span("local.batch", 3, 1, 1.0, 2.0, tid="pool", batch=1),
        span("local.batch", 4, 1, 1.0, 3.0, tid="pool", batch=2),
    ]
    members = [dict(m, end=m["start"] + m["duration"]) for m in members]
    # two workers: batch 0 runs [1, 2], batch 1 [1, 3], batch 2 takes the
    # slot batch 0 freed and runs [2, 4]
    busy, window = tracing.pool_busy(members, workers=2)
    assert (busy, window) == (5.0, 3.0)


def test_layer_split_sums_repeats_and_reports_the_remainder():
    traces = tracing.TraceSet([("driver", payload([
        span("bench.stage", 1, None, 0.0, 4.0, stage="warm"),
        span("bench.call", 2, 1, 0.0, 3.0, layer="serve.store"),
        span("bench.stage", 3, None, 10.0, 4.0, stage="warm"),
        span("bench.call", 4, 3, 10.0, 2.0, layer="serve.store"),
        span("store.query", 5, 4, 10.0, 1.0),
        span("bench.call", 6, 3, 12.0, 1.0, layer=tracing.UNTRACED),
    ]))])
    assert traces.layer_split("warm") == {
        tracing.UNATTRIBUTED: 2.0, "serve.store": 5.0}
    assert traces.layer_split("flood") == {}


def test_dropped_spans_void_the_split():
    traces = tracing.TraceSet([("replica", payload([], dropped=3))])
    with pytest.raises(tracing.TraceDropped):
        traces.require_complete()
    tracing.TraceSet([("driver", payload([]))]).require_complete()
