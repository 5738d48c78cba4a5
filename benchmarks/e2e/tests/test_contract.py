"""``BENCHMARK.json`` against the code that fills it."""

import re

import metrics
from conftest import WORKLOADS, run_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declared_metrics_are_exactly_what_the_code_defines(declared):
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_schema_limits(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in declared["end_to_end"])
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= declared["run_seconds"] <= 60
    assert declared["paths"] == ["benchmarks/e2e"]


def test_untraced_run_emits_every_end_to_end_metric(smoke_results, declared):
    expected = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for workload, (code, result) in smoke_results.items():
        assert code == 0, workload
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in result["metrics"].items()} \
            == expected, workload
        assert all(m["value"] > 0 for m in result["metrics"].values()), \
            workload


def test_traced_run_emits_every_per_layer_metric(declared):
    expected = {m["name"]: m["unit"] for m in declared["per_layer"]}
    code, result = run_benchmark("serve_ingest_router", "--trace", "1")
    assert code == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["obs.spans_dropped"] == 0
    assert values["obs.spans_recorded"] > 0
    assert values["router.self_ms"] > 0
    assert values["cache.hit_rate"] > 0.5
