"""The whole pipeline at smoke scale, and planted faults."""

import time

from conftest import WORKLOADS, run_benchmark


def test_every_workload_runs_clean(smoke_results):
    for workload in WORKLOADS:
        code, result = smoke_results[workload]
        assert code == 0, workload
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] > 100, workload


def test_compute_pair_builds_the_same_store(smoke_results):
    """Same relation through the pool and through MapReduce: the stores
    hold the same bytes per cell, so downstream stages are comparable."""
    local = smoke_results["compute_local"][1]["metrics"]
    mapreduce = smoke_results["compute_mapreduce"][1]["metrics"]
    assert local["store_bytes_per_cell"]["value"] \
        == mapreduce["store_bytes_per_cell"]["value"]


def test_planted_wrong_answer_fails_the_run():
    code, result = run_benchmark("compute_local", "--trace", "0",
                                 "--plant", "wrong_answer")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_killed_replica_shows_up_as_failed_operations():
    started = time.monotonic()
    code, result = run_benchmark("serve_ingest_router", "--trace", "0",
                                 "--plant", "kill_replica")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    # the run still ends, with every other server reaped
    assert time.monotonic() - started < 120
