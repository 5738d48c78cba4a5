"""The benchmark's own tests (not part of tier-1; run explicitly):

    python3 -m pytest benchmarks/e2e/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.normpath(os.path.join(BENCH_DIR, "..", ".."))
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

WORKLOADS = ("compute_local", "compute_mapreduce", "serve_scan_http",
             "serve_ingest_router")


def run_benchmark(workload, *extra):
    """Run ``run.py`` at smoke scale; returns ``(exit code, result)``
    where ``result`` is the JSON object on the last line of stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "2",
         "--scale", "smoke"] + list(extra),
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    assert lines, done.stderr
    return done.returncode, json.loads(lines[-1])


@pytest.fixture(scope="session")
def smoke_results():
    """One untraced smoke run of every workload, shared by the tests."""
    return {workload: run_benchmark(workload, "--trace", "0")
            for workload in WORKLOADS}


@pytest.fixture(scope="session")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)
