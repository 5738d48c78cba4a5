"""Extension M: the MapReduce backend vs PT-style subtree tasks.

Both real backends parallelize the same iceberg cube over the same BUC
*subtree tasks* (the paper's PT shape): the local backend deals them to
a process pool with everything resident, while the MapReduce backend
shuffles each row once per task through spilled columnar runs and runs
the same BUC over each task's root-cell groups in its reducers.  This
bench runs both over one weather workload (real wall-clock) and asks
what the out-of-core path costs when the input *would* have fit — and
whether a starved memory budget changes the answer (it must not: the
cube is checked cell-identical across all three runs, and the starved
run must actually spill).
"""

import time

from ..data.stream import weather_stream
from ..data.weather import baseline_dims
from ..mr import MIN_MEMORY_BUDGET, mapreduce_iceberg_cube
from ..parallel.local import multiprocess_iceberg_cube
from .harness import ExperimentResult, scaled

#: Starved combiner budget: the engine's floor, small enough that every
#: mapper is forced through mid-split disk spills.
STARVED_BUDGET = MIN_MEMORY_BUDGET

#: Paper-scale tuple count for this bench (scaled by REPRO_BENCH_SCALE).
FULL_TUPLES = 200_000


def ext_mapreduce(n_tuples=None, n_dims=6, minsup=5, workers=2, seed=2001):
    """Extension M: one-round MapReduce vs the PT-style process pool."""
    n_tuples = n_tuples or scaled(FULL_TUPLES, minimum=10000)
    # Splits sized to span several combiner chunks, so the starved
    # budget below has mid-split spill points to hit.
    stream = weather_stream(n_tuples, dims=baseline_dims(n_dims), seed=seed,
                            split_rows=max(8192, n_tuples // workers))
    relation = stream.materialize()

    t0 = time.perf_counter()
    pt_result = multiprocess_iceberg_cube(relation, minsup=minsup,
                                          workers=workers)
    pt_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    mr_result = mapreduce_iceberg_cube(stream, minsup=minsup,
                                       workers=workers)
    mr_seconds = time.perf_counter() - t0
    mr_stats = mr_result.mr_stats

    t0 = time.perf_counter()
    starved_result = mapreduce_iceberg_cube(
        stream, minsup=minsup, workers=workers,
        memory_budget=STARVED_BUDGET)
    starved_seconds = time.perf_counter() - t0
    starved_stats = starved_result.mr_stats

    rows = [
        ["pt subtree pool", round(pt_seconds, 3), pt_result.total_cells(),
         "-", "-", "-"],
        ["mapreduce (default budget)", round(mr_seconds, 3),
         mr_result.total_cells(), mr_stats.spills,
         round(mr_stats.spill_bytes / 1024, 1), mr_stats.runs_merged],
        ["mapreduce (%d KB budget)" % (STARVED_BUDGET >> 10),
         round(starved_seconds, 3), starved_result.total_cells(),
         starved_stats.spills,
         round(starved_stats.spill_bytes / 1024, 1),
         starved_stats.runs_merged],
    ]
    result = ExperimentResult(
        "Extension M",
        "one-round MapReduce vs PT-style subtree tasks: %d weather tuples, "
        "%d dims, minsup %d, %d workers (real wall-clock)"
        % (n_tuples, n_dims, minsup, workers),
        ["backend", "wall (s)", "cells", "spills", "spill KB",
         "runs merged"],
        rows,
        notes="the spill columns are the price of bounded memory: the "
              "starved run externalizes its shuffle yet must produce the "
              "identical cube",
    )
    mr_diff = mr_result.diff(pt_result, tolerance=1e-6, limit=3)
    result.check(
        "mapreduce cube is cell-identical to the PT-style pool",
        not mr_diff, "; ".join(mr_diff) or
        "%d cells match" % mr_result.total_cells(),
    )
    starved_diff = starved_result.diff(mr_result, tolerance=0.0, limit=3)
    result.check(
        "starved-budget run reproduces the default-budget cube exactly",
        not starved_diff, "; ".join(starved_diff) or
        "%d cells, %d spills" % (starved_result.total_cells(),
                                 starved_stats.spills),
    )
    result.check(
        "starved budget actually spills to disk",
        starved_stats.spills > mr_stats.spills
        and starved_stats.spill_bytes > 0,
        "%d spills / %.1f KB vs %d at the default budget"
        % (starved_stats.spills, starved_stats.spill_bytes / 1024,
           mr_stats.spills),
    )
    result.check(
        "mapreduce cube within 3x of the PT pool on in-RAM input",
        mr_seconds <= 3.0 * pt_seconds,
        "%.1fx (%.3f s vs %.3f s)"
        % (mr_seconds / pt_seconds, mr_seconds, pt_seconds),
    )
    result.check(
        "every map split was consumed",
        mr_stats.rows == n_tuples,
        "%d rows through %d map tasks" % (mr_stats.rows, mr_stats.map_tasks),
    )
    return result
