"""Kernel throughput benchmark: the library's perf trajectory, on record.

``ext_kernel_throughput`` measures *real wall-clock* rows/sec for every
compute path over the same synthetic Zipf workloads — naive rescan,
seed ``BucEngine`` (the ``python`` kernel), the vectorised ``numpy``
kernel, and the multiprocess backend at 1, 2 and 4 workers
(the multi-core scaling curve) — across dimensionalities d ∈ {6, 10,
14} and a minsup sweep, checking that every implementation produces
identical cells while it is timed.

Besides the usual thesis-style table it emits machine-readable
``BENCH_kernel.json`` so later PRs have a perf baseline to defend:

* absolute ``rows_per_sec`` per implementation and workload (machine
  -dependent — context, not contract);
* ``speedup_vs_python`` ratios (machine-independent — the contract);
* ``cpu_count``/``numpy`` so scaling claims are gated honestly: the
  4-worker speedup check only applies where 4 cores exist.

``python -m repro.bench.kernelbench`` runs the benchmark standalone and,
with ``--baseline <committed json>``, fails (exit 1) if the single-core
columnar speedup ratio regressed more than 25% against the baseline —
ratios, not absolute rows/sec, so a faster or slower CI machine neither
masks nor fakes a regression.
"""

import json
import logging
import os
import time

from ..core.buc import buc_iceberg_cube
from ..core.naive import naive_iceberg_cube
from ..data.synthetic import zipf_relation
from ..parallel.local import multiprocess_iceberg_cube
from .harness import ExperimentResult, bench_scale, scaled

BENCH_JSON_SCHEMA = "repro-kernel-bench/1"

#: The kernel whose speedup over the seed python kernel is the contract.
FAST_KERNEL = "numpy"

#: Minimum single-core speedup (columnar family vs the seed python
#: kernel) demanded at full workload scale on the 10-dim workload.
TARGET_SINGLE_CORE = 5.0

#: Minimum 4-worker vs 1-worker speedup demanded where >= 4 CPUs exist
#: at full workload scale (the shared-memory data plane's contract).
TARGET_SCALING_4V1 = 2.5

#: The scaling-curve workload: compute-dense relative to its output so
#: the curve measures computation scaling.  An output-bound workload
#: (e.g. the d=10 minsup=5 anchor: ~518k cells from 20k rows) caps
#: *any* parallel backend near 1x by Amdahl — materializing the result
#: cells as Python dicts is inherently serial in the parent and costs
#: as much as computing them — so it is the wrong instrument for a
#: scaling claim, exactly as a 1-core box is.
SCALING_D = 10
SCALING_ROWS_FULL = 80000
SCALING_MINSUP = 100

log = logging.getLogger(__name__)

#: Regression tolerance for the --baseline comparison (ratio of ratios).
REGRESSION_TOLERANCE = 0.25

#: Maximum instrumented/no-op wall-time ratio tolerated on the anchor
#: workload with the observability layer installed (spans + counters).
OBS_OVERHEAD_TARGET = 1.05

#: Full-scale row counts per dimensionality (scaled by REPRO_BENCH_SCALE).
FULL_ROWS = {6: 20000, 10: 20000, 14: 6000}

CARDINALITIES = {
    6: [16, 12, 10, 8, 6, 4],
    10: [16, 14, 12, 10, 8, 8, 6, 6, 4, 4],
    14: [16, 14, 12, 10, 8, 8, 6, 6, 4, 4, 4, 3, 3, 2],
}

#: minsup sweep per dimensionality (the 10-dim workload gets the sweep;
#: the others anchor the dimensionality axis).
MINSUPS = {6: (2,), 10: (5, 10, 20), 14: (10,)}

#: Dimensionality of the anchor workloads (the headline speedup is the
#: best fast-kernel ratio measured across this dimensionality's minsup
#: sweep; per-workload numbers are all in the JSON).
ANCHOR_D = 10


def _timed(fn, repeats=1):
    """Run ``fn`` ``repeats`` times; return ``(value, best_seconds)``.

    Best-of-N, not mean: on shared machines the minimum is the least
    contaminated estimate of the code's actual cost.
    """
    value = None
    best = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return value, best


def default_out_path():
    return os.path.join(os.getcwd(), "bench_results", "BENCH_kernel.json")


def _obs_overhead_ratio(relation, minsup, kernel, repeats):
    """Instrumented vs no-op wall time on one workload (best-of-N each).

    The observability contract is "off by default, near-zero overhead":
    with :func:`repro.obs.install` active every ``buc.task`` /
    ``buc.cuboid`` span records for real, and the ratio bounds what a
    traced run costs over the plain one.  Measured at *full* anchor
    rows regardless of ``REPRO_BENCH_SCALE``: span count is fixed by
    the lattice (one per cuboid), so shrinking the rows would inflate
    the per-span share and gate against a workload nobody traces.

    The estimate is the *minimum of pairwise ratios* over interleaved
    (plain, instrumented) run pairs with alternating order.  On a
    shared CI box single runs drift +/-10%, which swamps the ~1% true
    overhead; scheduler noise only ever *inflates* one side of a pair
    at random, so the best-conditions pair converges on the true ratio,
    while a genuine regression (per-row instrumentation sneaking in)
    lifts every pair and still trips the gate.
    """
    from .. import obs

    def run():
        return buc_iceberg_cube(relation, relation.dims, minsup=minsup,
                                kernel=kernel, breadth_first=True)[0]

    best = None
    for i in range(max(3, repeats)):
        if i % 2:
            with obs.installed():
                _, instrumented = _timed(run)
            _, plain = _timed(run)
        else:
            _, plain = _timed(run)
            with obs.installed():
                _, instrumented = _timed(run)
        ratio = (instrumented / plain) if plain else 1.0
        best = ratio if best is None else min(best, ratio)
    return best


def _scaling_measurements(repeats, workers_hi=4, seed=11, skew=0.8):
    """Time the multiprocess backend at 1, 2 and ``workers_hi`` workers.

    One shared measurement behind both the full bench's scaling figures
    and the standalone ``--scaling`` mode: the compute-dense scaling
    workload (:data:`SCALING_D`, :data:`SCALING_ROWS_FULL` scaled,
    :data:`SCALING_MINSUP`), every worker count verified cell-identical
    against the seed python-kernel oracle.  Returns ``(n_rows,
    base_seconds, timings, identical)`` with ``timings``/``identical``
    keyed by worker count.
    """
    n_rows = scaled(SCALING_ROWS_FULL, minimum=2000)
    relation = zipf_relation(n_rows, CARDINALITIES[SCALING_D], skew=skew,
                             seed=seed)
    reference, base_seconds = _timed(lambda: buc_iceberg_cube(
        relation, relation.dims, minsup=SCALING_MINSUP, kernel="python",
    )[0], 1)
    timings = {}
    identical = {}
    for workers in sorted({1, 2, workers_hi}):
        result, seconds = _timed(lambda: multiprocess_iceberg_cube(
            relation, minsup=SCALING_MINSUP, workers=workers), repeats)
        timings[workers] = seconds
        identical[workers] = result.equals(reference)
    return n_rows, base_seconds, timings, identical


def ext_kernel_throughput(rows_by_d=None, seed=11, skew=0.8, out_path=None,
                          workers_hi=4, repeats=2):
    """Measure rows/sec for every compute path; emit BENCH_kernel.json."""
    rows_by_d = dict(rows_by_d or {
        d: scaled(n, minimum=1500) for d, n in FULL_ROWS.items()
    })
    cpu_count = os.cpu_count() or 1
    columns = ["d", "rows", "minsup", "implementation", "seconds",
               "rows/sec", "speedup", "cells", "identical"]
    rows = []
    workloads = []
    anchor_speedups = {}

    for d in sorted(CARDINALITIES):
        n_rows = rows_by_d[d]
        relation = zipf_relation(n_rows, CARDINALITIES[d], skew=skew,
                                 seed=seed)
        for minsup in MINSUPS[d]:
            reference, base_seconds = _timed(lambda: buc_iceberg_cube(
                relation, relation.dims, minsup=minsup, kernel="python",
            )[0], repeats)
            timings = {"buc_python": base_seconds}
            identical = {"buc_python": True}
            cells = reference.total_cells()

            if d < 14:  # the naive rescan is O(2^d * n): hopeless at 14
                naive_result, seconds = _timed(lambda: naive_iceberg_cube(
                    relation, relation.dims, minsup))
                timings["naive"] = seconds
                identical["naive"] = naive_result.equals(reference)

            result, seconds = _timed(lambda: buc_iceberg_cube(
                relation, relation.dims, minsup=minsup, kernel=FAST_KERNEL,
                breadth_first=True,
            )[0], repeats)
            timings[FAST_KERNEL] = seconds
            identical[FAST_KERNEL] = result.equals(reference)

            workers_curve = sorted({1, 2, workers_hi})
            for workers in workers_curve:
                label = "multiprocess_w%d" % workers
                result, seconds = _timed(lambda: multiprocess_iceberg_cube(
                    relation, minsup=minsup, workers=workers),
                    repeats if workers == 1 else 1)
                timings[label] = seconds
                identical[label] = result.equals(reference)

            speedups = {
                name: base_seconds / seconds if seconds else float("inf")
                for name, seconds in timings.items()
            }
            order = ["naive", "buc_python", FAST_KERNEL] + [
                "multiprocess_w%d" % w for w in workers_curve]
            for name in order:
                if name not in timings:
                    continue
                seconds = timings[name]
                rows.append([
                    d, n_rows, minsup, name, seconds,
                    n_rows / seconds if seconds else float("inf"),
                    speedups[name], cells, identical[name],
                ])
            workloads.append({
                "d": d,
                "rows": n_rows,
                "minsup": minsup,
                "cells": cells,
                "seconds": timings,
                "rows_per_sec": {
                    name: (n_rows / s if s else None)
                    for name, s in timings.items()
                },
                "speedup_vs_python": speedups,
                "identical": identical,
            })
            if d == ANCHOR_D and speedups[FAST_KERNEL] >= \
                    anchor_speedups.get(FAST_KERNEL, 0.0):
                anchor_speedups = speedups

    single_core = anchor_speedups.get(FAST_KERNEL, 0.0)
    # The multi-core scaling curve: rows/sec at each worker count on the
    # compute-dense scaling workload — the number the paper's whole
    # premise rides on.
    scaling_rows, _scaling_base, mp_timings, mp_identical = \
        _scaling_measurements(repeats, workers_hi, seed=seed, skew=skew)
    scaling = None
    if mp_timings.get(1) and mp_timings.get(workers_hi):
        scaling = mp_timings[1] / mp_timings[workers_hi]
    curve = {
        "w%d" % w: (scaling_rows / s if s else None)
        for w, s in sorted(mp_timings.items())
    }

    obs_rows = FULL_ROWS[ANCHOR_D]
    obs_ratio = _obs_overhead_ratio(
        zipf_relation(obs_rows, CARDINALITIES[ANCHOR_D],
                      skew=skew, seed=seed),
        MINSUPS[ANCHOR_D][0], FAST_KERNEL, max(repeats, 5),
    )

    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "bench_scale": bench_scale(),
        "cpu_count": cpu_count,
        "numpy": True,
        "fast_kernel": FAST_KERNEL,
        "anchor": {"d": ANCHOR_D, "rows": rows_by_d[ANCHOR_D],
                   "minsups": list(MINSUPS[ANCHOR_D])},
        "single_core_speedup": single_core,
        "multiprocess_scaling_%dv1" % workers_hi: scaling,
        "scaling_curve_rows_per_sec": curve,
        "scaling_workload": {
            "d": SCALING_D,
            "rows": scaling_rows,
            "minsup": SCALING_MINSUP,
            "seconds": {"w%d" % w: s for w, s in mp_timings.items()},
            "identical": {"w%d" % w: ok for w, ok in mp_identical.items()},
        },
        "obs_overhead_ratio": obs_ratio,
        "obs_overhead_rows": obs_rows,
        "workloads": workloads,
    }
    out_path = out_path or default_out_path()
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    result = ExperimentResult(
        "EXT-KERNEL",
        "Columnar kernel throughput (real wall-clock, rows/sec)",
        columns, rows,
        notes="machine: %d CPU(s); JSON written to %s" % (cpu_count, out_path),
    )
    result.check(
        "every implementation produces identical cells",
        all(all(w["identical"].values()) for w in workloads)
        and all(mp_identical.values()),
        "%d workload/impl pairs compared (incl. scaling workload)" % (
            sum(len(w["identical"]) for w in workloads)
            + len(mp_identical)),
    )
    result.check(
        "fast kernel (%s) beats the seed engine on the 10-dim anchor"
        % FAST_KERNEL,
        single_core > 1.0,
        "%.2fx vs python kernel" % single_core,
    )
    full_scale = rows_by_d[ANCHOR_D] >= FULL_ROWS[ANCHOR_D]
    if full_scale:
        result.check(
            ">=%.0fx single-core speedup at full workload scale"
            % TARGET_SINGLE_CORE,
            single_core >= TARGET_SINGLE_CORE,
            "%.2fx (target %.1fx)" % (single_core, TARGET_SINGLE_CORE),
        )
    if cpu_count < workers_hi:
        # A box with fewer cores than workers cannot show scaling — the
        # gate is skipped *audibly* (recorded as a passing SKIPPED check
        # and a warning), never silently: the JSON's honest ``cpu_count``
        # tells readers which kind of run produced the numbers.
        log.warning(
            "SKIPPED: %d-worker scaling gate needs >=%d CPUs, machine "
            "has %d — run the scaling bench on a multi-core runner "
            "(CI job scaling-bench does)", workers_hi, workers_hi,
            cpu_count,
        )
        result.check(
            "SKIPPED: %d-worker scaling gate (machine has %d CPU(s), "
            "needs >=%d)" % (workers_hi, cpu_count, workers_hi),
            True,
            "measured %s on this box; not a scaling claim"
            % ("%.2fx" % scaling if scaling is not None else "nothing"),
        )
    elif scaling is not None:
        if scaling_rows >= SCALING_ROWS_FULL:
            result.check(
                ">=%.1fx at %d workers vs 1 (machine has %d CPUs)"
                % (TARGET_SCALING_4V1, workers_hi, cpu_count),
                scaling >= TARGET_SCALING_4V1,
                "%.2fx" % scaling,
            )
        else:
            # Reduced-scale runs (REPRO_BENCH_SCALE < 1) shrink the
            # compute but not the pool startup, so the ratio is not a
            # contract there — record it, gate only at full scale.
            result.check(
                "scaling curve recorded (reduced scale: informational)",
                True,
                "%.2fx at %d workers vs 1" % (scaling, workers_hi),
            )
    result.check(
        "observability adds <%.0f%% overhead when installed"
        % (100.0 * (OBS_OVERHEAD_TARGET - 1.0)),
        obs_ratio <= OBS_OVERHEAD_TARGET,
        "%.3fx instrumented/no-op on the %d-dim anchor at %d rows"
        % (obs_ratio, ANCHOR_D, obs_rows),
    )
    return result


def ext_multicore_scaling(seed=11, skew=0.8, repeats=2, workers_hi=4,
                          out_path=None):
    """The multi-core scaling curve alone: w1/w2/w4 rows/sec.

    The CI ``scaling-bench`` job's entry point (``--scaling``): runs
    only the compute-dense scaling workload through the multiprocess
    backend at 1, 2 and ``workers_hi`` workers, verifies every result
    against the single-process oracle, and gates ``w4 > w1`` — the
    paper's minimum claim, *more workers must not be slower*.  Progress
    toward :data:`TARGET_SCALING_4V1` is reported but gated only by the
    full bench (``ext_kernel_throughput``) at full workload scale.  On
    a box with fewer than ``workers_hi`` CPUs the gate is skipped with
    a warning (recorded as a passing SKIPPED check), because the
    measurement would be meaningless — not because it passed.
    """
    cpu_count = os.cpu_count() or 1
    n_rows, base_seconds, timings, identical = _scaling_measurements(
        max(repeats, 2), workers_hi, seed=seed, skew=skew)
    columns = ["workers", "seconds", "rows/sec", "speedup_vs_w1",
               "identical"]
    rows = []
    for workers, seconds in sorted(timings.items()):
        rows.append([
            workers, seconds,
            n_rows / seconds if seconds else float("inf"),
            timings[1] / seconds if seconds else float("inf"),
            identical[workers],
        ])
    scaling = (timings[1] / timings[workers_hi]
               if timings.get(workers_hi) else None)
    result = ExperimentResult(
        "EXT-SCALING",
        "Multiprocess scaling curve (d=%d, %d rows, minsup %d)"
        % (SCALING_D, n_rows, SCALING_MINSUP),
        columns, rows,
        notes="machine: %d CPU(s); seed python kernel: %.2fs"
              % (cpu_count, base_seconds),
    )
    result.check(
        "all worker counts produce oracle-identical cells",
        all(identical.values()),
        "w%s compared" % ",".join(str(w) for w in sorted(identical)),
    )
    if cpu_count < workers_hi:
        log.warning(
            "SKIPPED: scaling gate needs >=%d CPUs, machine has %d",
            workers_hi, cpu_count,
        )
        result.check(
            "SKIPPED: w%d > w1 gate (machine has %d CPU(s), needs >=%d)"
            % (workers_hi, cpu_count, workers_hi),
            True,
            "measured %.2fx here; not a scaling claim" % (scaling or 0.0),
        )
    else:
        result.check(
            "w%d beats w1 (more workers must not be slower)" % workers_hi,
            scaling is not None and scaling > 1.0,
            "%.2fx" % (scaling or 0.0),
        )
        result.check(
            "progress toward the %.1fx full-scale target (informational)"
            % TARGET_SCALING_4V1,
            True,
            "%.2fx at %d workers vs 1" % (scaling or 0.0, workers_hi),
        )
    if out_path:
        payload = {
            "schema": "repro-scaling-bench/1",
            "bench_scale": bench_scale(),
            "cpu_count": cpu_count,
            "numpy": True,
            "workload": {"d": SCALING_D, "rows": n_rows,
                         "minsup": SCALING_MINSUP},
            "seconds": {"w%d" % w: s for w, s in timings.items()},
            "rows_per_sec": {
                "w%d" % w: (n_rows / s if s else None)
                for w, s in timings.items()
            },
            "multiprocess_scaling_%dv1" % workers_hi: scaling,
            "identical": {"w%d" % w: ok for w, ok in identical.items()},
        }
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result


def check_regression(current_path, baseline_path,
                     tolerance=REGRESSION_TOLERANCE):
    """Compare speedup *ratios* against a committed baseline.

    Returns a list of human-readable failures (empty = no regression).
    Ratios are machine-independent: both runs divide the fast kernel's
    time by the same machine's seed-python time, so a faster or slower
    CI box cancels out.
    """
    with open(current_path) as handle:
        current = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    base_scale = baseline.get("bench_scale")
    cur_scale = current.get("bench_scale")
    if base_scale is not None and cur_scale is not None \
            and abs(base_scale - cur_scale) > 1e-9:
        # Speedup ratios grow with workload size (vectorisation needs
        # volume), so cross-scale comparison would always mis-fire.
        return [
            "bench scale mismatch: run at %s but baseline recorded %s — "
            "compare like against like (set REPRO_BENCH_SCALE)"
            % (cur_scale, base_scale)
        ]
    base_ratio = baseline.get("single_core_speedup") or 0.0
    new_ratio = current.get("single_core_speedup") or 0.0
    floor = base_ratio * (1.0 - tolerance)
    if base_ratio and new_ratio < floor:
        failures.append(
            "single-core columnar speedup regressed: %.2fx vs baseline "
            "%.2fx (floor %.2fx)" % (new_ratio, base_ratio, floor)
        )
    return failures


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernelbench",
        description="Kernel throughput benchmark with regression check",
    )
    parser.add_argument("--out", default=None,
                        help="where to write BENCH_kernel.json "
                             "(default bench_results/BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None,
                        help="committed BENCH_kernel.json to compare "
                             "speedup ratios against (>25%% regression "
                             "fails)")
    parser.add_argument("--scale", type=float, default=None,
                        help="override REPRO_BENCH_SCALE for this run")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repetitions per measurement "
                             "(best-of-N; default 2)")
    parser.add_argument("--scaling", action="store_true",
                        help="run only the multi-core scaling curve "
                             "(w1/w2/w4 on the anchor workload) and gate "
                             "w4 > w1; skipped with a warning on <4-core "
                             "machines")
    args = parser.parse_args(argv)
    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    logging.basicConfig(level=logging.WARNING)
    if args.scaling:
        result = ext_multicore_scaling(repeats=max(args.repeats, 2),
                                       out_path=args.out)
        print(result.format_table())
        return 0 if result.passed else 1
    out_path = args.out or default_out_path()
    result = ext_kernel_throughput(out_path=out_path, repeats=args.repeats)
    print(result.format_table())
    if not result.passed:
        return 1
    if args.baseline:
        failures = check_regression(out_path, args.baseline)
        for failure in failures:
            print("REGRESSION: %s" % failure)
        if failures:
            return 1
        print("no regression vs %s" % args.baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
