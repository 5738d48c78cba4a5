"""The end-to-end pipeline benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py --workload serve_scan_http --seed 1 \\
        --seconds 28 --trace 0

runs rounds of one workload's pipeline (cube -> build -> warm -> flood ->
ingest -> kill+recover -> compact) for ``--seconds``, checks every
answer against ``repro.core.naive``, prints each metric by name and
unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` gives the end-to-end metrics with tracing
off; ``--trace 1`` does the same with ``repro.obs`` installed everywhere
and gives the per-layer metrics.  See ``README.md`` next to this file.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Times the inputs (and their oracle answers) are generated per run;
#: setup_s reports the median.
SETUP_REPEATS = 5
DEV_SHM = "/dev/shm"
SHM_PREFIX = "rsm-"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="rounds of the pipeline are run for this "
                             "long (default 28)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("ref", "smoke"), default="ref")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N times, each in a fresh process")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: use seed, seed+1, ...")
    parser.add_argument("--out", metavar="FILE",
                        help="append each run's record to this JSON file")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write the merged, "
                             "Perfetto-loadable trace here")
    parser.add_argument("--plant", choices=("wrong_answer", "kill_replica"),
                        help=argparse.SUPPRESS)  # the benchmark's own tests
    return parser.parse_args(argv)


def environment(args):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    from workloads import SCALES
    return {
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "platform": platform.platform(),
        "git_commit": commit, "seed": args.seed, "scale": args.scale,
        "row_scale": SCALES[args.scale], "seconds": args.seconds,
        # as shipped: WAL records and leaf files are fsync'd before ack
        "fsync": "WriteAheadLog.append fsyncs file and directory",
    }


def shm_segments():
    try:
        return {name for name in os.listdir(DEV_SHM)
                if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def peak_rss_mb():
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


def adopt_orphans():
    """Make this process the one orphaned descendants reparent to (a
    SIGKILLed server's or pool worker's helpers), so that
    :func:`reap_children` can wait for them too."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped


def child_pids():
    """Live or zombie processes whose parent is this process."""
    me = str(os.getpid())
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # gone meanwhile
        if fields[1] == me:
            found.append(int(name))
    return found


def reap_children():
    """Stop and wait for every process this run still has, on every way
    out of the command.

    ``multiprocessing``'s resource tracker (started by the first shared
    memory segment of the pool transport) normally outlives its parent by
    a moment.  It ends once every holder of its pipe is gone, so whatever
    else is left (nothing, on a clean run) is killed first — children of
    the killed reparent to this process and go in the next pass — and
    then the tracker is stopped and waited for."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    while True:
        pids = child_pids()
        if not pids:
            return
        if pids == [tracker]:
            tracker = None  # if _stop() fails it is killed next pass
            try:
                resource_tracker._resource_tracker._stop()
            except Exception:
                pass
            continue
        for pid in pids:
            if pid != tracker:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_once(args):
    """One pipeline run in this process; returns the result record."""
    import metrics
    import probes
    import trace as tracing
    from pipeline import Run
    from repro import obs
    from workloads import SPECS, Inputs

    if args.workload not in SPECS:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(SPECS)))
    if (os.cpu_count() or 1) < 2:
        raise SystemExit(
            "refusing to measure on %d CPU: every workload runs 2 workers "
            "and 2 clients, and bounds are set for >= 2" % (os.cpu_count() or 1))
    spec = SPECS[args.workload]
    traced = bool(args.trace)
    signal.signal(signal.SIGTERM, _terminate)

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    # Library temp files (pool transports, MR shuffles) stay in the run's
    # own directory, inside the checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    shm_before = shm_segments()
    run = None
    layer_split = mr_split = {}
    try:
        setup_times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = Inputs(spec, args.seed, args.scale)
            setup_times.append(time.perf_counter() - started)
        setup_s = statistics.median(setup_times)

        run = Run(inputs, tmp, args.seconds, traced, plant=args.plant)
        if not traced:
            run.run()
            values = metrics.end_to_end(run, setup_s)
            declared = metrics.END_TO_END
        else:
            with obs.installed(max_spans=max(
                    100_000, int(20_000 * args.seconds))) as active:
                run.run()
                run.trace_payloads.insert(
                    0, ("driver", active.tracer.payload(node="driver")))
            traces = tracing.TraceSet(run.trace_payloads)
            traces.require_complete()
            if args.trace_out:
                traces.export_chrome(args.trace_out)
            probed = probes.probe_all(run, tmp)
            leaked = len(shm_segments() - shm_before)
            values = metrics.per_layer(run, traces, probed, leaked)
            declared = metrics.PER_LAYER
            layer_split = {stage: traces.layer_split(stage)
                           for stage in metrics.STAGES}
            mr_split = {
                key: {"map_s": stats.map_seconds,
                      "reduce_s": stats.reduce_seconds,
                      "records": stats.spill_records,
                      "spill_bytes": stats.spill_bytes,
                      "runs_merged": stats.runs_merged}
                for key, stats in run.numbers.items()
                if key in ("mr_cube", "mr_build")}
            if "mr.pool_cube_s" in probed:
                mr_split["pool_cube_s"] = probed["mr.pool_cube_s"]
    finally:
        try:
            if run is not None:
                run.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                os.rmdir(tmp_root)
            except OSError:
                pass  # another run is using it
            for name in shm_segments() - shm_before:
                try:
                    os.unlink(os.path.join(DEV_SHM, name))
                except OSError:
                    pass
    if not traced:
        # after close(): every child has been waited for
        values["peak_rss_mb"] = peak_rss_mb()

    units = {m.name: m.unit for m in declared}
    record = {
        "workload": args.workload, "trace": args.trace,
        "env": environment(args),
        "rounds": len(run.round_s),
        "host_slowdown": run.host_slowdown(),
        "stage_samples_s": run.samples,
        "layer_split_s": layer_split,
        "mr_split": mr_split,
        "correct": run.check.failed == 0,
        "attempted": run.check.attempted,
        "failed": run.check.failed,
        "notes": run.check.notes,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    return record


def report_layer_split(record):
    """Which layer each stage's traced time went to (span self times)."""
    print("layer split (span self time as a share of each stage's traced "
          "time, all rounds; their total wall in brackets)")
    for stage, split in record["layer_split_s"].items():
        total = sum(split.values())
        if not total:
            continue
        shares = sorted(split.items(), key=lambda kv: -kv[1])
        print("  %-8s [%6.2f s] %s" % (
            stage, sum(record["stage_samples_s"].get(stage, ())),
            "  ".join("%s %.0f%%" % (layer, 100.0 * seconds / total)
                      for layer, seconds in shares if seconds / total >= 0.005)))


def report(record):
    print("env %s" % json.dumps(record["env"], sort_keys=True))
    if record["layer_split_s"]:
        report_layer_split(record)
    print("host slowdown %.3f (median calibration loop of the run / its time "
          "on the quiet reference box); it divides the end-to-end timings"
          % record["host_slowdown"])
    print("%d rounds; measured seconds per stage and round: %s" % (
        record["rounds"], "  ".join(
            "%s=%s" % (stage, "/".join("%.2f" % s for s in samples))
            for stage, samples in record["stage_samples_s"].items())))
    for name, metric in record["metrics"].items():
        print("%-32s %14.4f %s" % (name, metric["value"], metric["unit"]))
    for note in record["notes"]:
        print("FAILED: %s" % note)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def save(path, record):
    records = []
    if os.path.exists(path):
        with open(path) as handle:
            records = json.load(handle)
    records.append(record)
    with open(path, "w") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")


def repeat(args):
    """``--repeat N``: each run in a fresh process (clean RSS, caches)."""
    status = 0
    for i in range(args.repeat):
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload,
                   "--seed", str(args.seed + i if args.vary_seed
                                 else args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        if args.out:
            command += ["--out", args.out]
        status = subprocess.run(command).returncode or status
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.repeat > 1:
        return repeat(args)
    adopt_orphans()
    try:
        record = run_once(args)
        report(record)
        if args.out:
            save(args.out, record)
    finally:
        reap_children()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
