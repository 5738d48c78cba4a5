"""Paired A/B of the end-to-end benchmark between two trees of this repo.

    python3 benchmarks/ab.py PARENT [CHANGE] --workload W [--workload W2]
        [--pairs 10] [--seed 1] [--out ab.json]

``PARENT`` and ``CHANGE`` are git revisions; ``CHANGE`` defaults to the
working tree (tracked and untracked, not ignored files).  Each side is
snapshotted once under one temporary directory (``git archive``, or a
copy of the working tree); every pair then runs in fresh copies of both
snapshots, made parent first in even pairs and change first in odd
ones, and ``benchmarks/e2e/run.py --workload W --seed S --out FILE``
runs in each as a black box, one run at a time.  Pair ``i`` runs both
sides on seed ``--seed + i``, in an order drawn per pair from a
``random.Random(--seed)`` coin and recorded in the JSON (``orders``),
so neither a drift of the host nor an edge of whichever side runs or
was copied first can line up with one side.  Every other setting (run
length, scale) is the benchmark's own default in each tree.

Every run's metrics are reported twice: *normalised* as ``run.py``
records them (timings divided by the run's ``host_slowdown``, rates
multiplied by it) and *raw*, with that division undone — the
calibration probe is itself noisy, and a gain that shows only in one of
the two is not one.  Per metric and workload the report gives:

* the median of the in-pair ratios change / parent, and a bootstrap
  95 % interval of that median (resampling pairs);
* ``wins``: the pairs in which the change is better, and ``gain_rule``:
  whether it won at least nine pairs in ten and the medians differ, in
  its favour, by more than the parent's inter-quartile distance;
* a verdict against the metric's ``BENCHMARK.json`` bound: ``better``
  when the whole interval is better than the parent by more than the
  bound (a factor of ``1 + bound``), ``worse`` when it is worse by more
  than the bound, ``unresolved`` otherwise.  A tree against itself
  reads ``unresolved`` on every metric.

Each run's cube-stage median (``stage_samples_s``) and ``host_slowdown``
are kept beside its metrics.  Everything goes into one JSON (``--out``)
and a table on stdout.
"""

import argparse
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Bootstrap resamples of the pairs per interval.
RESAMPLES = 10_000

#: The two sides of a comparison, in report order.
SIDES = ("parent", "change")


def git(*args, cwd=REPO):
    return subprocess.run(("git",) + args, cwd=cwd, check=True,
                          capture_output=True).stdout


def materialise(revision, directory):
    """Check ``revision`` (``None``: the working tree) out into
    ``directory``; returns a label for the report."""
    os.makedirs(directory)
    if revision is None:
        listed = git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard")
        for name in filter(None, listed.decode().split("\0")):
            source = os.path.join(REPO, name)
            if not os.path.isfile(source):
                continue  # deleted in the working tree
            target = os.path.join(directory, name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
        return "working tree"
    # our own archive; the "data" filter (where there is one) keeps
    # newer Pythons from warning about unfiltered extraction
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(git("archive", revision))) as tar:
        tar.extractall(directory, **safe)
    return git("rev-parse", "--short", revision).decode().strip()


def side_orders(rng, pairs):
    """Which side runs first in each of ``pairs`` pairs: one coin of
    ``rng`` (a ``random.Random``) per pair."""
    return [SIDES if rng.random() < 0.5 else SIDES[::-1]
            for _ in range(pairs)]


def fresh_trees(snapshots, directory, index):
    """Copies of both snapshots under ``directory`` for pair ``index``,
    the parent's made first in even pairs; returns ``{side: tree}``."""
    trees = {}
    for side in SIDES if index % 2 == 0 else SIDES[::-1]:
        trees[side] = os.path.join(directory, side)
        shutil.copytree(snapshots[side], trees[side], symlinks=True)
    return trees


def run_one(tree, workload, seed, scratch):
    """One ``run.py`` in ``tree``; returns its record (``None`` when it
    wrote none) and its exit code."""
    out = os.path.join(scratch, "record.json")
    if os.path.exists(out):
        os.unlink(out)
    command = [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
               "--workload", workload, "--seed", str(seed), "--out", out]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL)
    if not os.path.exists(out):
        return None, done.returncode
    with open(out) as handle:
        return json.load(handle)[-1], done.returncode


def raw_value(value, unit, slowdown):
    """Undo ``run.py``'s host-slowdown normalisation of one metric:
    timings were divided by it, rates multiplied; other units were not
    touched."""
    if not slowdown:
        return value
    if unit in ("s", "ms"):
        return value * slowdown
    if unit.endswith("/s"):
        return value / slowdown
    return value


def bootstrap_median(ratios, seed=0):
    """The median of ``ratios`` and a bootstrap 95 % interval of it."""
    ratios = np.asarray(ratios, dtype=float)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(ratios), size=(RESAMPLES, len(ratios)))
    medians = np.median(ratios[picks], axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return float(np.median(ratios)), float(low), float(high)


def verdict(low, high, better, bound):
    """``better`` / ``worse`` / ``unresolved`` for an interval of the
    ratio change / parent against a factor of ``1 + bound``."""
    if better == "lower":  # express as a gain: > 1 is better
        low, high = 1.0 / high, 1.0 / low
    if low > 1.0 + bound:
        return "better"
    if high < 1.0 / (1.0 + bound):
        return "worse"
    return "unresolved"


def compare(pairs, better, bound):
    """Statistics of one metric over ``[(parent, change), ...]``."""
    usable = [(a, b) for a, b in pairs if a]
    if not usable:
        return {"verdict": "unresolved", "pairs": 0}
    ratios = [b / a for a, b in usable]
    median, low, high = bootstrap_median(ratios)
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in usable)
    parent = [a for a, _b in usable]
    change = [b for _a, b in usable]
    gain = statistics.median(change) - statistics.median(parent)
    if better == "lower":
        gain = -gain
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": _iqr(parent),
        "ratio_median": median,
        "ratio_ci95": [low, high],
        "wins": wins,
        "pairs": len(usable),
        # a gain may be claimed: >= 9/10 of the pairs won and the
        # medians further apart than the parent's quartiles
        "gain_rule": wins >= 0.9 * len(usable) and gain > _iqr(parent),
        "verdict": verdict(low, high, better, bound),
    }


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(runs, declared):
    """Per metric: the normalised and the raw comparison."""
    out = {}
    for metric in declared:
        name = metric["name"]
        sides = {"normalised": [], "raw": []}
        for parent, change in runs:
            if parent is None or change is None:
                continue
            for form in sides:
                sides[form].append(tuple(
                    run["metrics"][name] if form == "normalised"
                    else run["raw_metrics"][name]
                    for run in (parent, change)))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"]}
        for form, pairs in sides.items():
            out[name][form] = compare(pairs, metric["better"],
                                      metric["bound"])
    return out


def condense(record, returncode):
    """What the report keeps of one run."""
    if record is None:
        return None
    slowdown = record["host_slowdown"]
    metrics = {name: m["value"] for name, m in record["metrics"].items()}
    return {
        "exit": returncode,
        "correct": record["correct"],
        "failed": record["failed"],
        "host_slowdown": slowdown,
        "stage_median_s": {stage: statistics.median(samples)
                           for stage, samples
                           in record["stage_samples_s"].items() if samples},
        "metrics": metrics,
        "raw_metrics": {
            name: raw_value(m["value"], m["unit"], slowdown)
            for name, m in record["metrics"].items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default=None)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", metavar="FILE")
    return parser.parse_args(argv)


def report(result):
    print("A/B %s -> %s, %d pairs per workload (ratio = change / parent; "
          "verdict against the BENCHMARK.json bound)"
          % (result["parent"], result["change"], result["pairs"]))
    for workload, entry in result["workloads"].items():
        print("\n%s" % workload)
        for index, (parent, change) in enumerate(entry["runs"]):
            print("  pair %2d seed %-4d %-6s first  %s" % (
                index, entry["seeds"][index], entry["orders"][index][0],
                "  ".join(
                    "%s: slowdown %.3f cube %.3f s" % (
                        side, run["host_slowdown"],
                        run["stage_median_s"].get("cube", 0.0))
                    if run else "%s: no record" % side
                    for side, run in (("parent", parent),
                                      ("change", change)))))
        for name, metric in entry["metrics"].items():
            for form in ("normalised", "raw"):
                stats = metric[form]
                if not stats.get("pairs"):
                    continue
                print("  %-22s %-10s ratio %.3f [%.3f, %.3f]  wins %2d/%-2d"
                      "  %s" % (name, form, stats["ratio_median"],
                                stats["ratio_ci95"][0],
                                stats["ratio_ci95"][1], stats["wins"],
                                stats["pairs"], stats["verdict"]))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    scratch = tempfile.mkdtemp(prefix="repro-ab-")
    try:
        snapshots = {side: os.path.join(scratch, side) for side in SIDES}
        labels = {"parent": materialise(args.parent, snapshots["parent"]),
                  "change": materialise(args.change, snapshots["change"])}
        with open(os.path.join(snapshots["parent"],
                               "BENCHMARK.json")) as handle:
            declared = json.load(handle)["end_to_end"]
        result = {"parent": labels["parent"], "change": labels["change"],
                  "pairs": args.pairs, "workloads": {}}
        rng = random.Random(args.seed)
        failed = 0
        for workload in args.workload:
            runs, seeds = [], []
            orders = side_orders(rng, args.pairs)
            for index, order in enumerate(orders):
                seed = args.seed + index
                pair_dir = os.path.join(scratch, "pair")
                trees = fresh_trees(snapshots, pair_dir, index)
                pair = {}
                for side in order:
                    record, code = run_one(trees[side], workload, seed, scratch)
                    pair[side] = condense(record, code)
                    failed += record is None or code != 0
                    print("%s pair %d seed %d %s: exit %d" % (
                        workload, index, seed, side, code),
                        file=sys.stderr, flush=True)
                shutil.rmtree(pair_dir)
                runs.append((pair["parent"], pair["change"]))
                seeds.append(seed)
            result["workloads"][workload] = {
                "seeds": seeds, "orders": [list(o) for o in orders],
                "runs": runs, "metrics": summarise(runs, declared)}
        report(result)
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle, indent=1, sort_keys=True)
                handle.write("\n")
        return 1 if failed else 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
