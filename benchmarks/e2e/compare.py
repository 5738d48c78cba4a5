"""Repeatability report over result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py first.json            # spread
    python3 benchmarks/e2e/compare.py first.json second.json  # + regression

Per metric x workload: median and quartiles of each set, the spread
(interquartile distance / median — what the bound must absorb), and,
with two files, whether the second set's median is within the metric's
``BENCHMARK.json`` bound of the first's.  Exits 1 when any spread or
regression exceeds its bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load(path):
    """``{(workload, metric): [values]}`` from one result file."""
    with open(path) as handle:
        records = json.load(handle)
    values = {}
    for record in records:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"])
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worse_by(first_median, second_median, better):
    """How much worse the second median is, as a share of the first."""
    if not first_median:
        return 0.0
    change = (second_median - first_median) / abs(first_median)
    return change if better == "lower" else -change


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["per_layer"]}
    first = load(argv[0])
    second = load(argv[1]) if len(argv) == 2 else {}
    failures = 0
    print("%-20s %-28s %3s %12s %12s %12s %7s %6s%s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound",
        "   second median  worse by" if second else ""))
    for (workload, name), values in sorted(first.items()):
        q1, median, q3 = quartiles(values)
        bound, direction = bounds.get(name, (None, better.get(name, "lower")))
        line = "%-20s %-28s %3d %12.4f %12.4f %12.4f %6.1f%% %6s" % (
            workload, name, len(values), q1, median, q3,
            100.0 * spread(values),
            "%.0f%%" % (100.0 * bound) if bound is not None else "-")
        flag = ""
        if bound is not None and name != "setup_s" and spread(values) > bound:
            flag = "  SPREAD > BOUND"
        other = second.get((workload, name))
        if other:
            other_median = quartiles(other)[1]
            worse = worse_by(median, other_median, direction)
            line += " %15.4f  %+7.1f%%" % (other_median, 100.0 * worse)
            if bound is not None and worse > bound:
                flag += "  REGRESSION"
        if flag:
            failures += 1
        print(line + flag)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
