"""A dependency-free, thread-safe metrics registry.

Three instrument kinds cover what the reproduction measures:

* :class:`Counter` — monotonically increasing totals (requests served,
  batches retried, cells written);
* :class:`Gauge` — a value that goes both ways (pending queries, store
  generation);
* :class:`Histogram` — distributions over fixed log-scale buckets
  (latencies, batch durations), plus a bounded raw-sample window so
  summaries can quote real nearest-rank percentiles via
  :func:`repro.obs.stats.percentile`.

Every instrument is a *family*: a name plus a fixed tuple of label
names, with one time series per distinct label-value combination — the
Prometheus data model, minus the dependency.  :class:`MetricsRegistry`
holds the families and renders them as JSON (for ``/stats``-style
endpoints) or Prometheus text exposition format 0.0.4 (for a scrapable
``/metrics``).

Everything takes its own lock; recording from server worker threads
while an exporter renders is safe.
"""

import re
import threading
from bisect import bisect_left
from collections import deque

from .stats import percentile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_buckets",
    "merge_histogram_buckets",
    "quantile_from_buckets",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Latest samples retained per histogram series for percentile summaries.
HISTOGRAM_SAMPLE_WINDOW = 1024


def default_buckets(start=1e-6, factor=4.0, count=16):
    """Fixed log-scale bucket upper bounds (seconds by convention).

    The default spans 1 µs to ~18 minutes in x4 steps — wide enough for
    a cache hit and a cold 14-dimension recompute on the same axis.
    """
    bounds = []
    bound = float(start)
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


def _check_name(name):
    if not _NAME_RE.match(name):
        raise ValueError("invalid metric name %r" % (name,))
    return name


def _check_labelnames(labelnames):
    labelnames = tuple(labelnames)
    for label in labelnames:
        if not _LABEL_RE.match(label):
            raise ValueError("invalid label name %r" % (label,))
    return labelnames


def escape_label_value(value):
    """Escape a label value for the text exposition format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r"\"")
    )


def _escape_help(text):
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def format_value(value):
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, float) and value == int(value) \
            and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Family:
    """Shared plumbing: one named instrument with labelled children."""

    kind = "untyped"

    def __init__(self, name, help="", labelnames=()):
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children = {}

    def _key(self, labels):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                "metric %s takes labels %r, got %r"
                % (self.name, self.labelnames, tuple(sorted(labels)))
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _child(self, key):
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._new_child()
        return child

    def series(self):
        """Snapshot of ``{label_values_tuple: child_snapshot}``."""
        with self._lock:
            return {key: self._snap_child(child)
                    for key, child in self._children.items()}

    def _labels_text(self, key, extra=()):
        pairs = ['%s="%s"' % (name, escape_label_value(value))
                 for name, value in zip(self.labelnames, key)]
        pairs.extend('%s="%s"' % (name, escape_label_value(value))
                     for name, value in extra)
        return "{%s}" % ",".join(pairs) if pairs else ""


class Counter(_Family):
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    def _new_child(self):
        return [0.0]

    def _snap_child(self, child):
        return child[0]

    def inc(self, amount=1, **labels):
        if amount < 0:
            raise ValueError("counter %s cannot decrease (inc %r)"
                             % (self.name, amount))
        with self._lock:
            self._child(self._key(labels))[0] += amount

    def value(self, **labels):
        with self._lock:
            child = self._children.get(self._key(labels))
            return child[0] if child is not None else 0.0

    def _render(self, lines):
        with self._lock:
            for key in sorted(self._children):
                lines.append("%s%s %s" % (
                    self.name, self._labels_text(key),
                    format_value(self._children[key][0])))


class Gauge(_Family):
    """A value that can go up and down."""

    kind = "gauge"

    def _new_child(self):
        return [0.0]

    def _snap_child(self, child):
        return child[0]

    def set(self, value, **labels):
        with self._lock:
            self._child(self._key(labels))[0] = float(value)

    def inc(self, amount=1, **labels):
        with self._lock:
            self._child(self._key(labels))[0] += amount

    def dec(self, amount=1, **labels):
        self.inc(-amount, **labels)

    def value(self, **labels):
        with self._lock:
            child = self._children.get(self._key(labels))
            return child[0] if child is not None else 0.0

    _render = Counter._render


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum", "samples")

    def __init__(self, n_buckets):
        self.bucket_counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.samples = deque(maxlen=HISTOGRAM_SAMPLE_WINDOW)


class Histogram(_Family):
    """A distribution over fixed log-scale buckets.

    Buckets are cumulative in the exposition (Prometheus ``le``
    semantics).  The latest :data:`HISTOGRAM_SAMPLE_WINDOW` observations
    per series are retained raw so :meth:`summary` can quote true
    nearest-rank percentiles of recent traffic, not bucket estimates.
    """

    kind = "histogram"

    def __init__(self, name, help="", labelnames=(), buckets=None):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets)) if buckets else default_buckets()
        if not self.buckets:
            raise ValueError("histogram %s needs at least one bucket" % name)

    def _new_child(self):
        return _HistogramSeries(len(self.buckets))

    def _snap_child(self, child):
        return {
            "count": child.count,
            "sum": child.sum,
            "buckets": list(child.bucket_counts),
        }

    def observe(self, value, **labels):
        value = float(value)
        with self._lock:
            series = self._child(self._key(labels))
            series.count += 1
            series.sum += value
            # first bound >= value; past the last one only count/sum move
            i = bisect_left(self.buckets, value)
            if i < len(series.bucket_counts):
                series.bucket_counts[i] += 1
            series.samples.append(value)

    def samples(self):
        """The retained raw observations of every series, unordered."""
        with self._lock:
            return [value for series in self._children.values()
                    for value in series.samples]

    def summary(self, **labels):
        """count / sum / mean / p50 / p95 / p99 over the sample window."""
        with self._lock:
            series = self._children.get(self._key(labels))
            if series is None:
                return {"count": 0, "sum": 0.0, "mean": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            count, total = series.count, series.sum
            ordered = sorted(series.samples)
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "p50": percentile(ordered, 50),
            "p95": percentile(ordered, 95),
            "p99": percentile(ordered, 99),
        }

    def _render(self, lines):
        with self._lock:
            for key in sorted(self._children):
                series = self._children[key]
                cumulative = 0
                for bound, in_bucket in zip(self.buckets,
                                            series.bucket_counts):
                    cumulative += in_bucket
                    lines.append("%s_bucket%s %d" % (
                        self.name,
                        self._labels_text(key, extra=(("le",
                                                       repr(bound)),)),
                        cumulative))
                lines.append("%s_bucket%s %d" % (
                    self.name, self._labels_text(key, extra=(("le", "+Inf"),)),
                    series.count))
                lines.append("%s_sum%s %s" % (
                    self.name, self._labels_text(key),
                    format_value(series.sum)))
                lines.append("%s_count%s %d" % (
                    self.name, self._labels_text(key), series.count))


class MetricsRegistry:
    """Thread-safe collection of metric families with two exporters."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    def _register(self, kind, name, help, labelnames, **kwargs):
        labelnames = _check_labelnames(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        "metric %r already registered as %s%r"
                        % (name, family.kind, family.labelnames))
                return family
            family = self._KINDS[kind](name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name, help="", labelnames=()):
        """Get or create a :class:`Counter` family."""
        return self._register("counter", name, help, labelnames)

    def gauge(self, name, help="", labelnames=()):
        """Get or create a :class:`Gauge` family."""
        return self._register("gauge", name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), buckets=None):
        """Get or create a :class:`Histogram` family."""
        return self._register("histogram", name, help, labelnames,
                              buckets=buckets)

    def get(self, name):
        """The registered family, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def families(self):
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def to_json(self):
        """``{name: {"kind", "help", "labels", "series"}}`` snapshot.

        Series keys are rendered ``label=value`` comma-joined (JSON
        object keys must be strings).
        """
        out = {}
        for family in self.families():
            series = {}
            for key, value in family.series().items():
                text = ",".join("%s=%s" % (name, v) for name, v
                                in zip(family.labelnames, key))
                series[text] = value
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.labelnames),
                "series": series,
            }
        return out

    def to_prometheus(self):
        """The registry in text exposition format 0.0.4."""
        lines = []
        for family in self.families():
            if family.help:
                lines.append("# HELP %s %s"
                             % (family.name, _escape_help(family.help)))
            lines.append("# TYPE %s %s" % (family.name, family.kind))
            family._render(lines)
        return "\n".join(lines) + "\n"


def merge_histogram_buckets(series_list):
    """Sum cumulative bucket series into one.

    Each input is ``[(le_bound, cumulative_count), ...]`` where
    ``le_bound`` is a float or the string ``"+Inf"``.  All repo
    histograms share :func:`default_buckets`, so merging is a per-bound
    sum; bounds present in only some inputs are carried through (their
    cumulative counts still add correctly because counts are
    cumulative in ``le``).  Returns the merged series sorted ascending
    with ``+Inf`` last.
    """
    totals = {}
    for series in series_list:
        for bound, cumulative in series:
            key = float("inf") if bound == "+Inf" else float(bound)
            totals[key] = totals.get(key, 0.0) + float(cumulative)
    return [("+Inf" if bound == float("inf") else bound, totals[bound])
            for bound in sorted(totals)]


def quantile_from_buckets(buckets, q):
    """Nearest-rank quantile estimate from a cumulative bucket series.

    ``buckets`` as produced by :func:`merge_histogram_buckets`;
    ``q`` in ``[0, 1]``.  Returns the upper bound of the bucket holding
    the target rank — a conservative (upper) estimate, which is what a
    RED summary wants.  The ``+Inf`` bucket reports the largest finite
    bound (there is no better point estimate).  Empty series → 0.0.
    """
    if not buckets:
        return 0.0
    ordered = sorted(
        buckets,
        key=lambda item: float("inf") if item[0] == "+Inf"
        else float(item[0]))
    total = ordered[-1][1]
    if total <= 0:
        return 0.0
    rank = q * total
    last_finite = 0.0
    for bound, cumulative in ordered:
        if bound != "+Inf":
            last_finite = float(bound)
        if cumulative >= rank:
            return last_finite if bound == "+Inf" else float(bound)
    return last_finite
