"""Per-query serving telemetry: latency and answer-source counts.

Every query a :class:`~repro.serve.server.CubeServer` answers is
recorded once — where the answer came from (``cache`` or ``store``) and
how long it took.  :class:`ServerTelemetry` reads the numbers an
operator actually watches back out: per-source counts, mean and
percentile latencies.

It keeps no ledger of its own.  The three families it registers on a
:class:`~repro.obs.metrics.MetricsRegistry` —
``repro_server_requests_total{source=...}``,
``repro_server_events_total{event=...}`` and the
``repro_server_latency_seconds{source=...}`` histograms — are the only
record, so the JSON ``/stats`` endpoint (:meth:`summary`), the
``/healthz`` ``red`` block (:meth:`red`) and the Prometheus
``/metrics`` exposition are renderings of the same series and can
never disagree.

Thread safety is the registry's: each family takes its own lock, so the
server's worker threads record concurrently while a stats endpoint
reads.
"""

from itertools import accumulate

from .. import obs
from ..obs.metrics import MetricsRegistry
from ..obs.stats import percentile

__all__ = ["ServerTelemetry", "SOURCES", "percentile"]

SOURCES = ("cache", "store")


class ServerTelemetry:
    """The serving view of the ``repro_server_*`` metric families.

    ``registry`` is the metrics registry the series live on; the
    default is the installed :mod:`repro.obs` registry when
    observability is on, else a private one (so ``/metrics`` always has
    something to serve).  Telemetries that share a registry share its
    series: their summaries are the registry's, not each server's.
    """

    def __init__(self, registry=None):
        if registry is None:
            active = obs.current()
            registry = active.registry if active is not None \
                else MetricsRegistry()
        self.registry = registry
        self._requests = registry.counter(
            "repro_server_requests_total",
            "Queries answered, by source (cache/store).",
            ("source",))
        self._events = registry.counter(
            "repro_server_events_total",
            "Degradation events (shed, deadline_exceeded ...).",
            ("event",))
        self._latency = registry.histogram(
            "repro_server_latency_seconds",
            "Query latency by answer source.",
            ("source",))

    def bump(self, event, n=1):
        """Count one degradation event (``shed``, ``deadline_exceeded``
        ...) — free-form names, surfaced in :meth:`summary` under
        ``events`` and on the registry as
        ``repro_server_events_total{event=...}``."""
        self._events.inc(n, event=event)

    def event_counts(self):
        """A snapshot of the degradation-event counters.

        Read straight off the metrics registry — this *is* the
        ``/metrics`` number.
        """
        return {key[0]: int(value)
                for key, value in self._events.series().items()}

    def record(self, source, latency_s):
        """Record one answered query (``latency_s`` in wall-clock
        seconds)."""
        if source not in SOURCES:
            raise ValueError("unknown answer source %r" % (source,))
        self._requests.inc(source=source)
        self._latency.observe(latency_s, source=source)

    def __len__(self):
        return int(sum(self._requests.series().values()))

    def red(self):
        """Rate, errors and duration: the ``red`` block of ``/healthz``.

        ``requests`` is every answered query, ``errors`` the ``shed`` and
        ``deadline_exceeded`` events, and ``buckets`` the latency
        histogram summed over sources, cumulative, as
        ``[[le, count], ..., ["+Inf", count]]`` — the shape
        :func:`~repro.obs.metrics.merge_histogram_buckets` takes, so a
        router's health sweep merges its replicas into one shard-level
        distribution.
        """
        events = self.event_counts()
        errors = events.get("shed", 0) + events.get("deadline_exceeded", 0)
        per_bound = [0] * len(self._latency.buckets)
        total = 0
        for series in self._latency.series().values():
            per_bound = [a + b for a, b in zip(per_bound, series["buckets"])]
            total += series["count"]
        buckets = [[bound, cumulative] for bound, cumulative
                   in zip(self._latency.buckets, accumulate(per_bound))]
        return {"requests": len(self), "errors": errors,
                "buckets": buckets + [["+Inf", total]]}

    def summary(self):
        """Aggregate stats: counts per source, mean and p50/p95/p99.

        Latency figures are in milliseconds, rounded for display; counts
        and means cover every query ever recorded, percentiles the
        histogram's retained window (the latest
        :data:`~repro.obs.metrics.HISTOGRAM_SAMPLE_WINDOW` answers per
        source).
        """
        out = {"queries": len(self), "by_source": {}}
        for source in SOURCES:
            stats = self._latency.summary(source=source)
            out["by_source"][source] = {
                "count": stats["count"],
                "mean_ms": round(1000.0 * stats["mean"], 3),
                "p50_ms": round(1000.0 * stats["p50"], 3),
                "p95_ms": round(1000.0 * stats["p95"], 3),
                "p99_ms": round(1000.0 * stats["p99"], 3),
            }
        overall = sorted(self._latency.samples())
        out["p50_ms"] = round(1000.0 * percentile(overall, 50), 3)
        out["p95_ms"] = round(1000.0 * percentile(overall, 95), 3)
        out["p99_ms"] = round(1000.0 * percentile(overall, 99), 3)
        out["events"] = self.event_counts()
        return out
