"""Unified observability: metrics registry + tracing, one install switch.

The thesis evaluates everything by *measurement* — per-processor load,
phase timings, scalability curves — and so does this reproduction's
operational story.  This package is the single substrate all of it
reports through:

* :class:`~repro.obs.metrics.MetricsRegistry` — thread-safe counters,
  gauges and log-bucket histograms, exported as JSON or Prometheus text
  exposition (``CubeServer`` serves it at ``GET /metrics``);
* :class:`~repro.obs.trace.Tracer` — nestable spans and events in a
  bounded buffer, exported as Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto;
* instrumentation hooks through the hot paths: the cluster simulator
  (one span per task per node, on the *simulated* clock, with
  ``OpStats`` attributes), the real local backend (per-batch spans,
  supervisor respawn/retry events), ``BucEngine`` (per-cuboid spans),
  and the serve stack (request spans, store append/salvage spans,
  admission sheds, router failovers).

**Off by default, near-zero overhead.**  Nothing records until
:func:`install` is called; uninstrumented hot paths pay one module
-global ``None`` check.  Simulated figures are bit-identical either
way — instrumentation only *reads* the ledgers it annotates.

Deterministic capture for tests and benches::

    with repro.obs.installed() as obs:
        run_workload()
        obs.tracer.export_chrome("trace.json")
        text = obs.registry.to_prometheus()

The CLI wires the same switch as ``--trace-out FILE`` / ``--metrics``
on ``cube``, ``store build`` and ``serve``.
"""

from contextlib import contextmanager, nullcontext

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      merge_histogram_buckets, quantile_from_buckets)
from .stats import percentile
from .trace import (Span, SpanContext, Tracer, format_traceparent,
                    merge_chrome_traces, parse_traceparent)

__all__ = [
    "Observability",
    "install",
    "uninstall",
    "installed",
    "current",
    "span",
    "event",
    "context",
    "inject",
    "extract",
    "activate",
    "trace_id",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "SpanContext",
    "percentile",
    "format_traceparent",
    "parse_traceparent",
    "merge_chrome_traces",
    "merge_histogram_buckets",
    "quantile_from_buckets",
]


class Observability:
    """One registry + one tracer, installed together."""

    __slots__ = ("registry", "tracer")

    def __init__(self, registry=None, tracer=None, max_spans=20_000):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(max_spans)
        # Ring-buffer evictions were silent; surface them as a counter
        # so a scrape shows when a trace export is incomplete.
        self.tracer.on_drop = self.registry.counter(
            "repro_obs_spans_dropped_total",
            "Spans evicted from the tracer ring buffer").inc

    def __repr__(self):
        return "Observability(%d spans, %d metric families)" % (
            len(self.tracer), len(self.registry.families()))


class _NullSpan:
    """The uninstrumented stand-in: absorbs the whole Span surface."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def event(self, name, **attrs):
        return self

    def __bool__(self):
        return False


NULL_SPAN = _NullSpan()

_active = None


def install(registry=None, tracer=None, max_spans=20_000):
    """Switch instrumentation on process-wide; returns the active
    :class:`Observability`.  Idempotent only in the sense that a second
    call replaces the first — callers that need scoping should prefer
    :func:`installed`."""
    global _active
    _active = Observability(registry, tracer, max_spans)
    return _active


def uninstall():
    """Switch instrumentation off (hot paths return to the no-op path)."""
    global _active
    _active = None


def current():
    """The active :class:`Observability`, or ``None`` when off."""
    return _active


@contextmanager
def installed(registry=None, tracer=None, max_spans=20_000):
    """Scoped :func:`install` for tests and benches (always uninstalls,
    restoring whatever was active before)."""
    global _active
    previous = _active
    obs = install(registry, tracer, max_spans)
    try:
        yield obs
    finally:
        _active = previous


def span(name, **attrs):
    """A live span when installed, else the shared no-op span.

    The hot-path idiom — one global read when instrumentation is off::

        with obs.span("buc.cuboid", cuboid=name) as sp:
            ...
            if sp:
                sp.set(cells=n)   # skip attr building entirely when off
    """
    active = _active
    if active is None:
        return NULL_SPAN
    return active.tracer.span(name, **attrs)


def event(name, **attrs):
    """Record an instant event when installed; no-op otherwise."""
    active = _active
    if active is not None:
        active.tracer.event(name, **attrs)


def context():
    """The calling thread's :class:`SpanContext`, or ``None``."""
    active = _active
    if active is None:
        return None
    return active.tracer.current_context()


def inject():
    """The current trace position as a ``traceparent`` header value,
    or ``None`` when uninstalled / no context — callers add the header
    only when one comes back."""
    active = _active
    if active is None:
        return None
    return active.tracer.inject()


def extract(header):
    """Parse a ``traceparent`` header into a :class:`SpanContext`.

    Works even when instrumentation is off (parsing is stateless), so
    handlers can unconditionally extract-then-activate.
    """
    return parse_traceparent(header)


def activate(ctx):
    """Context manager installing ``ctx`` (a :class:`SpanContext`, a
    raw ``traceparent`` string, or ``None``) as the thread's remote
    parent; a no-op when uninstalled or ``ctx`` is ``None``."""
    active = _active
    if active is None or ctx is None:
        return nullcontext()
    return active.tracer.activate(ctx)


def trace_id():
    """The current trace id (32 hex chars), or ``None``."""
    ctx = context()
    return ctx.trace_id if ctx is not None else None
