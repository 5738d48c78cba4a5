"""Building blocks for graceful degradation under load.

Serving-grade OLAP needs explicit admission and latency control — a
query front-end that queues unboundedly turns one slow dependency into
a site-wide stall.  Two small, thread-safe primitives give
:class:`~repro.serve.server.CubeServer` its degradation ladder, a third
guards each replica behind :class:`~repro.serve.cluster.CubeRouter`:

* :class:`Deadline` — one query's wall-clock budget, created at
  *admission* (queue time counts) and checked at every stage boundary;
* :class:`AdmissionGate` — a bounded in-flight counter that sheds the
  excess with a fast :class:`~repro.errors.ServerOverloadedError`
  instead of queueing it;
* :class:`CircuitBreaker` — the router's per-replica guard: repeated
  failures trip it open (the replica leaves rotation, its siblings keep
  answering), a cool-down admits half-open probes, and a probe's
  success closes it again.

Every class takes an injectable monotonic ``clock`` so tests can drive
state transitions without sleeping.

With :func:`repro.obs.install` active, degradation turns visible on the
trace timeline: every shed admission and every circuit-breaker state
transition is recorded as an instant event.
"""

import random
import threading
import time

from .. import obs
from ..errors import DeadlineExceededError, PlanError, ServerOverloadedError

__all__ = ["Deadline", "AdmissionGate", "CircuitBreaker", "RetryPolicy"]


class RetryPolicy:
    """Capped full-jitter exponential backoff for idempotent retries.

    ``attempts`` is the *total* number of tries.  The delay before retry
    ``k`` (0-based) is drawn uniformly from ``[0, min(cap_s, base_s *
    2**k)]`` — AWS-style full jitter, which decorrelates a thundering
    herd of retriers better than truncated or equal jitter.  ``rng`` and
    ``sleep`` are injectable so tests can drive the schedule without
    wall-clock time.

    The policy itself is stateless and thread-safe; it only computes
    delays and sleeps.  Callers that need per-attempt bookkeeping (e.g.
    the router's circuit breakers) loop over ``range(attempts)`` and
    call :meth:`backoff_s` / :meth:`pause` themselves.
    """

    def __init__(self, attempts=3, base_s=0.05, cap_s=1.0,
                 rng=None, sleep=time.sleep):
        if attempts < 1:
            raise PlanError("retry attempts must be >= 1, got %r" % (attempts,))
        if base_s < 0 or cap_s < 0:
            raise PlanError(
                "retry backoff must be >= 0 seconds, got base=%r cap=%r"
                % (base_s, cap_s))
        self.attempts = int(attempts)
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep

    def backoff_s(self, attempt):
        """The jittered delay before retrying after try ``attempt``."""
        ceiling = min(self.cap_s, self.base_s * (2 ** attempt))
        return self._rng.uniform(0.0, ceiling)

    def pause(self, attempt, deadline=None):
        """Sleep the backoff for ``attempt``; False if ``deadline`` can't
        absorb the delay (the caller should stop retrying)."""
        delay = self.backoff_s(attempt)
        if deadline is not None and deadline.remaining() <= delay:
            return False
        if delay > 0:
            self._sleep(delay)
        return True

    def __repr__(self):
        return "RetryPolicy(attempts=%d, base=%.3fs, cap=%.3fs)" % (
            self.attempts, self.base_s, self.cap_s)


class Deadline:
    """A wall-clock budget carried through one query's stages.

    Created when the query is *admitted*, so time spent waiting in the
    worker queue counts against the budget — a query that aged out while
    queued fails fast instead of doing dead work.
    """

    __slots__ = ("seconds", "_clock", "_start", "_expires")

    def __init__(self, seconds, clock=time.monotonic):
        seconds = float(seconds)
        # not ``seconds <= 0``: NaN passes that and then never expires
        if not 0 < seconds < float("inf"):
            raise PlanError("deadline must be a finite number of seconds "
                            "> 0, got %r" % (seconds,))
        self.seconds = seconds
        self._clock = clock
        self._start = clock()
        self._expires = self._start + seconds

    def elapsed(self):
        """Seconds since the deadline was created."""
        return self._clock() - self._start

    def remaining(self):
        """Seconds left in the budget (negative once blown)."""
        return self._expires - self._clock()

    def expired(self):
        return self.remaining() <= 0.0

    def check(self, stage=""):
        """Raise :class:`~repro.errors.DeadlineExceededError` if blown."""
        if self.expired():
            raise DeadlineExceededError(
                self.seconds, elapsed_s=self.elapsed(), stage=stage
            )

    def __repr__(self):
        return "Deadline(%.3fs, %.3fs remaining)" % (self.seconds, self.remaining())


class AdmissionGate:
    """Bounded admission: at most ``limit`` queries in flight or queued.

    ``acquire`` either admits (and counts) the caller or sheds it with a
    fast :class:`~repro.errors.ServerOverloadedError` — O(1), no
    waiting, so an overloaded server answers "try later" in
    microseconds instead of stacking work it will never finish.
    """

    def __init__(self, limit):
        if limit < 1:
            raise PlanError("admission limit must be >= 1, got %r" % (limit,))
        self.limit = int(limit)
        self._lock = threading.Lock()
        self.pending = 0
        self.admitted = 0
        self.shed = 0

    def acquire(self, reason="admission queue full"):
        with self._lock:
            if self.pending >= self.limit:
                self.shed += 1
                pending = self.pending
                obs.event("admission.shed", pending=pending,
                          limit=self.limit)
                raise ServerOverloadedError(
                    reason, pending=pending, limit=self.limit
                )
            self.pending += 1
            self.admitted += 1

    def release(self):
        with self._lock:
            if self.pending > 0:
                self.pending -= 1

    def stats(self):
        with self._lock:
            return {
                "limit": self.limit,
                "pending": self.pending,
                "admitted": self.admitted,
                "shed": self.shed,
            }

    def __repr__(self):
        return "AdmissionGate(%d/%d pending, %d shed)" % (
            self.pending, self.limit, self.shed)


class CircuitBreaker:
    """A three-state circuit breaker around an unreliable dependency.

    ``closed`` (normal): calls flow; ``failure_threshold`` *consecutive*
    failures trip it ``open``.  ``open``: :meth:`allow` answers False
    instantly for ``reset_after_s`` seconds.  Then ``half_open``: up to
    ``half_open_probes`` concurrent trial calls are admitted — a
    success closes the breaker, a failure re-opens it for another
    cool-down.

    Thread-safe; callers pair every allowed call with exactly one
    :meth:`record_success` or :meth:`record_failure`.
    """

    STATES = ("closed", "open", "half_open")

    def __init__(self, failure_threshold=5, reset_after_s=5.0,
                 half_open_probes=1, clock=time.monotonic):
        if failure_threshold < 1:
            raise PlanError(
                "failure_threshold must be >= 1, got %r" % (failure_threshold,))
        if reset_after_s <= 0:
            raise PlanError(
                "reset_after_s must be > 0, got %r" % (reset_after_s,))
        if half_open_probes < 1:
            raise PlanError(
                "half_open_probes must be >= 1, got %r" % (half_open_probes,))
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = None
        self._probes_in_flight = 0
        #: times the breaker transitioned closed/half_open -> open
        self.trips = 0
        #: calls fast-failed while open (or out of probe slots)
        self.rejections = 0

    # -- internal ------------------------------------------------------
    def _tick_locked(self):
        """open -> half_open once the cool-down has elapsed."""
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.reset_after_s):
            self._state = "half_open"
            self._probes_in_flight = 0
            obs.event("breaker.half_open")

    def _trip_locked(self):
        self._state = "open"
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self.trips += 1
        obs.event("breaker.open", trips=self.trips)

    # -- public --------------------------------------------------------
    @property
    def state(self):
        with self._lock:
            self._tick_locked()
            return self._state

    def allow(self):
        """Whether a call may proceed right now (counts probe slots)."""
        with self._lock:
            self._tick_locked()
            if self._state == "closed":
                return True
            if (self._state == "half_open"
                    and self._probes_in_flight < self.half_open_probes):
                self._probes_in_flight += 1
                return True
            self.rejections += 1
            return False

    def record_success(self):
        with self._lock:
            self._tick_locked()
            if self._state != "closed":
                obs.event("breaker.closed")
            self._state = "closed"
            self._consecutive_failures = 0
            self._probes_in_flight = 0

    def record_failure(self):
        with self._lock:
            self._tick_locked()
            if self._state == "half_open":
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (self._state == "closed"
                    and self._consecutive_failures >= self.failure_threshold):
                self._trip_locked()

    def stats(self):
        with self._lock:
            self._tick_locked()
            return {
                "state": self._state,
                "failure_threshold": self.failure_threshold,
                "consecutive_failures": self._consecutive_failures,
                "trips": self.trips,
                "rejections": self.rejections,
            }

    def __repr__(self):
        return "CircuitBreaker(%s, trips=%d)" % (self.state, self.trips)
