"""Building blocks for graceful degradation under load.

Serving-grade OLAP needs explicit admission and latency control — a
query front-end that queues unboundedly turns one slow dependency into
a site-wide stall.  Two small, thread-safe primitives give
:class:`~repro.serve.server.CubeServer` its degradation ladder, and a
third paces the retries of :class:`~repro.serve.cluster.CubeRouter`'s
append deliveries:

* :class:`Deadline` — one query's wall-clock budget, created at
  *admission* (queue time counts) and checked at every stage boundary;
* :class:`AdmissionGate` — a bounded in-flight counter that sheds the
  excess with a fast :class:`~repro.errors.ServerOverloadedError`
  instead of queueing it;
* :class:`RetryPolicy` — capped full-jitter backoff between retries.

:class:`Deadline` takes an injectable monotonic ``clock`` and
:class:`RetryPolicy` an injectable ``rng`` and ``sleep``, so tests can
drive them without sleeping.

With :func:`repro.obs.install` active, degradation turns visible on the
trace timeline: every shed admission is recorded as an instant event.
"""

import random
import threading
import time

from .. import obs
from ..errors import DeadlineExceededError, PlanError, ServerOverloadedError

__all__ = ["Deadline", "AdmissionGate", "RetryPolicy"]


class RetryPolicy:
    """Capped full-jitter exponential backoff for idempotent retries.

    ``attempts`` is the *total* number of tries.  The delay before retry
    ``k`` (0-based) is drawn uniformly from ``[0, min(cap_s, base_s *
    2**k)]`` — AWS-style full jitter, which decorrelates a thundering
    herd of retriers better than truncated or equal jitter.  ``rng`` and
    ``sleep`` are injectable so tests can drive the schedule without
    wall-clock time.

    The policy itself is stateless and thread-safe; it only computes
    delays and sleeps.  Callers that need per-attempt bookkeeping (the
    router marks a replica down on each failed try) loop over
    ``range(attempts)`` and call :meth:`backoff_s` / :meth:`pause`
    themselves.
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
