"""Building blocks for graceful degradation under load.

Serving-grade OLAP needs explicit admission and latency control — a
query front-end that queues unboundedly turns one slow dependency into
a site-wide stall.  Two small, thread-safe primitives give
:class:`~repro.serve.server.CubeServer` its degradation ladder:

* :class:`Deadline` — one query's wall-clock budget, created at
  *admission* (queue time counts) and checked at every stage boundary;
* :class:`AdmissionGate` — a bounded in-flight counter that sheds the
  excess with a fast :class:`~repro.errors.ServerOverloadedError`
  instead of queueing it.

:class:`Deadline` takes an injectable monotonic ``clock``, so tests can
drive it without sleeping.

With :func:`repro.obs.install` active, degradation turns visible on the
trace timeline: every shed admission is recorded as an instant event.
"""

import threading
import time

from .. import obs
from ..errors import DeadlineExceededError, PlanError, ServerOverloadedError

__all__ = ["Deadline", "AdmissionGate"]


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
