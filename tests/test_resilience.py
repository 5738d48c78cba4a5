"""Unit tests for the degradation primitives in repro.serve.resilience.

Every class takes an injectable monotonic clock, so these tests drive
open/half-open/closed transitions and deadline expiry deterministically,
without sleeping.
"""

import threading

import pytest

from repro.errors import DeadlineExceededError, PlanError, ServerOverloadedError
from repro.serve.resilience import AdmissionGate, CircuitBreaker, Deadline


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        deadline.check("early")  # no raise
        clock.advance(1.5)
        assert deadline.elapsed() == pytest.approx(1.5)
        assert not deadline.expired()
        clock.advance(0.6)
        assert deadline.expired()
        assert deadline.remaining() < 0

    def test_check_raises_with_stage(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as exc_info:
            deadline.check("store scan")
        message = str(exc_info.value)
        assert "store scan" in message
        assert exc_info.value.deadline_s == pytest.approx(0.5)

    def test_nonpositive_budget_rejected(self):
        # nan passes a bare ``<= 0`` guard and then never expires
        for seconds in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(PlanError):
                Deadline(seconds)


class TestAdmissionGate:
    def test_sheds_past_the_limit(self):
        gate = AdmissionGate(2)
        gate.acquire()
        gate.acquire()
        with pytest.raises(ServerOverloadedError) as exc_info:
            gate.acquire()
        assert exc_info.value.pending == 2
        assert exc_info.value.limit == 2
        stats = gate.stats()
        assert stats == {"limit": 2, "pending": 2, "admitted": 2, "shed": 1}

    def test_release_reopens_admission(self):
        gate = AdmissionGate(1)
        gate.acquire()
        with pytest.raises(ServerOverloadedError):
            gate.acquire()
        gate.release()
        gate.acquire()  # admitted again
        assert gate.stats()["admitted"] == 2

    def test_release_never_goes_negative(self):
        gate = AdmissionGate(1)
        gate.release()
        assert gate.stats()["pending"] == 0

    def test_limit_validated(self):
        with pytest.raises(PlanError):
            AdmissionGate(0)

    def test_thread_safety_under_contention(self):
        gate = AdmissionGate(8)
        sheds = []

        def worker(_):
            for _ in range(200):
                try:
                    gate.acquire()
                except ServerOverloadedError:
                    sheds.append(1)
                else:
                    gate.release()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = gate.stats()
        assert stats["pending"] == 0
        assert stats["admitted"] + stats["shed"] == 8 * 200


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=5.0,
                                 clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"  # not yet
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.rejections == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.state == "half_open"
        assert breaker.allow()       # the single probe slot
        assert not breaker.allow()   # no second concurrent probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_stays_open_during_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(9.9)
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == "half_open"

    def test_parameters_validated(self):
        with pytest.raises(PlanError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(PlanError):
            CircuitBreaker(reset_after_s=0)
        with pytest.raises(PlanError):
            CircuitBreaker(half_open_probes=0)

    def test_stats_snapshot(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=1.0,
                                 clock=clock)
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == "closed"
        assert stats["consecutive_failures"] == 1
        assert stats["trips"] == 0
