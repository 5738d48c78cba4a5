"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one type to handle anything the library signals deliberately.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation or query referenced dimensions inconsistently."""


class EncodingError(ReproError):
    """A value could not be encoded or a code could not be decoded."""


class PlanError(ReproError):
    """An algorithm's planning stage received an impossible configuration."""


class ClusterError(ReproError):
    """The simulated cluster was configured or driven incorrectly."""


class TaskRetryExhausted(ClusterError):
    """A task kept failing after every allowed retry.

    Raised by the fault-tolerant runners when one task's transient
    failures exceed the :class:`~repro.cluster.faults.FaultPlan`'s
    ``max_retries`` budget.
    """

    def __init__(self, label, attempts, message=""):
        detail = message or "task retries exhausted"
        super().__init__(
            "%s: task %r failed %d time(s), exceeding max_retries"
            % (detail, label, attempts)
        )
        self.label = label
        self.attempts = attempts


class ClusterDegradedError(ClusterError):
    """Every processor crashed while work was still outstanding.

    Carries how many tasks were stranded and which processors failed, so
    callers can report how far the degraded run got.
    """

    def __init__(self, pending_tasks, failed_processors, message=""):
        detail = message or "cluster fully degraded"
        super().__init__(
            "%s: %d task(s) stranded after processors %s failed"
            % (detail, pending_tasks, sorted(failed_processors))
        )
        self.pending_tasks = pending_tasks
        self.failed_processors = tuple(failed_processors)


class WorkerCrashError(ReproError):
    """A real worker process kept dying (or hanging) past the retry budget.

    Raised by the supervised local backend
    (:func:`~repro.parallel.local.multiprocess_iceberg_cube`) when one
    task batch fails more than ``max_retries`` times — the worker was
    SIGKILLed, segfaulted, or exceeded the batch timeout on every
    attempt.
    """

    def __init__(self, batch_id, attempts, message=""):
        detail = message or "worker crash retries exhausted"
        super().__init__(
            "%s: batch %r failed %d time(s), exceeding the retry budget"
            % (detail, batch_id, attempts)
        )
        self.batch_id = batch_id
        self.attempts = attempts


class StoreCorruptError(ReproError):
    """A persistent cube store failed integrity verification.

    Raised by :meth:`~repro.serve.store.CubeStore.open` when a leaf file
    is truncated, corrupted or missing and cannot be salvaged.  ``leaf``
    names the offending cuboid (or file) precisely.
    """

    def __init__(self, leaf, reason, directory=""):
        where = " in %r" % (directory,) if directory else ""
        super().__init__(
            "cube store corrupt%s: leaf %s: %s" % (where, leaf, reason)
        )
        self.leaf = leaf
        self.reason = reason
        self.directory = directory


class WalCorruptError(ReproError):
    """A write-ahead-log record failed verification.

    Raised by :mod:`repro.serve.ingest` when a WAL record's checksum,
    magic or structure does not parse — a torn write that survived the
    atomic-rename protocol (e.g. disk corruption) or foreign debris in
    the WAL directory.  ``path`` names the offending record file.
    """

    def __init__(self, path, reason):
        super().__init__("WAL record %s corrupt: %s" % (path, reason))
        self.path = path
        self.reason = reason


class ServerOverloadedError(ReproError):
    """The server shed this query instead of queueing it unboundedly.

    Raised on admission when the pending-query queue is full.  Maps to
    HTTP 429.
    """

    def __init__(self, reason="admission queue full", pending=None, limit=None):
        detail = reason
        if pending is not None and limit is not None:
            detail = "%s (%d pending, limit %d)" % (reason, pending, limit)
        super().__init__("server overloaded: %s" % detail)
        self.reason = reason
        self.pending = pending
        self.limit = limit


class ReplicaError(ReproError):
    """One replica of a sharded serving tier failed to answer.

    Raised by the router's replica client on a connection error, a
    timeout, or a 5xx reply — the failure modes that justify failing
    over to a sibling replica.  4xx replies are *not* wrapped: a bad
    query stays bad on every replica.
    """

    def __init__(self, url, reason, status=None):
        detail = "replica %s failed: %s" % (url, reason)
        if status is not None:
            detail += " (HTTP %d)" % status
        super().__init__(detail)
        self.url = url
        self.reason = reason
        self.status = status


class ShardUnavailableError(ReproError):
    """Every replica of one shard is down: a partial, honest outage.

    The router raises this instead of inventing an answer when a whole
    shard (all its replicas) fails or is breaker-open.  Maps to a
    structured HTTP 503 naming the missing shard — never a wrong or
    silently truncated result.
    """

    def __init__(self, shard, n_replicas, detail=""):
        message = ("shard %d unavailable: all %d replica(s) failed"
                   % (shard, n_replicas))
        if detail:
            message += " (%s)" % detail
        super().__init__(message)
        self.shard = shard
        self.n_replicas = n_replicas


class GenerationSkewError(ReproError):
    """A replica does not hold the store generation a read pinned.

    HTTP 409 from a server (``/cube?at=G`` outside its retained
    snapshots), 503 from a router: retry — it never mixes generations.
    """


class DeadlineExceededError(ReproError):
    """A query (or batch) ran past its deadline.  Maps to HTTP 504."""

    def __init__(self, deadline_s, elapsed_s=None, stage=""):
        detail = "deadline of %.3fs exceeded" % (deadline_s,)
        if elapsed_s is not None:
            detail += " after %.3fs" % (elapsed_s,)
        if stage:
            detail += " during %s" % (stage,)
        super().__init__(detail)
        self.deadline_s = deadline_s
        self.elapsed_s = elapsed_s
        self.stage = stage


class MemoryBudgetExceeded(ReproError):
    """A data structure outgrew its configured memory budget.

    Raised by the Apriori hash-tree cube to reproduce the paper's finding
    that the hash-tree algorithm "used up memory too rapidly that it fails
    to process large data set" (Section 3.5.1).
    """

    def __init__(self, used_bytes, budget_bytes, message=""):
        detail = message or "memory budget exceeded"
        super().__init__(
            "%s: used %d bytes of a %d byte budget" % (detail, used_bytes, budget_bytes)
        )
        self.used_bytes = used_bytes
        self.budget_bytes = budget_bytes
