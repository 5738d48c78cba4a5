"""A thread-safe LRU cache for answered iceberg queries.

Keys are the canonical ``(cuboid, threshold)`` pair — the cuboid in
schema order and the threshold by its HAVING-clause text, so
``CountThreshold(2)`` built twice (or reached via the ``minsup=2``
shorthand) hits the same entry.

Entries carry the *generation* of the snapshot they were computed from
— the server reads cells and generation from one immutable
``store.snapshot()``, so the label is always the cells' own.
``CubeStore.append`` publishes the next generation, so after an
incremental insert every cached answer is stale; a stale entry is
dropped on access (and counted) instead of being served, and
:meth:`QueryCache.put` never lets a late writer's older answer replace
a fresher one (counted as ``stale_rejections``).

Counters (hits / misses / evictions / invalidations) feed the server's
stats endpoint; the acceptance workloads assert on the hit rate.
"""

import threading
from collections import OrderedDict

from ..core.thresholds import as_threshold
from ..errors import PlanError


def cache_key(cuboid, threshold):
    """The canonical cache key for a query.

    ``cuboid`` must already be canonical (schema order); thresholds are
    keyed by their describe() text, which states the condition fully.
    """
    return (tuple(cuboid), as_threshold(threshold).describe())


class QueryCache:
    """LRU map from :func:`cache_key` to a cached answer.

    ``capacity`` 0 disables caching (every lookup is a miss, nothing is
    stored) — the bench suite uses that to isolate store-scan latency.
    """

    def __init__(self, capacity=256):
        if capacity < 0:
            raise PlanError("cache capacity must be >= 0, got %r" % (capacity,))
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (generation, value)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_rejections = 0

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def get(self, cuboid, threshold, generation):
        """The cached answer, or ``None`` on a miss or stale entry."""
        key = cache_key(cuboid, threshold)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry_generation, value = entry
            if entry_generation != generation:
                if entry_generation < generation:
                    # Written before the last insert: invalid, drop it.
                    # (A fresher one stays for the readers it is for;
                    # this reader pinned an older snapshot.)
                    del self._entries[key]
                    self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, cuboid, threshold, generation, value):
        """Cache an answer computed at ``generation``; evicts LRU-first.

        Never overwrites a fresher entry: a reader that pinned an older
        snapshot and finishes late keeps its answer to itself (counted
        as a stale rejection).
        """
        if self.capacity == 0:
            return
        key = cache_key(cuboid, threshold)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] > generation:
                # A fresher answer is already cached; keep it.
                self.stale_rejections += 1
                return
            self._entries[key] = (generation, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def stats(self):
        """Counters plus the derived hit rate."""
        with self._lock:
            hits, misses = self.hits, self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "stale_rejections": self.stale_rejections,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            }
