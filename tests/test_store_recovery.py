"""Crash-safety and corruption-recovery tests for the CubeStore.

Covers the manifest integrity surface: per-leaf checksums, the
``append(); compact()`` whose one manifest replace is the commit (WAL
replay before it, stale-record pruning after it, on reopen), orphan
sweeping, and salvage of damaged leaves from the covering root leaf.
Every crash is a cut from tests/crashes.py, among them the sweep over
every write boundary (tests/smoke_chaos.py act 2 runs it with real
SIGKILLs).
"""

import json
import os

import pytest
from crashes import Cut, sweep

from repro.backends import resolve_backend
from repro.core.naive import naive_cuboid
from repro.data import zipf_relation
from repro.errors import PlanError, SchemaError, StoreCorruptError
from repro.mr import MIN_MEMORY_BUDGET
from repro.serve import CubeStore
from repro.serve.store import JOURNAL, MANIFEST


@pytest.fixture
def store_dir(small_skewed, tmp_path):
    directory = str(tmp_path / "store")
    store = CubeStore.build(small_skewed, directory)
    store.close()
    return directory


def _oracle(directory, cuboid, minsup=1):
    with CubeStore.open(directory, verify="off") as store:
        return store.query(cuboid, minsup=minsup)


def _leaf_path(directory, store, leaf):
    return os.path.join(directory,
                        store.snapshot().entries[leaf]["file"])


class TestVerifyLevels:
    def test_verify_level_validated(self, store_dir):
        with pytest.raises(PlanError):
            CubeStore.open(store_dir, verify="paranoid")

    def test_clean_store_opens_at_every_level(self, store_dir):
        for level in ("off", "quick", "full"):
            with CubeStore.open(store_dir, verify=level) as store:
                assert store.recovery["salvaged"] == []

    def test_manifest_carries_checksums(self, store_dir):
        with open(os.path.join(store_dir, MANIFEST)) as fh:
            manifest = json.load(fh)
        for entry in manifest["leaves"]:
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0


class TestLeafDamage:
    def test_truncated_leaf_salvaged_from_root(self, small_skewed, store_dir):
        with CubeStore.open(store_dir, verify="off") as store:
            victim = next(leaf for leaf in store.leaves
                          if leaf != tuple(store.dims))
            expected = store.query(victim, minsup=2)
            path = _leaf_path(store_dir, store, victim)
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])

        with CubeStore.open(store_dir, verify="quick") as store:
            assert victim in [tuple(s) for s in store.recovery["salvaged"]]
            assert store.query(victim, minsup=2) == expected

    def test_byte_flip_needs_full_verify(self, store_dir):
        with CubeStore.open(store_dir, verify="off") as store:
            victim = next(leaf for leaf in store.leaves
                          if leaf != tuple(store.dims))
            expected = store.query(victim)
            path = _leaf_path(store_dir, store, victim)
        with open(path, "r+b") as fh:
            fh.seek(10)
            byte = fh.read(1)
            fh.seek(10)
            fh.write(bytes([byte[0] ^ 0xFF]))

        # Same size, so the quick check misses it...
        with CubeStore.open(store_dir, verify="quick") as store:
            assert store.recovery["salvaged"] == []
        # ...but the full hash catches and salvages it.
        with CubeStore.open(store_dir, verify="full") as store:
            assert victim in [tuple(s) for s in store.recovery["salvaged"]]
            assert store.query(victim) == expected

    def test_missing_leaf_salvaged(self, store_dir):
        with CubeStore.open(store_dir, verify="off") as store:
            victim = next(leaf for leaf in store.leaves
                          if leaf != tuple(store.dims))
            expected = store.query(victim)
            os.unlink(_leaf_path(store_dir, store, victim))
        with CubeStore.open(store_dir, verify="quick") as store:
            assert store.query(victim) == expected

    def test_salvage_disabled_raises_precisely(self, store_dir):
        with CubeStore.open(store_dir, verify="off") as store:
            victim = next(leaf for leaf in store.leaves
                          if leaf != tuple(store.dims))
            path = _leaf_path(store_dir, store, victim)
        os.truncate(path, 5)
        with pytest.raises(StoreCorruptError) as exc_info:
            CubeStore.open(store_dir, verify="quick", salvage=False)
        assert exc_info.value.leaf == victim
        assert "truncated" in exc_info.value.reason

    def test_damaged_root_leaf_is_fatal(self, store_dir):
        with CubeStore.open(store_dir, verify="off") as store:
            root = tuple(store.dims)
            path = _leaf_path(store_dir, store, root)
        os.truncate(path, 3)
        with pytest.raises(StoreCorruptError) as exc_info:
            CubeStore.open(store_dir, verify="quick")
        assert "rebuild the store" in str(exc_info.value)


class TestOrphanSweep:
    def test_debris_removed_on_open(self, store_dir):
        for name in ("A_B.csv.staged", "leaf.csv.tmp.1234", "stray.csv"):
            with open(os.path.join(store_dir, name), "w") as fh:
                fh.write("debris")
        with CubeStore.open(store_dir, verify="quick") as store:
            removed = set(store.recovery["orphans_removed"])
        assert removed == {"A_B.csv.staged", "leaf.csv.tmp.1234", "stray.csv"}
        for name in removed:
            assert not os.path.exists(os.path.join(store_dir, name))

    def test_verify_off_leaves_debris_alone(self, store_dir):
        path = os.path.join(store_dir, "stray.csv")
        with open(path, "w") as fh:
            fh.write("debris")
        with CubeStore.open(store_dir, verify="off"):
            pass
        assert os.path.exists(path)


class TestJournalledAppend:
    def test_append_then_reopen_at_full_verify(self, small_skewed, tmp_path):
        directory = str(tmp_path / "store")
        first = small_skewed.slice(0, 300)
        delta = small_skewed.slice(300, len(small_skewed))
        CubeStore.build(first, directory).close()
        with CubeStore.open(directory, verify="off") as store:
            store.append(delta)
            assert store.compact() == 1
            assert store.generation == 2
        # Fresh-build oracle over the concatenated relation.
        oracle_dir = str(tmp_path / "oracle")
        CubeStore.build(small_skewed, oracle_dir).close()
        with CubeStore.open(directory, verify="full") as got, \
                CubeStore.open(oracle_dir, verify="full") as want:
            assert got.recovery["wal_replayed"] == 0  # folded, not replayed
            for leaf in want.leaves:
                assert got.query(leaf, minsup=2) == want.query(leaf, minsup=2)

    def _cut_compaction(self, small_skewed, directory, side):
        """``append(); compact()`` cut ``side`` the manifest's replace;
        returns (leaf files as built, the acknowledged WAL record)."""
        first = small_skewed.slice(0, 300)
        delta = small_skewed.slice(300, len(small_skewed))
        CubeStore.build(first, directory).close()
        built = {name for name in os.listdir(directory)
                 if name.endswith(".run")}
        store = CubeStore.open(directory, verify="off")
        store.append(delta)
        wal_path = store.wal.path_for(store.generation)
        with Cut(1, side, op=MANIFEST) as cut:
            store.compact()
        assert cut.fired
        return built, wal_path

    def test_crash_before_the_replace_replays_the_wal(
            self, small_skewed, tmp_path):
        # Every new file is on disk, the manifest still names the old
        # ones: the new files are orphans and the WAL holds the batch.
        directory = str(tmp_path / "store")
        built, wal_path = self._cut_compaction(
            small_skewed, directory, "before")
        new_files = {name for name in os.listdir(directory)
                     if name.endswith(".g2.run")}
        assert len(new_files) == len(built) and os.path.exists(wal_path)

        with CubeStore.open(directory, verify="full") as store:
            assert store.recovery["wal_replayed"] == 1
            assert store.recovery["wal_pruned"] == 0
            assert set(store.recovery["orphans_removed"]) == new_files
            assert store.generation == 2
            assert store.total_rows == len(small_skewed)
            for leaf in store.leaves:
                assert store.query(leaf, minsup=2) == {
                    cell: agg for cell, agg
                    in naive_cuboid(small_skewed, leaf).items()
                    if agg[0] >= 2}
        assert not new_files & set(os.listdir(directory))

    def test_crash_after_the_replace_prunes_the_stale_wal(
            self, small_skewed, tmp_path):
        # The manifest names the new files; the WAL record it made
        # stale and the files it superseded are still there.
        directory = str(tmp_path / "store")
        built, wal_path = self._cut_compaction(
            small_skewed, directory, "after")
        assert built <= set(os.listdir(directory))
        assert os.path.exists(wal_path)

        with CubeStore.open(directory, verify="full") as store:
            # the published manifest already holds the batch: its WAL
            # record is pruned, never applied a second time
            assert store.recovery["wal_pruned"] == 1
            assert store.recovery["wal_replayed"] == 0
            assert set(store.recovery["orphans_removed"]) == built
            assert store.generation == 2
            assert store.total_rows == len(small_skewed)
            for leaf in store.leaves:
                assert store.query(leaf, minsup=1) \
                    == naive_cuboid(small_skewed, leaf)
        assert not built & set(os.listdir(directory))
        assert not os.path.exists(wal_path)

    def test_crash_sweep_always_recovers_the_acked_batch(self):
        # A fresh build, an acknowledged append and the compaction that
        # folds it, each cut at every file operation: every reopen holds
        # exactly the acknowledged rows, on both sides of each commit
        # (asserted inside the sweep).  A publish is one boundary, its
        # rename: the manifest's counts once (DESIGN §6.8).
        report = sweep()
        assert [report[p]["boundaries"] for p in ("build", "append",
                                                  "compact")] == [9, 1, 18]

    def test_crash_during_a_rebuild_leaves_the_old_or_the_new_store(self):
        # A build over a live store writes around its files: every cut
        # reopens as the old store (before the manifest replace) or the
        # new one, never as a mix that fails verification.
        assert sweep(("rebuild",))["rebuild"]["boundaries"] == 17

    def test_leftover_journal_is_refused(self, store_dir):
        # An earlier release's interrupted compaction: refused, and left
        # in place for that release to complete — ignoring it could mix
        # generations.
        with open(os.path.join(store_dir, JOURNAL), "w") as fh:
            fh.write("{not json")
        for level in ("off", "quick", "full"):
            with pytest.raises(SchemaError, match="earlier release"):
                CubeStore.open(store_dir, verify=level)
        assert os.path.exists(os.path.join(store_dir, JOURNAL))
        os.unlink(os.path.join(store_dir, JOURNAL))
        CubeStore.open(store_dir, verify="full").close()


class FileWork:
    """Counts ``os.fsync`` and ``os.replace`` calls from outside, forked
    pool workers' included: each call appends a byte to ``log``.
    ``counts`` is ``(fsyncs, renames)`` once the block exits."""

    OPS = {"fsync": b"f", "replace": b"r"}

    def __init__(self, log):
        self.log, self.counts = str(log), None

    def __enter__(self):
        self._fd = os.open(self.log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC
                           | os.O_APPEND)
        self._real = {op: getattr(os, op) for op in self.OPS}

        def wrap(mark, real):
            def call(*args, **kwargs):
                os.write(self._fd, mark)
                return real(*args, **kwargs)
            return call

        for op, mark in self.OPS.items():
            setattr(os, op, wrap(mark, self._real[op]))
        return self

    def __exit__(self, *exc):
        for op, real in self._real.items():
            setattr(os, op, real)
        os.close(self._fd)
        with open(self.log, "rb") as handle:
            calls = handle.read()
        self.counts = tuple(calls.count(mark) for mark in self.OPS.values())


#: ``(fsyncs, renames)`` per public operation on the crash sweep's
#: relation.  Only the WAL is durable: a record fsyncs itself and
#: ``wal/`` (the first also ``wal/``'s parent, which gained ``wal/``),
#: and a compaction fsyncs ``wal/`` after truncating it.  Leaves, the
#: manifest and shuffle spills are renamed into place unsynced.
FILE_WORK = {
    "build": (0, 9),  # 8 leaves + the manifest
    "first append": (3, 1),
    "later append": (2, 1),
    "compact": (1, 9),
    "mapreduce build": (0, 11),  # 2 spill runs + 8 leaves + the manifest
}


def test_fsyncs_and_renames_per_operation(tmp_path):
    whole = zipf_relation(400, [8, 5, 6, 3], skew=1.0, seed=7)
    directory, work, spills = str(tmp_path / "store"), {}, []

    def count(name, operation):
        with FileWork(tmp_path / "calls") as counter:
            operation()
        work[name] = counter.counts

    def mapreduce_build():
        (store,) = resolve_backend("mapreduce").materialize(
            whole, str(tmp_path / "mr"), workers=2,
            memory_budget=MIN_MEMORY_BUDGET)
        spills.append(store.mr_stats.spills)
        store.close()

    count("build", lambda: CubeStore.build(whole.slice(0, 300),
                                           directory).close())
    with CubeStore.open(directory, compact_after=None) as store:
        count("first append", lambda: store.append(whole.slice(300, 350)))
        count("later append", lambda: store.append(whole.slice(350, 400)))
        count("compact", store.compact)
    count("mapreduce build", mapreduce_build)
    assert work == FILE_WORK and spills[0] > 0
