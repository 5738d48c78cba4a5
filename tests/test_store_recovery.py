"""Crash-safety and corruption-recovery tests for the CubeStore.

Covers the manifest-v2 integrity surface: per-leaf checksums, the
journalled two-phase ``append(); compact()`` (roll-forward / roll-back
on reopen), orphan sweeping, and salvage of damaged leaves from the
covering root leaf.  The every-crash-point sweep is the one
tests/smoke_chaos.py runs as act 2.
"""

import json
import os

import pytest

from repro.data import zipf_relation
from repro.errors import PlanError, StoreCorruptError
from repro.serve import CubeStore
from repro.serve.store import JOURNAL, JOURNAL_FORMAT, MANIFEST, STAGED_SUFFIX


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
    return os.path.join(directory, store._entries[leaf]["file"])


class TestVerifyLevels:
    def test_verify_level_validated(self, store_dir):
        with pytest.raises(PlanError):
            CubeStore.open(store_dir, verify="paranoid")

    def test_clean_store_opens_at_every_level(self, store_dir):
        for level in ("off", "quick", "full"):
            with CubeStore.open(store_dir, verify=level) as store:
                assert store.recovery["salvaged"] == []
                assert not store.recovery["rolled_forward"]

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
            assert not got.recovery["rolled_forward"]
            assert got.recovery["wal_replayed"] == 0  # folded, not replayed
            for leaf in want.leaves:
                assert got.query(leaf, minsup=2) == want.query(leaf, minsup=2)

    def test_crash_before_journal_rolls_back(self, small_skewed, store_dir):
        # Simulate a crash mid-stage: staged files exist, no journal yet.
        with CubeStore.open(store_dir, verify="off") as store:
            old_generation = store.generation
            leaf = store.leaves[0]
            expected = store.query(leaf, minsup=2)
            path = _leaf_path(store_dir, store, leaf)
        with open(path + STAGED_SUFFIX, "w") as fh:
            fh.write("half-written next generation")

        with CubeStore.open(store_dir, verify="quick") as store:
            assert store.generation == old_generation
            assert not store.recovery["rolled_forward"]
            assert path.rsplit(os.sep, 1)[-1] + STAGED_SUFFIX \
                in store.recovery["orphans_removed"]
            assert store.query(leaf, minsup=2) == expected
        assert not os.path.exists(path + STAGED_SUFFIX)

    def test_crash_after_journal_rolls_forward(self, small_skewed, tmp_path):
        # Run a real append(); compact(), then reconstruct the moment just
        # after the journal hit disk: staged files present, old manifest,
        # journal, and the WAL record not yet pruned.
        directory = str(tmp_path / "store")
        first = small_skewed.slice(0, 300)
        delta = small_skewed.slice(300, len(small_skewed))
        CubeStore.build(first, directory).close()

        with open(os.path.join(directory, MANIFEST)) as fh:
            old_manifest_text = fh.read()
        snapshot = {}
        with CubeStore.open(directory, verify="off") as store:
            for leaf in store.leaves:
                path = _leaf_path(directory, store, leaf)
                with open(path, "rb") as fh:
                    snapshot[path] = fh.read()
            store.append(delta)
            wal_path = store.wal.path_for(store.generation)
            with open(wal_path, "rb") as fh:
                wal_record = fh.read()
            store.compact()
            new_answers = {leaf: store.query(leaf, minsup=2)
                           for leaf in store.leaves}
        with open(os.path.join(directory, MANIFEST)) as fh:
            new_manifest = json.load(fh)
        with open(wal_path, "wb") as fh:
            fh.write(wal_record)

        # Rewind: new leaf bytes back to .staged, old bytes + manifest
        # restored, journal in place — exactly the post-commit crash.
        for path, old_bytes in snapshot.items():
            with open(path, "rb") as fh:
                new_bytes = fh.read()
            with open(path + STAGED_SUFFIX, "wb") as fh:
                fh.write(new_bytes)
            with open(path, "wb") as fh:
                fh.write(old_bytes)
        with open(os.path.join(directory, MANIFEST), "w") as fh:
            fh.write(old_manifest_text)
        with open(os.path.join(directory, JOURNAL), "w") as fh:
            json.dump({"format": JOURNAL_FORMAT,
                       "generation": new_manifest["generation"],
                       "manifest": new_manifest}, fh)

        with CubeStore.open(directory, verify="full") as store:
            assert store.recovery["rolled_forward"]
            # the journalled manifest already holds the batch: its WAL
            # record is stale and pruned, never applied a second time
            assert store.recovery["wal_pruned"] == 1
            assert store.recovery["wal_replayed"] == 0
            assert store.generation == new_manifest["generation"] == 2
            assert store.total_rows == len(small_skewed)
            for leaf, answer in new_answers.items():
                assert store.query(leaf, minsup=2) == answer
        assert not os.path.exists(os.path.join(directory, JOURNAL))
        assert not os.path.exists(wal_path)

    def test_crash_sweep_always_recovers_the_acked_batch(self):
        # An acknowledged append survives a compact() cut at every file
        # operation: generation 2 each time, by WAL replay before the
        # journal and roll-forward after it (asserted inside the sweep).
        from smoke_chaos import act_two_append_crash_sweep

        outcomes = act_two_append_crash_sweep()
        assert outcomes["replayed"] and outcomes["rolled_forward"]

    def test_garbage_journal_ignored(self, store_dir):
        with open(os.path.join(store_dir, JOURNAL), "w") as fh:
            fh.write("{not json")
        with CubeStore.open(store_dir, verify="quick") as store:
            assert not store.recovery["rolled_forward"]
        assert not os.path.exists(os.path.join(store_dir, JOURNAL))
