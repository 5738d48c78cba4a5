"""Durable exactly-once ingestion: WAL codec, store deltas, router repair."""

import errno
import itertools
import json
import os
import shutil
import stat
import struct
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock
from urllib.request import Request, urlopen

import pytest
from crashes import Cut, run_child
from wire import FAULTS, Wire, build_shards
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.export import MANIFEST, is_debris
from repro.core.naive import naive_cuboid
from repro.data import Relation
from repro import obs
from repro.errors import (
    GenerationSkewError,
    PlanError,
    ShardUnavailableError,
    WalCorruptError,
)
from repro.serve import CubeServer, CubeStore
from repro.serve import store as store_module
from repro.serve.ingest import (
    MAX_COORD,
    MODE_COLUMNS,
    MODE_PACKED,
    WriteAheadLog,
    decode_record,
    encode_record,
)

DIMS = ("A", "B", "C")


def base_relation():
    rows = [(i % 3, (i * 7) % 5, i % 2) for i in range(60)]
    return Relation(DIMS, rows, [float(i % 4 + 1) for i in range(60)])


def delta_relation(seed, n=8):
    rows = [((seed + i) % 3, (seed * 3 + i) % 5, (seed + i) % 2)
            for i in range(n)]
    return Relation(DIMS, rows, [float(seed + i) for i in range(n)])


def combined(*relations):
    rows, measures = [], []
    for relation in relations:
        rows.extend(relation.rows)
        measures.extend(relation.measures)
    return Relation(DIMS, rows, measures)


def oracle(relation, cuboid, minsup=1):
    return {cell: agg for cell, agg in naive_cuboid(relation, cuboid).items()
            if agg[0] >= minsup}


def assert_store_matches(store, relation):
    for cuboid in ((), ("A",), ("A", "B"), DIMS):
        for minsup in (1, 2):
            assert store.query(cuboid, minsup) == oracle(
                relation, cuboid, minsup)


# ---------------------------------------------------------------------------
# WAL record codec
# ---------------------------------------------------------------------------
class TestWalCodec:
    @given(st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 9), st.integers(0, 3)),
        max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_packed(self, rows):
        measures = [float(i) * 0.5 for i in range(len(rows))]
        data = encode_record(7, "batch-7", DIMS, rows, measures)
        mode = struct.unpack_from("<4sHHQI", data)[2]
        assert mode == MODE_PACKED
        record = decode_record(data)
        assert record.generation == 7
        assert record.batch_id == "batch-7"
        assert record.dims == DIMS
        assert [tuple(r) for r in record.rows] == [tuple(r) for r in rows]
        assert record.measures == measures

    @given(st.lists(
        st.tuples(st.integers(0, MAX_COORD), st.integers(0, MAX_COORD),
                  st.integers(0, MAX_COORD)),
        min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_coordinate_width(self, rows):
        """Keys wider than 63 bits fall back to i64 columns, exactly."""
        measures = [1.0] * len(rows)
        data = encode_record(3, "wide", DIMS, rows, measures)
        record = decode_record(data)
        assert [tuple(r) for r in record.rows] == [tuple(r) for r in rows]

    def test_overflow_keys_use_column_mode(self):
        rows = [(MAX_COORD, MAX_COORD, MAX_COORD), (1, 2, 3)]
        data = encode_record(1, "x", DIMS, rows, [1.0, 2.0])
        assert struct.unpack_from("<4sHHQI", data)[2] == MODE_COLUMNS
        assert [tuple(r) for r in decode_record(data).rows] == rows

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_flipped_byte_is_detected(self, data_strategy):
        data = encode_record(5, "b", DIMS, [(1, 2, 1), (0, 4, 0)], [1.0, 2.0])
        index = data_strategy.draw(st.integers(0, len(data) - 1))
        flip = data_strategy.draw(st.integers(1, 255))
        corrupt = bytearray(data)
        corrupt[index] ^= flip
        with pytest.raises(WalCorruptError):
            decode_record(bytes(corrupt))

    def test_truncated_record_is_detected(self):
        data = encode_record(5, "b", DIMS, [(1, 2, 1)], [1.0])
        for cut in (0, 10, len(data) - 1):
            with pytest.raises(WalCorruptError):
                decode_record(data[:cut])

    def test_row_measure_mismatch_rejected(self):
        with pytest.raises(PlanError):
            encode_record(1, "b", DIMS, [(1, 2, 3)], [1.0, 2.0])

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(PlanError):
            encode_record(1, "b", DIMS, [(-1, 0, 0)], [1.0])
        with pytest.raises(PlanError):
            encode_record(1, "b", DIMS, [(MAX_COORD + 1, 0, 0)], [1.0])


# ---------------------------------------------------------------------------
# WriteAheadLog file lifecycle
# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_lifecycle(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        for generation in (2, 3, 4):
            wal.append(generation, "b%d" % generation, DIMS,
                       [(generation, 0, 1)], [float(generation)])
        assert wal.generations() == [2, 3, 4]
        assert len(wal) == 3
        assert wal.nbytes() > 0
        replayed = list(wal.replay())
        assert [r.generation for r in replayed] == [2, 3, 4]
        assert [r.batch_id for r in replayed] == ["b2", "b3", "b4"]
        assert wal.truncate_through(3) == 2
        assert wal.generations() == [4]

    def test_sweep_removes_tmp_debris(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(2, "b", DIMS, [(1, 1, 1)], [1.0])
        debris = os.path.join(wal.directory, "0000000000000009.wal.tmp.123")
        with open(debris, "wb") as handle:
            handle.write(b"torn")
        assert wal.sweep() == [os.path.basename(debris)]
        assert not os.path.exists(debris)
        assert wal.generations() == [2]

    def test_corrupt_record_refused_on_read(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.append(2, "b", DIMS, [(1, 1, 1)], [1.0])
        path = wal.path_for(2)
        with open(path, "r+b") as handle:
            handle.seek(6)
            byte = handle.read(1)
            handle.seek(6)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptError):
            wal.read(2)


# ---------------------------------------------------------------------------
# WAL-enabled CubeStore: visibility, idempotence, compaction
# ---------------------------------------------------------------------------
@pytest.fixture
def wal_store(tmp_path):
    CubeStore.build(base_relation(), tmp_path / "s", backend="local").close()
    store = CubeStore.open(tmp_path / "s", compact_after=10_000)
    yield store
    store.close()


class TestWalStore:
    def test_delta_visible_and_oracle_exact(self, wal_store):
        delta = delta_relation(1)
        result = wal_store.append(delta, batch_id="b1")
        assert result.applied and result.batch_id == "b1"
        assert result.generation == 2
        everything = combined(base_relation(), delta)
        assert_store_matches(wal_store, everything)
        # point queries go through the merged delta view too
        cell = delta.rows[0][:2]
        assert wal_store.point(("A", "B"), cell, 1) == \
            oracle(everything, ("A", "B"), 1).get(tuple(cell))

    def test_duplicate_batch_acknowledged_not_reapplied(self, wal_store):
        delta = delta_relation(2)
        first = wal_store.append(delta, batch_id="dup")
        rows_after = wal_store.total_rows
        again = wal_store.append(delta, batch_id="dup")
        assert not again.applied
        assert again.generation == first.generation
        assert wal_store.total_rows == rows_after
        assert_store_matches(wal_store, combined(base_relation(), delta))

    def test_applied_batch_window_edge(self, tmp_path, wal_store,
                                       monkeypatch):
        # The documented limit: a compaction keeps the newest
        # APPLIED_BATCH_WINDOW ids, so an older duplicate applies again.
        monkeypatch.setattr(store_module, "APPLIED_BATCH_WINDOW", 4)
        for i in range(5):
            wal_store.append(delta_relation(i), batch_id="w%d" % i)
        wal_store.compact()
        wal_store.close()
        with CubeStore.open(tmp_path / "s") as store:
            assert not store.append(delta_relation(1), batch_id="w1").applied
            assert store.append(delta_relation(0), batch_id="w0").applied
            assert store.generation == 7

    def test_failed_append_leaves_no_temp(self, wal_store, monkeypatch):
        # The record's write fails (ENOSPC at its fsync): the append
        # raises, the publish deletes its temp, and the store stays at
        # its generation, so a retry applies the batch.
        real = os.fsync

        def disk_full(fd):
            if stat.S_ISREG(os.fstat(fd).st_mode):
                raise OSError(errno.ENOSPC, "No space left on device")
            real(fd)

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            wal_store.append(delta_relation(1), batch_id="full")
        monkeypatch.undo()
        assert [name for name in os.listdir(wal_store.wal.directory)
                if ".tmp." in name] == []
        assert wal_store.generation == 1 and len(wal_store.wal) == 0
        assert wal_store.append(delta_relation(1), batch_id="full").applied
        assert_store_matches(wal_store,
                             combined(base_relation(), delta_relation(1)))

    def test_replay_after_reopen(self, tmp_path, wal_store):
        d1, d2 = delta_relation(3), delta_relation(4)
        wal_store.append(d1, batch_id="r1")
        wal_store.append(d2, batch_id="r2")
        wal_store.close()
        reopened = CubeStore.open(tmp_path / "s",
                                  compact_after=10_000)
        try:
            assert reopened.recovery["wal_replayed"] == 2
            assert reopened.generation == 3
            assert_store_matches(reopened, combined(base_relation(), d1, d2))
            # idempotence survives the restart: the WAL remembers ids
            assert not reopened.append(d1, batch_id="r1").applied
        finally:
            reopened.close()

    def test_compaction_folds_and_truncates(self, tmp_path, wal_store):
        deltas = [delta_relation(s) for s in (5, 6, 7)]
        for i, delta in enumerate(deltas):
            wal_store.append(delta, batch_id="c%d" % i)
        generation = wal_store.generation
        everything = combined(base_relation(), *deltas)
        assert wal_store.compact() == 3
        assert wal_store.generation == generation  # compaction ≠ new data
        assert len(wal_store.wal) == 0
        assert wal_store.wal_stats()["pending_batches"] == 0
        assert_store_matches(wal_store, everything)
        # compacted batch ids stay deduplicated via the manifest window
        assert not wal_store.append(deltas[0], batch_id="c0").applied
        wal_store.close()
        # and the folded store equals a from-scratch rebuild, cell-exact
        rebuilt_dir = tmp_path / "rebuilt"
        rebuilt = CubeStore.build(everything, rebuilt_dir, backend="local")
        reopened = CubeStore.open(tmp_path / "s")
        try:
            for cuboid in ((), ("A",), ("B", "C"), DIMS):
                assert reopened.query(cuboid, 1) == rebuilt.query(cuboid, 1)
        finally:
            rebuilt.close()
            reopened.close()

    def test_wal_stats_reads_one_state(self, wal_store):
        # compact() swaps its snapshot in and then trims the WAL; a
        # reader in between must not pair the new snapshot with the old
        # WAL size (anti-entropy takes its base from this block).
        wal_store.append(delta_relation(1), batch_id="w")
        entered, release = threading.Event(), threading.Event()
        truncate = wal_store.wal.truncate_through

        def held_truncate(generation):
            entered.set()
            release.wait(30.0)
            return truncate(generation)

        seen = []
        with mock.patch.object(wal_store.wal, "truncate_through",
                               held_truncate):
            compactor = threading.Thread(target=wal_store.compact)
            compactor.start()
            assert entered.wait(10.0)
            reader = threading.Thread(
                target=lambda: seen.append(wal_store.wal_stats()))
            reader.start()
            reader.join(0.5)  # an unlocked read is back by now
            release.set()
            compactor.join(10.0)
            reader.join(10.0)
        assert seen == [wal_store.wal_stats()]
        assert seen[0]["wal_bytes"] == seen[0]["pending_batches"] == 0

    def test_background_compaction_triggers(self, tmp_path):
        CubeStore.build(base_relation(), tmp_path / "bg",
                        backend="local").close()
        store = CubeStore.open(tmp_path / "bg", compact_after=2)
        try:
            store.append(delta_relation(1), batch_id="a")
            store.append(delta_relation(2), batch_id="b")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if store.wal_stats()["pending_batches"] == 0:
                    break
                time.sleep(0.02)
            assert store.wal_stats()["pending_batches"] == 0
            assert_store_matches(store, combined(
                base_relation(), delta_relation(1), delta_relation(2)))
        finally:
            store.close()

    def test_plain_open_replays_pending_wal(self, tmp_path, wal_store):
        delta = delta_relation(8)
        wal_store.append(delta, batch_id="p")
        wal_store.close()
        # ``wal`` is accepted and ignored (benchmarks/e2e still passes it)
        for kwargs in ({}, {"wal": False}, {"wal": True}):
            with CubeStore.open(tmp_path / "s", **kwargs) as reopened:
                assert reopened.recovery["wal_replayed"] == 1
                assert_store_matches(
                    reopened, combined(base_relation(), delta))
                assert not reopened.append(delta, batch_id="p").applied

    def test_read_only_use_creates_no_files(self, tmp_path):
        CubeStore.build(base_relation(), tmp_path / "ro",
                        backend="local").close()

        def listing():
            return sorted(
                os.path.join(root, name)
                for root, dirs, files in os.walk(tmp_path / "ro")
                for name in dirs + files)

        before = listing()
        with CubeStore.open(tmp_path / "ro", verify="full") as store:
            assert_store_matches(store, base_relation())
            assert store.wal_stats()["pending_batches"] == 0
            assert store.wal_stats()["wal_bytes"] == 0
            assert store.compact() == 0
        assert listing() == before
        assert not os.path.exists(tmp_path / "ro" / "wal")

    def test_rebuild_discards_the_replaced_stores_wal(self, tmp_path):
        first = CubeStore.build(base_relation(), tmp_path / "rb",
                                backend="local")
        first.append(delta_relation(1), batch_id="old")
        first.close()
        CubeStore.build(base_relation(), tmp_path / "rb",
                        backend="local").close()
        with CubeStore.open(tmp_path / "rb") as rebuilt:
            assert rebuilt.recovery["wal_replayed"] == 0
            assert rebuilt.generation == 1
            assert_store_matches(rebuilt, base_relation())

    def test_wal_batches_since(self, wal_store):
        d1, d2 = delta_relation(1), delta_relation(2)
        wal_store.append(d1, batch_id="w1")
        wal_store.append(d2, batch_id="w2")
        feed = wal_store.wal_batches_since(wal_store.generation - 2)
        assert feed["base_generation"] == wal_store.generation - 2
        assert [b.batch_id for b in feed["batches"]] == ["w1", "w2"]
        newer = wal_store.wal_batches_since(wal_store.generation - 1)
        assert [b.batch_id for b in newer["batches"]] == ["w2"]
        wal_store.compact()
        folded = wal_store.wal_batches_since(0)
        # what lies below the base was folded away: nothing to re-deliver
        assert folded["base_generation"] == wal_store.generation
        assert folded["batches"] == []

    def test_digest_names_the_batch_set(self, tmp_path, wal_store):
        # XOR of one hash per applied id, folded or pending, kept across
        # compaction and WAL replay; a fresh build's manifest holds none.
        manifest = tmp_path / "s" / "manifest.json"
        assert wal_store.wal_stats()["digest"] == 0
        assert store_module.DIGEST_KEY not in json.loads(manifest.read_text())
        wal_store.append(delta_relation(1), batch_id="X")
        wal_store.compact()
        wal_store.append(delta_relation(2), batch_id="Y")
        wal_store.append(delta_relation(1), batch_id="X")  # a duplicate
        digest = store_module.batch_hash("X") ^ store_module.batch_hash("Y")
        assert wal_store.wal_stats()["digest"] == digest
        wal_store.close()
        reopened = CubeStore.open(tmp_path / "s")
        try:
            assert reopened.wal_stats()["digest"] == digest
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# Compaction is off the append and read paths
# ---------------------------------------------------------------------------
def run_files(directory):
    return {name for name in os.listdir(directory) if name.endswith(".run")}


def manifest_files(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        return {entry["file"] for entry in json.load(handle)["leaves"]}


@contextmanager
def held_compaction():
    """Hold every ``write_leaf`` (a compaction's, off the write lock)
    open until released; yields ``(entered, release)``."""
    entered, release = threading.Event(), threading.Event()
    real_write_leaf = store_module.write_leaf

    def held_write_leaf(*args):
        entered.set()
        release.wait(30.0)
        return real_write_leaf(*args)

    with mock.patch.object(store_module, "write_leaf", held_write_leaf):
        try:
            yield entered, release
        finally:
            release.set()


class TestNobodyWaitsForCompaction:
    def test_reads_and_appends_pass_a_held_compaction(self, tmp_path):
        CubeStore.build(base_relation(), tmp_path / "s",
                        backend="local").close()
        store = CubeStore.open(tmp_path / "s", compact_after=2)
        server = CubeServer(store)
        deltas = [delta_relation(seed) for seed in (1, 2, 3)]
        pending = combined(base_relation(), *deltas[:2])
        pool = ThreadPoolExecutor(max_workers=1)

        def returns(fn, *args):  # a guard against deadlock, not a timing
            return pool.submit(fn, *args).result(timeout=5.0)

        try:
            with held_compaction() as (entered, release):
                store.append(deltas[0], batch_id="a")
                store.append(deltas[1], batch_id="b")  # kicks compaction
                assert entered.wait(10.0)
                assert returns(store.query, ("A",), 1) \
                    == oracle(pending, ("A",), 1)
                answer = returns(server.query, ("A", "B"), 1)
                assert (answer.generation, answer.cells) \
                    == (3, oracle(pending, ("A", "B"), 1))
                assert returns(server.iceberg, 1).generation == 3
                assert returns(store.append, deltas[2], "c").applied
                assert returns(server.query, ("A",), 1).generation == 4
                assert store.wal_stats()["pending_batches"] == 3
                release.set()
                deadline = time.monotonic() + 10.0
                while (store.wal_stats()["base_generation"] != 3
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
            # published at the generation it pinned; the batch appended
            # meanwhile is still pending, and still in the WAL
            assert store.wal_stats()["base_generation"] == 3
            assert store.wal_stats()["pending_batches"] == 1
            assert store.wal.generations() == [4]
            assert store.generation == 4
            assert_store_matches(store, combined(pending, deltas[2]))
        finally:
            pool.shutdown(wait=True)
            server.close()
            store.close()
        with CubeStore.open(tmp_path / "s", verify="full") as reopened:
            assert reopened.recovery["wal_replayed"] == 1
            assert reopened.recovery["orphans_removed"] == []
            assert_store_matches(reopened, combined(pending, deltas[2]))

    def test_background_compaction_catches_up_with_a_burst(self, tmp_path):
        # What is appended while a compaction runs is folded by the same
        # background thread, not left in the WAL until the next append.
        CubeStore.build(base_relation(), tmp_path / "s",
                        backend="local").close()
        store = CubeStore.open(tmp_path / "s", compact_after=2)
        deltas = [delta_relation(seed) for seed in range(1, 6)]
        try:
            with held_compaction() as (entered, release):
                for i, delta in enumerate(deltas):
                    store.append(delta, batch_id="burst-%d" % i)
                    if i == 1:  # the second append kicked a compaction
                        assert entered.wait(10.0)
                assert store.wal_stats()["pending_batches"] == 5
                release.set()
                deadline = time.monotonic() + 10.0
                # The compaction publishes its snapshot before it trims
                # the WAL, so wait for both.
                while ((store.wal_stats()["pending_batches"]
                        or store.wal_stats()["wal_bytes"])
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
            assert store.wal_stats() == dict(
                store.wal_stats(), pending_batches=0, base_generation=6,
                wal_bytes=0)
            assert_store_matches(store, combined(base_relation(), *deltas))
        finally:
            store.close()

    def test_unpaced_writer_beside_a_reader(self, tmp_path):
        CubeStore.build(base_relation(), tmp_path / "s",
                        backend="local").close()
        store = CubeStore.open(tmp_path / "s", compact_after=4)
        server = CubeServer(store)
        delta, n_appends = delta_relation(1), 200
        # Counted once: a reader rebuilding the base relation on every
        # answer keeps the GIL in pure Python, and the writer's 200
        # appends took 15-20 s instead of 3 s waiting for it.
        base_rows = len(base_relation())
        base_zeros = sum(row[0] == 0 for row in base_relation().rows)
        delta_zeros = sum(row[0] == 0 for row in delta.rows)

        def rows_at(generation):
            return base_rows + len(delta) * (generation - 1)

        def a_zero_at(generation):
            return base_zeros + (generation - 1) * delta_zeros

        done = threading.Event()
        answered, problems = [0], []

        def reader():
            while not done.is_set() or answered[0] < 30:
                try:
                    kind = answered[0] % 3
                    if kind == 0:
                        got = server.query(("A", "B"), 1)
                        shares = [got.cells]
                    elif kind == 1:
                        got = server.point(("A",), (0,), 1)
                        assert got.cells[(0,)][0] \
                            == a_zero_at(got.generation), got
                        shares = []
                    else:
                        got = server.iceberg(1)
                        shares = got.cuboids.values()
                    for cells in shares:
                        assert sum(c for c, _sum in cells.values()) \
                            == rows_at(got.generation), got.generation
                    answered[0] += 1
                except Exception as exc:  # noqa: BLE001 - reported below
                    problems.append(repr(exc))
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for i in range(n_appends):
                assert server.append(delta, batch_id="u%d" % i).applied
        finally:
            done.set()
            thread.join(60.0)
            server.close()
            store.close()
        assert not problems, problems
        assert answered[0] >= 30
        with CubeStore.open(tmp_path / "s", verify="full") as reopened:
            assert reopened.generation == n_appends + 1
            assert reopened.total_rows == rows_at(n_appends + 1)
            assert run_files(tmp_path / "s") == manifest_files(tmp_path / "s")

    def test_no_leaf_file_is_ever_overwritten(self, tmp_path, wal_store):
        directory = tmp_path / "s"
        built = run_files(directory)
        wal_store.append(delta_relation(1), batch_id="f1")
        assert wal_store.compact() == 1
        first = run_files(directory)
        # the manifest names no file that existed before the compaction,
        # and the files it superseded are gone
        assert first == manifest_files(directory) and not first & built
        wal_store.append(delta_relation(2), batch_id="f2")
        assert wal_store.compact() == 1
        second = run_files(directory)
        assert second == manifest_files(directory)
        assert not second & (first | built)  # nor do two ever share a name
        # The sweep takes a cut compaction's new files ...
        wal_store.append(delta_relation(3), batch_id="f3")
        with Cut(1, op=MANIFEST):
            wal_store.compact()
        cut = run_files(directory) - second
        assert len(cut) == len(second) and all(".g4." in name for name in cut)
        wal_store.close()
        # ... and a published one's leftovers.
        for name in built:
            with open(directory / name, "wb") as handle:
                handle.write(b"superseded")
        with CubeStore.open(directory, verify="quick") as reopened:
            assert set(reopened.recovery["orphans_removed"]) == cut | built
            assert run_files(directory) == manifest_files(directory) == second
            assert_store_matches(reopened, combined(
                base_relation(), *(delta_relation(s) for s in (1, 2, 3))))


# ---------------------------------------------------------------------------
# The store machine: exactly-once under crashes nobody enumerated
# ---------------------------------------------------------------------------
#: A batch: 1-5 rows, integral measures (so every sum order is exact).
BATCHES = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                             st.integers(0, 1), st.integers(0, 9)),
                   min_size=1, max_size=5).map(lambda rows: Relation(
                       DIMS, [row[:3] for row in rows],
                       [float(row[3]) for row in rows]))


class StoreMachine(RuleBasedStateMachine):
    """A store against a model: the base rows plus every acknowledged
    batch.  A crash cuts an append or a compaction at a drawn write
    boundary, abandons the store object, reopens the directory and
    re-sends the batch in flight under its own id."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp()
        CubeStore.build(base_relation(), self.root, backend="local").close()
        self.acked, self.ids = {}, map("b{}".format, itertools.count())
        self._reopen()

    def _reopen(self):
        self.store = CubeStore.open(self.root, verify="full",
                                    compact_after=None)
        self.pins = []  # a reopen stands for a restart: no pin survives it

    @staticmethod
    def _check(snapshot, acked):
        relation = combined(base_relation(), *acked)
        assert snapshot.total_rows == len(relation)
        assert_store_matches(snapshot, relation)

    @rule(batch=BATCHES)
    def append(self, batch):
        batch_id = next(self.ids)
        assert self.store.append(batch, batch_id=batch_id).applied
        self.acked[batch_id] = batch

    @precondition(lambda self: self.acked)
    @rule(data=st.data())
    def duplicate_append(self, data):
        batch_id = data.draw(st.sampled_from(sorted(self.acked)))
        assert not self.store.append(self.acked[batch_id],
                                     batch_id=batch_id).applied

    @rule()
    def compact(self):
        self.store.compact()

    @rule(batch=st.none() | BATCHES, k=st.integers(1, 12),
          side=st.sampled_from(("before", "after")))
    def crash_then_reopen(self, batch, k, side):
        batch_id = next(self.ids)
        with Cut(k, side) as cut:
            if batch is None:
                self.store.compact()
            else:
                self.store.append(batch, batch_id=batch_id)
        self._reopen()
        if batch is not None:
            retry = self.store.append(batch, batch_id=batch_id)
            assert retry.applied == (cut.fired and side == "before")
            self.acked[batch_id] = batch

    @rule()
    def clean_reopen(self):
        self.store.close()
        self._reopen()

    @rule()
    def pin(self):
        self.pins.append((self.store.snapshot(), tuple(self.acked.values())))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def read_pinned(self, data):
        self._check(*data.draw(st.sampled_from(self.pins)))

    @invariant()
    def matches_the_model(self):
        assert self.store.generation == 1 + len(self.acked)
        self._check(self.store.snapshot(), self.acked.values())

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root)


StoreMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=15, deadline=None)
TestStoreMachine = StoreMachine.TestCase


# ---------------------------------------------------------------------------
# Crash windows: SIGKILL a writer at each side of its two commits, recover
# ---------------------------------------------------------------------------
#: The four windows, as cuts: before / after the first WAL record's
#: rename, before / after the rename publishing the compaction's manifest.
CRASH_WINDOWS = {
    "wal.pre_publish": Cut(1, "before", op="replace"),
    "wal.post_publish": Cut(1, "after", op="replace"),
    "compact.written": Cut(1, "before", op=MANIFEST),
    "compact.published": Cut(1, "after", op=MANIFEST),
}


class TestCrashWindows:
    @pytest.mark.parametrize("point", list(CRASH_WINDOWS))
    def test_sigkill_then_recover(self, tmp_path, point):
        directory = str(tmp_path / "crash")
        CubeStore.build(base_relation(), directory, backend="local").close()
        steps = [("append", delta_relation(1), "k1"),
                 ("append", delta_relation(2), "k2"), ("compact",)]
        assert run_child(directory, steps, CRASH_WINDOWS[point]) == -9

        store = CubeStore.open(directory, compact_after=10_000)
        try:
            d1, d2 = delta_relation(1), delta_relation(2)
            if point == "wal.pre_publish":
                # killed before the first record published: nothing applied,
                # the un-acked batch is safe to retry
                assert store.recovery["wal_replayed"] == 0
                assert store.append(d1, batch_id="k1").applied
                assert_store_matches(store, combined(base_relation(), d1))
            elif point == "wal.post_publish":
                # killed after publishing the first record: replay applies
                # it, and the client's retry is deduplicated
                assert store.recovery["wal_replayed"] == 1
                assert not store.append(d1, batch_id="k1").applied
                assert_store_matches(store, combined(base_relation(), d1))
            elif point == "compact.written":
                # killed with the new leaf files and the manifest's temp
                # written but not renamed: they are orphans, both batches
                # replay from the WAL, compaction re-runs
                removed = store.recovery["orphans_removed"]
                assert [is_debris(name) for name in removed].count(True) \
                    == 1 and len(removed) == len(store.leaves) + 1
                assert store.recovery["wal_replayed"] == 2
                assert store.compact() == 2
                assert_store_matches(store, combined(base_relation(), d1, d2))
            else:  # compact.published
                # killed after the manifest replace committed: the store
                # is the compacted one, stale WAL records are pruned
                assert len(store.recovery["orphans_removed"]) \
                    == len(store.leaves)
                assert store.recovery["wal_pruned"] == 2
                assert store.wal_stats()["pending_batches"] == 0
                assert not store.append(d1, batch_id="k1").applied
                assert_store_matches(store, combined(base_relation(), d1, d2))
        finally:
            store.close()


# ---------------------------------------------------------------------------
# HTTP surface: duplicated POST /append, GET /wal, capability gating
# ---------------------------------------------------------------------------
def _post_append(url, relation, batch_id):
    body = json.dumps({
        "dims": list(relation.dims),
        "rows": [list(r) for r in relation.rows],
        "measures": list(relation.measures),
        "batch_id": batch_id,
    }).encode()
    request = Request(url + "/append", data=body,
                      headers={"Content-Type": "application/json"})
    with urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _get_json(url):
    with urlopen(url, timeout=10) as response:
        return json.loads(response.read())


class TestIngestHttp:
    @pytest.fixture
    def served(self, tmp_path):
        CubeStore.build(base_relation(), tmp_path / "s",
                        backend="local").close()
        store = CubeStore.open(tmp_path / "s", compact_after=10_000)
        server = CubeServer(store)
        endpoint = server.serve_http(port=0)
        yield endpoint.url, server
        server.close()
        store.close()

    def test_duplicated_post_is_exactly_once(self, served):
        url, server = served
        delta = delta_relation(1)
        first = _post_append(url, delta, "http-dup")
        again = _post_append(url, delta, "http-dup")
        assert first["applied"] and not again["applied"]
        assert again["generation"] == first["generation"]
        everything = combined(base_relation(), delta)
        answer = _get_json(url + "/query?cuboid=A,B&minsup=1")
        got = {tuple(c["cell"]): (c["count"], c["sum"])
               for c in answer["cells"]}
        assert got == oracle(everything, ("A", "B"), 1)

    def test_wal_feed_over_http(self, served):
        url, _ = served
        _post_append(url, delta_relation(1), "feed-1")
        _post_append(url, delta_relation(2), "feed-2")
        health = _get_json(url + "/healthz")
        assert health["wal"]["pending_batches"] == 2
        base = health["wal"]["base_generation"]
        feed = _get_json(url + "/wal?since=%d" % base)
        assert [b["batch_id"] for b in feed["batches"]] == ["feed-1", "feed-2"]


# ---------------------------------------------------------------------------
# Router fan-out and anti-entropy, on the cluster in one process
# ---------------------------------------------------------------------------
@pytest.fixture
def make_wire(tmp_path):
    """``make(shards, replicas)``: a :class:`wire.Wire` over the base
    relation and a router on it."""
    wires = []

    def make(shards=1, replicas=1, compact_after=None, **router):
        root = str(tmp_path / str(len(wires)))
        wires.append(Wire(build_shards(base_relation(), root, shards), root,
                          replicas, compact_after))
        return wires[-1], wires[-1].router(dims=DIMS, **router)

    yield make
    for wire in wires:
        wire.close()


def outcome_count(router, outcome):
    return router.registry.get("repro_router_anti_entropy_total") \
        .value(outcome=outcome)


def eventually(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert predicate()


class TestRouterAppend:
    """An append posts the batch once to each replica it targets; the
    health sweep repairs whatever missed it."""

    def test_down_replica_is_skipped_while_a_sibling_serves(self, make_wire):
        # The refusing replica is asked once and marked down, the next
        # append leaves it out, and one sweep brings it level.
        wire, router = make_wire(replicas=2)
        d1, d2 = delta_relation(1), delta_relation(2)
        wire.fail((0, 1), "refuse")
        assert router.append(d1, batch_id="one")["applied"] == 1
        assert wire.ordinals == {(0, 0): 1, (0, 1): 1}
        up = router.registry.get("repro_router_replica_up")
        assert up.value(shard="0", replica="1") == 0
        summary = router.append(d2, batch_id="two")
        assert summary["applied"] == 1
        assert wire.ordinals == {(0, 0): 2, (0, 1): 1}  # not dialled
        skipped = [o for o in summary["outcomes"] if o.get("skipped")]
        assert len(skipped) == 1 and skipped[0]["replica"] == 1
        router.check_health()
        assert wire.log == {key: ["one", "two"] for key in wire.keys}
        assert_replicas_match(wire, combined(base_relation(), d1, d2))

    def test_failed_delivery_wakes_the_sweep_before_a_sibling_compacts(
            self, make_wire):
        # One refused delivery, then more appends than the sibling's
        # compaction threshold.  The sweep the failure woke re-delivers
        # the batch while it is still in the sibling's WAL, an hour
        # before the health interval would have come round.
        wire, router = make_wire(replicas=2, compact_after=8,
                                 health_interval_s=3600)
        checks = router.registry.get("repro_router_health_checks_total")
        eventually(lambda: checks.value(status="ok") == 2)  # the first sweep
        batches = [delta_relation(seed) for seed in range(1, 11)]
        wire.fail((0, 1), "refuse")
        assert router.append(batches[0], batch_id="b0")["applied"] == 1
        eventually(lambda: wire.log[(0, 1)] == ["b0"])
        for i, batch in enumerate(batches[1:], 1):
            assert router.append(batch, batch_id="b%d" % i)["applied"] == 2
        source = wire.servers[(0, 0)].store
        eventually(lambda: source.wal_stats()["base_generation"] > 1)
        for _ in range(2):
            router.check_health()
        assert outcome_count(router, "unrepairable") == 0
        assert_replicas_match(wire, combined(base_relation(), *batches))

    def test_unacknowledged_batch_is_safe_to_resubmit(self, make_wire):
        wire, router = make_wire()
        wire.fail((0, 0), "refuse")
        with pytest.raises(ShardUnavailableError, match="safe to resubmit"):
            router.append(delta_relation(1), batch_id="again")
        assert wire.ordinals[(0, 0)] == 1 and wire.log[(0, 0)] == []
        summary = router.append(delta_relation(1), batch_id="again")
        assert summary["applied"] == 1 and summary["duplicates"] == 0
        assert wire.ordinals[(0, 0)] == 2 and wire.log[(0, 0)] == ["again"]
        assert_store_matches(wire.servers[(0, 0)].store,
                             combined(base_relation(), delta_relation(1)))

    def test_dropped_ack_reads_as_a_duplicate_on_resend(self, make_wire):
        wire, router = make_wire()
        wire.fail((0, 0), "drop")
        with pytest.raises(ShardUnavailableError):
            router.append(delta_relation(1), batch_id="lost-ack")
        assert wire.log[(0, 0)] == ["lost-ack"]  # applied, never acknowledged
        summary = router.append(delta_relation(1), batch_id="lost-ack")
        assert summary["applied"] == 1 and summary["duplicates"] == 1
        assert wire.ordinals[(0, 0)] == 2 and wire.log[(0, 0)] == ["lost-ack"]

    def test_unkeyed_append_mints_a_key_and_probes_nothing(self, make_wire):
        """No ``batch_id``, no health sweep yet: the append fans out at
        once — zero ``/healthz`` probes, one POST per replica — under a
        minted idempotence key."""
        wire, router = make_wire(shards=2)
        summary = router.append(delta_relation(1))
        assert summary["batch_id"]
        assert wire.ordinals == {(0, 0): 1, (1, 0): 1}
        assert wire.log == {key: [summary["batch_id"]] for key in wire.keys}
        assert summary["applied"] == 2 and summary["duplicates"] == 0

    def test_permanent_rejection_is_not_retried(self, make_wire):
        # A 4xx: the replica answered, so it is asked once and stays up.
        wire, router = make_wire()
        with pytest.raises(ShardUnavailableError):
            router.append(Relation(("A", "B", "Z"), [(0, 0, 0)], [1.0]),
                               batch_id="rejected")
        assert wire.ordinals[(0, 0)] == 1
        up = router.registry.get("repro_router_replica_up")
        assert up.value(shard="0", replica="0") == 1

    def test_only_replica_marked_down_still_takes_an_append(self, make_wire):
        """A shard whose every replica is down gets the delivery anyway:
        the last resort, not a skip."""
        wire, router = make_wire()
        wire.isolate((0, 0))
        with pytest.raises(ShardUnavailableError):
            router.append(delta_relation(1), batch_id="lost")
        wire.heal((0, 0))
        summary = router.append(delta_relation(1), batch_id="lost")
        assert summary["applied"] == 1
        assert wire.ordinals[(0, 0)] == 2
        up = router.registry.get("repro_router_replica_up")
        assert up.value(shard="0", replica="0") == 1


def assert_replicas_match(wire, relation):
    for server in wire.servers.values():
        assert server.store.generation == wire.servers[(0, 0)].store.generation
        assert_store_matches(server.store, relation)


class TestAntiEntropy:
    def test_replica_below_the_source_wal_base_is_unrepairable(self,
                                                               make_wire):
        # What replica 1 missed was compacted away on replica 0: the
        # sweep after the repair finds nothing moved and counts it, once;
        # nothing is re-delivered to it.
        wire, router = make_wire(replicas=2)
        wire.isolate((0, 1))
        for seed in (1, 2):
            router.append(delta_relation(seed))
        wire.servers[(0, 0)].store.compact()
        wire.heal((0, 1))
        router.check_health()
        assert outcome_count(router, "unrepairable") == 0
        for _ in range(2):
            router.check_health()
            assert outcome_count(router, "unrepairable") == 1
        assert wire.log[(0, 1)] == []

    def test_lagging_replica_is_repaired_from_sibling_wal(self, make_wire):
        """Isolate a replica, append through the router, heal it: the
        health sweep re-delivers the missed WAL batches and the two
        replicas converge to cell-exact equality."""
        wire, router = make_wire(replicas=2)
        wire.isolate((0, 1))
        d1, d2 = delta_relation(1), delta_relation(2)
        assert router.append(d1, batch_id="ae-1")["applied"] == 1
        assert router.append(d2, batch_id="ae-2")["applied"] == 1
        wire.kill((0, 1))  # it restarts stale
        wire.heal((0, 1))
        router.check_health()  # the sweep runs anti-entropy repair
        assert_replicas_match(wire, combined(base_relation(), d1, d2))
        # a later append must not be confused by the repair
        store_b = wire.servers[(0, 1)].store
        assert not store_b.append(d1, batch_id="ae-1").applied

    @pytest.mark.parametrize("compacted", [False, True])
    def test_equal_generations_holding_different_batches(self, make_wire,
                                                         compacted):
        # X lands on A alone, then Y on B alone: both read generation 2.
        # One sweep converges them, or -- X folded into A's leaf files,
        # out of its WAL -- counts them unrepairable; never silent.
        wire, router = make_wire(replicas=2)
        x, y = delta_relation(1), delta_relation(2)
        wire.isolate((0, 1))
        router.append(x, batch_id="X")
        if compacted:
            wire.servers[(0, 0)].store.compact()
        wire.heal((0, 1))
        wire.isolate((0, 0))
        router.check_health()
        router.append(y, batch_id="Y")
        wire.heal((0, 0))
        with obs.installed() as active:
            router.check_health()
            if not compacted:  # one sweep converges them
                assert_replicas_match(wire, combined(base_relation(), x, y))
            router.check_health()
        events = active.tracer.spans("router.anti_entropy_unrepairable")
        if compacted:
            assert outcome_count(router, "unrepairable") == 1
            assert [e.attrs["replicas"] for e in events] == [[0, 1]]
            assert wire.log == {(0, 0): ["X", "Y"], (0, 1): ["Y"]}
        else:
            assert not events
            assert outcome_count(router, "repaired") == 1
            for _ in range(2):  # either replica answers base + X + Y
                assert router.query(("A",)).cells == oracle(
                    combined(base_relation(), x, y), ("A",))

    def test_append_landing_mid_repair_is_repaired_not_judged(self,
                                                              make_wire):
        # X on A alone, Y on B alone.  While the sweep re-delivers X to
        # B, Z lands on A after A's WAL was read: B lacks Z when the
        # repair ends.  A's generation moved past what the repair left,
        # so the next sweep repairs again instead of calling the shard
        # unrepairable.
        wire, router = make_wire(replicas=2)
        x, y, z = (delta_relation(seed) for seed in (1, 2, 3))
        wire.isolate((0, 1))
        router.append(x, batch_id="X")
        wire.heal((0, 1))
        wire.isolate((0, 0))
        router.check_health()
        router.append(y, batch_id="Y")
        wire.heal((0, 0))
        store_a = wire.servers[(0, 0)].store
        # B's probe, then the re-delivery of X from A's WAL
        wire.fail((0, 1), lambda: store_a.append(z, batch_id="Z"),
                  wire.ordinals[(0, 1)] + 2)
        router.check_health()
        assert store_a.generation == 4
        assert wire.servers[(0, 1)].store.generation == 3
        for _ in range(2):
            router.check_health()
        assert outcome_count(router, "unrepairable") == 0
        assert outcome_count(router, "repaired") == 1
        assert_replicas_match(wire, combined(base_relation(), x, y, z))

    def test_stores_compacted_before_digests_compare_by_generation(
            self, make_wire):
        # Both replicas applied X and Y, folded at different points, by a
        # release whose manifests carried no digest: their digests are
        # unknown, so they are compared by generation alone -- equal, so
        # left be -- and one lagging by generation is still repaired.
        wire, router = make_wire(replicas=2)
        x, y, z = (delta_relation(seed) for seed in (1, 2, 3))
        router.append(x, batch_id="X")
        wire.servers[(0, 1)].store.compact()
        router.append(y, batch_id="Y")
        wire.servers[(0, 0)].store.compact()
        for key in wire.keys:
            path = os.path.join(wire.directories[key], "manifest.json")
            with open(path) as f:
                manifest = json.load(f)
            del manifest[store_module.DIGEST_KEY]
            with open(path, "w") as f:
                json.dump(manifest, f)
            wire.kill(key)
        assert [wire.servers[key].store.wal_stats()["digest"]
                for key in wire.keys] == [None, None]
        for _ in range(2):
            router.check_health()
        assert outcome_count(router, "repaired") == 0
        assert outcome_count(router, "unrepairable") == 0
        assert wire.log == {key: ["X", "Y"] for key in wire.keys}
        wire.isolate((0, 1))
        router.append(z, batch_id="Z")
        wire.heal((0, 1))
        router.check_health()
        assert_replicas_match(wire, combined(base_relation(), x, y, z))

    def test_replica_failing_its_repair_is_marked_down(self, make_wire):
        wire, router = make_wire(replicas=2)
        wire.isolate((0, 1))
        router.append(delta_relation(1), batch_id="X")
        wire.heal((0, 1))
        # its probe answers; the re-delivery after it is refused
        wire.fail((0, 1), "refuse", wire.ordinals[(0, 1)] + 2)
        router.check_health()
        up = router.registry.get("repro_router_replica_up")
        assert up.value(shard="0", replica="1") == 0
        assert outcome_count(router, "redeliver_failed") == 1


# ---------------------------------------------------------------------------
# The cluster machine: 2 shards x 2 replicas under faults from outside
# ---------------------------------------------------------------------------
KEYS = st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)])
CUBOIDS = st.sampled_from([(), ("A",), ("B",), ("A", "C"), ("B", "C"), DIMS])


class ClusterMachine(RuleBasedStateMachine):
    """A router over :class:`wire.Wire` against the wire's delivery log:
    every answer is ``naive`` over the base plus the batches its replica
    applied by the answer's generation.  Measures are integers, so
    replicas that applied one set in different orders agree exactly
    (DESIGN §6.6).  The machine is the router's health loop: it sweeps
    as a rule, and at once after an append that woke the loop."""

    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp()
        self.wire = Wire(build_shards(base_relation(), self.root, 2),
                         self.root)
        self.router = self.wire.router(dims=DIMS)
        self.batches, self.acked, self.named = {}, set(), set()
        self.ids = map("c{}".format, itertools.count())
        #: (targets, ordinals before, ordinals after) of the last append
        self.sent = None

    def _applied(self, key, generation, cuboid, minsup):
        log = self.wire.log[key]
        assert generation <= 1 + len(log)
        return oracle(combined(base_relation(), *[
            self.batches[b] for b in log[:generation - 1]]), cuboid, minsup)

    def _send(self, batch_id, batch):
        self.batches[batch_id] = batch
        up = self.router.registry.get("repro_router_replica_up")
        targets = set()
        for shard in (0, 1):
            keys = [(shard, r) for r in (0, 1)
                    if up.value(shard=str(shard), replica=str(r))]
            targets.update(keys or [(shard, 0), (shard, 1)])
        before = dict(self.wire.ordinals)
        try:
            self.router.append(batch, batch_id=batch_id)
        except ShardUnavailableError:
            return
        else:
            self.acked.add(batch_id)
        finally:
            self.sent = targets, before, dict(self.wire.ordinals)
            if self.router._wake.is_set():
                # the sweep the router's health loop would run at once
                self.router._wake.clear()
                self.sweep()

    @rule(batch=BATCHES)
    def append(self, batch):
        self._send(next(self.ids), batch)

    @precondition(lambda self: self.batches)
    @rule(data=st.data())
    def resend(self, data):
        batch_id = data.draw(st.sampled_from(sorted(self.batches)))
        self._send(batch_id, self.batches[batch_id])

    @rule()
    def fresh_router(self):
        self.router.close()
        self.router = self.wire.router(dims=DIMS)

    @rule(key=KEYS, fault=st.sampled_from(FAULTS))
    def fault(self, key, fault):
        self.wire.fail(key, fault)

    @rule(key=KEYS)
    def isolate(self, key):
        """Cut one replica of a shard off from the router, and only it."""
        self.wire.heal((key[0], 1 - key[1]))
        self.wire.isolate(key)

    @rule(key=KEYS)
    def heal(self, key):
        self.wire.heal(key)

    @rule(key=KEYS)
    def kill(self, key):
        self.wire.kill(key)

    @rule(key=KEYS)
    def compact(self, key):
        self.wire.servers[key].store.compact()

    @rule()
    def sweep(self):
        """A health sweep; the replicas any verdict named are kept."""
        with obs.installed() as active:
            self.router.check_health()
        self.named |= {
            (event.attrs["shard"], replica) for event
            in active.tracer.spans("router.anti_entropy_unrepairable")
            for replica in event.attrs["replicas"]}

    @rule(cuboid=CUBOIDS, minsup=st.integers(1, 3),
          cell=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 4)))
    def query(self, cuboid, minsup, cell):
        """A group-by, or (``cell``) a point of ``("A", "B")``."""
        try:
            if cell is None:
                answer = self.router.query(cuboid, minsup)
            else:
                cuboid = ("A", "B")
                answer = self.router.point(cuboid, cell, minsup)
        except ShardUnavailableError:
            return
        cells = self._applied((answer.shard, answer.replica),
                              answer.generation, cuboid, minsup)
        assert answer.cells == {c: agg for c, agg in cells.items()
                                if cell in (None, c)}

    @rule(minsup=st.integers(1, 3))
    def cube(self, minsup):
        try:
            answer = self.router.cube(minsup)
        except (ShardUnavailableError, GenerationSkewError):
            return
        assert answer.attempts <= 2
        for cuboid, cells in answer.cuboids.items():
            shard = self.router.shard_for(cuboid)
            assert any(
                len(self.wire.log[(shard, r)]) >= answer.generation - 1
                and cells == self._applied((shard, r), answer.generation,
                                           cuboid, minsup)
                for r in (0, 1)), cuboid

    @rule()
    def converge(self):
        self.wire.heal()
        self.sweep()
        self.sweep()
        for shard in (0, 1):
            held = [set(self.wire.log[(shard, r)]) for r in (0, 1)]
            if held[0] != held[1]:
                assert {(shard, 0), (shard, 1)} <= self.named, self.wire.log

    @invariant()
    def one_request_per_target(self):
        """The last append asked each replica not marked down (all of a
        shard's, if every one was) exactly once, and no other."""
        if self.sent is None:
            return
        (targets, before, after), self.sent = self.sent, None
        asked = {key: after[key] - before[key] for key in self.wire.keys}
        assert asked == {key: int(key in targets)
                         for key in self.wire.keys}, asked

    @invariant()
    def delivered_once(self):
        for key, log in self.wire.log.items():
            assert len(log) == len(set(log)), key
            assert self.wire.servers[key].store.generation == 1 + len(log)
        for batch_id in self.acked:
            for shard in (0, 1):
                assert any(batch_id in self.wire.log[(shard, r)]
                           for r in (0, 1)), (batch_id, shard)

    def teardown(self):
        try:
            if sys.exc_info()[0] is None:  # a run that ended cleanly
                self.converge()
        finally:
            self.wire.close()
            shutil.rmtree(self.root)


ClusterMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None, print_blob=True)
TestClusterMachine = ClusterMachine.TestCase
