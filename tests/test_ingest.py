"""Durable exactly-once ingestion: WAL codec, store deltas, router repair."""

import itertools
import json
import os
import shutil
import struct
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock
from urllib.request import Request, urlopen

import pytest
from crashes import Cut, run_child
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.naive import naive_cuboid
from repro.data import Relation
from repro.errors import (
    PlanError,
    ReplicaError,
    ShardUnavailableError,
    WalCorruptError,
)
from repro.serve import CubeRouter, CubeServer, CubeStore, RetryPolicy
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
        assert not feed["truncated"]
        assert [b.batch_id for b in feed["batches"]] == ["w1", "w2"]
        newer = wal_store.wal_batches_since(wal_store.generation - 1)
        assert [b.batch_id for b in newer["batches"]] == ["w2"]
        stale = wal_store.wal_batches_since(0)
        assert stale["truncated"]


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
        with Cut(1, op="atomic_write"):
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
#: os.replace, before / after the compaction's manifest replace.
CRASH_WINDOWS = {
    "wal.pre_publish": Cut(1, "before", op="replace"),
    "wal.post_publish": Cut(1, "after", op="replace"),
    "compact.written": Cut(1, "before", op="atomic_write"),
    "compact.published": Cut(1, "after", op="atomic_write"),
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
                # killed with the new leaf files written but the manifest
                # not yet replaced: they are orphans, both batches replay
                # from the WAL, compaction re-runs
                assert len(store.recovery["orphans_removed"]) \
                    == len(store.leaves)
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
# RetryPolicy
# ---------------------------------------------------------------------------
class _UpperBoundRng:
    def uniform(self, low, high):
        return high


class TestRetryPolicy:
    def test_backoff_doubles_then_caps(self):
        policy = RetryPolicy(attempts=5, base_s=0.1, cap_s=0.35,
                             rng=_UpperBoundRng(), sleep=lambda s: None)
        assert [policy.backoff_s(k) for k in range(4)] == \
            [0.1, 0.2, 0.35, 0.35]

    def test_pause_refuses_when_deadline_cannot_absorb(self):
        from repro.serve import Deadline

        slept = []
        policy = RetryPolicy(attempts=3, base_s=0.5, cap_s=0.5,
                             rng=_UpperBoundRng(), sleep=slept.append)
        clock = iter([0.0, 0.0, 0.1]).__next__
        deadline = Deadline(0.2, clock=clock)
        assert not policy.pause(0, deadline)
        assert slept == []
        assert policy.pause(0, None)
        assert slept == [0.5]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(PlanError):
            RetryPolicy(attempts=0)
        with pytest.raises(PlanError):
            RetryPolicy(base_s=-1)


# ---------------------------------------------------------------------------
# Router fan-out: retries, breaker consultation, anti-entropy repair
# ---------------------------------------------------------------------------
class _StubClient:
    """A scripted replica: each element of ``script`` answers one call."""

    def __init__(self, url, script):
        self.url = url
        self.script = list(script)
        self.calls = 0
        self.payloads = []
        self.gets = []

    def post_json(self, path, payload):
        self.calls += 1
        self.payloads.append(payload)
        action = self.script.pop(0) if self.script else "ok"
        if action == "fail":
            raise ReplicaError(self.url, "injected failure")
        if action == "reject":
            raise PlanError("injected rejection")
        return {"generation": 2, "applied": True, "batch_id":
                payload.get("batch_id"), "rows": len(payload["rows"])}

    def get_json(self, path):
        self.gets.append(path)
        raise ReplicaError(self.url, "stub has no GET surface")

    def close(self):
        pass  # no connections to close


def make_stub_router(scripts, **kwargs):
    kwargs.setdefault("retry_policy", RetryPolicy(
        attempts=3, base_s=0.0, cap_s=0.0, sleep=lambda s: None))
    router = CubeRouter([["http://stub-%d" % i] for i in range(len(scripts))],
                        dims=DIMS, **kwargs)
    for shard, script in enumerate(scripts):
        router.shards[shard][0] = _StubClient("http://stub-%d" % shard, script)
    return router


class TestRouterAppend:
    def test_transient_failures_are_retried_to_success(self):
        router = make_stub_router([["fail", "fail", "ok"]])
        try:
            summary = router.append(delta_relation(1), batch_id="retry-me")
            assert summary["applied"] == 1
            assert summary["batch_id"] == "retry-me"
            assert summary["outcomes"][0]["attempts"] == 3
            assert router.shards[0][0].calls == 3
        finally:
            router.close()

    def test_unkeyed_append_mints_a_key_and_probes_nothing(self):
        """No ``batch_id``, no health sweep yet: the append fans out at
        once — zero ``/healthz`` probes — under a minted idempotence key
        with the full retry budget."""
        router = make_stub_router([["fail", "fail", "ok"], ["ok"]])
        try:
            summary = router.append(delta_relation(1))
            stubs = [replicas[0] for replicas in router.shards]
            assert [stub.gets for stub in stubs] == [[], []]
            assert summary["batch_id"]
            assert [p["batch_id"] for stub in stubs
                    for p in stub.payloads] == [summary["batch_id"]] * 4
            assert summary["outcomes"][0]["attempts"] == 3
            assert summary["applied"] == 2
        finally:
            router.close()

    def test_retry_budget_exhausted_is_honest(self):
        router = make_stub_router([["fail", "fail", "fail"]])
        try:
            with pytest.raises(ShardUnavailableError, match="safe to resubmit"):
                router.append(delta_relation(1), batch_id="doomed")
        finally:
            router.close()

    def test_permanent_rejection_is_not_retried(self):
        router = make_stub_router([["reject"]])
        try:
            with pytest.raises(ShardUnavailableError):
                router.append(delta_relation(1), batch_id="rejected")
            assert router.shards[0][0].calls == 1
        finally:
            router.close()

    def test_append_consults_the_circuit_breaker(self):
        """Satellite: the append path skips tripped replicas like the
        query path does, instead of hammering a dead box."""
        router = make_stub_router([["ok"]])
        try:
            breaker = router.breakers[(0, 0)]
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == "open"
            with pytest.raises(ShardUnavailableError,
                               match="circuit breaker open"):
                router.append(delta_relation(1), batch_id="skipped")
            assert router.shards[0][0].calls == 0
        finally:
            router.close()

    def test_breaker_skip_leaves_healthy_sibling_serving(self):
        router = make_stub_router([["ok"]])
        try:
            stub = _StubClient("http://stub-0b", ["ok"])
            router.shards[0].append(stub)
            from repro.serve import CircuitBreaker

            router.breakers[(0, 1)] = CircuitBreaker(
                failure_threshold=1, reset_after_s=60.0)
            router.breakers[(0, 1)].record_failure()
            summary = router.append(delta_relation(1), batch_id="partial")
            assert summary["applied"] == 1
            skipped = [o for o in summary["outcomes"] if o.get("skipped")]
            assert len(skipped) == 1 and skipped[0]["replica"] == 1
        finally:
            router.close()


class TestAntiEntropy:
    def test_replica_below_the_source_wal_base_is_unrepairable(self):
        # What replica 1 missed was compacted away on replica 0: counted
        # once, and nothing is re-delivered to it.
        class Replica(_StubClient):
            """Healthy at ``generation``, every batch of it compacted."""

            def __init__(self, url, generation):
                super().__init__(url, [])
                self.generation = generation

            def get_json(self, path):
                return {"status": "ok", "generation": self.generation,
                        "wal": {"base_generation": self.generation}}

        router = CubeRouter([["http://a", "http://b"]], dims=DIMS)
        router.shards[0] = [Replica("http://a", 5), Replica("http://b", 2)]
        try:
            router.check_health()
            assert router.registry.get("repro_router_anti_entropy_total") \
                .value(outcome="unrepairable") == 1
            assert [replica.payloads for replica in router.shards[0]] \
                == [[], []]
        finally:
            router.close()

    def test_lagging_replica_is_repaired_from_sibling_wal(self, tmp_path):
        """Kill a replica, append through the router, restart the replica:
        the health sweep re-delivers the missed WAL batches and the two
        replicas converge to cell-exact equality."""
        import shutil

        CubeStore.build(base_relation(), tmp_path / "a",
                        backend="local").close()
        shutil.copytree(tmp_path / "a", tmp_path / "b")

        def serve(directory, port=0):
            store = CubeStore.open(directory, compact_after=10_000)
            server = CubeServer(store)
            endpoint = server.serve_http(port=port)
            return store, server, endpoint

        store_a, server_a, ep_a = serve(tmp_path / "a")
        store_b, server_b, ep_b = serve(tmp_path / "b")
        port_b = ep_b.port
        router = CubeRouter([[ep_a.url, ep_b.url]], dims=DIMS,
                            retry_policy=RetryPolicy(
                                attempts=2, base_s=0.0, cap_s=0.0,
                                sleep=lambda s: None))
        try:
            # replica B goes dark; two batches land on A alone
            ep_b.close()
            server_b.close()
            store_b.close()
            d1, d2 = delta_relation(1), delta_relation(2)
            s1 = router.append(d1, batch_id="ae-1")
            s2 = router.append(d2, batch_id="ae-2")
            assert s1["applied"] == 1 and s2["applied"] == 1

            # B restarts on the same port, generations now skewed
            store_b, server_b, ep_b = serve(tmp_path / "b", port=port_b)
            assert store_b.generation < store_a.generation

            router.check_health()  # the sweep runs anti-entropy repair

            everything = combined(base_relation(), d1, d2)
            assert store_b.generation == store_a.generation
            assert_store_matches(store_b, everything)
            # a later append must not be confused by the repair
            assert not store_b.append(d1, batch_id="ae-1").applied
        finally:
            router.close()
            for closable in (server_a, store_a, server_b, store_b):
                closable.close()
