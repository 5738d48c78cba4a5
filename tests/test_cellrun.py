"""One oracle for both leaf holders, and the ``CellRun`` they share.

A :class:`~repro.core.columnar.CellRun` is the only representation of a
materialized leaf: the pool worker makes it, shared memory ships its
encoding, ``LeafMaterialization`` and ``CubeStore`` hold and answer from
it, the MapReduce store reducer streams it, and a ``.run`` leaf file is
its bytes.  The property here drives every holder, however built,
against ``naive`` on relations whose codes straddle every storage dtype
boundary; the unit cases pin the run's own operations, its byte format,
the int64 limit, ``store migrate`` and the two load/merge spans.
"""

import hashlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from crashes import Cut
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.core import columnar
from repro.core.columnar import (
    CellRun,
    ColumnarFrame,
    RunWriter,
    code_matrix,
    decode_runs,
    encode_runs,
    leaf_run,
)
from repro.core.naive import naive_cuboid
from repro.core.thresholds import (
    AndThreshold,
    CountThreshold,
    SumThreshold,
    as_threshold,
)
from repro.data import Relation, zipf_relation
from repro.errors import PlanError, SchemaError, StoreCorruptError
from repro.lattice.lattice import CubeLattice
from repro.mr import mapreduce_materialize
from repro.online import LeafMaterialization, leaf_cuboids
from repro.serve import CubeStore
from repro.serve.store import MANIFEST

DIMS = ("A", "B", "C")
CUBOIDS = CubeLattice(DIMS).cuboids(include_all=True)

#: Codes on both sides of every boundary of the block dtypes
#: (i8/u8/i16/u16/i32/u32/i64).
EDGES = (-2 ** 31 - 1, -2 ** 31, -32769, -32768, -129, -128, -1, 0, 1,
         127, 128, 255, 256, 32767, 32768, 65535, 65536,
         2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32)
#: ``C`` alone spans 2**63: no leaf holding it packs into 63 bits.
WIDE = (-2 ** 62, -1, 0, 5, 2 ** 62)
#: Non-negative and 57 bits in all: what MapReduce's packed shuffle key
#: takes too (A 32 bits, B 16, C 9).
TAME = ((0, 1, 127, 128, 255, 256, 32767, 32768, 65535, 65536, 2 ** 31),
        (0, 1, 127, 128, 255, 256, 32767, 32768),
        (0, 1, 127, 128, 255, 256))

#: Integer-valued measures: every partial sum is exact, so answers do
#: not depend on the order a backend folds in (DESIGN 6.6, float policy).
MEASURES = st.integers(-50, 50).map(float)


def rows_of(*columns):
    return st.lists(st.tuples(*(st.sampled_from(c) for c in columns),
                              MEASURES), min_size=1, max_size=40)


WILD_ROWS = rows_of(EDGES, EDGES, WIDE)
TAME_ROWS = rows_of(*TAME)
#: Appends go through the WAL, which takes non-negative codes only;
#: these lie beyond anything a base relation above holds.
APPEND_ROWS = st.lists(
    st.tuples(st.sampled_from((0, 256, 2 ** 33, 2 ** 40)),
              st.sampled_from((1, 2 ** 33 + 1)),
              st.sampled_from((3, 2 ** 62 + 1)), MEASURES),
    min_size=1, max_size=12)


def relation_of(rows):
    return Relation(DIMS, [row[:3] for row in rows], [row[3] for row in rows])


def thresholds_for(relation):
    half = sum(abs(m) for m in relation.measures) / 4.0
    return (1, 2, SumThreshold(half),
            AndThreshold(CountThreshold(2), SumThreshold(-half)))


def oracle(relation, cuboid, threshold):
    threshold = as_threshold(threshold)
    return {cell: agg for cell, agg in naive_cuboid(relation, cuboid).items()
            if threshold.qualifies(*agg)}


def assert_answers_as_naive(holder, relation, label):
    for cuboid in CUBOIDS:
        for threshold in thresholds_for(relation):
            assert holder.query(cuboid, threshold) == oracle(
                relation, cuboid, threshold), (label, cuboid, threshold)
    for cuboid in (("A",), ("A", "C"), DIMS):
        cells = naive_cuboid(relation, cuboid)
        for cell in list(cells)[:4]:
            assert holder.point(cuboid, cell) == cells[cell], (label, cell)
        assert holder.point(cuboid, (7,) * len(cuboid)) is None


def store_fingerprint(directory):
    """``{file name: sha256}`` of everything in a store directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def check_every_holder(base, batches, tmp, with_mapreduce):
    stores = {
        "in-process": CubeStore.build(base, os.path.join(tmp, "inproc"),
                                      backend="local"),
        "pool": CubeStore.build(base, os.path.join(tmp, "pool"),
                                backend="local", workers=2),
        "simulated": CubeStore.build(base, os.path.join(tmp, "sim")),
    }
    if with_mapreduce:
        stores["mapreduce"] = mapreduce_materialize(
            base, os.path.join(tmp, "mr"), workers=1, reducers=2)
    holders = dict(stores, memory=LeafMaterialization(base, backend="local"))
    try:
        prints = {label: store_fingerprint(store.directory)
                  for label, store in stores.items()}
        assert len({json.dumps(p, sort_keys=True)
                    for p in prints.values()}) == 1, prints
        # Pinned before anything is read (an assembled store's is cold):
        # whatever is published from here on, these keep answering
        # ``base`` — checked once the files they sit on are gone.
        pinned = {label: holder.snapshot() for label, holder in holders.items()}
        seen = base
        for label, holder in holders.items():
            assert_answers_as_naive(holder, seen, label)
        for batch in batches:
            seen = seen.concat(batch)
            for holder in holders.values():
                holder.append(batch)
        for label, holder in holders.items():
            assert_answers_as_naive(holder, seen, label + " pending")
        for label, store in stores.items():
            assert store.compact() == len(batches)
            assert_answers_as_naive(store, seen, label + " compacted")
            assert not [name for name in os.listdir(store.directory)
                        if name.endswith(".run") and name in prints[label]]
            store.close()
        for label, snapshot in pinned.items():
            assert snapshot.generation == 1 != holders[label].generation
            assert_answers_as_naive(snapshot, base, label + " pinned")
        for label, store in stores.items():
            with CubeStore.open(store.directory, verify="full") as reopened:
                assert_answers_as_naive(reopened, seen, label + " reopened")
    finally:
        for store in stores.values():
            store.close()


class TestOneOracleForBothHolders:
    @given(WILD_ROWS, st.lists(APPEND_ROWS, min_size=1, max_size=2))
    @settings(max_examples=12, deadline=None)
    def test_codes_across_every_dtype_boundary(self, rows, appends):
        with tempfile.TemporaryDirectory() as tmp:
            check_every_holder(relation_of(rows),
                               [relation_of(batch) for batch in appends],
                               tmp, with_mapreduce=False)

    @given(TAME_ROWS, st.lists(APPEND_ROWS, min_size=1, max_size=2))
    @settings(max_examples=12, deadline=None)
    def test_mapreduce_built_store_is_the_same_store(self, rows, appends):
        with tempfile.TemporaryDirectory() as tmp:
            check_every_holder(relation_of(rows),
                               [relation_of(batch) for batch in appends],
                               tmp, with_mapreduce=True)

    def test_wide_leaf_really_is_past_63_bits(self):
        relation = relation_of([(0, 0, code, 1.0) for code in WIDE])
        frame = ColumnarFrame.from_relation(relation)
        assert frame.packing is None and frame.keys is None
        run = leaf_run(frame, ("C",))
        assert run.codes[0].tolist() == sorted(WIDE)


# ----------------------------------------------------------------------
# the run's own operations
# ----------------------------------------------------------------------
def run_of(cells, dims=("A", "B")):
    return CellRun.from_cells(dims, cells)


class TestMergeAndGroupBy:
    def test_empty_run(self):
        empty = run_of({})
        assert len(empty) == 0
        assert empty.group_by(1, as_threshold(1)) == {} == empty.cells()
        assert empty.lookup((1,)) is None
        assert CellRun.decode(empty.encode()).dims == ("A", "B")
        other = run_of({(1, 2): (3, 4.0)})
        assert CellRun.merge([empty, other]).cells() == other.cells()
        assert empty.add_rows(code_matrix([(1, 2)], 2), [4.0]).cells() \
            == {(1, 2): (1, 4.0)}

    def test_the_apex_cuboid_round_trips(self):
        # No dimensions: the one cell ``()``, which every unsharded /cube
        # answer holds.
        run = CellRun.from_cells((), {(): (5, 2.0)})
        back = CellRun.decode(run.encode())
        assert back.dims == ()
        assert back.cells() == {(): (5, 2.0)}
        assert CellRun.decode(CellRun.from_cells((), {}).encode()).cells() \
            == {}

    def test_one_cell(self):
        run = run_of({(5, -7): (2, 1.5)})
        assert run.group_by(1) == {(5,): (2, 1.5)}
        assert run.group_by(2, as_threshold(2)) == {(5, -7): (2, 1.5)}
        assert run.group_by(2, as_threshold(3)) == {}
        assert run.lookup((5,)) == (2, 1.5) == run.lookup((5, -7))
        assert run.lookup((5, 0)) is None

    def test_width_equal_to_leaf_width_is_the_cells_themselves(self):
        cells = {(a, b): (a + 1, float(b)) for a in range(4) for b in range(3)}
        run = run_of(cells)
        assert run.group_by(2) == cells
        assert run.group_by(1) == {
            (a,): (3 * (a + 1), 3.0) for a in range(4)}

    def test_merge_folds_equal_cells_in_run_order(self):
        first = run_of({(1, 1): (1, 0.5), (2, 2): (1, 1.0)})
        second = run_of({(2, 2): (4, 2.0), (0, 9): (1, 8.0)})
        merged = CellRun.merge([first, second])
        assert merged.codes.tolist() == [[0, 1, 2], [9, 1, 2]]
        assert merged.cells() == {
            (0, 9): (1, 8.0), (1, 1): (1, 0.5), (2, 2): (5, 3.0)}

    def test_project_is_the_cuboid(self):
        relation = zipf_relation(300, [6, 5, 4], seed=3)
        root = leaf_run(ColumnarFrame.from_relation(relation), DIMS)
        for positions in ([2], [0, 2], [1, 2]):
            leaf = tuple(DIMS[p] for p in positions)
            assert root.project(positions).cells() \
                == naive_cuboid(relation, leaf)

    def test_leaf_run_sorts_by_the_cuboids_own_order(self):
        relation = zipf_relation(200, [5, 4, 3], seed=1)
        frame = ColumnarFrame.from_relation(relation)
        run = leaf_run(frame, ("C", "A"))
        assert list(zip(*run.codes.tolist())) == sorted(
            naive_cuboid(relation, ("C", "A")))
        assert run.cells() == naive_cuboid(relation, ("C", "A"))
        with pytest.raises(PlanError):
            leaf_run(frame, ("A", "nope"))


# ----------------------------------------------------------------------
# bytes
# ----------------------------------------------------------------------
def sample_run(n_rows=400, seed=11):
    relation = zipf_relation(n_rows, [9, 7, 5], skew=0.8, seed=seed)
    return relation, leaf_run(ColumnarFrame.from_relation(relation), DIMS)


class TestEncoding:
    @pytest.mark.parametrize("block", [2, 3, 4, 5, 6, 7])
    def test_groups_straddling_block_boundaries(self, block):
        relation, run = sample_run()
        with mock.patch.object(columnar, "RUN_BLOCK_CELLS", block):
            data = run.encode()
            back = CellRun.decode(data)
            assert back.encode() == data
            # the same cells arriving in ragged pieces: the same bytes
            out = io.BytesIO()
            writer = RunWriter(out.write, run.dims)
            at, step = 0, 1
            while at < len(run):
                writer.add(run.codes[:, at:at + step], run.counts[at:at + step],
                           run.sums[at:at + step])
                at, step = at + step, step % 11 + 1
            writer.finish()
            assert out.getvalue() == data
        for width in (1, 2, 3):
            for minsup in (1, 3):
                assert back.group_by(width, as_threshold(minsup)) == oracle(
                    relation, DIMS[:width], minsup)

    def test_encode_decode_encode_is_byte_stable(self):
        _relation, run = sample_run(5000)
        data = run.encode()
        back = CellRun.decode(data)
        assert back.dims == run.dims
        assert (back.codes == run.codes).all()
        assert back.counts.tolist() == run.counts.tolist()
        assert back.sums.tolist() == run.sums.tolist()
        assert back.encode() == data
        assert CellRun.from_cells(run.dims, run.cells()).encode() == data

    @pytest.mark.parametrize("lo, hi, itemsize", [
        (0, 255, 1), (0, 256, 2), (-128, 127, 1), (-128, 128, 2),
        (-129, 0, 2), (0, 65535, 2), (0, 65536, 4), (-32768, 32767, 2),
        (-32768, 32768, 4), (-32769, 0, 4), (0, 2 ** 32 - 1, 4),
        (0, 2 ** 32, 8), (-2 ** 31, 2 ** 31 - 1, 4), (-2 ** 31, 2 ** 31, 8),
        (-2 ** 31 - 1, 0, 8), (-2 ** 63, 2 ** 63 - 1, 8),
    ])
    def test_a_column_takes_the_narrowest_dtype_its_range_needs(
            self, lo, hi, itemsize):
        def two_cells(a, b):
            return CellRun.from_cells(("A",), {(a,): (1, 0.5), (b,): (2, 1.5)})

        data = two_cells(lo, hi).encode()
        assert len(data) - len(two_cells(0, 1).encode()) == 2 * (itemsize - 1)
        assert CellRun.decode(data).cells() == {(lo,): (1, 0.5),
                                                (hi,): (2, 1.5)}

    def test_damaged_bytes_are_refused_not_misread(self):
        _relation, run = sample_run()
        data = run.encode()
        for bad in (b"", data[:3], data[:len(data) // 2], data[:-1],
                    data + b"\x00", b"XXXX" + data[4:]):
            with pytest.raises(SchemaError):
                CellRun.decode(bad)

    def test_a_frame_cut_short_is_refused(self):
        _relation, run = sample_run()
        data = encode_runs([run, run])
        assert [back.encode() for back in decode_runs(data)] \
            == [run.encode()] * 2
        for end in (3, 8, len(data) // 2 + 4, len(data) - 1):
            with pytest.raises(SchemaError, match="cut short"):
                decode_runs(data[:end])


class TestInt64Limit:
    def test_int64_extremes_are_storable(self, tmp_path):
        relation = Relation(("A", "B"), [(2 ** 63 - 1, 0), (-2 ** 63, 1),
                                         (2 ** 63 - 1, 0)], [1.0, 2.0, 4.0])
        for backend in ("local", "simulated"):
            with CubeStore.build(relation, tmp_path / backend,
                                 backend=backend) as store:
                assert store.query(("A",)) == {
                    (2 ** 63 - 1,): (2, 5.0), (-2 ** 63,): (1, 2.0)}
                assert store.point(("A", "B"), (-2 ** 63, 1)) == (1, 2.0)

    def test_one_past_int64_is_refused_at_build_and_append(self, tmp_path):
        for bad in (2 ** 63, -2 ** 63 - 1):
            relation = Relation(("A", "B"), [(bad, 0)], [1.0])
            for backend in ("local", "simulated"):
                with pytest.raises(SchemaError):
                    CubeStore.build(relation, tmp_path / "bad", backend=backend)
        with CubeStore.build(Relation(("A", "B"), [(1, 2)], [1.0]),
                             tmp_path / "ok") as store:
            with pytest.raises(SchemaError):
                store.append(Relation(("A", "B"), [(2 ** 63, 0)], [1.0]))
            assert store.generation == 1 and len(store.wal) == 0
            assert store.append(Relation(("A", "B"), [(2 ** 63 - 1, 0)],
                                         [1.0])).applied


# ----------------------------------------------------------------------
# leaf files in a store
# ----------------------------------------------------------------------
@pytest.fixture
def built(tmp_path, small_skewed):
    directory = str(tmp_path / "store")
    CubeStore.build(small_skewed, directory, backend="local").close()
    return directory


def leaf_path(directory, leaf):
    with CubeStore.open(directory, verify="off") as store:
        return os.path.join(directory,
                            store.snapshot().entries[leaf]["file"])


class TestRunFilesInAStore:
    def test_manifest_is_format_3_without_an_index(self, built):
        with open(os.path.join(built, MANIFEST)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == 3
        for entry in manifest["leaves"]:
            assert sorted(entry) == ["bytes", "cells", "cuboid", "file",
                                     "sha256"]
            assert entry["file"].endswith(".run")

    def test_two_builds_are_byte_identical(self, tmp_path, small_skewed, built):
        again = str(tmp_path / "again")
        CubeStore.build(small_skewed, again, backend="local",
                        workers=2).close()
        assert store_fingerprint(again) == store_fingerprint(built)

    def test_bit_flip_and_truncation_salvaged_at_full_verify(
            self, built, small_skewed):
        flipped, cut = ("A", "D"), ("B", "C", "D")
        path = leaf_path(built, flipped)
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) - 9)
            byte = handle.read(1)
            handle.seek(os.path.getsize(path) - 9)
            handle.write(bytes([byte[0] ^ 0x01]))
        os.truncate(leaf_path(built, cut), 20)
        with CubeStore.open(built, verify="full") as store:
            assert sorted(store.recovery["salvaged"]) == [flipped, cut]
            for leaf in (flipped, cut):
                assert store.query(leaf) == naive_cuboid(small_skewed, leaf)
        with CubeStore.open(built, verify="full") as store:
            assert store.recovery["salvaged"] == []

    def test_damaged_root_leaf_is_fatal(self, built):
        root = ("A", "B", "C", "D")
        path = leaf_path(built, root)
        with open(path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff")
        with pytest.raises(StoreCorruptError) as info:
            CubeStore.open(built, verify="full")
        assert info.value.leaf == root

    def test_unverified_damage_surfaces_on_load(self, built):
        victim = ("C", "D")
        os.truncate(leaf_path(built, victim), 25)
        with CubeStore.open(built, verify="off") as store:
            with pytest.raises(StoreCorruptError) as info:
                store.query(victim)
            assert info.value.leaf == victim
            assert store.query(("A", "D"))  # the others still answer


# ----------------------------------------------------------------------
# store migrate (format 2 -> 3)
# ----------------------------------------------------------------------
def write_v2_store(directory, relation):
    """A format-2 store as PR 2-13 wrote it: CSV leaves, ``index``."""
    os.makedirs(directory)
    leaves = []
    for leaf in leaf_cuboids(relation.dims):
        rows = sorted(naive_cuboid(relation, leaf).items())
        text = ",".join(leaf + ("count", "sum")) + "\n" + "".join(
            ",".join(map(str, cell)) + ",%d,%r\n" % agg for cell, agg in rows)
        data = text.encode()
        name = "_".join(leaf) + ".csv"
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
        leaves.append({"cuboid": list(leaf), "file": name, "cells": len(rows),
                       "bytes": len(data),
                       "sha256": hashlib.sha256(data).hexdigest(),
                       "index": {}})
    with open(os.path.join(directory, MANIFEST), "w") as handle:
        json.dump({
            "format": "repro-cube-store/1", "format_version": 2,
            "dims": list(relation.dims), "generation": 1,
            "total_rows": len(relation),
            "total_measure": sum(relation.measures),
            "applied_batches": {}, "shard": None, "leaves": leaves,
        }, handle, indent=2, sort_keys=True)


class TestStoreMigrate:
    def test_open_names_the_command(self, tmp_path, small_skewed):
        old = str(tmp_path / "old")
        write_v2_store(old, small_skewed)
        with pytest.raises(SchemaError, match="repro-cube store migrate"):
            CubeStore.open(old)

    def test_migrated_store_is_the_store_a_build_writes(
            self, tmp_path, small_skewed, built, capsys):
        old = str(tmp_path / "old")
        write_v2_store(old, small_skewed)
        assert main(["store", "migrate", old]) == 0
        assert "format 2 -> 3" in capsys.readouterr().out
        assert store_fingerprint(old) == store_fingerprint(built)
        with CubeStore.open(old, verify="full") as migrated, \
                CubeStore.open(built) as fresh:
            for cuboid in migrated.owned_cuboids():
                assert migrated.query(cuboid, 2) == fresh.query(cuboid, 2)
        assert main(["store", "migrate", old]) == 2  # nothing left to do

    def test_crash_before_the_manifest_leaves_a_v2_store(
            self, tmp_path, small_skewed, built):
        old = str(tmp_path / "old")
        write_v2_store(old, small_skewed)
        before = store_fingerprint(old)
        with Cut(1, op="atomic_write") as cut:
            main(["store", "migrate", old])
        assert cut.fired
        after = store_fingerprint(old)
        assert {n: h for n, h in after.items() if not n.endswith(".run")} \
            == before
        assert main(["store", "migrate", old]) == 0
        assert store_fingerprint(old) == store_fingerprint(built)

    def test_crash_after_the_manifest_leaves_csvs_for_the_sweep(
            self, tmp_path, small_skewed, built):
        old = str(tmp_path / "old")
        write_v2_store(old, small_skewed)
        with Cut(1, op="unlink") as cut:
            main(["store", "migrate", old])
        assert cut.fired
        assert any(name.endswith(".csv") for name in os.listdir(old))
        with CubeStore.open(old, verify="quick") as store:
            assert all(name.endswith(".csv")
                       for name in store.recovery["orphans_removed"])
            assert len(store.recovery["orphans_removed"]) == len(store.leaves)
        assert store_fingerprint(old) == store_fingerprint(built)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestLoadAndMergeSpans:
    def test_fire_per_load_and_per_merge_never_per_query(
            self, built, small_skewed):
        with obs.installed() as active, \
                CubeStore.open(built, verify="off") as store:
            for _ in range(3):
                store.query(("A",), 2)
                store.point(("A",), (0,))
            load, = active.tracer.spans("store.load_leaf")
            assert load.attrs["leaf"] == "A/D"
            assert load.attrs["cells"] == len(store.leaf_items(("A", "D")))
            assert load.attrs["bytes"] == store.snapshot().entries[
                ("A", "D")]["bytes"]
            assert active.tracer.spans("store.merge_delta") == []

            store.append(small_skewed.slice(0, 10))
            for _ in range(3):
                store.query(("A",), 2)
            merge, = active.tracer.spans("store.merge_delta")
            assert merge.attrs == {"leaf": "A/D", "pending_rows": 10,
                                   "base_cells": load.attrs["cells"]}
            store.append(small_skewed.slice(10, 30))
            store.query(("A",), 2)
            assert [span.attrs["pending_rows"] for span in
                    active.tracer.spans("store.merge_delta")] == [10, 30]
            assert len(active.tracer.spans("store.load_leaf")) == 1
            assert len(active.tracer.spans("store.query")) == 7
