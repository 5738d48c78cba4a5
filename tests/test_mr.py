"""The one-round MapReduce backend: planner, shuffle, engine, faults."""

import glob
import hashlib
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultPlan, NodeCrash
from repro.online.materialize import leaf_cuboids
from repro.core.naive import naive_iceberg_cube
from repro.core.thresholds import AndThreshold, CountThreshold, SumThreshold
from repro.data import Relation, zipf_relation
from repro.data.stream import (
    MaterializedSplit,
    RelationStream,
    stream_from_relation,
    zipf_stream,
)
from repro.data.weather import _BY_NAME
from repro.errors import PlanError
from repro.mr import (
    MIN_MEMORY_BUDGET,
    mapreduce_iceberg_cube,
    mapreduce_materialize,
    plan_mapreduce,
    shuffle,
)
from repro.serve import stable_shard_hash
from repro.serve.store import CubeStore, _leaf_filename

DIMS4 = ("d0", "d1", "d2", "d3")
CARDS4 = [8, 6, 5, 4]


def small_stream(n_rows=3_000, seed=7, split_rows=800):
    return zipf_stream(n_rows, CARDS4, skew=1.0, seed=seed, dims=DIMS4,
                       split_rows=split_rows)


def assert_same_cube(result, oracle, tolerance=1e-6):
    diff = result.diff(oracle, tolerance=tolerance, limit=5)
    assert not diff, diff


def leaf_bytes(directory, dims):
    """Map every leaf cuboid to its on-disk file bytes."""
    out = {}
    for leaf in leaf_cuboids(dims):
        path = os.path.join(directory, _leaf_filename(leaf))
        with open(path, "rb") as handle:
            out[leaf] = handle.read()
    return out


def manifest_sha256(directory):
    with open(os.path.join(directory, "manifest.json"), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ---------------------------------------------------------------- planner


def test_plan_covers_every_leaf():
    plan = plan_mapreduce(DIMS4, CARDS4, n_reducers=3)
    leaves = leaf_cuboids(DIMS4)
    assert sorted(plan.leaves) == sorted(leaves)
    assert len(plan.partition_of_leaf) == len(plan.leaves)
    assert set(plan.partition_of_leaf) == set(range(3))
    # order-k batching balances *estimated cells*, not leaf counts: the
    # heaviest leaf (the full-order one) must sit alone until lighter
    # partitions catch up, so every partition ends up used
    heavy = plan.leaves.index(DIMS4)
    light = [plan.partition_of_leaf[i] for i, leaf in enumerate(plan.leaves)
             if len(leaf) == 2]
    assert plan.partition_of_leaf[heavy] not in light


def test_plan_more_reducers_than_leaves():
    plan = plan_mapreduce(("a", "b"), [4, 4], n_reducers=16)
    assert plan.n_reducers == 16
    assert len(plan.leaves) == 2


def test_plan_rejects_keys_wider_than_63_bits():
    names = tuple(_BY_NAME)
    cards = [card for card, _skew in _BY_NAME.values()]
    with pytest.raises(PlanError) as err:
        plan_mapreduce(names, cards, n_reducers=4)
    message = str(err.value)
    assert "63" in message and "bit" in message


def test_memory_budget_floor(tmp_path):
    with pytest.raises(PlanError):
        mapreduce_materialize(small_stream(200), str(tmp_path / "s"),
                              workers=1, memory_budget=1024)


# ---------------------------------------------------------------- shuffle


def test_run_files_are_packed_iqqd_records(tmp_path):
    records = [(0, 0, 1, 0.5), (0, (1 << 63) - 1, 7, -2.25),
               (3, 12, 1 << 40, 1e300), (2 ** 31 - 1, 5, 2, 3.0)]
    path = str(tmp_path / "a.run")
    nbytes = shuffle.write_run(path, records)
    with open(path, "rb") as handle:
        data = handle.read()
    assert data == b"".join(struct.pack("<iqqd", *r) for r in records)
    assert nbytes == len(data) == shuffle.RECORD_SIZE * len(records)
    assert list(shuffle.merge_runs([path])) == records
    assert not glob.glob(str(tmp_path / "*.tmp.*"))


def test_spilled_runs_are_packed_iqqd_records(tmp_path):
    stream = small_stream(1_500, split_rows=700)
    mapreduce_materialize(stream, str(tmp_path / "s"), workers=1, reducers=2,
                          shuffle_dir=str(tmp_path / "shuffle"),
                          keep_shuffle=True)
    paths = sorted(glob.glob(str(tmp_path / "shuffle" / "*" / "*.run")))
    assert len(paths) == 6  # 3 map tasks x 2 partitions
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        records = list(struct.iter_unpack("<iqqd", data))
        assert records == sorted(records, key=lambda r: r[:2])
        assert len({r[:2] for r in records}) == len(records)
        assert records == list(shuffle.merge_runs([path]))


_RUNS = st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 24)),
        st.tuples(st.integers(1, 5),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        max_size=30),
    min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(runs=_RUNS, block=st.integers(2, 7))
def test_block_merge_equals_sorted_dict_fold(runs, block):
    """Any block size gives the fold of a sorted dict: every
    ``(leaf, key)`` once, in order, its values added in run-path order,
    never split across two blocks."""
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, run in enumerate(runs):
            paths.append(os.path.join(tmp, "%02d.run" % i))
            shuffle.write_run(paths[-1], [key + run[key]
                                          for key in sorted(run)])
            for key, (count, value) in run.items():
                reference.setdefault(key, []).append((count, value))
        with mock.patch.object(shuffle, "MERGE_BLOCK", block):
            blocks = [tuple(column.tolist() for column in merged)
                      for merged in shuffle.merge_blocks(paths)]
        whole = list(shuffle.merge_runs(paths))
    expected = [
        key + (sum(count for count, _v in parts),
               # the same primitive over the values in path order
               float(np.add.reduceat(
                   np.array([value for _c, value in parts]), [0])[0]))
        for key, parts in sorted(reference.items())
    ]
    merged = [record for columns in blocks for record in zip(*columns)]
    assert merged == expected  # exact: floats compared bit for bit
    assert merged == whole     # ... and independent of the block size
    seen = [record[:2] for record in merged]
    assert seen == sorted(set(seen))
    # bounded memory: a step never takes more than a block from a run
    assert all(len(columns[0]) <= block * len(runs) for columns in blocks)


# ------------------------------------------------- vectorised mapper/reducer


def _all_combinations_stream():
    """Two identical splits holding every (a, b, c) combination once:
    leaf (a,b,c) has 16 cells in 4 prefix groups of 4, (a,c) and (b,c)
    8 cells in 2 groups of 4, (c) 4 cells and no prefix; every run holds
    every key, so a merge step takes ``MERGE_BLOCK`` records from each
    run and block boundaries fall at multiples of it (36 keys in all).
    """
    rows = [(a, b, c) for a in range(2) for b in range(2) for c in range(4)]
    splits = [MaterializedSplit(i, rows, [measure + 0.125 * j
                                          for j in range(len(rows))])
              for i, measure in enumerate((1.0, 2.0))]
    return RelationStream(("a", "b", "c"), splits,
                          {"a": 2, "b": 2, "c": 4})


@pytest.mark.parametrize("minsup", [1, 3, SumThreshold(20.0)],
                         ids=["count1", "count3", "sum20"])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 5, 7, 16, 4096])
def test_prefix_groups_straddling_blocks(block, minsup):
    """Block 3 cuts every 4-cell prefix group, puts the end of leaf
    (a,b,c) and the start of (a,c) in one block and ends on a block of
    leaf (c) only; 4 and 16 end blocks exactly at group and leaf
    boundaries; 5 and 7 leave one and one record to the last block;
    at minsup 3 leaf cells (count 2) fail while their groups pass."""
    stream = _all_combinations_stream()
    oracle = naive_iceberg_cube(stream.materialize(), minsup=minsup)
    with mock.patch.object(shuffle, "MERGE_BLOCK", block):
        result = mapreduce_iceberg_cube(stream, minsup=minsup, workers=1,
                                        reducers=1)
    assert_same_cube(result, oracle, tolerance=0.0)


def test_empty_split_among_full_ones(tmp_path):
    relation = zipf_relation(600, CARDS4, skew=1.0, seed=5, dims=DIMS4)
    full = stream_from_relation(relation, split_rows=300)
    splits = [full.splits[0], MaterializedSplit(1, [], []),
              MaterializedSplit(2, full.splits[1].rows,
                                full.splits[1].measures)]
    stream = RelationStream(DIMS4, splits, full.cardinalities)
    result = mapreduce_iceberg_cube(stream, minsup=2, workers=1)
    assert_same_cube(result, naive_iceberg_cube(relation, minsup=2),
                     tolerance=0.0)
    assert result.mr_stats.map_tasks == 3
    assert result.mr_stats.spills == 3  # the empty one spills no run
    assert result.mr_stats.runs == 2 * result.mr_stats.reduce_tasks


def test_63_bit_keys_with_the_top_field_set():
    cards = [1 << 20, 1 << 20, 1 << 20, 8]
    dims = ("w", "x", "y", "z")
    top = (1 << 20) - 1
    rows = [(top, top, top, 7), (top, 0, top, 7), (top, top, top, 7),
            (0, 0, 0, 0), (top, top, 0, 3), (1, top, 2, 7), (top, 0, top, 1)]
    rows = rows * 3
    relation = Relation(dims, rows, [float(i % 5 + 1)
                                     for i in range(len(rows))],
                        cardinalities=dict(zip(dims, cards)))
    plan = plan_mapreduce(dims, cards, n_reducers=2)
    assert plan.packing.total_bits == 63
    assert plan.packing.pack(rows[0]) == (1 << 63) - 1
    stream = stream_from_relation(relation, split_rows=8)
    stream.cardinalities = dict(zip(dims, cards))
    for minsup in (1, 4):
        result = mapreduce_iceberg_cube(stream, minsup=minsup, workers=1,
                                        reducers=2)
        assert_same_cube(result, naive_iceberg_cube(relation, minsup=minsup),
                         tolerance=0.0)


def test_store_respects_dim_projection(tmp_path):
    """The mapper's ``row_positions`` path, store mode: projecting and
    reordering dims in the mapper equals building from the projected
    relation."""
    relation = zipf_relation(1_500, CARDS4, skew=1.0, seed=13, dims=DIMS4)
    sub = ("d2", "d0", "d3")
    stream = RelationStream(
        DIMS4, stream_from_relation(relation, split_rows=400).splits,
        dict(zip(DIMS4, CARDS4)))
    mapreduce_materialize(stream, str(tmp_path / "mr"), dims=sub, workers=1)
    CubeStore.build(relation, str(tmp_path / "classic"), dims=sub,
                    backend="local")
    assert leaf_bytes(str(tmp_path / "mr"), sub) == \
        leaf_bytes(str(tmp_path / "classic"), sub)


# ----------------------------------------------------------- cube oracle


@pytest.mark.parametrize(
    "minsup",
    [1, 3, SumThreshold(150.0),
     AndThreshold(CountThreshold(2), SumThreshold(120.0))],
    ids=["count1", "count3", "sum150", "count2-and-sum120"])
def test_cube_matches_naive_oracle(minsup):
    stream = small_stream()
    result = mapreduce_iceberg_cube(stream, minsup=minsup, workers=1)
    oracle = naive_iceberg_cube(stream.materialize(), minsup=minsup)
    assert_same_cube(result, oracle)
    assert result.mr_stats.rows == stream.n_rows


def test_cube_respects_dim_projection():
    stream = small_stream(2_000)
    sub = ("d2", "d0", "d3")
    result = mapreduce_iceberg_cube(stream, dims=sub, minsup=2, workers=1)
    oracle = naive_iceberg_cube(stream.materialize(), dims=sub, minsup=2)
    assert_same_cube(result, oracle)


def test_sum_threshold_rejects_negative_measures():
    relation = Relation(("a", "b"), [(0, 1), (1, 0)], [5.0, -1.0])
    with pytest.raises(PlanError):
        mapreduce_iceberg_cube(relation, minsup=SumThreshold(1.0), workers=1)


def test_empty_input(tmp_path):
    stream = zipf_stream(0, [4, 4], dims=("a", "b"), seed=0)
    result = mapreduce_iceberg_cube(stream, minsup=1, workers=1)
    assert result.total_cells() == 0
    stores_dir = str(tmp_path / "empty")
    store = mapreduce_materialize(stream, stores_dir, workers=1)
    assert store.total_rows == 0
    reopened = CubeStore.open(stores_dir)
    assert reopened.total_rows == 0


# ------------------------------------------------------ store equivalence


def test_store_byte_identical_to_classic_build(tmp_path):
    relation = zipf_relation(4_000, CARDS4, skew=1.0, seed=11, dims=DIMS4)
    classic = CubeStore.build(relation, str(tmp_path / "classic"),
                              backend="local")
    mr = mapreduce_materialize(stream_from_relation(relation, split_rows=900),
                               str(tmp_path / "mr"), workers=1)
    assert mr.total_rows == classic.total_rows
    assert mr.total_measure == pytest.approx(classic.total_measure, abs=1e-9)
    assert leaf_bytes(str(tmp_path / "mr"), DIMS4) == \
        leaf_bytes(str(tmp_path / "classic"), DIMS4)
    assert manifest_sha256(str(tmp_path / "mr")) == \
        manifest_sha256(str(tmp_path / "classic"))


def test_starved_budget_spills_and_reproduces_exactly():
    stream = small_stream(12_000, split_rows=6_000)
    roomy = mapreduce_iceberg_cube(stream, minsup=2, workers=1)
    starved = mapreduce_iceberg_cube(stream, minsup=2, workers=1,
                                     memory_budget=MIN_MEMORY_BUDGET)
    assert_same_cube(starved, roomy, tolerance=0.0)
    assert starved.mr_stats.spills > roomy.mr_stats.spills
    assert starved.mr_stats.spill_bytes > 0
    assert starved.mr_stats.runs_merged >= starved.mr_stats.runs


def test_sharded_store_single_pass(tmp_path):
    stream = small_stream(2_500)
    stores = mapreduce_materialize(stream, str(tmp_path / "sharded"),
                                   workers=1, shards=3)
    assert [store.shard for store in stores] == [(i, 3) for i in range(3)]
    seen = set()
    for index, store in enumerate(stores):
        for leaf in store.leaves:
            assert stable_shard_hash(leaf) % 3 == index
            seen.add(leaf)
        assert store.total_rows == stream.n_rows
    assert seen == set(leaf_cuboids(DIMS4))


# -------------------------------------------------------------- faults


def _no_tmp_droppings(directory):
    strays = [path for path in glob.glob(os.path.join(directory, "**", "*"),
                                         recursive=True)
              if ".tmp." in os.path.basename(path)]
    assert not strays, strays


def test_map_worker_sigkill_mid_spill_recovers(tmp_path):
    relation = zipf_relation(4_000, CARDS4, skew=1.0, seed=23, dims=DIMS4)
    stream = stream_from_relation(relation, split_rows=500)  # 8 map tasks
    plain = mapreduce_materialize(stream, str(tmp_path / "plain"), workers=2,
                                  reducers=2, memory_budget=MIN_MEMORY_BUDGET)
    faults = FaultPlan(crashes=[NodeCrash(0, 0.0), NodeCrash(2, 0.0)], seed=3)
    faulty = mapreduce_materialize(stream, str(tmp_path / "faulty"), workers=2,
                                   reducers=2, memory_budget=MIN_MEMORY_BUDGET,
                                   fault_plan=faults, batch_timeout=30)
    log = faulty.mr_stats.map_recovery
    assert log.worker_crashes >= 1
    # the killed attempts left durable spill files behind; the sweep
    # must have collected them rather than let the merge read them
    assert faulty.mr_stats.orphan_files_swept > 0
    assert faulty.total_rows == plain.total_rows == 4_000
    assert leaf_bytes(str(tmp_path / "faulty"), DIMS4) == \
        leaf_bytes(str(tmp_path / "plain"), DIMS4)
    _no_tmp_droppings(str(tmp_path / "faulty"))


def test_reduce_worker_sigkill_mid_merge_recovers(tmp_path):
    relation = zipf_relation(3_000, CARDS4, skew=1.0, seed=29, dims=DIMS4)
    stream = stream_from_relation(relation, split_rows=750)  # 4 map tasks
    plain = mapreduce_materialize(stream, str(tmp_path / "plain"), workers=2,
                                  reducers=2)
    # reduce task ids start after the map tasks: kill partition 0
    faults = FaultPlan(crashes=[NodeCrash(4, 0.0)], seed=5)
    faulty = mapreduce_materialize(stream, str(tmp_path / "faulty"), workers=2,
                                   reducers=2, fault_plan=faults,
                                   batch_timeout=30)
    assert faulty.mr_stats.reduce_recovery.worker_crashes >= 1
    assert leaf_bytes(str(tmp_path / "faulty"), DIMS4) == \
        leaf_bytes(str(tmp_path / "plain"), DIMS4)
    _no_tmp_droppings(str(tmp_path / "faulty"))
    # a half-written leaf from the killed attempt must not have leaked
    # into the manifest: the reopened store passes full verification
    reopened = CubeStore.open(str(tmp_path / "faulty"), verify="full")
    assert reopened.total_rows == 3_000


def test_cube_under_faults_matches_oracle():
    stream = small_stream(2_000, split_rows=500)
    faults = FaultPlan(crashes=[NodeCrash(1, 0.0)], seed=7)
    result = mapreduce_iceberg_cube(stream, minsup=2, workers=2,
                                    fault_plan=faults, batch_timeout=30)
    assert result.recovery.worker_crashes >= 1
    oracle = naive_iceberg_cube(stream.materialize(), minsup=2)
    assert_same_cube(result, oracle)
