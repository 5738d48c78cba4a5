"""Columnar kernel: key packing, refinement equivalence, fallbacks.

The contract under test: both kernels (``python``, ``numpy``) produce
the *same cells* as the seed engine and the naive
oracle, for any relation, threshold, dimension order and traversal —
and the packed-key machinery degrades to tuple keys (with a logged
warning) when the cardinalities overflow the 63-bit budget.
"""

import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OpStats, SumThreshold
from repro.core.buc import buc_iceberg_cube
from repro.core.columnar import (
    MAX_KEY_BITS,
    SMALL_RANGE,
    ColumnarFrame,
    KeyPacking,
    NumpyKernel,
    PythonKernel,
    aggregate_cuboid,
    bits_for,
    resolve_kernel,
)
from repro.core.naive import naive_iceberg_cube
from repro.core.result import CubeResult
from repro.core.thresholds import AndThreshold, CountThreshold
from repro.core.writer import ResultWriter
from repro.data import Relation, zipf_relation
from repro.errors import PlanError, SchemaError
from repro.parallel.local import multiprocess_iceberg_cube

KERNEL_NAMES = ["numpy"]


def big_cardinality_relation():
    """Cardinalities whose bit widths sum past 63: packing impossible."""
    rows = [
        (0, 0, 0),
        (2**40 - 1, 2**21 - 1, 5),
        (123456789, 7, 5),
        (2**40 - 1, 2**21 - 1, 5),
        (123456789, 7, 2),
    ]
    return Relation(("A", "B", "C"), rows, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestKeyPacking:
    def test_bits_for(self):
        assert bits_for(0) == 1
        assert bits_for(1) == 1
        assert bits_for(2) == 1
        assert bits_for(3) == 2
        assert bits_for(16) == 4
        assert bits_for(17) == 5

    def test_plan_overflow_returns_none(self):
        assert KeyPacking.plan([2**32, 2**32]) is None
        assert KeyPacking.plan([2**32, 2**31]) is not None

    def test_pack_round_trip(self):
        packing = KeyPacking.plan([16, 3, 7])
        row = (11, 2, 6)
        key = packing.pack(row)
        assert packing.unpack(key, (0, 1, 2)) == row
        for position, code in enumerate(row):
            assert packing.extract(key, position) == code

    def test_mask_selects_prefix(self):
        packing = KeyPacking.plan([4, 4, 4])
        key = packing.pack((3, 1, 2))
        mask = packing.mask_for((0, 1))
        assert packing.unpack(key & mask, (0, 1)) == (3, 1)
        assert packing.unpack(key & mask, (2,)) == (0,)

    @given(
        cards=st.lists(st.integers(1, 50), min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_masked_key_order_is_lexicographic(self, cards, data):
        """Sorting by masked packed key == sorting by the cell tuple."""
        packing = KeyPacking.plan(cards)
        assert packing is not None  # 5 * 6 bits stays under 63
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(0, c - 1) for c in cards]),
                min_size=0,
                max_size=20,
            )
        )
        positions = data.draw(st.permutations(range(len(cards))))
        # Only *prefix-in-layout-order* masks promise lexicographic
        # order; take a sorted prefix of the permutation.
        k = data.draw(st.integers(1, len(cards)))
        positions = tuple(sorted(positions[:k]))
        mask = packing.mask_for(positions)
        by_key = sorted(rows, key=lambda r: packing.pack(r) & mask)
        by_tuple = sorted(rows, key=lambda r: tuple(r[p] for p in positions))
        assert [tuple(r[p] for p in positions) for r in by_key] == [
            tuple(r[p] for p in positions) for r in by_tuple
        ]


class TestColumnarFrame:
    def test_from_relation(self, sales):
        frame = ColumnarFrame.from_relation(sales)
        assert frame.dims == sales.dims
        assert frame.n_rows == len(sales)
        assert frame.packing is not None
        assert frame.keys is not None
        for i, row in enumerate(sales.rows):
            assert frame.packing.unpack(frame.keys[i], range(len(sales.dims))) \
                == tuple(row)

    def test_overflow_falls_back_to_tuple_keys(self, caplog):
        relation = big_cardinality_relation()
        with caplog.at_level(logging.WARNING, logger="repro.core.columnar"):
            frame = ColumnarFrame.from_relation(relation)
        assert frame.packing is None
        assert frame.keys is None
        assert any("falling back to tuple keys" in r.message
                   for r in caplog.records)
        # The group-by still answers correctly through the tuple path.
        cells = aggregate_cuboid(frame, ("A", "B"))
        assert cells[(2**40 - 1, 2**21 - 1)] == (2, 6.0)
        assert cells[(123456789, 7)] == (2, 8.0)

    def test_dims_subset_and_order(self, sales):
        frame = ColumnarFrame.from_relation(sales, ("Color", "Model"))
        assert frame.dims == ("Color", "Model")
        assert len(frame.columns) == 2


class TestAggregateCuboid:
    @pytest.mark.parametrize("packed", [False, True])
    def test_matches_naive(self, small_skewed, packed):
        # both sorts of leaf_run: masked packed keys, and the dimension
        # columns themselves (no key fits, or a cuboid out of frame order)
        frame = ColumnarFrame.from_relation(
            small_skewed, max_bits=63 if packed else 0)
        assert (frame.keys is not None) == packed
        expected = naive_iceberg_cube(small_skewed, minsup=1)
        for cuboid in [("A",), ("A", "B"), ("B", "D"), ("D", "B"),
                       ("A", "B", "C", "D")]:
            got = aggregate_cuboid(frame, cuboid)
            want = (expected.cuboids[cuboid] if cuboid in expected.cuboids
                    else {cell[::-1]: agg for cell, agg in
                          expected.cuboids[cuboid[::-1]].items()})
            assert set(got) == set(want)
            for cell, (count, total) in got.items():
                assert count == want[cell][0]
                assert total == pytest.approx(want[cell][1])

    def test_threshold_filters(self, sales):
        frame = ColumnarFrame.from_relation(sales)
        everything = aggregate_cuboid(frame, ("Model",))
        filtered = aggregate_cuboid(frame, ("Model",),
                                    threshold=CountThreshold(10))
        assert set(filtered) == {
            c for c, (n, _t) in everything.items() if n >= 10
        }

    def test_unknown_dimension(self, sales):
        frame = ColumnarFrame.from_relation(sales)
        with pytest.raises(PlanError):
            aggregate_cuboid(frame, ("Nope",))

    def test_no_dimensions_is_the_apex(self, sales):
        frame = ColumnarFrame.from_relation(sales)
        assert aggregate_cuboid(frame, ()) == {
            (): (len(sales), sum(sales.measures))}


class TestKernelEquivalence:
    """Forced kernels against the seed engine on fixed workloads."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("breadth_first", [False, True])
    def test_matches_python_kernel(self, small_skewed, kernel, breadth_first):
        expected, _, _ = buc_iceberg_cube(small_skewed, minsup=2,
                                          kernel="python")
        got, _, _ = buc_iceberg_cube(small_skewed, minsup=2, kernel=kernel,
                                     breadth_first=breadth_first)
        assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_sum_threshold(self, small_skewed, kernel):
        threshold = SumThreshold(40.0)
        expected = naive_iceberg_cube(small_skewed, minsup=threshold)
        got, _, _ = buc_iceberg_cube(small_skewed, minsup=threshold,
                                     kernel=kernel, breadth_first=True)
        assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_all_qualify(self, sales, kernel):
        """minsup 1: nothing pruned, every cell of the full cube."""
        expected = naive_iceberg_cube(sales, minsup=1)
        got, _, _ = buc_iceberg_cube(sales, minsup=1, kernel=kernel,
                                     breadth_first=True)
        assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_empty_relation(self, kernel):
        rel = Relation(("A", "B"), [])
        got, _, _ = buc_iceberg_cube(rel, minsup=1, kernel=kernel)
        assert got.total_cells() == 0

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_large_zipf(self, kernel):
        rel = zipf_relation(2000, [12, 8, 6, 5, 3], skew=0.9, seed=3)
        expected, _, _ = buc_iceberg_cube(rel, minsup=3, kernel="python")
        got, _, _ = buc_iceberg_cube(rel, minsup=3, kernel=kernel,
                                     breadth_first=True)
        assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("breadth_first", [False, True])
    @pytest.mark.parametrize(
        "n_rows", [SMALL_RANGE - 1, SMALL_RANGE, SMALL_RANGE + 1,
                   3 * SMALL_RANGE + 5])
    def test_small_range_paths_match_python_kernel(self, n_rows,
                                                   breadth_first):
        """Inputs whose ranges straddle ``SMALL_RANGE`` mix the numpy
        kernel's stdlib loops with its vectorised passes on the way
        down: same cells, and the same group and scan counts (sort units
        differ by design — one composite sort per level)."""
        rel = zipf_relation(n_rows, [3, 4, 2, 5], skew=0.7, seed=n_rows)
        for minsup in (1, 2, 3):
            want, want_stats, _ = buc_iceberg_cube(
                rel, minsup=minsup, kernel="python",
                breadth_first=breadth_first)
            got, got_stats, _ = buc_iceberg_cube(
                rel, minsup=minsup, kernel="numpy",
                breadth_first=breadth_first)
            assert got.cuboids == want.cuboids
            assert got_stats.groups == want_stats.groups
            assert got_stats.scan_tuples == want_stats.scan_tuples


@st.composite
def relations(draw):
    n_dims = draw(st.integers(1, 4))
    cards = draw(st.lists(st.integers(1, 5), min_size=n_dims,
                          max_size=n_dims))
    n_rows = draw(st.integers(0, 40))
    rows = [
        tuple(draw(st.integers(0, c - 1)) for c in cards)
        for _ in range(n_rows)
    ]
    # Integer-valued measures: threshold comparisons never sit on a
    # float rounding boundary, so vectorised and looped accumulation
    # agree exactly.
    measures = [float(draw(st.integers(0, 20))) for _ in range(n_rows)]
    dims = tuple("ABCD"[:n_dims])
    return Relation(dims, rows, measures)


def thresholds():
    return st.one_of(
        st.integers(1, 5).map(CountThreshold),
        st.integers(0, 50).map(lambda v: SumThreshold(float(v))),
        st.tuples(st.integers(1, 3), st.integers(0, 30)).map(
            lambda t: AndThreshold(
                CountThreshold(t[0]), SumThreshold(float(t[1]))
            )
        ),
    )


class TestKernelProperties:
    @given(relation=relations(), threshold=thresholds(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_kernels_match_naive(self, relation, threshold, data):
        dims = tuple(data.draw(st.permutations(relation.dims)))
        expected = naive_iceberg_cube(relation, dims, threshold)
        for kernel in ["python"] + KERNEL_NAMES:
            for breadth_first in (False, True):
                got, _, _ = buc_iceberg_cube(
                    relation, dims, minsup=threshold, kernel=kernel,
                    breadth_first=breadth_first,
                )
                assert got.equals(expected), (
                    kernel, breadth_first, got.diff(expected)
                )

    @given(relation=relations(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_cuboid_matches_naive(self, relation, data):
        k = data.draw(st.integers(1, len(relation.dims)))
        cuboid = tuple(sorted(
            data.draw(st.permutations(relation.dims))[:k],
            key=relation.dims.index,
        ))
        frame = ColumnarFrame.from_relation(relation)
        expected = naive_iceberg_cube(relation, minsup=1)
        got = aggregate_cuboid(frame, cuboid)
        want = expected.cuboids.get(cuboid, {})
        assert set(got) == set(want)
        for cell, (count, total) in got.items():
            assert count == want[cell][0]
            assert total == pytest.approx(want[cell][1])


class TestOverflowFallback:
    def test_sequential_kernels(self):
        relation = big_cardinality_relation()
        expected = naive_iceberg_cube(relation, minsup=1)
        for kernel in KERNEL_NAMES:
            got, _, _ = buc_iceberg_cube(relation, minsup=1, kernel=kernel,
                                         breadth_first=True)
            assert got.equals(expected), got.diff(expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_multiprocess(self, workers, caplog):
        relation = big_cardinality_relation()
        expected = naive_iceberg_cube(relation, minsup=1)
        with caplog.at_level(logging.WARNING, logger="repro.core.columnar"):
            got = multiprocess_iceberg_cube(relation, minsup=1,
                                            workers=workers)
        assert got.equals(expected), got.diff(expected)
        assert any("falling back to tuple keys" in r.message
                   for r in caplog.records)


class TestCountingSortStats:
    def test_bucket_sort_is_charged(self):
        """The ``sorted(buckets)`` pass inside the counting refinement is
        real comparison work and must show up in ``sort_units``."""
        rows = [(i % 5, 0) for i in range(20)]
        relation = Relation(("A", "B"), rows)
        kernel = PythonKernel(relation, relation.dims, counting_sort=True)
        stats = OpStats()
        groups = kernel.refine(0, len(rows), 0, stats)
        assert len(groups) == 5
        # Linear bucketing: two passes of moves, plus the sort of the 5
        # distinct values — NOT a full 20-key comparison sort.
        assert stats.partition_moves == 40
        assert stats.sort_units == pytest.approx(5 * math.log2(5))

    def test_counting_matches_comparison_sort(self, small_skewed):
        plain, _, _ = buc_iceberg_cube(small_skewed, minsup=2,
                                       counting_sort=False)
        counting, _, _ = buc_iceberg_cube(small_skewed, minsup=2,
                                          counting_sort=True)
        assert counting.equals(plain)


class TestKernelResolution:
    def test_auto_picks_fastest(self, sales):
        assert resolve_kernel("auto")(sales, sales.dims).name == "numpy"

    def test_unknown_kernel(self, sales):
        with pytest.raises(PlanError):
            resolve_kernel("bogus")
        with pytest.raises(PlanError):
            resolve_kernel("columnar")  # the stdlib twin is gone

    def test_prebuilt_instance_passes_through(self, sales):
        frame = ColumnarFrame.from_relation(sales)
        kernel = NumpyKernel(frame)
        factory = resolve_kernel(kernel)
        assert factory(sales, sales.dims) is kernel

    def test_frame_kernels(self, sales):
        """What a pool worker does: the kernel straight over a frame."""
        frame = ColumnarFrame.from_relation(sales)
        kernel = NumpyKernel(frame)
        assert kernel.name == "numpy"
        assert kernel.all_aggregate() == (len(sales), sum(sales.measures))


class TestColumnWriting:
    def test_add_columns_accumulates(self):
        result = CubeResult(("A",))
        result.add_columns(("A",), [(0,), (1,)], [2, 3], [5.0, 6.0])
        result.add_columns(("A",), [(1,), (2,)], [1, 4], [1.0, 9.0])
        assert result.cuboids[("A",)] == {
            (0,): (2, 5.0), (1,): (4, 7.0), (2,): (4, 9.0),
        }

    def test_add_columns_rejects_duplicates_in_block(self):
        result = CubeResult(("A",))
        with pytest.raises(SchemaError):
            result.add_columns(("A",), [(0,), (0,)], [1, 1], [1.0, 1.0])

    def test_write_columns_accounting_matches_write_block(self):
        cells = [(0,), (1,), (2,)]
        counts = [2, 3, 4]
        values = [1.0, 2.0, 3.0]
        by_block = ResultWriter(("A", "B"))
        by_block.write_block(("A",), list(zip(cells, counts, values)))
        by_columns = ResultWriter(("A", "B"))
        by_columns.write_columns(("A",), cells, counts, values)
        assert by_columns.cells_written == by_block.cells_written
        assert by_columns.bytes_written == by_block.bytes_written
        assert by_columns.cuboid_switches == by_block.cuboid_switches
        assert by_columns.result.cuboids == by_block.result.cuboids

    def test_write_columns_empty_is_noop(self):
        writer = ResultWriter(("A",))
        writer.write_columns(("A",), [], [], [])
        assert writer.cells_written == 0
        assert writer.cuboid_switches == 0
