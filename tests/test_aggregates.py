"""Gray et al.'s aggregate classification and merge correctness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    ALGEBRAIC,
    DISTRIBUTIVE,
    HOLISTIC,
    exact_parts,
    exact_sum,
    from_count_sum,
    get_aggregate,
)
from repro.errors import SchemaError

MEASURES = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50)


def apply(func, values):
    state = func.initial()
    for v in values:
        state = func.step(state, v)
    return func.final(state)


class TestClassification:
    def test_kinds_match_the_paper(self):
        assert get_aggregate("count").kind == DISTRIBUTIVE
        assert get_aggregate("sum").kind == DISTRIBUTIVE
        assert get_aggregate("min").kind == DISTRIBUTIVE
        assert get_aggregate("max").kind == DISTRIBUTIVE
        assert get_aggregate("avg").kind == ALGEBRAIC
        assert get_aggregate("median").kind == HOLISTIC

    def test_mergeable_excludes_holistic(self):
        assert get_aggregate("sum").mergeable
        assert get_aggregate("avg").mergeable
        assert not get_aggregate("median").mergeable

    def test_lookup_is_case_insensitive(self):
        assert get_aggregate("SUM").name == "sum"

    def test_unknown_aggregate_raises(self):
        with pytest.raises(SchemaError):
            get_aggregate("mode")


class TestValues:
    def test_basic_values(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert apply(get_aggregate("count"), values) == 5
        assert apply(get_aggregate("sum"), values) == 14.0
        assert apply(get_aggregate("min"), values) == 1.0
        assert apply(get_aggregate("max"), values) == 5.0
        assert apply(get_aggregate("avg"), values) == 14.0 / 5

    def test_median_odd_and_even(self):
        assert apply(get_aggregate("median"), [5.0, 1.0, 3.0]) == 3.0
        assert apply(get_aggregate("median"), [4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_empty_finals(self):
        assert apply(get_aggregate("min"), []) is None
        assert apply(get_aggregate("avg"), []) is None
        assert apply(get_aggregate("median"), []) is None


class TestMergeProperty:
    """F(T) == G(F(S1), F(S2)) — the distributive/algebraic law the
    partitioned algorithms (BPP, POL) rely on."""

    @pytest.mark.parametrize("name", ["count", "sum", "min", "max", "avg"])
    @given(values=MEASURES, split=st.integers(0, 49))
    @settings(max_examples=40, deadline=None)
    def test_split_merge_equals_whole(self, name, values, split):
        func = get_aggregate(name)
        split = min(split, len(values))
        left_state = func.initial()
        for v in values[:split]:
            left_state = func.step(left_state, v)
        right_state = func.initial()
        for v in values[split:]:
            right_state = func.step(right_state, v)
        merged = func.final(func.merge(left_state, right_state))
        whole = apply(func, values)
        if isinstance(merged, float) and isinstance(whole, float):
            assert merged == pytest.approx(whole, rel=1e-9, abs=1e-6)
        else:
            assert merged == whole


class TestExactSum:
    """The total a store's apex answers: MapReduce mappers report
    ``exact_parts`` of their splits and the pool sums the whole."""

    @given(values=st.lists(st.floats(-1e300, 1e300), max_size=60),
           cuts=st.lists(st.integers(0, 60), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_parts_of_any_split_sum_to_the_whole_bit_for_bit(self, values,
                                                             cuts):
        cuts = sorted(min(cut, len(values)) for cut in cuts)
        pieces = [values[a:b]
                  for a, b in zip([0] + cuts, cuts + [len(values)])]
        split = exact_sum(part for piece in pieces
                          for part in exact_parts(piece))
        assert split == exact_sum(values)

    def test_no_exact_total_falls_back_to_the_float_sum(self):
        inf = float("inf")
        assert exact_sum([inf, 1.0]) == inf
        assert exact_sum([1e308, 1e308]) == inf
        assert exact_sum([inf, -inf]) != exact_sum([inf, -inf])  # nan
        assert exact_parts([inf, 2.0]) == [inf]


class TestFromCountSum:
    def test_derivable_aggregates(self):
        assert from_count_sum("count", 4, 10.0) == 4
        assert from_count_sum("sum", 4, 10.0) == 10.0
        assert from_count_sum("avg", 4, 10.0) == 2.5
        assert from_count_sum("avg", 0, 0.0) is None

    def test_non_derivable_rejected(self):
        with pytest.raises(SchemaError):
            from_count_sum("min", 4, 10.0)
