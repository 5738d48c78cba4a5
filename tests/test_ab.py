"""The paired A/B report of ``benchmarks/ab.py``: its statistics only
(running the benchmark itself takes minutes)."""

import importlib.util
import os
import random

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "ab.py")
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_raw_values_undo_the_host_slowdown():
    assert ab.raw_value(0.2, "s", 1.5) == pytest.approx(0.3)
    assert ab.raw_value(3.0, "ms", 2.0) == pytest.approx(6.0)
    assert ab.raw_value(9000.0, "rows/s", 1.5) == pytest.approx(6000.0)
    assert ab.raw_value(16.1, "B/cell", 1.5) == 16.1


def test_a_tree_against_itself_is_unresolved():
    pairs = [(v, v) for v in (10.0, 12.0, 9.0, 11.0, 10.5, 9.5)]
    for better in ("lower", "higher"):
        stats = ab.compare(pairs, better, 0.25)
        assert stats["ratio_median"] == 1.0
        assert stats["verdict"] == "unresolved"
        assert stats["wins"] == 0 and not stats["gain_rule"]


@pytest.mark.parametrize("better, factor, verdict", [
    ("higher", 2.0, "better"), ("higher", 0.5, "worse"),
    ("lower", 0.5, "better"), ("lower", 2.0, "worse"),
    ("higher", 1.1, "unresolved"), ("lower", 0.9, "unresolved"),
])
def test_verdict_against_the_bound(better, factor, verdict):
    parent = [10.0, 12.0, 9.0, 11.0, 10.5, 9.5, 10.2, 11.5, 9.8, 10.9]
    stats = ab.compare([(v, v * factor) for v in parent], better, 0.25)
    assert stats["verdict"] == verdict
    assert stats["ratio_median"] == pytest.approx(factor)
    assert stats["ratio_ci95"] == pytest.approx([factor, factor])
    won = (factor < 1) == (better == "lower")
    assert stats["wins"] == (len(parent) if won else 0)
    assert stats["gain_rule"] == (won and abs(factor - 1) > 0.2)


def test_side_orders_are_a_seeded_coin_per_pair():
    orders = ab.side_orders(random.Random(11), 40)
    assert orders == ab.side_orders(random.Random(11), 40)
    assert orders != ab.side_orders(random.Random(12), 40)
    assert set(orders) == {("parent", "change"), ("change", "parent")}


def test_each_pair_copies_both_trees_first_side_alternating(tmp_path):
    snapshots = {}
    for side in ab.SIDES:
        snapshots[side] = tmp_path / "snap" / side
        snapshots[side].mkdir(parents=True)
        (snapshots[side] / "tree.txt").write_text(side)
    made = []
    for index in range(2):
        trees = ab.fresh_trees(snapshots, tmp_path / ("pair%d" % index),
                               index)
        made.append(list(trees))
        assert {side: open(os.path.join(tree, "tree.txt")).read()
                for side, tree in trees.items()} == {s: s for s in ab.SIDES}
    assert made == [["parent", "change"], ["change", "parent"]]
