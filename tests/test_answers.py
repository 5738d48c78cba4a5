"""Answers are cell runs until the wire.

A served answer holds the run its group-by rolled up, behind a
read-only mapping (:class:`~repro.core.columnar.RunCells`); the JSON
reply is written straight from the run's columns
(:func:`~repro.serve.http.json_body`) and must be byte for byte what
``json.dumps`` made of the sorted cell dicts before.  Point lookups
answer over the canonical cuboid, with the cell's coordinates moved to
match.
"""

import json
import math
from contextlib import ExitStack
from itertools import permutations
from unittest import mock
from urllib.parse import parse_qs, quote
from urllib.request import Request, urlopen

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.columnar import CellRun, RunCells, decode_runs
from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation
from repro.lattice.lattice import CubeLattice
from repro.serve import CubeRouter, CubeServer, CubeStore
from repro.serve.http import CELLRUN_TYPE, json_body, parse_threshold
from repro.serve.server import CubeAnswer, QueryAnswer

#: inf + -inf in one group is nan, and numpy says so
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in reduceat:RuntimeWarning")


# ----------------------------------------------------------------------
# the oracle: the JSON encoder the writer replaced, verbatim
# ----------------------------------------------------------------------
def _cells(cells):
    return [{"cell": list(cell), "count": count, "sum": value}
            for cell, (count, value) in sorted(cells.items())]


def answer_payload(answer, **extra):
    return dict(extra, cuboid=list(answer.cuboid),
                threshold=answer.threshold, generation=answer.generation,
                latency_ms=round(answer.latency_s * 1000.0, 3),
                cells=_cells(answer.cells))


def cube_payload(answer, **extra):
    return dict(extra, threshold=answer.threshold,
                generation=answer.generation,
                latency_ms=round(answer.latency_s * 1000.0, 3),
                cuboids=[{"cuboid": list(cuboid), "cells": _cells(cells)}
                         for cuboid, cells in sorted(answer.cuboids.items())])


def oracle_body(payload):
    return json.dumps(payload).encode()


# ----------------------------------------------------------------------
# the writer, against the oracle
# ----------------------------------------------------------------------
NAMES = ("A", "B", "C", "Ä", 'q"t')
CUBOIDS = sorted(CubeLattice(NAMES).cuboids(include_all=True))
CODES = st.sampled_from((-2 ** 63, -1, 0, 1, 255, 2 ** 63 - 1)) \
    | st.integers(-2 ** 63, 2 ** 63 - 1)
COUNTS = st.integers(1, 2 ** 63 - 1)
SUMS = st.sampled_from((0.1 + 0.2, 1e16, -0.0, 0.0, 5e-324, math.inf,
                        -math.inf, math.nan)) | st.floats()
LATENCIES = st.floats(0, 1e3, allow_nan=False)


def cells_of(width):
    return st.dictionaries(st.tuples(*[CODES] * width),
                           st.tuples(COUNTS, SUMS), max_size=6)


def view_of(cuboid, cells):
    return RunCells(CellRun.from_cells(cuboid, cells))


def dict_answer(answer):
    """The answer with plain dicts where it holds views."""
    if isinstance(answer, CubeAnswer):
        return answer._replace(cuboids={c: dict(v) for c, v in
                                        answer.cuboids.items()})
    return answer._replace(cells=dict(answer.cells))


EXTRA = st.dictionaries(st.sampled_from(("source", "shard", "replica",
                                         "failovers", "attempts")),
                        st.integers(0, 3) | st.text(max_size=4), max_size=3)


class TestWriter:
    @given(st.sampled_from(CUBOIDS).flatmap(
        lambda cuboid: st.tuples(st.just(cuboid), cells_of(len(cuboid)))),
        st.text(max_size=8), st.integers(0, 2 ** 40), LATENCIES, EXTRA)
    @settings(max_examples=80, deadline=None)
    @example((("A", "B"), {(2, 1): (2, 0.1 + 0.2), (1, 9): (1, 1e16)}),
             "COUNT(*) >= 2", 3, 0.0012, {"source": "store"})
    @example(((), {(): (5, -0.0)}), "", 1, 0.0, {})
    @example(((), {}), "SUM(*) >= 1", 1, 0.0, {})
    @example((("C",), {(1,): (1, math.nan), (0,): (2, -math.inf)}),
             "x", 1, 0.0, {})
    def test_query_body_is_json_dumps(self, cuboid_cells, threshold,
                                      generation, latency_s, extra):
        cuboid, cells = cuboid_cells
        answer = QueryAnswer(cuboid, threshold, view_of(cuboid, cells),
                             "store", latency_s, generation)
        assert json_body(answer, **extra) == oracle_body(
            answer_payload(dict_answer(answer), **extra))

    @given(st.lists(st.sampled_from(CUBOIDS), unique=True, max_size=5)
           .flatmap(lambda cuboids: st.fixed_dictionaries(
               {cuboid: cells_of(len(cuboid)) for cuboid in cuboids})),
           st.text(max_size=8), LATENCIES, EXTRA)
    @settings(max_examples=50, deadline=None)
    @example({(): {(): (5, -0.0)}, ("A",): {}, ("A", "B"): {
        (0, 1): (1, math.inf)}}, "COUNT(*) >= 1", 0.5, {"attempts": 2})
    def test_cube_body_is_json_dumps(self, cuboids, threshold, latency_s,
                                     extra):
        answer = CubeAnswer({c: view_of(c, cells)
                             for c, cells in cuboids.items()},
                            threshold, 4, latency_s)
        assert json_body(answer, **extra) == oracle_body(
            cube_payload(dict_answer(answer), **extra))


# ----------------------------------------------------------------------
# the view
# ----------------------------------------------------------------------
class TestRunCells:
    CELLS = {(0, 1): (2, 1.5), (3, -4): (1, -0.0), (3, 5): (7, 1e16)}

    def test_reads_like_the_dict(self):
        view = view_of(("A", "B"), self.CELLS)
        assert view == self.CELLS and self.CELLS == view
        assert not view != self.CELLS and not self.CELLS != view
        assert view == view_of(("A", "B"), dict(self.CELLS))
        assert view != {(0, 1): (2, 1.5)} and {} != view
        assert dict(view) == self.CELLS and type(dict(view)) is dict
        assert not isinstance(view, dict)
        assert len(view) == 3 and len(view_of(("A",), {})) == 0
        assert (3, -4) in view and (9, 9) not in view
        assert view[(3, 5)] == (7, 1e16)
        assert view.get((0, 1)) == (2, 1.5)
        assert view.get((9, 9)) is None and view.get((9, 9), 0) == 0
        assert list(view) == list(view.keys()) == sorted(self.CELLS)
        assert list(view.values()) == [self.CELLS[c] for c in sorted(
            self.CELLS)]
        assert dict(view.items()) == self.CELLS
        with pytest.raises(KeyError):
            view[(9, 9)]
        with pytest.raises(TypeError):
            hash(view)

    def test_cannot_be_changed(self):
        view = view_of(("A", "B"), self.CELLS)
        with pytest.raises(TypeError):
            view[(9, 9)] = (1, 1.0)
        with pytest.raises(TypeError):
            del view[(0, 1)]
        for name in ("update", "pop", "popitem", "clear", "setdefault"):
            assert not hasattr(view, name)
        with pytest.raises(AttributeError):
            view.other = 1
        assert view == self.CELLS

    def test_apex_and_empty(self):
        assert view_of((), {(): (5, 2.0)}) == {(): (5, 2.0)}
        assert view_of((), {}) == {} and len(view_of((), {})) == 0


# ----------------------------------------------------------------------
# a store behind a server and a router, every body against the oracle
# ----------------------------------------------------------------------
DIMS = ("A", "B", "C")


def special_relation():
    """Sums json.dumps writes in its own way: ``0.1 + 0.2``, ``1e16``
    next to a small addend, ``-0.0``, and ``inf`` / ``nan``."""
    relation = zipf_relation(120, [3, 4, 2], seed=5)
    rows = list(relation.rows)
    measures = [float(m % 7) for m in relation.measures]
    # cells of their own: A's codes 5..9 are not in the zipf rows
    extra = [((5, 0, 0), 0.1), ((5, 0, 0), 0.2), ((6, 1, 1), 1e16),
             ((6, 1, 1), 2.0), ((7, 3, 0), -0.0), ((8, 2, 1), math.inf),
             ((9, 0, 1), math.inf), ((9, 0, 1), -math.inf)]
    for row, measure in extra:
        rows.append(row)
        measures.append(measure)
    return Relation(DIMS, rows, measures)


def get(url, accept=None):
    request = Request(url, headers={"Accept": accept} if accept else {})
    with urlopen(request, timeout=10) as response:
        return response.headers.get("Content-Type"), response.read()


THRESHOLDS = ("minsup=1", "minsup=3", "min_sum=20", "minsup=2&min_sum=20",
              "minsup=100000")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    """One unsharded server and a 2-shard cluster behind a router."""
    root = tmp_path_factory.mktemp("answers")
    relation = special_relation()
    stores = [CubeStore.build(relation, root / "whole", backend="local")]
    stores += [CubeStore.build(relation, root / ("shard%d" % i),
                               backend="local", shard=(i, 2))
               for i in range(2)]
    servers = [CubeServer(store) for store in stores]
    endpoints = [server.serve_http() for server in servers]
    router = CubeRouter([[endpoint.url] for endpoint in endpoints[1:]],
                        timeout_s=10.0)
    router_endpoint = router.serve_http()
    yield {"relation": relation, "stores": stores, "servers": servers,
           "url": endpoints[0].url, "router": router,
           "router_url": router_endpoint.url}
    router.close()
    for server, store in zip(servers, stores):
        server.close()
        store.close()


def query_string(cuboid, threshold):
    return "cuboid=%s&%s" % (quote(",".join(cuboid), safe=","), threshold)


class TestBodies:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_query_bodies(self, cluster, threshold):
        store = cluster["stores"][0]
        minsup = _threshold_of(threshold)
        for cuboid in CubeLattice(DIMS).cuboids(include_all=True):
            want = dict(store.query(cuboid, minsup))
            for base, extra_keys in ((cluster["url"], ("source",)),
                                     (cluster["router_url"],
                                      ("shard", "replica", "failovers"))):
                _type, body = get("%s/query?%s" % (
                    base, query_string(cuboid, threshold)))
                got = json.loads(body)
                answer = QueryAnswer(cuboid, got["threshold"], want, None,
                                     0.0, got["generation"])
                assert body == _with_latency(answer_payload(
                    answer, **{k: got[k] for k in extra_keys}), got)

    def test_point_bodies(self, cluster):
        store = cluster["stores"][0]
        for cuboid in (("A",), ("A", "B"), ("A", "B", "C"), ("C",)):
            cells = list(naive_cuboid(cluster["relation"], cuboid))[:4]
            for cell in cells + [(99,) * len(cuboid)]:
                for threshold in THRESHOLDS[:2]:
                    agg = store.point(cuboid, cell, _threshold_of(threshold))
                    want = {cell: agg} if agg is not None else {}
                    path = "/point?%s&cell=%s" % (
                        query_string(cuboid, threshold),
                        ",".join(map(str, cell)))
                    for base, extra_keys in (
                            (cluster["url"], ("source",)),
                            (cluster["router_url"],
                             ("shard", "replica", "failovers"))):
                        _type, body = get(base + path)
                        got = json.loads(body)
                        answer = QueryAnswer(cuboid, got["threshold"], want,
                                             None, 0.0, got["generation"])
                        assert body == _with_latency(answer_payload(
                            answer, **{k: got[k] for k in extra_keys}), got)

    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_cube_bodies(self, cluster, threshold):
        minsup = _threshold_of(threshold)
        whole = {c: dict(v) for c, v in
                 cluster["stores"][0].iceberg(minsup).items()}
        for base, extra_keys in ((cluster["url"], ()),
                                 (cluster["router_url"], ("attempts",))):
            _type, body = get("%s/cube?%s" % (base, threshold))
            got = json.loads(body)
            answer = CubeAnswer(whole, got["threshold"], got["generation"],
                                0.0)
            assert body == _with_latency(cube_payload(
                answer, **{k: got[k] for k in extra_keys}), got)

    def test_specials_are_on_the_wire(self, cluster):
        _type, body = get("%s/query?cuboid=A,B" % cluster["url"])
        text = body.decode()
        for word in ("0.30000000000000004", "1.0000000000000002e+16",
                     "-0.0", "Infinity", "NaN"):
            assert word in text, word


def _threshold_of(query):
    """The in-process threshold of a ``/query`` threshold string."""
    return parse_threshold(parse_qs(query))


def _with_latency(payload, got):
    """``payload`` as bytes, its ``latency_ms`` the one the reply
    carried (a wall clock the oracle cannot know)."""
    payload["latency_ms"] = got["latency_ms"]
    return oracle_body(payload)


# ----------------------------------------------------------------------
# a point over a cuboid not in schema order
# ----------------------------------------------------------------------
class TestPointOrder:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        relation = zipf_relation(300, [5, 4, 3], seed=3)
        store = CubeStore.build(relation,
                                tmp_path_factory.mktemp("point") / "s")
        server = CubeServer(store)
        endpoint = server.serve_http()
        router = CubeRouter([[endpoint.url]], timeout_s=10.0)
        yield relation, server, endpoint.url, router
        router.close()
        server.close()
        store.close()

    @staticmethod
    def cases(relation):
        """``(asked cuboid, asked cell, canonical cuboid, canonical
        cell)`` over every order of every cuboid of width 2 and 3."""
        for canonical in CubeLattice(relation.dims).cuboids(False):
            if len(canonical) < 2:
                continue
            for cell in sorted(naive_cuboid(relation, canonical))[:3]:
                for order in permutations(range(len(canonical))):
                    yield (tuple(canonical[i] for i in order),
                           tuple(cell[i] for i in order), canonical, cell)

    def test_the_reported_lookup(self, served):
        relation, server, _url, _router = served
        answer = server.point(("B", "A"), (1, 0))
        assert answer.cuboid == ("A", "B")
        assert answer.cells == {
            (0, 1): naive_cuboid(relation, ("A", "B"))[(0, 1)]}

    def test_direct_http_and_routed(self, served):
        relation, server, url, router = served
        for asked, cell, canonical, want_cell in self.cases(relation):
            want = {want_cell: naive_cuboid(relation, canonical)[want_cell]}
            direct = server.point(asked, cell)
            assert (direct.cuboid, direct.cells) == (canonical, want)
            routed = router.point(asked, cell)
            assert (routed.cuboid, routed.cells) == (canonical, want)
            _type, body = get("%s/point?cuboid=%s&cell=%s" % (
                url, ",".join(asked), ",".join(map(str, cell))))
            got = json.loads(body)
            assert got["cuboid"] == list(canonical)
            assert {tuple(c["cell"]): (c["count"], c["sum"])
                    for c in got["cells"]} == want


# ----------------------------------------------------------------------
# cells turned into tuples: none until someone reads the dict
# ----------------------------------------------------------------------
class Conversions:
    """Counts :meth:`CellRun.cells` and :meth:`CellRun.from_cells` calls
    in this process (servers and router included) while entered."""

    def __enter__(self):
        self._stack = ExitStack()
        self.cells = self._stack.enter_context(mock.patch.object(
            CellRun, "cells", autospec=True, side_effect=CellRun.cells))
        self.from_cells = self._stack.enter_context(mock.patch.object(
            CellRun, "from_cells", side_effect=CellRun.from_cells))
        return self

    def __exit__(self, *exc):
        self._stack.close()

    @property
    def counts(self):
        return self.cells.call_count, self.from_cells.call_count


class TestConversions:
    def test_none_on_the_server_until_read(self, tmp_path):
        store = CubeStore.build(zipf_relation(300, [5, 4, 3], seed=3),
                                tmp_path / "s", backend="local")
        server = CubeServer(store)
        url = server.serve_http().url
        router = CubeRouter([[url]], timeout_s=10.0)
        router_url = router.serve_http().url
        try:
            router.check_health()
            with Conversions() as calls:
                for minsup, accept in ((1, None), (2, CELLRUN_TYPE)):
                    kind, body = get("%s/query?cuboid=A,B&minsup=%d"
                                     % (url, minsup), accept)
                    if accept:
                        assert kind == CELLRUN_TYPE and decode_runs(body)
                    else:
                        assert json.loads(body)["source"] == "store"
                    assert calls.counts == (0, 0)
                for accept in (None, CELLRUN_TYPE):
                    get("%s/cube?minsup=2" % url, accept)
                    get("%s/point?cuboid=B,A&cell=1,0" % url, accept)
                    assert calls.counts == (0, 0)
                for path in ("/query?cuboid=C&minsup=3", "/cube",
                             "/point?cuboid=A&cell=1"):
                    get(router_url + path)
                assert calls.counts == (0, 0)

                answer = server.query(("A", "C"), 2)
                assert answer.source == "store" and len(answer.cells)
                assert calls.counts == (0, 0)
                cells = dict(answer.cells.items())
                assert calls.counts == (1, 0)
                assert answer.cells == cells and min(cells) in answer.cells
                again = server.query(("A", "C"), 2)
                assert again.source == "cache"
                assert dict(again.cells) == cells
                assert calls.counts == (1, 0)
        finally:
            router.close()
            server.close()
            store.close()
