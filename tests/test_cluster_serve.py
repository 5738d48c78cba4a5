"""The sharded serving tier: shard map, replica client, cube router."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError
from urllib.request import Request, urlopen

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.columnar import CellRun, decode_runs, encode_runs
from repro.core.naive import naive_cuboid
from repro.data import Relation, zipf_relation
from repro.errors import (
    GenerationSkewError,
    PlanError,
    ReplicaError,
    SchemaError,
    ShardUnavailableError,
)
from repro.lattice.lattice import CubeLattice
from repro.obs.metrics import (
    merge_histogram_buckets,
    parse_prometheus,
    quantile_from_buckets,
)
from repro.online.materialize import leaf_cuboids
from repro.serve import (
    CircuitBreaker,
    CubeRouter,
    CubeServer,
    CubeStore,
    ReplicaClient,
    ShardMap,
    stable_shard_hash,
)
from repro.serve import http as http_module
from repro.serve import server as server_module
from repro.serve.http import cube_payload
from repro.serve.server import CubeAnswer

DIMS = ("A", "B", "C", "D")


def oracle(relation, cuboid, minsup):
    return {
        cell: agg
        for cell, agg in naive_cuboid(relation, cuboid).items()
        if agg[0] >= minsup
    }


@pytest.fixture(scope="module")
def relation():
    return zipf_relation(400, dims=DIMS, cardinalities=(3, 4, 5, 6), seed=11)


# ----------------------------------------------------------------------
# stable placement hash
# ----------------------------------------------------------------------
class TestStableShardHash:
    def test_golden_values(self):
        # Hard-coded digests: placement must never move between
        # releases, interpreters, or PYTHONHASHSEED values.  If this
        # test fails, every deployed shard store is misplaced.
        assert stable_shard_hash(("A", "C")) == 1378977737794177289
        assert stable_shard_hash(("B", "C")) == 8676957610916005946
        assert stable_shard_hash(("C",)) == 7321326824121056267
        assert stable_shard_hash(("A", "B", "C")) == 7246433988025455002

    def test_stable_across_hash_randomization(self):
        # Run the same hash in subprocesses with different
        # PYTHONHASHSEED values: builtin hash() would differ, ours
        # must not.
        code = ("import sys; sys.path.insert(0, %r); "
                "from repro.serve.cluster import stable_shard_hash; "
                "print(stable_shard_hash(('A', 'B', 'D')))"
                % os.path.join(os.path.dirname(__file__), "..", "src"))
        outputs = set()
        for seed in ("0", "1", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            outputs.add(subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True).stdout.strip())
        assert len(outputs) == 1

    def test_distinct_leaves_distinct_hashes(self):
        leaves = leaf_cuboids(DIMS)
        hashes = {stable_shard_hash(leaf) for leaf in leaves}
        assert len(hashes) == len(leaves)


# ----------------------------------------------------------------------
# shard map invariants
# ----------------------------------------------------------------------
class TestShardMap:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_partition_is_complete_and_disjoint(self, n_shards):
        shard_map = ShardMap(DIMS, n_shards)
        seen = {}
        for shard in range(n_shards):
            for leaf in shard_map.leaves_for(shard):
                assert leaf not in seen, "leaf %r on two shards" % (leaf,)
                seen[leaf] = shard
        assert set(seen) == set(leaf_cuboids(DIMS))
        assert sum(shard_map.counts()) == len(shard_map.leaves)

    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    def test_every_cuboid_maps_to_exactly_one_shard(self, n_shards):
        shard_map = ShardMap(DIMS, n_shards)
        lattice = CubeLattice(DIMS)
        owned = {shard: set() for shard in range(n_shards)}
        for shard in range(n_shards):
            for leaf in shard_map.leaves_for(shard):
                owned[shard].add(leaf)
                owned[shard].add(leaf[:-1])
        all_cuboids = list(lattice.cuboids(include_all=False)) + [()]
        for cuboid in all_cuboids:
            shard = shard_map.shard_of(cuboid)
            assert 0 <= shard < n_shards
            # the owning shard is the one holding its covering leaf...
            assert cuboid in owned[shard]
            # ...and no other shard holds it
            holders = [s for s in owned if cuboid in owned[s]]
            assert holders == [shard]

    def test_shard_of_ignores_given_order(self):
        shard_map = ShardMap(DIMS, 3)
        assert shard_map.shard_of(("C", "A")) == shard_map.shard_of(("A", "C"))

    def test_rejects_bad_arguments(self):
        with pytest.raises(PlanError):
            ShardMap(DIMS, 0)
        with pytest.raises(PlanError):
            ShardMap((), 2)
        with pytest.raises(PlanError):
            ShardMap(DIMS, 2).leaves_for(7)

    def test_validate_store_accepts_matching_shard(self, relation, tmp_path):
        shard_map = ShardMap(DIMS, 3)
        store = CubeStore.build(relation, tmp_path / "s2", backend="local",
                                shard=(2, 3))
        shard_map.validate_store(store, 2)
        store.close()

    def test_validate_store_refuses_reshard(self, relation, tmp_path):
        # Built as 2/3 but served under a 4-shard map: the placement
        # moved, so serving it would silently misroute — refuse.
        store = CubeStore.build(relation, tmp_path / "s", backend="local",
                                shard=(2, 3))
        with pytest.raises(PlanError, match="rebuild"):
            ShardMap(DIMS, 4).validate_store(store, 2)
        with pytest.raises(PlanError):
            ShardMap(DIMS, 3).validate_store(store, 1)
        store.close()

    def test_validate_store_refuses_unsharded(self, relation, tmp_path):
        store = CubeStore.build(relation, tmp_path / "mono", backend="local")
        with pytest.raises(PlanError, match="unsharded"):
            ShardMap(DIMS, 3).validate_store(store, 0)
        store.close()

    def test_validate_store_refuses_wrong_dims(self, relation, tmp_path):
        store = CubeStore.build(relation, tmp_path / "s", backend="local",
                                shard=(0, 2))
        with pytest.raises(SchemaError):
            ShardMap(("A", "B", "C"), 2).validate_store(store, 0)
        store.close()

    def test_shard_recorded_in_manifest_survives_reopen(self, relation,
                                                        tmp_path):
        CubeStore.build(relation, tmp_path / "s", backend="local",
                        shard=(1, 3)).close()
        store = CubeStore.open(tmp_path / "s")
        assert store.shard == (1, 3)
        expected = frozenset(ShardMap(DIMS, 3).leaves_for(1))
        assert frozenset(store.leaves) == expected
        store.close()


# ----------------------------------------------------------------------
# replica client error taxonomy
# ----------------------------------------------------------------------
class _CannedHandler(BaseHTTPRequestHandler):
    """Answers every GET with the server's configured status/body."""

    def do_GET(self):  # noqa: N802 - http.server naming
        status, payload = self.server.canned
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _canned_server(status, payload):
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHandler)
    httpd.canned = (status, payload)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd


class TestReplicaClient:
    def test_5xx_is_replica_error(self):
        httpd = _canned_server(503, {"error": "shedding"})
        try:
            client = ReplicaClient("http://127.0.0.1:%d" % httpd.server_port)
            with pytest.raises(ReplicaError) as info:
                client.get_json("/query")
            assert info.value.status == 503
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_4xx_is_permanent_plan_error(self):
        httpd = _canned_server(400, {"error": "bad cuboid"})
        try:
            client = ReplicaClient("http://127.0.0.1:%d" % httpd.server_port)
            with pytest.raises(PlanError, match="bad cuboid"):
                client.get_json("/query")
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_reply_cut_short_is_replica_error(self):
        # A replica SIGKILLed mid-reply: headers out, body never arrives.
        class CutShort(_CannedHandler):
            def do_GET(self):  # noqa: N802 - http.server naming
                self.send_response(200)
                self.send_header("Content-Length", "10007")
                self.end_headers()
                self.close_connection = True

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), CutShort)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        try:
            client = ReplicaClient("http://127.0.0.1:%d" % httpd.server_port)
            with pytest.raises(ReplicaError):
                client.get_json("/cube")
        finally:
            httpd.shutdown()
            httpd.server_close()

    def test_connection_refused_is_replica_error(self):
        client = ReplicaClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(ReplicaError):
            client.get_json("/healthz")

    def test_hung_replica_is_one_replica_error_sent_once(self):
        # The hang comes on a kept-alive connection: a timeout is never
        # re-sent, reused connection or not.
        release = threading.Event()
        sent = []

        class Hangs(_CannedHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - http.server naming
                sent.append(self.path)
                if len(sent) == 1:
                    return super().do_GET()
                release.wait(10.0)
                self.close_connection = True

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), Hangs)
        httpd.canned = (200, {"status": "ok"})
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        timeout_s = 0.5
        client = ReplicaClient("http://127.0.0.1:%d" % httpd.server_port,
                               timeout_s=timeout_s)
        try:
            assert client.get_json("/healthz") == {"status": "ok"}
            started = time.perf_counter()
            with pytest.raises(ReplicaError):
                client.get_json("/query")
            assert time.perf_counter() - started < 1.5 * timeout_s
            assert sent == ["/healthz", "/query"]
        finally:
            release.set()
            client.close()
            httpd.shutdown()
            httpd.server_close()


# ----------------------------------------------------------------------
# the wire: cell runs on kept-alive connections
# ----------------------------------------------------------------------
#: Codes on both sides of every boundary of the run block dtypes
#: (u8/i8/u16/i16/u32/i32/i64), int64's extremes included.
EDGE_CODES = (-2 ** 63, -2 ** 31 - 1, -2 ** 31, -32769, -32768, -129, -128,
              -1, 0, 1, 127, 128, 255, 256, 32767, 32768, 65535, 65536,
              2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1)
CODES = st.sampled_from(EDGE_CODES) | st.integers(-2 ** 63, 2 ** 63 - 1)
COUNTS = st.sampled_from((1, 255, 256, 65536, 2 ** 32, 2 ** 63 - 1)) \
    | st.integers(1, 10 ** 6)
SUMS = st.sampled_from((-0.0, 0.0, 0.1, -2.5, 1e300, 5e-324)) \
    | st.floats(allow_nan=False, allow_infinity=False)
ALL_CUBOIDS = sorted(CubeLattice(DIMS).cuboids(include_all=True))


def cells_of(width):
    return st.dictionaries(st.tuples(*[CODES] * width),
                           st.tuples(COUNTS, SUMS), max_size=6)


ANSWERS = st.lists(st.sampled_from(ALL_CUBOIDS), unique=True, max_size=5) \
    .flatmap(lambda cuboids: st.fixed_dictionaries(
        {cuboid: cells_of(len(cuboid)) for cuboid in cuboids}))


def exact(cuboids):
    """Sums as ``float.hex``: equal means bit-equal, ``-0.0`` included."""
    return {cuboid: {cell: (count, float(value).hex())
                     for cell, (count, value) in cells.items()}
            for cuboid, cells in cuboids.items()}


class _CountingServer(http_module._JsonHTTPServer):
    """A replica endpoint that keeps each handler thread it starts: one
    per accepted connection."""

    def __init__(self, *args):
        super().__init__(*args)
        self.handlers = []

    def process_request_thread(self, request, client_address):
        self.handlers.append(threading.current_thread())
        super().process_request_thread(request, client_address)


@pytest.fixture
def one_replica(relation, tmp_path):
    """A 1x1 cluster: ``(server, counting httpd, url)``."""
    store = CubeStore.build(relation, tmp_path / "store", backend="local")
    server = CubeServer(store)
    httpd = _CountingServer(("127.0.0.1", 0),
                            server_module._CubeRequestHandler)
    httpd.app = server
    threading.Thread(target=httpd.serve_forever, daemon=True).start()
    yield server, httpd, "http://127.0.0.1:%d" % httpd.server_port
    httpd.shutdown()
    httpd.server_close()
    server.close()
    store.close()


class TestWire:
    @given(ANSWERS)
    @settings(max_examples=60, deadline=None)
    @example({(): {(): (5, -0.0)}, ("A",): {}})
    def test_cell_runs_decode_as_sent_and_as_json_does(self, cuboids):
        wire = {run.dims: run.cells() for run in decode_runs(encode_runs(
            CellRun.from_cells(cuboid, cells)
            for cuboid, cells in cuboids.items()))}
        assert exact(wire) == exact(cuboids)
        payload = json.loads(json.dumps(cube_payload(
            CubeAnswer(cuboids, "COUNT(*) >= 1", 1, 0.0))))
        from_json = {
            tuple(entry["cuboid"]): {tuple(cell["cell"]):
                                     (cell["count"], cell["sum"])
                                     for cell in entry["cells"]}
            for entry in payload["cuboids"]}
        assert exact(wire) == exact(from_json)

    def test_router_keeps_one_connection_alive(self, one_replica,
                                               relation):
        _server, httpd, url = one_replica
        with CubeRouter([[url]], timeout_s=5.0) as router:
            for _ in range(50):
                answer = router.query(("A", "B"), minsup=2)
                assert answer.cells == oracle(relation, ("A", "B"), 2)
            assert len(httpd.handlers) == 1
            cube = router.cube(minsup=2)  # the apex cuboid is on the wire
            assert cube.cuboids[()] == oracle(relation, (), 2)
            assert len(httpd.handlers) == 1

    def test_threads_never_share_a_connection(self, one_replica, relation):
        # Two threads popping one idle connection would interleave their
        # requests on it: wrong or failed answers, a connection twice in
        # the LIFO.
        _server, httpd, url = one_replica
        expected = {cuboid: oracle(relation, cuboid, 1)
                    for cuboid in [("A",), ("B", "C"), ("A", "B", "D")]}
        failures = []
        with CubeRouter([[url]], timeout_s=10.0) as router:
            router._ensure_map()

            def reader(offset):
                try:
                    for k in range(25):
                        cuboid = list(expected)[(offset + k) % len(expected)]
                        if router.query(cuboid).cells != expected[cuboid]:
                            failures.append(cuboid)
                except Exception as exc:  # surfaced below
                    failures.append(exc)

            threads = [threading.Thread(target=reader, args=(k,))
                       for k in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures
            idle = router.shards[0][0]._idle
            assert len(set(map(id, idle))) == len(idle) \
                == len(httpd.handlers) <= 9  # 8 readers + the bootstrap

    def test_router_close_ends_the_replica_handlers(self, one_replica):
        _server, httpd, url = one_replica
        router = CubeRouter([[url]], timeout_s=5.0)
        router.query(("A",))
        router.cube()
        assert any(thread.is_alive() for thread in httpd.handlers)
        router.close()
        deadline = time.perf_counter() + 1.0
        while any(thread.is_alive() for thread in httpd.handlers):
            assert time.perf_counter() < deadline, "handlers still running"
            time.sleep(0.01)

    def test_connection_the_replica_closed_is_re_dialled(self, relation,
                                                        tmp_path):
        store = CubeStore.build(relation, tmp_path / "store", backend="local")
        server = CubeServer(store)
        endpoint = server.serve_http()
        try:
            with CubeRouter([[endpoint.url]], timeout_s=5.0) as router:
                router.query(("A",), minsup=2)
                # The replica restarts on the same port; closing its
                # endpoint hung up the router's kept-alive connection.
                endpoint.close()
                deadline = time.perf_counter() + 5.0
                while endpoint._httpd.connections:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                server.serve_http(port=endpoint.port)
                answer = router.query(("A",), minsup=2)
                assert answer.failovers == 0
                assert answer.cells == oracle(relation, ("A",), 2)
                breaker = router.breakers[(0, 0)].stats()
                assert (breaker["consecutive_failures"], breaker["trips"]) \
                    == (0, 0)
                failovers = parse_prometheus(router.registry.to_prometheus())
                assert not failovers.get(
                    "repro_router_failovers_total", {}).get("samples")
        finally:
            server.close()
            store.close()


# ----------------------------------------------------------------------
# the router over a real in-process cluster
# ----------------------------------------------------------------------
N_SHARDS, N_REPLICAS = 3, 2


class Cluster:
    """3 shards x 2 replicas of real CubeServers over HTTP, each replica
    on its own copy of the shard store (replicas do not share disks)."""

    def __init__(self, relation, root):
        self.relation = relation
        self.endpoints = {}  # (shard, replica) -> HttpEndpoint
        self.servers = {}
        urls = []
        for shard in range(N_SHARDS):
            built = os.path.join(root, "build-%d" % shard)
            CubeStore.build(relation, built, backend="local",
                            shard=(shard, N_SHARDS)).close()
            replica_urls = []
            for replica in range(N_REPLICAS):
                directory = os.path.join(root, "shard-%d-r%d"
                                         % (shard, replica))
                shutil.copytree(built, directory)
                server = CubeServer(CubeStore.open(directory))
                endpoint = server.serve_http()
                self.servers[(shard, replica)] = server
                self.endpoints[(shard, replica)] = endpoint
                replica_urls.append(endpoint.url)
            urls.append(replica_urls)
        self.urls = urls

    def kill(self, shard, replica):
        self.endpoints.pop((shard, replica)).close()

    def close(self):
        for endpoint in self.endpoints.values():
            endpoint.close()
        for server in self.servers.values():
            server.close()
            server.store.close()


@pytest.fixture
def cluster(relation, tmp_path):
    cluster = Cluster(relation, str(tmp_path))
    yield cluster
    cluster.close()


def make_router(cluster, **kwargs):
    kwargs.setdefault("timeout_s", 5.0)
    return CubeRouter(cluster.urls, **kwargs)


class TestRouterQueries:
    def test_query_matches_oracle_and_names_its_shard(self, cluster, relation):
        with make_router(cluster) as router:
            for cuboid in [("A",), ("B", "D"), ("A", "B", "C", "D"), ("C",)]:
                answer = router.query(cuboid, minsup=2)
                assert answer.cells == oracle(relation, cuboid, 2)
                assert answer.shard == router.shard_for(cuboid)
                assert answer.generation == 1
                assert answer.failovers == 0

    def test_point_lookup(self, cluster, relation):
        with make_router(cluster) as router:
            full = oracle(relation, ("A", "B"), 1)
            cell = sorted(full)[0]
            answer = router.point(("A", "B"), cell)
            assert answer.cells == {cell: full[cell]}

    def test_cube_merges_every_cuboid_at_one_generation(self, cluster,
                                                        relation):
        with make_router(cluster) as router:
            answer = router.cube(minsup=3)
            assert answer.generation == 1
            lattice = CubeLattice(DIMS)
            expected_cuboids = {c for c in lattice.cuboids(include_all=False)}
            expected_cuboids.add(())
            assert set(answer.cuboids) == expected_cuboids
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(relation, cuboid, 3), cuboid

    def test_append_reaches_every_replica_then_cube_converges(
            self, cluster, relation):
        delta = Relation(DIMS, [(0, 0, 0, 0), (1, 1, 1, 1)], [5.0, 7.0])
        merged = Relation(DIMS, list(relation.rows) + list(delta.rows),
                          list(relation.measures) + list(delta.measures))
        with make_router(cluster) as router:
            summary = router.append(delta)
            assert summary["applied"] == N_SHARDS * N_REPLICAS
            assert summary["duplicates"] == 0
            # the minted key makes a blind re-send safe on every replica
            again = router.append(delta, batch_id=summary["batch_id"])
            assert again["duplicates"] == N_SHARDS * N_REPLICAS
            answer = router.cube(minsup=3)
            assert answer.generation == 2
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(merged, cuboid, 3), cuboid


class TestRouterFailover:
    def test_replica_death_fails_over_to_sibling(self, cluster, relation):
        with make_router(cluster) as router:
            shard = router.shard_for(("A",))
            cluster.kill(shard, 0)
            # Every query must still be answered correctly; round-robin
            # guarantees the dead replica is attempted within two calls.
            failovers = 0
            for _ in range(4):
                answer = router.query(("A",), minsup=2)
                assert answer.cells == oracle(relation, ("A",), 2)
                failovers += answer.failovers
            assert failovers >= 1

    def test_whole_shard_down_is_structured_503(self, cluster):
        with make_router(cluster) as router:
            shard = router.shard_for(("A",))
            router._ensure_map()
            for replica in range(N_REPLICAS):
                cluster.kill(shard, replica)
            with pytest.raises(ShardUnavailableError) as info:
                router.query(("A",), minsup=2)
            assert info.value.shard == shard
            # Other shards keep answering: degradation is partial.
            other = next(c for c in [("A",), ("B",), ("C",), ("D",)]
                         if router.shard_for(c) != shard)
            assert router.query(other).cells

    def test_open_breaker_takes_replica_out_of_rotation(self, cluster,
                                                        relation):
        with make_router(
                cluster,
                breaker_factory=lambda: CircuitBreaker(
                    failure_threshold=1, reset_after_s=60.0)) as router:
            shard = router.shard_for(("A",))
            cluster.kill(shard, 0)
            for _ in range(4):
                router.query(("A",), minsup=2)
            # One failure tripped the breaker; later calls skip the dead
            # replica without re-dialling it.
            assert router.breakers[(shard, 0)].state == "open"
            answer = router.query(("A",), minsup=2)
            assert answer.failovers == 0
            assert answer.cells == oracle(relation, ("A",), 2)

    def test_health_sweep_reports_down_replica(self, cluster, monkeypatch):
        with make_router(cluster) as router:
            endpoint = router.serve_http()
            cluster.kill(1, 0)
            snapshot = router.check_health()
            assert snapshot[(1, 0)]["status"] == "down"
            assert snapshot[(1, 1)]["status"] == "ok"
            # After the sweep, health and stats are read off it: no
            # replica is asked anything.
            requests = []
            original = ReplicaClient._request

            def counting(self, *args, **kwargs):
                requests.append(self.url)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(ReplicaClient, "_request", counting)
            health = router.health()
            assert router.stats()["health"]["shards"][1]["up"] == 1
            with urlopen(endpoint.url + "/healthz") as response:
                assert json.loads(response.read())["status"] == "ok"
            assert requests == []
            assert health["status"] == "ok"  # a sibling still serves shard 1
            assert health["shards"][1]["up"] == 1
            assert set(health["shards"][1]["red"]) == {
                "requests", "errors", "p50_s", "p95_s", "p99_s"}
            assert snapshot[(1, 1)]["red"]["buckets"][-1][0] == "+Inf"

    def test_append_fails_when_whole_shard_down(self, cluster):
        with make_router(cluster) as router:
            router._ensure_map()
            for replica in range(N_REPLICAS):
                cluster.kill(0, replica)
            with pytest.raises(ShardUnavailableError) as info:
                router.append(Relation(DIMS, [(0, 0, 0, 0)], [1.0]))
            assert info.value.shard == 0


class TestRouterTelemetry:
    """The router's own histogram and the RED numbers its sweep carries."""

    def test_shard_red_equals_the_replicas_own_ledgers(self, cluster):
        with make_router(cluster) as router:
            for cuboid in [("A",), ("B", "D"), ("C",), ("A", "B", "C")] * 5:
                router.query(cuboid, minsup=2)
            router.cube(minsup=3)  # every shard answers at least once
            router.check_health()
            health = router.health()
        for shard in range(N_SHARDS):
            servers = [cluster.servers[(shard, replica)]
                       for replica in range(N_REPLICAS)]
            red = health["shards"][shard]["red"]
            assert red["requests"] == sum(len(s.telemetry) for s in servers)
            assert red["requests"] > 0
            assert red["errors"] == 0
            # the quantiles are those of the replicas' own /metrics pages
            series = []
            for server in servers:
                families = parse_prometheus(server.registry.to_prometheus())
                series.append([
                    (labels["le"], value) for name, labels, value
                    in families["repro_server_latency_seconds"]["samples"]
                    if name.endswith("_bucket")])
            merged = merge_histogram_buckets(series)
            for key, q in (("p50_s", 0.50), ("p95_s", 0.95), ("p99_s", 0.99)):
                assert red[key] == quantile_from_buckets(merged, q)

    def test_latency_histogram_counts_each_answered_request(self, cluster):
        k = 3
        with make_router(cluster) as router:
            for _ in range(k):
                router.query(("A",), minsup=2)
            router.point(("A", "B"), (0, 0))
            router.cube(minsup=3)
            router.append(Relation(DIMS, [(0, 0, 0, 0)], [1.0]))
            families = parse_prometheus(router.registry.to_prometheus())
            counts = {
                labels["kind"]: value for name, labels, value
                in families["repro_router_latency_seconds"]["samples"]
                if name.endswith("_count")}
            assert counts == {"query": k, "point": 1, "cube": 1, "append": 1}
            latency = router.stats()["latency"]
            assert {kind: entry["count"]
                    for kind, entry in latency.items()} == counts
            assert set(latency["cube"]) == {"count", "p50_ms", "p95_ms",
                                            "p99_ms"}
            assert latency["cube"]["p50_ms"] > 0


def with_deltas(relation, deltas):
    """``relation`` followed by the rows of every delta, in order."""
    rows, measures = list(relation.rows), list(relation.measures)
    for delta in deltas:
        rows += delta.rows
        measures += delta.measures
    return Relation(DIMS, rows, measures)


def get_status(url):
    """``(status, payload)`` of one GET, error replies included."""
    try:
        with urlopen(url) as response:
            return response.status, json.loads(response.read())
    except HTTPError as error:
        return error.code, json.loads(error.read())


class TestGenerationPinning:
    def test_skewed_cluster_answers_at_the_lowest_generation(self, cluster,
                                                             relation):
        delta = Relation(DIMS, [(2, 2, 2, 2)], [3.0])
        merged = with_deltas(relation, [delta])
        with make_router(cluster) as router:
            router._ensure_map()
            # Sneak an append onto shard 0's replicas behind the
            # router's back: the cluster is now generation-skewed.
            for replica in range(N_REPLICAS):
                cluster.servers[(0, replica)].append(delta)
            # Round one sees {2, 1, 1}; round two reads shard 0 at 1.
            answer = router.cube(minsup=3)
            assert (answer.generation, answer.attempts) == (1, 2)
            assert len(answer.cuboids) == 16
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(relation, cuboid, 3), cuboid
            # Once the other shards catch up, one round answers.
            for shard in (1, 2):
                for replica in range(N_REPLICAS):
                    cluster.servers[(shard, replica)].append(delta)
            answer = router.cube(minsup=3)
            assert (answer.generation, answer.attempts) == (2, 1)
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(merged, cuboid, 3), cuboid

    def test_retained_window_edge(self, relation, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "RETAINED_SNAPSHOTS", 4)
        cluster = Cluster(relation, str(tmp_path))
        try:
            deltas = [Relation(DIMS, [(1, 2, 3, k)], [2.0]) for k in range(5)]
            for delta in deltas:
                for replica in range(N_REPLICAS):
                    cluster.servers[(0, replica)].append(delta)
            server = cluster.servers[(0, 0)]
            current = 1 + len(deltas)
            answer = server.iceberg(2, at=current - 3)
            assert answer.generation == current - 3
            rows = with_deltas(relation, deltas[:current - 4])
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(rows, cuboid, 2), cuboid
            for at in (current - 4, current + 1):
                with pytest.raises(GenerationSkewError, match="not retained"):
                    server.iceberg(2, at=at)
            status, payload = get_status(
                "%s/cube?at=%d" % (cluster.endpoints[(0, 0)].url, current - 4))
            assert (status, payload["kind"]) == (409, "generation_skew")
            # Through a router: round one pins the other shards'
            # generation 1, which shard 0 no longer holds — a 503, and
            # a lagging replica is no failure for its breaker.
            with make_router(cluster) as router:
                status, payload = get_status(
                    router.serve_http().url + "/cube?minsup=2")
                assert (status, payload["kind"]) == (503, "generation_skew")
                assert "not retained" in payload["error"]
                for replica in range(N_REPLICAS):
                    breaker = router.breakers[(0, replica)].stats()
                    assert breaker["consecutive_failures"] == 0
                # The 409 came back on a kept-alive connection: it stays
                # a GenerationSkewError, and the connection stays in use.
                for replica in range(N_REPLICAS):
                    client = router.shards[0][replica]
                    with pytest.raises(GenerationSkewError):
                        client.get_runs("/cube?minsup=2&at=%d" % (current - 4))
                    pooled = list(client._idle)
                    assert len(pooled) == 1
                    assert client.get_runs("/cube?minsup=2").generation \
                        == current
                    assert client._idle == pooled
                    assert router.breakers[(0, replica)].stats() \
                        ["consecutive_failures"] == 0
        finally:
            cluster.close()

    def test_retained_snapshot_outlives_the_files_compaction_unlinked(
            self, relation, tmp_path):
        directory = tmp_path / "store"
        CubeStore.build(relation, directory, backend="local").close()
        built = [name for name in os.listdir(directory)
                 if name.endswith(".run")]
        store = CubeStore.open(directory, compact_after=None)
        server = CubeServer(store)
        try:
            server.append(Relation(DIMS, [(0, 1, 2, 3)], [4.0]))
            assert store.compact() == 1
            assert not any(os.path.exists(directory / name) for name in built)
            answer = server.iceberg(2, at=1)
            assert answer.generation == 1
            assert len(answer.cuboids) == 16
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(relation, cuboid, 2), cuboid
        finally:
            server.close()
            store.close()

    def test_unpaced_writer_never_skews_a_fan_out(self, cluster, relation):
        # Back-to-back appends through the router beside cube() reads:
        # every fan-out answers, in at most two rounds, exactly the rows
        # of the generation it names.
        deltas = [Relation(DIMS, [(k % 3, k % 4, k % 5, k % 6),
                                  ((k + 1) % 3, 0, 2 * k % 5, 1)],
                           [1.0, 2.0]) for k in range(300)]
        stop = threading.Event()
        failures = []
        with make_router(cluster) as router:
            router._ensure_map()

            def writer():
                try:
                    for delta in deltas:
                        if stop.is_set():
                            return
                        router.append(delta)
                except Exception as exc:  # surfaced below
                    failures.append(exc)

            thread = threading.Thread(target=writer)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            thread.start()
            try:
                answers = [router.cube(minsup=2) for _ in range(20)]
            finally:
                stop.set()
                thread.join(timeout=60)
                sys.setswitchinterval(interval)
        assert not thread.is_alive() and not failures, failures
        assert max(answer.attempts for answer in answers) <= 2
        for answer in answers:
            rows = with_deltas(relation, deltas[:answer.generation - 1])
            assert len(answer.cuboids) == 16
            for cuboid, cells in answer.cuboids.items():
                assert cells == oracle(rows, cuboid, 2), \
                    (answer.generation, cuboid)

    def test_single_shard_answers_are_single_generation(self, cluster):
        # A point/query answer carries exactly one generation by
        # construction — the replica's verified read.
        with make_router(cluster) as router:
            answer = router.query(("B",))
            assert isinstance(answer.generation, int)


class TestRouterValidation:
    def test_misplaced_replica_is_refused(self, cluster):
        # Swap two shards' URL lists: the bootstrap health check sees a
        # replica reporting the wrong placement and refuses to route.
        swapped = [cluster.urls[1], cluster.urls[0], cluster.urls[2]]
        with CubeRouter(swapped, timeout_s=5.0) as router:
            with pytest.raises(PlanError, match="re-sharding|reports"):
                router.query(("A",))

    def test_rejects_empty_topology(self):
        with pytest.raises(PlanError):
            CubeRouter([])
        with pytest.raises(PlanError):
            CubeRouter([[]])


class TestRouterHTTP:
    def test_http_surface(self, cluster, relation):
        with make_router(cluster) as router:
            endpoint = router.serve_http()
            base = endpoint.url
            with urlopen(base + "/query?cuboid=A,B&minsup=2") as response:
                payload = json.loads(response.read())
            cells = {tuple(e["cell"]): (e["count"], e["sum"])
                     for e in payload["cells"]}
            assert cells == oracle(relation, ("A", "B"), 2)
            assert payload["generation"] == 1
            with urlopen(base + "/cube?minsup=4") as response:
                cube = json.loads(response.read())
            assert cube["generation"] == 1
            assert len(cube["cuboids"]) == 16
            with urlopen(base + "/healthz") as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            assert health["n_shards"] == N_SHARDS
            with urlopen(base + "/metrics") as response:
                metrics = response.read().decode()
            assert "repro_router_requests_total" in metrics

    def test_http_append_and_shard_unavailable(self, cluster):
        with make_router(cluster) as router:
            endpoint = router.serve_http()
            body = json.dumps({"dims": list(DIMS),
                               "rows": [[0, 1, 2, 3]],
                               "measures": [2.5]}).encode()
            request = Request(endpoint.url + "/append", data=body,
                              headers={"Content-Type": "application/json"})
            with urlopen(request) as response:
                summary = json.loads(response.read())
            assert summary["applied"] == N_SHARDS * N_REPLICAS
            shard = router.shard_for(("A",))
            for replica in range(N_REPLICAS):
                cluster.kill(shard, replica)
            try:
                urlopen(endpoint.url + "/query?cuboid=A")
            except Exception as exc:
                assert exc.code == 503
                detail = json.loads(exc.read())
                assert detail["kind"] == "shard_unavailable"
                assert detail["shard"] == shard
            else:  # pragma: no cover
                pytest.fail("expected a structured 503")
