"""The repro-cube command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.core.export import load_cube
from repro.data import from_raw_rows, save_csv


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def sales_csv(tmp_path):
    rows = [
        ["Sony", "TV", "Seattle", 700],
        ["Sony", "TV", "Seattle", 700],
        ["JVC", "TV", "Vancouver", 400],
        ["Sony", "VCR", "Seattle", 250],
        ["JVC", "TV", "Vancouver", 400],
    ]
    relation = from_raw_rows(("brand", "item", "city"), rows, measure_index=3)
    path = tmp_path / "sales.csv"
    save_csv(relation, path)
    return str(path)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_input_source_is_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cube", "--csv", "x.csv", "--weather", "100"]
            )


class TestCube:
    def test_cube_from_csv(self, sales_csv):
        code, output = run_cli(["cube", "--csv", sales_csv, "--minsup", "2",
                                "--algorithm", "pt", "--processors", "2"])
        assert code == 0
        assert "qualifying cells" in output
        assert "COUNT(*) >= 2" in output

    def test_cube_synthetic_weather(self):
        code, output = run_cli(["cube", "--weather", "500", "--dims", "3",
                                "--minsup", "2"])
        assert code == 0
        assert "PT" in output

    def test_cube_export(self, sales_csv, tmp_path):
        target = tmp_path / "out"
        code, output = run_cli(["cube", "--csv", sales_csv, "--export", str(target)])
        assert code == 0
        loaded = load_cube(target)
        assert loaded.total_cells() > 0

    @pytest.mark.parametrize("algo", ["rp", "bpp", "asl", "aht"])
    def test_every_algorithm_accessible(self, sales_csv, algo):
        code, output = run_cli(["cube", "--csv", sales_csv, "--algorithm", algo])
        assert code == 0
        assert algo.upper() in output


class TestQuery:
    def test_count_query(self, sales_csv):
        code, output = run_cli(["query", "--csv", sales_csv,
                                "--group-by", "brand,city", "--minsup", "2",
                                "--aggregate", "count"])
        assert code == 0
        assert "Sony / Seattle" in output
        assert "JVC / Vancouver" in output

    def test_sum_threshold_query(self, sales_csv):
        code, output = run_cli(["query", "--csv", sales_csv,
                                "--group-by", "brand", "--min-sum", "1500"])
        assert code == 0
        assert "SUM(measure) >= 1500" in output
        assert "Sony" in output
        assert "JVC" not in output.split("HAVING")[1]

    def test_limit_truncates(self, sales_csv):
        code, output = run_cli(["query", "--csv", sales_csv,
                                "--group-by", "brand,item,city", "--limit", "1"])
        assert code == 0
        assert "more cells" in output

    def test_bad_dimension_is_a_clean_error(self, sales_csv):
        code, output = run_cli(["query", "--csv", sales_csv, "--group-by", "nope"])
        assert code == 2
        assert "error:" in output


class TestRecipeAndBench:
    def test_recipe(self, sales_csv):
        code, output = run_cli(["recipe", "--csv", sales_csv])
        assert code == 0
        assert "recommended:" in output

    def test_bench_lists_experiments(self):
        code, output = run_cli(["bench"])
        assert code == 0
        assert "fig_4_2_scalability" in output
        assert "ablation_counting_sort" in output

    def test_bench_unknown_experiment(self):
        code, output = run_cli(["bench", "nonexistent"])
        assert code == 2

    def test_bench_runs_cheap_experiment(self):
        code, output = run_cli(["bench", "table_1_1_features"])
        assert code == 0
        assert "Table 1.1" in output
        assert "[PASS]" in output


class TestMoreCubePaths:
    def test_named_weather_dims(self):
        code, output = run_cli(["cube", "--weather", "400",
                                "--dims", "precip_code,hour", "--minsup", "2"])
        assert code == 0
        assert "precip_code, hour" in output

    def test_cluster_choices(self, sales_csv):
        for cluster in ("cluster2", "cluster3", "paper"):
            code, output = run_cli(["cube", "--csv", sales_csv,
                                    "--cluster", cluster, "--processors", "3"])
            assert code == 0, cluster

    def test_combined_count_and_sum_threshold(self, sales_csv):
        code, output = run_cli(["cube", "--csv", sales_csv,
                                "--minsup", "2", "--min-sum", "500"])
        assert code == 0
        assert "COUNT(*) >= 2 AND SUM(measure) >= 500" in output


class TestLocalBackend:
    """The ``--backend local`` path: real process pool, real seconds."""

    def test_compute_alias(self, sales_csv):
        code, output = run_cli(["compute", "--csv", sales_csv, "--minsup", "2"])
        assert code == 0
        assert "qualifying cells" in output

    def test_local_backend_summary(self, sales_csv):
        code, output = run_cli(["cube", "--csv", sales_csv, "--minsup", "2",
                                "--backend", "local", "--workers", "2"])
        assert code == 0
        assert "local process pool" in output
        assert "wall clock" in output
        assert "pool             : 2 workers\n" in output

    @pytest.mark.parametrize("workers", ["auto", "3"])
    def test_local_backend_self_test(self, sales_csv, workers):
        given = [] if workers == "auto" else ["--workers", workers]
        code, output = run_cli(["cube", "--csv", sales_csv, "--minsup", "2",
                                "--backend", "local", "--self-test"] + given)
        assert code == 0
        assert "self-test        : PASSED" in output
        assert "pool             : %s workers\n" % workers in output

    def test_simulated_self_test(self, sales_csv):
        code, output = run_cli(["cube", "--csv", sales_csv, "--minsup", "2",
                                "--self-test"])
        assert code == 0
        assert "self-test        : PASSED" in output

    def test_local_backend_export(self, sales_csv, tmp_path):
        target = tmp_path / "out"
        code, output = run_cli(["cube", "--csv", sales_csv,
                                "--backend", "local", "--workers", "1",
                                "--export", str(target)])
        assert code == 0
        loaded = load_cube(target)
        assert loaded.total_cells() > 0

    def test_faults_drive_real_workers_on_local_backend(self, sales_csv):
        # crash:0@0 SIGKILLs the real worker holding batch 0; the
        # supervisor retries and the result still matches the oracle.
        code, output = run_cli(["cube", "--csv", sales_csv,
                                "--backend", "local", "--workers", "2",
                                "--faults", "crash:0@0", "--self-test"])
        assert code == 0
        assert "self-test        : PASSED" in output
        assert "recovery         :" in output
        assert "1 worker crashes" in output


class TestStoreAndServe:
    def test_store_build(self, sales_csv, tmp_path):
        target = tmp_path / "store"
        code, output = run_cli(["store", "build", "--csv", sales_csv,
                                "--out", str(target)])
        assert code == 0
        assert "built cube store" in output
        assert "stored leaves" in output
        from repro.serve import CubeStore

        store = CubeStore.open(target)
        assert store.total_rows == 5
        assert store.query(("brand",), minsup=1)
        store.close()

    @pytest.mark.parametrize("backend", ["local", "simulated", "mapreduce"])
    def test_store_build_backends(self, sales_csv, tmp_path, backend):
        target = tmp_path / ("store_" + backend)
        code, output = run_cli(["store", "build", "--csv", sales_csv,
                                "--out", str(target), "--backend", backend])
        assert code == 0
        assert "(%s backend)" % backend in output
        from test_cellrun import store_fingerprint

        from repro.data.io import load_csv
        from repro.serve import CubeStore

        store = CubeStore.open(target)
        assert store.query(("brand",), minsup=1)
        store.close()
        # The same name works from Python, and whichever backend built
        # it the store is the pool-built one, byte for byte.
        relation = load_csv(sales_csv)
        CubeStore.build(relation, tmp_path / "python", backend=backend).close()
        CubeStore.build(relation, tmp_path / "pool", backend="local",
                        workers=2).close()
        assert (store_fingerprint(tmp_path / "python")
                == store_fingerprint(tmp_path / "pool")
                == store_fingerprint(target))

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_serve_self_test_over_http(self, sales_csv, tmp_path):
        target = tmp_path / "store"
        code, _ = run_cli(["store", "build", "--csv", sales_csv,
                           "--out", str(target)])
        assert code == 0
        code, output = run_cli(["serve", "--store", str(target), "--port", "0",
                                "--self-test", "12"])
        assert code == 0
        assert "listening on http://" in output
        assert "12 HTTP queries answered" in output
        assert "cache hit rate" in output
        assert "compaction after 8" in output
        # --wal is accepted and ignored; --compact-after stands alone
        for extra in (["--wal"], []):
            code, output = run_cli(
                ["serve", "--store", str(target), "--port", "0",
                 "--self-test", "1", "--compact-after", "3"] + extra)
            assert code == 0
            assert "compaction after 3" in output

    def test_store_compact_folds_pending_batches(self, sales_csv, tmp_path):
        from repro.data.io import load_csv
        from repro.serve import CubeStore

        target = tmp_path / "store"
        assert run_cli(["store", "build", "--csv", sales_csv,
                        "--out", str(target)])[0] == 0
        relation = load_csv(sales_csv)
        store = CubeStore.open(target)
        for batch_id in ("b1", "b2"):
            store.append(relation, batch_id=batch_id)
        cuboids = [(), ("brand",), ("item", "city"), relation.dims]
        before = {c: dict(store.query(c, minsup=1)) for c in cuboids}
        store.close()

        code, output = run_cli(["store", "compact", "--store", str(target)])
        assert code == 0
        assert "compacted        : 2 pending batch(es)" in output
        store = CubeStore.open(target)
        assert store.wal_stats()["pending_batches"] == 0
        assert store.total_rows == 3 * len(relation)
        assert {c: dict(store.query(c, minsup=1)) for c in cuboids} == before
        store.close()

    def test_serve_missing_store_is_clean_error(self, tmp_path):
        code, output = run_cli(["serve", "--store", str(tmp_path / "nope"),
                                "--port", "0", "--self-test", "1"])
        assert code == 2
        assert "error:" in output


class TestClusterCli:
    """store build --shards, serve --shard, and the router subcommand."""

    def test_sharded_build_and_shard_serve(self, sales_csv, tmp_path):
        target = tmp_path / "cluster"
        code, output = run_cli(["store", "build", "--csv", sales_csv,
                                "--out", str(target), "--shards", "2"])
        assert code == 0
        assert "2 shards" in output
        code, output = run_cli(["serve", "--store", str(target / "shard-0"),
                                "--shard", "0/2", "--port", "0",
                                "--self-test", "4"])
        assert code == 0
        assert "placement validated" in output
        assert "4 HTTP queries answered" in output

    def test_serve_refuses_wrong_shard_position(self, sales_csv, tmp_path):
        target = tmp_path / "cluster"
        run_cli(["store", "build", "--csv", sales_csv,
                 "--out", str(target), "--shards", "2"])
        code, output = run_cli(["serve", "--store", str(target / "shard-0"),
                                "--shard", "1/2", "--port", "0",
                                "--self-test", "1"])
        assert code == 2
        assert "error:" in output

    def test_serve_rejects_malformed_shard_spec(self, sales_csv, tmp_path):
        target = tmp_path / "mono"
        run_cli(["store", "build", "--csv", sales_csv, "--out", str(target)])
        code, output = run_cli(["serve", "--store", str(target),
                                "--shard", "banana", "--port", "0",
                                "--self-test", "1"])
        assert code == 2
        assert "I/N" in output

    def test_router_requires_a_shard(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["router"])

    def test_router_self_test_end_to_end(self, sales_csv, tmp_path):
        import re
        import threading

        target = tmp_path / "cluster"
        run_cli(["store", "build", "--csv", sales_csv,
                 "--out", str(target), "--shards", "2"])
        # Two replica servers on ephemeral ports, run in threads via the
        # CLI itself (endpoint.join() blocks until closed).
        from repro.serve import CubeServer, CubeStore

        servers, urls = [], []
        for shard in range(2):
            store = CubeStore.open(str(target / ("shard-%d" % shard)))
            server = CubeServer(store)
            endpoint = server.serve_http(port=0)
            servers.append((server, store, endpoint))
            urls.append(endpoint.url)
        try:
            code, output = run_cli(["router", "--shard", urls[0],
                                    "--shard", urls[1], "--port", "0",
                                    "--self-test", "5"])
            assert code == 0
            assert "routing 2 shard(s)" in output
            assert re.search(r"5 routed queries answered", output)
            assert "cluster health   : ok" in output
        finally:
            for server, store, endpoint in servers:
                endpoint.close()
                server.close()
                store.close()
