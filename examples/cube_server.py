"""Build-store -> serve -> query over HTTP: the full serving pipeline.

Section 5.1's leaf materialization, persisted and put behind a server:

1. precompute the BUC-tree leaf cuboids and write them to disk as a
   :class:`~repro.serve.store.CubeStore` (sorted columnar runs);
2. reopen the store — no recompute — under a :class:`CubeServer` with
   an LRU query cache and a JSON HTTP endpoint;
3. fire roll-up / drill-down / point queries over HTTP, append fresh
   rows (the cache invalidates itself), and read the telemetry.

Run:  python examples/cube_server.py
"""

import json
import tempfile
from urllib.request import urlopen

from repro import CubeServer, CubeStore, cluster1, weather_relation
from repro.data.weather import baseline_dims

DIMS = baseline_dims(5)


def get(url):
    with urlopen(url) as response:
        return json.loads(response.read())


def main():
    relation = weather_relation(12_000, dims=DIMS)
    history, fresh = relation.slice(0, 10_000), relation.slice(10_000, 12_000)

    with tempfile.TemporaryDirectory() as directory:
        print("building the store (one-time precompute of %d leaf cuboids)..."
              % (2 ** (len(DIMS) - 1)))
        CubeStore.build(history, directory, cluster_spec=cluster1(8)).close()

        # A later process: attach to the store — nothing is recomputed —
        # and serve it.
        store = CubeStore.open(directory)
        print("reopened store: %d leaves, %d cells, generation %d\n"
              % (len(store.leaves), store.total_cells(), store.generation))

        with CubeServer(store, cache_size=128, max_workers=8) as server:
            endpoint = server.serve_http(port=0)
            print("serving on %s\n" % endpoint.url)

            queries = [
                ("roll-up: by precipitation", "/query?cuboid=precip_code&minsup=2"),
                ("drill-down: add hour", "/query?cuboid=precip_code,hour&minsup=2"),
                ("same query again (cache)", "/query?cuboid=precip_code,hour&minsup=2"),
                ("revenue threshold", "/query?cuboid=hour&min_sum=5000"),
                ("point lookup", "/point?cuboid=precip_code&cell=0"),
            ]
            for label, path in queries:
                payload = get(endpoint.url + path)
                print("%-28s -> %4d cells in %7.3f ms  (source: %s)"
                      % (label, len(payload["cells"]), payload["latency_ms"],
                         payload["source"]))

            print("\nappending %d fresh rows (delta maintenance, no rebuild)..."
                  % len(fresh))
            server.append(fresh)
            payload = get(endpoint.url
                          + "/query?cuboid=precip_code,hour&minsup=2")
            print("%-28s -> %4d cells in %7.3f ms  (source: %s — cache was "
                  "invalidated)"
                  % ("same query after append", len(payload["cells"]),
                     payload["latency_ms"], payload["source"]))

            stats = get(endpoint.url + "/stats")
            print("\nserver stats: %d queries, cache hit rate %.2f, "
                  "p50 %.3f ms, p95 %.3f ms"
                  % (stats["telemetry"]["queries"], stats["cache"]["hit_rate"],
                     stats["telemetry"]["p50_ms"], stats["telemetry"]["p95_ms"]))
        store.close()
    print("\nthe store answered every query without touching the raw data")


if __name__ == "__main__":
    main()
