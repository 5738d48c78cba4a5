"""Command-line interface: ``repro-cube``.

Six subcommands cover the library's everyday uses:

* ``cube``    — compute an iceberg cube from a CSV (or a synthetic
  weather workload) with any of the five parallel algorithms, print a
  summary and optionally export the cells; ``compute`` is an alias,
  and ``--backend local`` swaps the simulated cluster for a real
  process pool over the vectorised kernel with a shared-memory data
  plane (``--workers``, ``--self-test``); a flag the chosen backend
  does not take is an error, not ignored;
* ``query``   — answer one iceberg group-by and print its cells;
* ``recipe``  — print the Figure 4.7 recommendation for a workload;
* ``bench``   — run one of the paper's experiments by name (or list
  them) and print the thesis-style table;
* ``store``   — ``store build`` precomputes the leaf cuboids into a
  persistent on-disk :class:`~repro.serve.store.CubeStore`;
  ``--shards N`` splits the leaves across N shard stores
  (``DIR/shard-0`` .. ``DIR/shard-N-1``) by stable covering-leaf hash;
* ``serve``   — serve iceberg queries from a built store over HTTP
  (cache + telemetry included); ``--shard i/N`` declares which shard
  this replica serves (refused if the store disagrees);
* ``router``  — front N shards x R replicas as one logical cube:
  failover across replicas, generation-pinned fan-out, structured 503
  when a whole shard is down.

Examples::

    repro-cube cube --csv sales.csv --minsup 5 --algorithm pt --processors 8
    repro-cube cube --weather 20000 --dims 7 --minsup 2 --export out/
    repro-cube compute --weather 50000 --dims 8 --minsup 5 --backend local \
        --workers 4 --self-test
    repro-cube query --csv sales.csv --group-by city,item --min-sum 1000
    repro-cube bench fig_4_2_scalability
    repro-cube store build --weather 20000 --dims 6 --out /tmp/cube-store
    repro-cube store build --weather 20000 --dims 6 --out /tmp/cluster --shards 3
    repro-cube serve --store /tmp/cube-store --port 8642
    repro-cube serve --store /tmp/cube-store --compact-after 8
    repro-cube store compact --store /tmp/cube-store
    repro-cube store migrate /tmp/old-format-2-store
    repro-cube serve --store /tmp/cluster/shard-0 --shard 0/3 --port 9001
    repro-cube router --shard http://h1:9001,http://h2:9001 \
        --shard http://h3:9002,http://h4:9002 --port 8642

``cube``, ``store build`` and ``serve`` all accept ``--trace-out FILE``
(write a Chrome ``trace_event`` JSON of the run, viewable in
``chrome://tracing`` or Perfetto) and ``--metrics`` (print Prometheus
text-format metrics on exit); ``serve`` additionally exposes the live
registry at ``GET /metrics``::

    repro-cube cube --weather 5000 --dims 5 --minsup 4 --trace-out t.json
"""

import argparse
import sys
import time

from .backends import BACKENDS, CLUSTERS, backend_names, resolve_backend
from .core.export import save_cube
from .core.thresholds import AndThreshold, CountThreshold, SumThreshold
from .data.io import load_csv
from .data.weather import baseline_dims, weather_relation
from .errors import ReproError, SchemaError
from .queries import iceberg_query
from .recipe import recommend_for


def build_parser():
    """The argparse tree for ``repro-cube``."""
    parser = argparse.ArgumentParser(
        prog="repro-cube",
        description="Iceberg-cube computation with a simulated PC cluster",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cube = sub.add_parser("cube", aliases=["compute"],
                          help="compute a full iceberg cube")
    _add_input_options(cube)
    _add_threshold_options(cube)
    cube.add_argument("--backend", default="simulated", metavar="NAME",
                      help="compute backend: %s (default: simulated; "
                           "unknown names fail listing the choices)"
                           % ", ".join(backend_names()))
    _add_backend_options(cube, (
        "algorithm", "processors", "cluster", "workers", "fault_plan",
        "batch_timeout", "reducers", "memory_budget"))
    cube.add_argument("--self-test", action="store_true",
                      help="validate the result against the naive oracle "
                           "before printing the summary")
    cube.add_argument("--export", metavar="DIR",
                      help="write the result cells under DIR (one CSV per cuboid)")
    _add_obs_options(cube)

    query = sub.add_parser("query", help="answer one iceberg group-by")
    _add_input_options(query)
    _add_threshold_options(query)
    query.add_argument("--group-by", required=True,
                       help="comma-separated dimension names")
    query.add_argument("--aggregate", default="sum",
                       choices=["count", "sum", "avg", "min", "max", "median"])
    query.add_argument("--limit", type=int, default=20,
                       help="print at most this many cells (default 20)")

    recipe = sub.add_parser("recipe", help="recommend an algorithm (Figure 4.7)")
    _add_input_options(recipe)

    bench = sub.add_parser("bench", help="run one paper experiment by name")
    bench.add_argument("experiment", nargs="?",
                       help="experiment function name; omit to list them")

    store = sub.add_parser("store", help="manage a persistent cube store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    build = store_sub.add_parser(
        "build", help="precompute leaf cuboids into an on-disk store")
    _add_input_options(build)
    build.add_argument("--out", required=True, metavar="DIR",
                       help="directory to write the store under")
    build.add_argument("--backend", default="local", metavar="NAME",
                       help="leaf precompute backend: %s (default: local; "
                            "'mapreduce' streams splits through a "
                            "spill-to-disk shuffle for inputs larger than "
                            "RAM)" % ", ".join(backend_names()))
    _add_backend_options(build, (
        "processors", "cluster", "workers", "reducers", "memory_budget"))
    build.add_argument("--shards", type=int, default=None, metavar="N",
                       help="split the leaf cuboids across N shard stores "
                            "(written under OUT/shard-0 .. OUT/shard-N-1, "
                            "placement by stable covering-leaf hash) instead "
                            "of one monolithic store")
    _add_obs_options(build)
    compact = store_sub.add_parser(
        "compact", help="fold a store's pending delta batches into its "
                        "sorted leaf runs")
    compact.add_argument("--store", required=True, metavar="DIR",
                         help="directory written by 'store build'")
    compact.add_argument("--verify", default="quick",
                         choices=["off", "quick", "full"],
                         help="store integrity check on open (default quick)")
    _add_obs_options(compact)
    migrate = store_sub.add_parser(
        "migrate", help="convert a format-2 store (CSV leaves) to format 3 "
                        "(.run leaves), once, in place")
    migrate.add_argument("directory", metavar="DIR",
                         help="the format-2 store to convert")

    serve = sub.add_parser("serve",
                           help="serve iceberg queries from a store over HTTP")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="directory written by 'store build'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 picks a free one; default 8642)")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="LRU query-cache capacity (0 disables)")
    serve.add_argument("--threads", type=int, default=8,
                       help="query worker threads (default 8)")
    serve.add_argument("--max-pending", type=int, default=None, metavar="N",
                       help="admitted-but-unfinished query bound; past it the "
                            "server sheds with HTTP 429 (default 16*threads, "
                            "min 64)")
    serve.add_argument("--deadline-ms", type=float, default=None, metavar="MS",
                       help="default per-query deadline in milliseconds; past "
                            "it the query fails with HTTP 504 (default: none)")
    serve.add_argument("--verify", default="quick",
                       choices=["off", "quick", "full"],
                       help="store integrity check on open: 'quick' compares "
                            "leaf sizes, 'full' re-hashes every leaf "
                            "(default quick)")
    serve.add_argument("--self-test", type=int, metavar="N", default=None,
                       help="fire N HTTP queries at the served store, print "
                            "the stats and exit (smoke mode)")
    serve.add_argument("--shard", default=None, metavar="I/N",
                       help="serve as shard I of an N-shard cluster; refused "
                            "unless the store was built as exactly that shard "
                            "(e.g. --shard 0/3)")
    serve.add_argument("--wal", action="store_true",
                       help="accepted and ignored: every store appends "
                            "through its write-ahead log (durable, "
                            "batch_id-deduplicated delta batches, "
                            "compacted in the background)")
    serve.add_argument("--compact-after", type=int, default=None, metavar="N",
                       help="WAL batches buffered before a background "
                            "compaction folds them into the sorted leaf "
                            "runs (default 8)")
    _add_obs_options(serve)

    router = sub.add_parser(
        "router", help="front sharded replica servers as one logical cube")
    router.add_argument("--shard", action="append", required=True,
                        metavar="URL[,URL...]", dest="shards",
                        help="one shard's replica base URLs, comma-separated; "
                             "repeat the flag once per shard, in shard order")
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks a free one; default 8642)")
    router.add_argument("--timeout", type=float, default=10.0,
                        metavar="SECONDS",
                        help="per-replica request timeout (default 10)")
    router.add_argument("--health-interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="background /healthz and repair sweep "
                             "period; 0 disables (default 2)")
    router.add_argument("--self-test", type=int, metavar="N", default=None,
                        help="fire N queries through the router, print its "
                             "health and stats, and exit (smoke mode)")
    _add_obs_options(router)
    return parser


def _add_obs_options(parser):
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="record tracing spans and write a Chrome "
                             "trace_event JSON to FILE on exit (open in "
                             "chrome://tracing or ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print Prometheus text-format metrics on exit")


def _setup_obs(args):
    """Install the observability layer when the run asked for it."""
    if not (args.trace_out or args.metrics):
        return None
    from . import obs

    return obs.install()


def _finish_obs(args, active, out):
    """Export what ``_setup_obs`` collected, then switch back off."""
    if active is None:
        return
    from . import obs

    try:
        if args.trace_out:
            active.tracer.export_chrome(args.trace_out)
            dropped = active.tracer.dropped
            print("trace written    : %s (%d spans%s)"
                  % (args.trace_out, len(active.tracer),
                     ", %d dropped" % dropped if dropped else ""), file=out)
        if args.metrics:
            out.write(active.registry.to_prometheus())
    finally:
        obs.uninstall()


def _add_input_options(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", metavar="PATH",
                        help="input relation (last column is the measure)")
    source.add_argument("--weather", type=int, metavar="N",
                        help="synthetic weather workload with N tuples")
    parser.add_argument("--dims", default=None,
                        help="comma-separated dimension names, or a count for "
                             "--weather (default: all)")


def _add_threshold_options(parser):
    parser.add_argument("--minsup", type=int, default=1,
                        help="HAVING COUNT(*) >= N (default 1)")
    parser.add_argument("--min-sum", type=float, default=None,
                        help="HAVING SUM(measure) >= S (combines with --minsup)")


def parse_bytes(text):
    """Parse a byte count like ``64m``, ``1g`` or ``65536``."""
    body = str(text).strip().lower()
    multiplier = 1
    if body and body[-1] in "kmg":
        multiplier = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[body[-1]]
        body = body[:-1]
    try:
        return int(float(body) * multiplier)
    except ValueError:
        raise ReproError(
            "bad byte count %r; expected e.g. 65536, 64m or 1g" % (text,)
        ) from None


def _load_source(args, streaming=False):
    """The input as ``(source, dims)``: a relation — or, for a backend
    with the ``streaming`` capability, a stream of row splits.

    Streamed weather inputs come as regenerable splits that never
    materialize the relation; CSV inputs are loaded (they are on disk
    already) and wrapped split by split, already projected on ``dims``.
    """
    from .data.stream import stream_from_relation, weather_stream

    if args.csv:
        relation = load_csv(args.csv)
        dims = tuple(args.dims.split(",")) if args.dims else None
        if streaming:
            return stream_from_relation(relation, dims=dims), None
        return relation, dims
    if args.dims and args.dims.isdigit():
        dims = baseline_dims(int(args.dims))
    elif args.dims:
        dims = tuple(args.dims.split(","))
    else:
        dims = None
    load = weather_stream if streaming else weather_relation
    return load(args.weather, dims=dims), None


def parse_fault_spec(spec):
    """Parse a ``--faults`` directive string into a :class:`FaultPlan`."""
    from .cluster.faults import FaultPlan, NodeCrash, Slowdown
    from .errors import ClusterError

    crashes, slowdowns, options = [], [], {}
    for token in filter(None, (t.strip() for t in spec.split(","))):
        try:
            if token.startswith("crash:"):
                proc, at = token[len("crash:"):].split("@")
                crashes.append(NodeCrash(int(proc), float(at)))
            elif token.startswith("slow:"):
                body = token[len("slow:"):]
                when = 0.0
                if "@" in body:
                    body, at = body.split("@")
                    when = float(at)
                proc, factor = body.split("x")
                slowdowns.append(Slowdown(int(proc), float(factor), start=when))
            elif "=" in token:
                key, value = token.split("=", 1)
                mapped = {"rate": ("failure_rate", float),
                          "retries": ("max_retries", int),
                          "backoff": ("backoff_s", float),
                          "seed": ("seed", int)}.get(key)
                if mapped is None:
                    raise ValueError("unknown option %r" % key)
                options[mapped[0]] = mapped[1](value)
            else:
                raise ValueError("unknown directive")
        except (ValueError, IndexError) as exc:
            raise ClusterError(
                "bad --faults directive %r (%s); expected crash:P@T, slow:PxF[@T], "
                "rate=R, retries=N, backoff=S or seed=N" % (token, exc)
            ) from None
    return FaultPlan(crashes=crashes, slowdowns=slowdowns, **options)


#: Flags that set a backend option: option name -> (flag, argparse
#: spec).  Which backends take an option is the registry's knowledge
#: (``Backend.options``): it generates the "... backend:" help prefix in
#: :func:`_add_backend_options` and decides in :func:`_backend_options`
#: whether a given flag is honoured or refused.  Every default is
#: ``None`` — "not given" — and the backend supplies its own.
_BACKEND_FLAGS = {
    "algorithm": ("--algorithm", dict(
        choices=["rp", "bpp", "asl", "pt", "aht"],
        help="parallel algorithm (default: pt, the recipe's default)")),
    "processors": ("--processors", dict(
        type=int, help="machines in the cluster (default 8)")),
    "cluster": ("--cluster", dict(
        choices=sorted(CLUSTERS),
        help="machine and network preset (default cluster1)")),
    "workers": ("--workers", dict(
        type=int,
        help="worker processes (default: CPU count, capped at 8); the "
             "local pool deals one subtree task per job, largest first. "
             "A local 'store build' aggregates its leaves in-process "
             "unless this asks for the pool")),
    "fault_plan": ("--faults", dict(
        type=parse_fault_spec, metavar="SPEC",
        help="inject faults into the run; SPEC is comma-separated "
             "directives: 'crash:P@T' (processor P dies at T seconds), "
             "'slow:PxF' or 'slow:PxF@T' (P runs F times slower from T), "
             "'rate=R' (transient task-failure probability), 'retries=N', "
             "'backoff=S', 'seed=N'.  On the local and mapreduce backends "
             "the same plan drives REAL worker processes: crash directives "
             "SIGKILL the worker holding that batch, slow directives hang "
             "it past --batch-timeout, and the supervisor recovers. "
             "Example: --faults crash:0@0.05,slow:1x4,rate=0.1,seed=7")),
    "batch_timeout": ("--batch-timeout", dict(
        type=float, metavar="SECONDS",
        help="declare a batch hung after this many seconds without any "
             "pool progress and retry it elsewhere (default 300)")),
    "reducers": ("--mr-reducers", dict(
        type=int, metavar="N",
        help="reducer partitions owning lattice regions (default: the "
             "worker count)")),
    "memory_budget": ("--mr-memory-budget", dict(
        type=parse_bytes, metavar="BYTES",
        help="per-mapper pending-run budget before spilling sorted runs "
             "to disk; accepts k/m/g suffixes, e.g. 64m (default 64m)")),
}


def _add_backend_options(parser, names):
    """Add the flags of the named backend options to ``parser``."""
    for name in names:
        flag, spec = _BACKEND_FLAGS[name]
        takers = [backend for backend in backend_names()
                  if name in BACKENDS[backend].options]
        prefix = "" if len(takers) == len(BACKENDS) else "%s backend%s: " % (
            ", ".join(takers), "s" if len(takers) > 1 else "")
        parser.add_argument(flag, dest=name, default=None,
                            **dict(spec, help=prefix + spec["help"]))


def _backend_options(args, backend):
    """The backend options given on the command line, as the keywords
    ``backend.cube`` / ``backend.materialize`` take; a flag the chosen
    backend does not take is refused, never silently dropped."""
    given = {name: getattr(args, name) for name in _BACKEND_FLAGS
             if getattr(args, name, None) is not None}
    backend.check_options(given, spell=lambda name: _BACKEND_FLAGS[name][0])
    return given


def _threshold(args):
    conditions = []
    if args.minsup > 1 or args.min_sum is None:
        conditions.append(CountThreshold(max(1, args.minsup)))
    if args.min_sum is not None:
        conditions.append(SumThreshold(args.min_sum))
    if len(conditions) == 1:
        return conditions[0]
    return AndThreshold(*conditions)


def _decode_cell(relation, dims, cell):
    if relation.encoder is not None:
        return relation.encoder.decode_cell(dims, cell)
    return cell


def cmd_cube(args, out):
    """Compute a full iceberg cube and print a summary (optionally export)."""
    backend = resolve_backend(args.backend)
    options = _backend_options(args, backend)
    threshold = _threshold(args)
    streaming = backend.supports("streaming")
    active = _setup_obs(args)
    try:
        source, dims = _load_source(args, streaming)
        started = time.perf_counter()
        result = backend.cube(source, dims, threshold, **options)
        elapsed = time.perf_counter() - started
        if args.self_test:
            _oracle_check(source.materialize() if streaming else source,
                          dims, threshold, result, out)
        print("backend          : %s" % backend.summary, file=out)
        print("input            : %d tuples, dims %s"
              % (len(source), ", ".join(result.dims)), file=out)
        print("threshold        : HAVING %s" % threshold.describe(), file=out)
        print("qualifying cells : %d in %d cuboids"
              % (result.total_cells(), len(result.cuboids)), file=out)
        print("output volume    : %.1f KB" % (result.output_bytes() / 1024),
              file=out)
        print("wall clock       : %.3f s" % elapsed, file=out)
        for line in backend.cube_report(result, options):
            print(line, file=out)
        if args.export:
            manifest = save_cube(result, args.export)
            print("exported         : %d cuboid files under %s"
                  % (len(manifest["cuboids"]), args.export), file=out)
        return 0
    finally:
        _finish_obs(args, active, out)


def _oracle_check(relation, dims, threshold, result, out):
    """Validate ``result`` cell-for-cell against the naive oracle."""
    from .core.naive import naive_iceberg_cube

    expected = naive_iceberg_cube(relation, dims or relation.dims, threshold)
    problems = result.diff(expected, limit=3)
    if problems:
        raise ReproError(
            "self-test FAILED against the naive oracle: %s"
            % "; ".join(problems)
        )
    print("self-test        : PASSED (%d cells match the naive oracle)"
          % expected.total_cells(), file=out)


def cmd_query(args, out):
    """Answer one iceberg group-by and print its top cells."""
    relation, _dims = _load_source(args)
    group_by = tuple(args.group_by.split(","))
    threshold = _threshold(args)
    cells = iceberg_query(relation, group_by, having=threshold,
                          aggregate=args.aggregate)
    print("SELECT %s, %s(measure) GROUP BY %s HAVING %s"
          % (", ".join(group_by), args.aggregate.upper(), ", ".join(group_by),
             threshold.describe()), file=out)
    ranked = sorted(cells.items(), key=lambda kv: (-(kv[1] or 0), kv[0]))
    for cell, value in ranked[: args.limit]:
        decoded = _decode_cell(relation, group_by, cell)
        print("  %-50s %s" % (" / ".join(map(str, decoded)), value), file=out)
    if len(ranked) > args.limit:
        print("  ... and %d more cells" % (len(ranked) - args.limit), file=out)
    print("%d qualifying cells" % len(cells), file=out)
    return 0


def cmd_recipe(args, out):
    """Print the Figure 4.7 recommendation for the workload."""
    relation, dims = _load_source(args)
    picks = recommend_for(relation, dims)
    print("workload: %d tuples, %d dims, cardinality product %.2e"
          % (len(relation), len(dims or relation.dims),
             relation.cardinality_product(dims)), file=out)
    print("recommended: %s" % ", ".join(picks), file=out)
    return 0


def cmd_bench(args, out):
    """Run (or list) one of the paper's experiments."""
    from .bench import ALL_ABLATIONS, ALL_EXPERIMENTS, ALL_EXTENSIONS

    registry = {fn.__name__: fn for fn in
                ALL_EXPERIMENTS + ALL_ABLATIONS + ALL_EXTENSIONS}
    if not args.experiment:
        print("available experiments:", file=out)
        for name in registry:
            print("  %s" % name, file=out)
        return 0
    fn = registry.get(args.experiment)
    if fn is None:
        print("unknown experiment %r; run 'repro-cube bench' to list them"
              % args.experiment, file=out)
        return 2
    result = fn()
    print(result.format_table(), file=out)
    return 0 if result.passed else 1


def cmd_store(args, out):
    """Build a persistent cube store from an input relation."""
    if args.store_command == "compact":
        active = _setup_obs(args)
        try:
            return _cmd_store_compact(args, out)
        finally:
            _finish_obs(args, active, out)
    if args.store_command == "migrate":
        return _cmd_store_migrate(args, out)
    backend = resolve_backend(args.backend)
    options = _backend_options(args, backend)
    active = _setup_obs(args)
    try:
        source, dims = _load_source(args, backend.supports("streaming"))
        stores = backend.materialize(source, args.out, dims,
                                     shards=args.shards, **options)
        print("built cube store : %s (%s backend)" % (args.out, backend.name),
              file=out)
        print("input            : %d tuples, dims %s"
              % (len(source), ", ".join(stores[0].dims)), file=out)
        for line in backend.store_report(stores, options):
            print(line, file=out)
        if args.shards is None:
            print("stored leaves    : %d (sorted columnar runs), %d cells"
                  % (len(stores[0].leaves), stores[0].total_cells()),
                  file=out)
            print("generation       : %d" % stores[0].generation, file=out)
        else:
            print("sharded build    : %d shards over %d leaf cuboids"
                  % (args.shards, sum(len(store.leaves) for store in stores)),
                  file=out)
            for index, store in enumerate(stores):
                print("  shard %d/%d      : %s — %d leaves, %d cells"
                      % (index, args.shards, store.directory,
                         len(store.leaves), store.total_cells()), file=out)
            print("serve each shard : repro-cube serve --store %s/shard-I "
                  "--shard I/%d" % (args.out, args.shards), file=out)
        for store in stores:
            store.close()
        return 0
    finally:
        _finish_obs(args, active, out)


def _cmd_store_compact(args, out):
    """``store compact``: fold pending WAL batches into the leaf runs."""
    from .serve import CubeStore

    store = CubeStore.open(args.store, verify=args.verify)
    try:
        stats = store.wal_stats()
        pending = stats["pending_batches"]
        print("store            : %s (generation %d)"
              % (args.store, store.generation), file=out)
        replayed = store.recovery["wal_replayed"]
        if replayed:
            print("wal recovery     : %d batch(es) replayed" % replayed,
                  file=out)
        compacted = store.compact()
        print("compacted        : %d pending batch(es) (%d were already "
              "folded)" % (compacted, pending - compacted
                           if pending >= compacted else 0), file=out)
        print("wal              : %d bytes across %d record(s) remain"
              % (store.wal.nbytes(), len(store.wal)), file=out)
    finally:
        store.close()
    return 0


def _read_v2_leaf(path, leaf):
    """A format-2 leaf file (``coords..., count, sum`` CSV rows under a
    header, sorted by coords) as a :class:`CellRun` — the only reader of
    that format left."""
    from .core.columnar import CellRun

    width = len(leaf)
    cells = {}
    with open(path, "rb") as handle:
        handle.readline()  # header
        for raw in handle:
            parts = raw.decode().rstrip("\n").split(",")
            if len(parts) != width + 2:
                raise SchemaError(
                    "leaf row %r has %d fields, expected %d"
                    % (raw, len(parts), width + 2))
            cells[tuple(int(part) for part in parts[:width])] = (
                int(parts[width]), float(parts[width + 1]))
    return CellRun.from_cells(leaf, cells)


def _cmd_store_migrate(args, out):
    """``store migrate DIR``: format 2 (CSV leaves) to format 3, in place."""
    from .serve import CubeStore

    leaves, cells = CubeStore.migrate(args.directory, _read_v2_leaf)
    print("migrated store   : %s (format 2 -> 3)" % args.directory, file=out)
    print("leaves           : %d, %d cells" % (leaves, cells), file=out)
    return 0


def cmd_serve(args, out):
    """Serve iceberg queries from a built store over HTTP."""
    active = _setup_obs(args)
    try:
        return _cmd_serve(args, out)
    finally:
        _finish_obs(args, active, out)


def _cmd_serve(args, out):
    from .serve import CubeServer, CubeStore

    kwargs = {}
    if args.compact_after is not None:
        kwargs["compact_after"] = args.compact_after
    store = CubeStore.open(args.store, verify=args.verify, **kwargs)
    if args.shard is not None:
        from .serve import ShardMap

        try:
            index, of = (int(part) for part in args.shard.split("/"))
        except ValueError:
            raise ReproError(
                "--shard must look like I/N (e.g. 0/3), got %r" % args.shard
            ) from None
        ShardMap(store.dims, of).validate_store(store, index)
        print("shard            : %d/%d (placement validated)" % (index, of),
              file=out)
    recovery = store.recovery
    if recovery["orphans_removed"] or recovery["salvaged"]:
        print("store recovery   : %d orphans removed, %d leaves salvaged"
              % (len(recovery["orphans_removed"]),
                 len(recovery["salvaged"])), file=out)
    print("wal              : %d batch(es) replayed on open, compaction "
          "after %d" % (recovery["wal_replayed"], store.compact_after),
          file=out)
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms else None
    server = CubeServer(store, cache_size=args.cache_size,
                        max_workers=args.threads,
                        max_pending=args.max_pending,
                        default_deadline_s=deadline_s)
    endpoint = server.serve_http(host=args.host, port=args.port)
    print("serving cube store %s" % args.store, file=out)
    print("dims   : %s" % ", ".join(store.dims), file=out)
    print("leaves : %d   rows : %d" % (len(store.leaves), store.total_rows),
          file=out)
    print("admission limit  : %d pending queries%s"
          % (server.gate.limit,
             ", %.0f ms default deadline" % args.deadline_ms
             if args.deadline_ms else ""), file=out)
    print("listening on %s (GET /query /point /stats /metrics /cuboids "
          "/healthz)" % endpoint.url, file=out)
    try:
        if args.self_test is not None:
            _serve_self_test(args.self_test, endpoint, store, out)
        else:
            endpoint.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.close()
        store.close()
    return 0


def _serve_self_test(n_queries, endpoint, store, out):
    """Fire queries at the live endpoint and print the resulting stats."""
    from .serve import ReplicaClient

    if getattr(store, "shard", None) is not None:
        # A shard store answers only the cuboids whose covering leaf it
        # holds; anything else belongs to a sibling shard.
        cuboids = [c for c in store.owned_cuboids() if c]
    else:
        cuboids = [(dim,) for dim in store.dims] + [store.leaves[0]]
    client = ReplicaClient(endpoint.url)
    answered = 0
    for i in range(max(1, n_queries)):
        cuboid = cuboids[i % len(cuboids)]
        client.get_json("/query?cuboid=%s&minsup=%d"
                        % (",".join(cuboid), 1 + (i % 2)))
        answered += 1
    stats = client.get_json("/stats")
    client.close()
    print("self-test        : %d HTTP queries answered" % answered, file=out)
    print("cache hit rate   : %.2f (%d hits, %d misses)"
          % (stats["cache"]["hit_rate"], stats["cache"]["hits"],
             stats["cache"]["misses"]), file=out)
    print("latency p50/p95  : %.3f / %.3f ms"
          % (stats["telemetry"]["p50_ms"], stats["telemetry"]["p95_ms"]),
          file=out)


def cmd_router(args, out):
    """Front sharded replica servers as one logical cube over HTTP."""
    active = _setup_obs(args)
    try:
        return _cmd_router(args, out)
    finally:
        _finish_obs(args, active, out)


def _cmd_router(args, out):
    from .serve import CubeRouter

    shard_replicas = []
    for spec in args.shards:
        urls = [u.strip() for u in spec.split(",") if u.strip()]
        if not urls:
            raise ReproError("--shard needs at least one replica URL, got %r"
                             % spec)
        shard_replicas.append(urls)
    router = CubeRouter(
        shard_replicas, timeout_s=args.timeout,
        health_interval_s=args.health_interval)
    endpoint = router.serve_http(host=args.host, port=args.port)
    print("routing %d shard(s), replicas per shard: %s"
          % (router.n_shards, [len(r) for r in router.shards]), file=out)
    print("listening on %s (GET /query /point /cube /healthz /stats /metrics "
          "/trace /trace/cluster, POST /append)" % endpoint.url, file=out)
    try:
        if args.self_test is not None:
            _router_self_test(args.self_test, endpoint, router, out)
        else:
            endpoint.join()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        _export_router_obs(args, router, out)
        router.close()
    return 0


def _export_router_obs(args, router, out):
    """The router's ``--trace-out`` covers the *cluster*: the merged
    multi-node Chrome trace (one process track per replica).

    A successful export nulls out the arg so the generic
    :func:`_finish_obs` does not overwrite it with the router-local
    trace; a failed scrape falls back to that instead of losing the
    run.  ``--metrics`` is the router's own registry, printed by
    :func:`_finish_obs` like every other command's.
    """
    from . import obs

    if obs.current() is None or not args.trace_out:
        return
    try:
        merged = router.collect_trace(path=args.trace_out)
    except Exception as exc:
        print("cluster trace collection failed (%s); writing the "
              "router-local trace instead" % exc, file=out)
    else:
        n_spans = sum(1 for event in merged["traceEvents"]
                      if event.get("ph") in ("X", "i"))
        dropped = merged["otherData"]["dropped_spans"]
        print("cluster trace    : %s (%d events%s)"
              % (args.trace_out, n_spans,
                 ", %d dropped" % dropped if dropped else ""), file=out)
        args.trace_out = None


def _router_self_test(n_queries, endpoint, router, out):
    """Fire queries through the live router endpoint, print health/stats."""
    from .serve import ReplicaClient

    dims = router._ensure_map().dims
    cuboids = [(dim,) for dim in dims] + [tuple(dims[-2:])]
    client = ReplicaClient(endpoint.url)
    answered = failovers = 0
    for i in range(max(1, n_queries)):
        cuboid = cuboids[i % len(cuboids)]
        payload = client.get_json("/query?cuboid=%s&minsup=%d"
                                  % (",".join(cuboid), 1 + (i % 2)))
        answered += 1
        failovers += payload.get("failovers", 0)
    client.close()
    health = router.health()
    print("self-test        : %d routed queries answered (%d failovers)"
          % (answered, failovers), file=out)
    print("cluster health   : %s (%d shard(s), degraded: %s)"
          % (health["status"], health["n_shards"],
             health["degraded_shards"] or "none"), file=out)


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    handlers = {
        "cube": cmd_cube,
        "compute": cmd_cube,
        "query": cmd_query,
        "recipe": cmd_recipe,
        "bench": cmd_bench,
        "store": cmd_store,
        "serve": cmd_serve,
        "router": cmd_router,
    }
    try:
        # Parsing is inside the guard: --faults and --mr-memory-budget
        # are parsed by argparse ``type=`` callables that raise ReproError.
        args = build_parser().parse_args(argv)
        return handlers[args.command](args, out)
    except ReproError as exc:
        print("error: %s" % exc, file=out)
        return 2


if __name__ == "__main__":
    sys.exit(main())
