"""The compute backends: one registry, and the one module that chooses.

A backend is the thing that turns an input into cells.  Each entry of
:data:`BACKENDS` carries what a backend *does* and what it *takes*:

``cube(source, dims, threshold, **options) -> CubeResult``
    The full iceberg cube.
``materialize(source, directory, dims=None, shards=None, **options)``
    The minsup-1 leaf cuboids written as a
    :class:`~repro.serve.store.CubeStore` under ``directory`` — or, with
    ``shards=N``, as N shard stores under ``directory/shard-<i>``, from
    one pass over the input.  Returns the open stores as a list.
``options``
    The option names ``cube`` / ``materialize`` accept.  The same set
    decides which command-line flags a backend honours
    (:meth:`Backend.check_options`) and how ``--help`` groups them.

plus ``leaf_runs`` (the leaves as in-memory
:class:`~repro.core.columnar.CellRun` objects, for
:class:`~repro.online.materialize.LeafMaterialization`; ``None`` on a
backend that only writes stores) and the lines it adds to the CLI's
reports.  Consumers — the CLI, ``CubeStore.build``,
``LeafMaterialization`` — resolve a name through
:func:`resolve_backend` and call the entry; none of them imports
:mod:`repro.parallel.local` or :mod:`repro.mr`, or branches on a
backend name.

Capability flags say what *kind* of backend an entry is:

``workers``
    Runs real worker processes.
``streaming``
    Consumes :class:`~repro.data.stream.RelationStream` inputs larger
    than RAM (callers hand it a stream instead of a relation).
``simulated-timing``
    Reports modelled cluster seconds rather than wall clock.
"""

import os
import time

from .cluster.spec import cluster1, cluster2, cluster3, paper_cluster
from .errors import PlanError

#: ``cluster=`` names of the simulated backend: preset -> spec factory
#: taking the processor count.
CLUSTERS = {
    "cluster1": cluster1,
    "cluster2": cluster2,
    "cluster3": cluster3,
    "paper": paper_cluster,
}


class Backend:
    """One compute backend (see the module docstring for the members)."""

    name = summary = None
    capabilities = frozenset()
    options = frozenset()

    def supports(self, capability):
        return capability in self.capabilities

    def check_options(self, names, spell=lambda name: name + "="):
        """Refuse an option this backend cannot honour.

        ``spell`` turns an option name into what the caller wrote (a
        keyword by default; the CLI passes its flag spelling), so the
        :class:`~repro.errors.PlanError` names the thing to remove and
        the backends that do take it.
        """
        for name in names:
            if name not in self.options:
                takers = [other for other in backend_names()
                          if name in BACKENDS[other].options]
                raise PlanError(
                    "%s is not an option of the %s backend (backends that "
                    "take it: %s)" % (spell(name), self.name,
                                      ", ".join(takers) or "none"))

    def given_options(self, **named):
        """The options among ``named`` that were given (not ``None``),
        checked: how an entry point with a fixed signature
        (``CubeStore.build``, ``LeafMaterialization``) hands its
        keywords to whichever backend was named."""
        options = {name: value for name, value in named.items()
                   if value is not None}
        self.check_options(options)
        return options

    def cube(self, source, dims, threshold, **options):
        raise NotImplementedError

    #: ``leaf_runs(relation, dims, leaves, **options) -> ({leaf: CellRun},
    #: precompute_seconds)``, or ``None``.
    leaf_runs = None

    def materialize(self, source, directory, dims=None, shards=None,
                    **options):
        """The in-memory backends' store build: every leaf computed
        once through :meth:`leaf_runs`, then written whole or split by
        :class:`~repro.serve.cluster.ShardMap` placement."""
        from .online.materialize import LeafMaterialization
        from .serve.store import CubeStore

        if shards is not None and shards < 1:
            raise PlanError("shards must be >= 1, got %r" % (shards,))
        whole = LeafMaterialization(source, dims=dims, backend=self.name,
                                    **options)
        if shards is None:
            return [CubeStore.from_materialization(whole, directory)]
        return [
            CubeStore.from_materialization(
                whole, os.path.join(str(directory), "shard-%d" % index),
                shard=(index, shards))
            for index in range(shards)
        ]

    def cube_report(self, result, options):
        """Lines this backend adds to the ``cube`` summary."""
        return ()

    def store_report(self, stores, options):
        """Lines this backend adds to the ``store build`` summary."""
        return ()

    def __repr__(self):
        return "Backend(%r, options=%s)" % (self.name, sorted(self.options))


class _Simulated(Backend):
    name = "simulated"
    summary = ("the paper's simulated PC cluster (modelled seconds, "
               "bit-exact figures)")
    capabilities = frozenset({"simulated-timing"})
    options = frozenset({"algorithm", "processors", "cluster", "cluster_spec",
                         "cost_model", "fault_plan"})

    @staticmethod
    def _spec(options):
        """The simulated machines: an explicit ``cluster_spec``, else
        the ``cluster`` preset sized to ``processors`` (the thesis'
        baseline eight PIII-500 nodes by default)."""
        if options.get("cluster_spec") is not None:
            return options["cluster_spec"]
        return CLUSTERS[options.get("cluster") or "cluster1"](
            options.get("processors") or 8)

    def cube(self, relation, dims, threshold, algorithm="pt", cost_model=None,
             fault_plan=None, **machines):
        from .queries import iceberg_cube

        run = iceberg_cube(relation, dims=dims, minsup=threshold,
                           algorithm=algorithm,
                           cluster_spec=self._spec(machines),
                           cost_model=cost_model, fault_plan=fault_plan)
        run.result.run = run
        return run.result

    def leaf_runs(self, relation, dims, leaves, cluster_spec=None,
                  cost_model=None):
        from .core.columnar import CellRun
        from .parallel.asl import ASL

        run = ASL(cuboids=leaves).run(
            relation, dims, minsup=1, cluster_spec=cluster_spec,
            cost_model=cost_model)
        return {leaf: CellRun.from_cells(leaf, run.result.cuboids.get(leaf, {}))
                for leaf in leaves}, run.makespan

    def materialize(self, source, directory, dims=None, shards=None,
                    cost_model=None, **machines):
        return super().materialize(
            source, directory, dims, shards,
            cluster_spec=self._spec(machines), cost_model=cost_model)

    def cube_report(self, result, options):
        run, cluster = result.run, self._spec(options)
        yield "algorithm        : %s" % run.algorithm
        yield ("simulated wall   : %.3f s on %d x %s (%s)"
               % (run.makespan, len(cluster), cluster.machines[0].name,
                  cluster.network.name))
        sim = run.simulation
        yield "load imbalance   : %.2f" % sim.load_imbalance()
        if options.get("fault_plan") is not None:
            yield ("recovery         : %d retries, %d reassignments, %.3f s "
                   "work lost" % (sim.retries, sim.reassignments,
                                  sim.lost_work_seconds))
            failed = sim.failed_processors
            yield ("failed nodes     : %s (survivors finished at %.3f s)"
                   % (list(failed) if failed else "none",
                      sim.degraded_makespan))


class _Local(Backend):
    name = "local"
    summary = ("supervised local process pool over the vectorised kernel "
               "(real wall clock)")
    capabilities = frozenset({"workers"})
    options = frozenset({"workers", "fault_plan", "batch_timeout"})

    def cube(self, relation, dims, threshold, **options):
        from .parallel.local import multiprocess_iceberg_cube

        return multiprocess_iceberg_cube(relation, dims=dims,
                                         minsup=threshold, **options)

    def leaf_runs(self, relation, dims, leaves, workers=None):
        """``workers`` of ``None`` or 1 aggregates in-process."""
        from .parallel.local import multiprocess_leaf_cells

        started = time.perf_counter()
        runs = multiprocess_leaf_cells(
            relation, leaves, dims=dims,
            workers=1 if workers is None else workers)
        return runs, time.perf_counter() - started

    def cube_report(self, result, options):
        yield "pool             : %s workers" % (options.get("workers")
                                                  or "auto")
        recovery = result.recovery
        if options.get("fault_plan") is not None and recovery is not None:
            yield ("recovery         : %d retries, %d pool respawns, %d "
                   "worker crashes, %d stalls, %d segments swept, %.3f s "
                   "backoff"
                   % (recovery.retries, recovery.respawns,
                      recovery.worker_crashes, recovery.stalls,
                      recovery.segments_swept, recovery.backoff_seconds))


class _MapReduce(Backend):
    name = "mapreduce"
    summary = ("one-round MapReduce with a spill-to-disk shuffle (inputs "
               "larger than RAM)")
    capabilities = frozenset({"workers", "streaming"})
    options = frozenset({"workers", "reducers", "memory_budget", "fault_plan",
                         "batch_timeout", "shuffle_dir", "keep_shuffle"})

    def cube(self, source, dims, threshold, **options):
        from .mr import mapreduce_iceberg_cube

        return mapreduce_iceberg_cube(source, dims=dims, minsup=threshold,
                                      **options)

    def materialize(self, source, directory, dims=None, shards=None,
                    **options):
        """One MapReduce round whatever ``shards`` is: reducers route
        each leaf file into its shard directory."""
        from .mr import mapreduce_materialize

        built = mapreduce_materialize(source, directory, dims=dims,
                                      shards=shards, **options)
        return [built] if shards is None else built

    def cube_report(self, result, options):
        return self._report(result.mr_stats, options)

    def store_report(self, stores, options):
        return self._report(stores[0].mr_stats, options)

    @staticmethod
    def _report(stats, options):
        yield ("map phase        : %d tasks, %d spills, %.1f KB shuffled in "
               "%.3f s" % (stats.map_tasks, stats.spills,
                           stats.spill_bytes / 1024, stats.map_seconds))
        yield ("reduce phase     : %d tasks, %d runs merged in %.3f s"
               % (stats.reduce_tasks, stats.runs_merged,
                  stats.reduce_seconds))
        if options.get("fault_plan") is not None:
            for phase, recovery in (("map", stats.map_recovery),
                                    ("reduce", stats.reduce_recovery)):
                yield ("%-17s: %d retries, %d pool respawns, %d worker "
                       "crashes, %d stalls"
                       % (phase + " recovery", recovery.retries,
                          recovery.respawns, recovery.worker_crashes,
                          recovery.stalls))
            yield ("orphans swept    : %d spill files"
                   % stats.orphan_files_swept)


BACKENDS = {backend.name: backend
            for backend in (_Simulated(), _Local(), _MapReduce())}


def backend_names(capability=None):
    """Sorted backend names, optionally only those with ``capability``."""
    return sorted(
        name for name, backend in BACKENDS.items()
        if capability is None or backend.supports(capability)
    )


def resolve_backend(name, require=()):
    """Look up a backend by name, checking required capabilities.

    Raises :class:`~repro.errors.PlanError` listing the valid choices
    when ``name`` is unknown, or naming the missing capability when the
    backend exists but cannot do what the caller needs.
    """
    backend = BACKENDS.get(name)
    if backend is None:
        raise PlanError(
            "unknown backend %r (valid backends: %s)"
            % (name, ", ".join(backend_names()))
        )
    for capability in require:
        if not backend.supports(capability):
            raise PlanError(
                "backend %r does not support %r (backends that do: %s)"
                % (name, capability, ", ".join(backend_names(capability)))
            )
    return backend
