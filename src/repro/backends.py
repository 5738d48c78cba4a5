"""One registry for every compute backend the CLI and server expose.

Backends used to be validated ad hoc: ``cube`` had one argparse
``choices`` list, ``store build`` another, and the server's recompute
fallback hardcoded the local pool.  This module is the single source of
truth — the first step of the ROADMAP's ``ComputeBackend`` protocol
item: every entry point resolves names through :func:`resolve_backend`,
an unknown backend fails with the full list of valid choices, and a
backend missing a required capability fails naming the capability.

Capability flags (a backend advertises what it can actually do):

``cube``
    Computes a full iceberg cube (``repro-cube cube --backend X``).
``store-build``
    Materializes leaf cuboids into a :class:`~repro.serve.store.CubeStore`.
``serve-fallback``
    Usable as the server's recompute fallback for uncovered cuboids.
``workers``
    Runs real worker processes (``--workers`` means something).
``faults``
    Honours a :class:`~repro.cluster.faults.FaultPlan` (``--faults``).
``kernels``
    Accepts a refinement-kernel choice (``--kernel``).
``shards``
    Can build a sharded store (``--shards N``).
``streaming``
    Consumes :class:`~repro.data.stream.RelationStream` inputs larger
    than RAM.
``simulated-timing``
    Reports modelled cluster seconds rather than wall clock.
"""

from .errors import PlanError


class BackendInfo:
    """Name, one-line summary and capability set of one backend."""

    __slots__ = ("name", "summary", "capabilities")

    def __init__(self, name, summary, capabilities):
        self.name = name
        self.summary = summary
        self.capabilities = frozenset(capabilities)

    def supports(self, capability):
        return capability in self.capabilities

    def __repr__(self):
        return "BackendInfo(%r, capabilities=%s)" % (
            self.name, sorted(self.capabilities))


BACKENDS = {
    "simulated": BackendInfo(
        "simulated",
        "the paper's simulated PC cluster (modelled seconds, bit-exact "
        "figures)",
        {"cube", "store-build", "shards", "faults", "simulated-timing"},
    ),
    "local": BackendInfo(
        "local",
        "supervised process pool over the columnar kernels (real wall "
        "clock)",
        {"cube", "store-build", "serve-fallback", "shards", "workers",
         "faults", "kernels"},
    ),
    "mapreduce": BackendInfo(
        "mapreduce",
        "one-round MapReduce with a spill-to-disk shuffle (inputs larger "
        "than RAM)",
        {"cube", "store-build", "serve-fallback", "shards", "workers",
         "faults", "streaming"},
    ),
}


def backend_names(capability=None):
    """Sorted backend names, optionally only those with ``capability``."""
    return sorted(
        name for name, info in BACKENDS.items()
        if capability is None or info.supports(capability)
    )


def resolve_backend(name, require=()):
    """Look up a backend by name, checking required capabilities.

    Raises :class:`~repro.errors.PlanError` listing the valid choices
    when ``name`` is unknown, or naming the missing capability when the
    backend exists but cannot do what the caller needs.
    """
    info = BACKENDS.get(name)
    if info is None:
        raise PlanError(
            "unknown backend %r (valid backends: %s)"
            % (name, ", ".join(backend_names()))
        )
    for capability in require:
        if not info.supports(capability):
            raise PlanError(
                "backend %r does not support %r (backends that do: %s)"
                % (name, capability, ", ".join(backend_names(capability)))
            )
    return info
