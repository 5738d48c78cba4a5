"""One-round MapReduce cube materialization with a spill-to-disk shuffle.

The scale backend: every other real backend in the library holds the
relation *and* all intermediate cells in RAM; this one streams row
splits through mapper processes, externalizes the shuffle into sorted
run files under a memory budget, and lets reducers merge-stream their
lattice regions straight into a :class:`~repro.serve.store.CubeStore`
— so input size and cube size are bounded by disk, not memory.

The round structure follows Sundararajan & Yan ("A Simple and
Efficient MapReduce Algorithm for Data Cube Materialization"): one map
phase, one shuffle, one reduce phase — no cascading rounds.  Reducer
regions are assigned by order-k marginal batching in the spirit of
Afrati et al. ("Computing Marginals Using MapReduce"): marginals
(cuboids) of the same order are batched together and dealt greedily by
estimated size, bounding each reducer's input share.

Entry points:

* :func:`~repro.mr.engine.mapreduce_materialize` — ``store build
  --backend mapreduce``: write leaf cuboids (minsup 1) into a store,
  optionally sharded;
* :func:`~repro.mr.engine.mapreduce_iceberg_cube` — ``cube --backend
  mapreduce``: a full in-memory :class:`~repro.core.result.CubeResult`
  at an iceberg threshold (verification-scale; the store path is the
  one that scales).

Both run their map and reduce phases on one
:class:`repro.parallel.local.SupervisedPool`, so worker crashes and
hangs (including injected ``--faults``) are retried from the published
spill files rather than restarting the job.
"""

from .engine import (
    DEFAULT_MEMORY_BUDGET,
    MIN_MEMORY_BUDGET,
    MRStats,
    mapreduce_iceberg_cube,
    mapreduce_materialize,
)
from .planner import MRPlan, plan_mapreduce

__all__ = [
    "DEFAULT_MEMORY_BUDGET",
    "MIN_MEMORY_BUDGET",
    "MRPlan",
    "MRStats",
    "mapreduce_iceberg_cube",
    "mapreduce_materialize",
    "plan_mapreduce",
]
