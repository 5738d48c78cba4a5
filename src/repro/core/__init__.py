"""Core cube computation: results, aggregates, BUC and the sequential
baselines reviewed in Chapter 2 of the thesis."""

from .aggregates import (
    ALGEBRAIC,
    DISTRIBUTIVE,
    HOLISTIC,
    AggregateFunction,
    from_count_sum,
    get_aggregate,
)
from .apriori_cube import apriori_iceberg_cube
from .buc import BucEngine, PrefixCache, buc_iceberg_cube
from .columnar import (
    KERNELS,
    ColumnarFrame,
    KeyPacking,
    NumpyKernel,
    PythonKernel,
    aggregate_cuboid,
    resolve_kernel,
)
from .naive import naive_cuboid, naive_iceberg_cube
from .overlap import overlap_iceberg_cube, plan_overlap
from .partitioned_cube import (
    memory_cube,
    minimal_paths,
    partitioned_cube,
    symmetric_chain_decomposition,
)
from .pipehash import pipehash_iceberg_cube, plan_pipehash
from .pipesort import pipesort_iceberg_cube, plan_pipesort
from .result import CubeResult
from .stats import OpStats
from .thresholds import (
    AndThreshold,
    CountThreshold,
    SumThreshold,
    Threshold,
    as_threshold,
)
from .writer import ResultWriter

__all__ = [
    "CubeResult",
    "OpStats",
    "Threshold",
    "CountThreshold",
    "SumThreshold",
    "AndThreshold",
    "as_threshold",
    "ResultWriter",
    "AggregateFunction",
    "get_aggregate",
    "from_count_sum",
    "DISTRIBUTIVE",
    "ALGEBRAIC",
    "HOLISTIC",
    "naive_cuboid",
    "naive_iceberg_cube",
    "BucEngine",
    "PrefixCache",
    "buc_iceberg_cube",
    "ColumnarFrame",
    "NumpyKernel",
    "PythonKernel",
    "KeyPacking",
    "KERNELS",
    "aggregate_cuboid",
    "resolve_kernel",
    "pipesort_iceberg_cube",
    "plan_pipesort",
    "overlap_iceberg_cube",
    "plan_overlap",
    "pipehash_iceberg_cube",
    "plan_pipehash",
    "partitioned_cube",
    "memory_cube",
    "minimal_paths",
    "symmetric_chain_decomposition",
    "apriori_iceberg_cube",
]
