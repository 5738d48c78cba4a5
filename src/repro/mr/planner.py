"""Key layout and reducer-region assignment for the MapReduce backend.

A plan fixes, before any row is read:

* the 63-bit packed-key layout over the input's declared code bounds
  (:class:`~repro.core.columnar.KeyPacking` — MSB-first in dimension
  order, so masking a key down to any dimension subset preserves the
  subset's lexicographic order);
* store mode's leaf cuboids of the BUC processing tree (every cuboid
  ending in the last dimension) with stable integer ids, and which
  reducer partition owns each leaf — *order-k marginal batching*
  (Afrati et al.): marginals of the same order ``k`` are considered
  together, largest estimated size first, each placed on the currently
  least-loaded reducer.  Batching by order keeps reducers' input
  shares comparable (same-order marginals have similar row coverage),
  and greedy-by-size within an order bounds the spread;
* cube mode's PT subtree tasks (:func:`cube_tasks`), their root masks
  and their partitions (largest node count first, each onto the
  least-loaded one).

Everything in the plan is small and picklable: it ships to every
mapper and reducer through the pool initializer.
"""

from collections import namedtuple

from ..core.columnar import MAX_KEY_BITS, KeyPacking, bits_for
from ..errors import PlanError
from ..lattice.processing_tree import ProcessingTree, SubtreeTask, binary_divide
from ..online.materialize import leaf_cuboids
from ..parallel.local import TASKS_PER_WORKER


class MRPlan(namedtuple("MRPlan", (
        "dims", "cardinalities", "packing", "leaves", "leaf_positions",
        "leaf_masks", "partition_of_leaf", "tasks", "task_masks",
        "partition_of_task", "n_reducers"))):
    """Immutable layout shared by the driver, mappers and reducers."""

    __slots__ = ()

    def __repr__(self):
        return "MRPlan(dims=%d, leaves=%d, reducers=%d, key_bits=%d)" % (
            len(self.dims), len(self.leaves), self.n_reducers,
            self.packing.total_bits)


def _estimate_cells(positions, cardinalities, n_rows):
    """Upper bound on a cuboid's cell count: min(rows, product of
    bounds).  Crude but monotone in order ``k``, which is all the
    batching needs."""
    product = 1
    for p in positions:
        product *= max(1, cardinalities[p])
        if n_rows is not None and product >= n_rows:
            return n_rows
    return product


def cube_tasks(tree, workers):
    """The pool's division, the apex task (no root cell to key rows by)
    replaced by a full subtree per child it kept; shrunk until a row's
    copies, one per task, are no more than the leaf shuffle's 2^(d-1)."""
    for n_tasks in range(workers * TASKS_PER_WORKER, 0, -1):
        tasks = [piece for task in binary_divide(tree, n_tasks)
                 for piece in ([task] if task.root else map(
                     SubtreeTask, task.active_children(tree)))]
        if len(tasks) <= 2 ** (len(tree.dims) - 1):
            return tasks


def _deal(order, sizes, n_reducers):
    """Each item in ``order`` onto the least-loaded partition (ties: the
    lowest id); returns every item's partition."""
    loads, partition_of = [0] * n_reducers, [0] * len(sizes)
    for item in order:
        partition_of[item] = loads.index(min(loads))
        loads[partition_of[item]] += sizes[item]
    return partition_of


def plan_mapreduce(dims, cardinalities, n_reducers, n_rows=None, workers=1):
    """Build the :class:`MRPlan` for one MapReduce run.

    ``cardinalities`` are per-dimension *code bounds* (every code
    strictly below its bound), aligned with ``dims``; ``workers`` sizes
    the cube's task division (:func:`cube_tasks`).  Raises
    :class:`~repro.errors.PlanError` when the bounds overflow the
    63-bit packed-key budget — the MapReduce backend has no unpacked
    fallback, so the error says exactly how far over budget the input
    is.
    """
    dims = tuple(dims)
    cardinalities = [int(c) for c in cardinalities]
    if len(cardinalities) != len(dims):
        raise PlanError(
            "got %d cardinalities for %d dimensions"
            % (len(cardinalities), len(dims)))
    if n_reducers < 1:
        raise PlanError("n_reducers must be >= 1, got %r" % (n_reducers,))
    packing = KeyPacking.plan(cardinalities)
    if packing is None:
        need = sum(bits_for(card) for card in cardinalities)
        raise PlanError(
            "mapreduce backend cannot pack %d dimensions into %d-bit keys "
            "(%d bits needed); drop dimensions or reduce cardinalities"
            % (len(dims), MAX_KEY_BITS, need))

    position_of = {name: i for i, name in enumerate(dims)}
    leaves = sorted(leaf_cuboids(dims))
    leaf_positions = [tuple(position_of[name] for name in leaf)
                      for leaf in leaves]
    leaf_masks = [packing.mask_for(positions) for positions in leaf_positions]

    # Order-k batching: orders descending (high-order marginals are the
    # big ones), size-descending within an order.
    estimates = [_estimate_cells(positions, cardinalities, n_rows)
                 for positions in leaf_positions]
    partition_of_leaf = _deal(
        sorted(range(len(leaves)), key=lambda lid: (
            -len(leaves[lid]), -estimates[lid], leaves[lid])),
        estimates, n_reducers)

    tree = ProcessingTree(dims)
    tasks = cube_tasks(tree, workers)
    roots = [[position_of[name] for name in task.root] for task in tasks]
    nodes = [task.size(tree) for task in tasks]
    # Largest node count first; ties (most tasks tie) dearest first: the
    # fewer cells a root has, the less it prunes.
    order = sorted(range(len(tasks)), key=lambda t: (
        -nodes[t], _estimate_cells(roots[t], cardinalities, n_rows)))
    return MRPlan(
        dims, cardinalities, packing, leaves, leaf_positions, leaf_masks,
        partition_of_leaf, tasks, [packing.mask_for(root) for root in roots],
        _deal(order, nodes, n_reducers), n_reducers)
