"""Key layout and reducer-region assignment for the MapReduce backend.

A plan fixes, before any row is read:

* the 63-bit packed-key layout over the input's declared code bounds
  (:class:`~repro.core.columnar.KeyPacking` — MSB-first in dimension
  order, so masking a key down to any dimension subset preserves the
  subset's lexicographic order);
* the leaf cuboids of the BUC processing tree (every cuboid ending in
  the last dimension) with stable integer ids;
* which reducer partition owns each leaf — *order-k marginal batching*
  (Afrati et al.): marginals of the same order ``k`` are considered
  together, largest estimated size first, each placed on the currently
  least-loaded reducer.  Batching by order keeps reducers' input
  shares comparable (same-order marginals have similar row coverage),
  and greedy-by-size within an order bounds the spread.

Everything in the plan is small and picklable: it ships to every
mapper and reducer through the pool initializer.
"""

from ..core.columnar import MAX_KEY_BITS, KeyPacking, bits_for
from ..errors import PlanError
from ..online.materialize import leaf_cuboids


class MRPlan:
    """Immutable layout shared by the driver, mappers and reducers."""

    __slots__ = ("dims", "cardinalities", "packing", "leaves",
                 "leaf_positions", "leaf_masks", "partition_of_leaf",
                 "n_reducers")

    def __init__(self, dims, cardinalities, packing, leaves, leaf_positions,
                 leaf_masks, partition_of_leaf, n_reducers):
        self.dims = dims
        self.cardinalities = cardinalities
        self.packing = packing
        self.leaves = leaves
        self.leaf_positions = leaf_positions
        self.leaf_masks = leaf_masks
        self.partition_of_leaf = partition_of_leaf
        self.n_reducers = n_reducers

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


def plan_mapreduce(dims, cardinalities, n_reducers, n_rows=None):
    """Build the :class:`MRPlan` for one MapReduce run.

    ``cardinalities`` are per-dimension *code bounds* (every code
    strictly below its bound), aligned with ``dims``.  Raises
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
    # big ones), size-descending within an order, always onto the
    # least-loaded partition.  Ties break on partition id, so the
    # assignment is deterministic.
    loads = [0] * n_reducers
    partition_of_leaf = [0] * len(leaves)
    by_order = {}
    for leaf_id, positions in enumerate(leaf_positions):
        by_order.setdefault(len(positions), []).append(leaf_id)
    for order in sorted(by_order, reverse=True):
        batch = sorted(
            by_order[order],
            key=lambda lid: (-_estimate_cells(leaf_positions[lid],
                                              cardinalities, n_rows),
                             leaves[lid]),
        )
        for leaf_id in batch:
            partition = min(range(n_reducers), key=lambda p: (loads[p], p))
            partition_of_leaf[leaf_id] = partition
            loads[partition] += _estimate_cells(
                leaf_positions[leaf_id], cardinalities, n_rows)

    return MRPlan(dims, cardinalities, packing, leaves, leaf_positions,
                  leaf_masks, partition_of_leaf, n_reducers)
