"""Aggregate functions and Gray et al.'s classification (Section 2.2).

The thesis' prototypical iceberg query computes ``SUM(measure)`` with a
``HAVING COUNT(*) >= T`` constraint, so every cube kernel natively
accumulates ``(count, sum)``.  This module generalizes that pair into the
classes of [Gray et al. 1996]:

* **distributive** — ``F(T) = G({F(S_i)})``: COUNT, SUM, MIN, MAX;
* **algebraic** — a constant-size intermediate state suffices: AVERAGE
  (sum and count), plus anything distributive;
* **holistic** — no constant-size state: MEDIAN (provided for the naive
  path only).

Each function exposes ``initial()``, ``step(state, measure)``,
``merge(a, b)`` and ``final(state)``, so distributive/algebraic functions
can be computed over partitioned data and merged — which is what lets
BPP and POL work on chunks.
"""

import math

from ..errors import SchemaError

DISTRIBUTIVE = "distributive"
ALGEBRAIC = "algebraic"
HOLISTIC = "holistic"


class AggregateFunction:
    """Base interface; subclasses define the four accumulation hooks."""

    name = "?"
    kind = HOLISTIC

    def initial(self):
        """Return the empty accumulation state."""
        raise NotImplementedError

    def step(self, state, measure):
        """Fold one measure value into ``state``; returns the new state."""
        raise NotImplementedError

    def merge(self, a, b):
        """Combine two partial states (disjoint partitions of the input)."""
        raise NotImplementedError

    def final(self, state):
        """Turn an accumulation state into the aggregate's value."""
        raise NotImplementedError

    @property
    def mergeable(self):
        """Whether partial states from disjoint partitions can combine."""
        return self.kind in (DISTRIBUTIVE, ALGEBRAIC)


class Count(AggregateFunction):
    name = "count"
    kind = DISTRIBUTIVE

    def initial(self):
        return 0

    def step(self, state, measure):
        return state + 1

    def merge(self, a, b):
        return a + b

    def final(self, state):
        return state


class Sum(AggregateFunction):
    name = "sum"
    kind = DISTRIBUTIVE

    def initial(self):
        return 0.0

    def step(self, state, measure):
        return state + measure

    def merge(self, a, b):
        return a + b

    def final(self, state):
        return state


class Min(AggregateFunction):
    name = "min"
    kind = DISTRIBUTIVE

    def initial(self):
        return None

    def step(self, state, measure):
        return measure if state is None or measure < state else state

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a < b else b

    def final(self, state):
        return state


class Max(AggregateFunction):
    name = "max"
    kind = DISTRIBUTIVE

    def initial(self):
        return None

    def step(self, state, measure):
        return measure if state is None or measure > state else state

    def merge(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if a > b else b

    def final(self, state):
        return state


class Average(AggregateFunction):
    """Algebraic: state is ``(sum, count)``; ``final`` divides."""

    name = "avg"
    kind = ALGEBRAIC

    def initial(self):
        return (0.0, 0)

    def step(self, state, measure):
        return (state[0] + measure, state[1] + 1)

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def final(self, state):
        return state[0] / state[1] if state[1] else None


class Median(AggregateFunction):
    """Holistic: the state is every measure seen (naive path only)."""

    name = "median"
    kind = HOLISTIC

    def initial(self):
        return []

    def step(self, state, measure):
        state.append(measure)
        return state

    def merge(self, a, b):
        return a + b

    def final(self, state):
        if not state:
            return None
        ordered = sorted(state)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


_REGISTRY = {f.name: f for f in (Count(), Sum(), Min(), Max(), Average(), Median())}


def get_aggregate(name):
    """Look an aggregate up by name (``count``/``sum``/``min``/...)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise SchemaError(
            "unknown aggregate %r (have %s)" % (name, ", ".join(sorted(_REGISTRY)))
        ) from None


def from_count_sum(name, count, total):
    """Derive an aggregate's value from a cell's ``(count, sum)`` pair.

    Valid for the aggregates whose final value is a function of count and
    sum — COUNT, SUM and AVG — which is why the cube kernels only carry
    that pair.  Others must be computed on the naive path.
    """
    name = name.lower()
    if name == "count":
        return count
    if name == "sum":
        return total
    if name == "avg":
        return total / count if count else None
    raise SchemaError("aggregate %r cannot be derived from (count, sum)" % (name,))


DERIVABLE_FROM_COUNT_SUM = frozenset({"count", "sum", "avg"})


def exact_sum(values):
    """The correctly rounded total (``math.fsum``); where there is none
    (inf - inf, or a partial sum past the float range) the float sum."""
    values = list(values)
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def exact_parts(values):
    """A few floats whose exact sum is that of ``values``, each the
    rounded remainder of those before it: :func:`exact_sum` over the
    parts of every piece of a split sequence is :func:`exact_sum` of the
    whole, so a backend summing split by split (the MapReduce mappers)
    reports the pool's total bit for bit, as no fold in order would."""
    values = list(values)
    parts = [exact_sum(values)]
    try:
        while math.isfinite(parts[-1]):
            rest = math.fsum(values + [-part for part in parts])
            if not rest:
                break
            parts.append(rest)
    except OverflowError:  # a partial sum past the float range
        del parts[1:]
    return parts
