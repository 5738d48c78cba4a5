"""Iceberg thresholds beyond ``COUNT(*) >= N`` (Section 2.3).

The thesis evaluates only the count condition but notes that "other
aggregate conditions can be handled as well [BUC]".  BUC-style pruning
is sound for any *anti-monotone* condition — one a cell can only fail
harder as it is refined — so this module provides:

* :class:`CountThreshold` — ``HAVING COUNT(*) >= N`` (the default);
* :class:`SumThreshold` — ``HAVING SUM(measure) >= S``, anti-monotone
  when every measure is non-negative (validated at run time);
* :class:`AndThreshold` — a conjunction of anti-monotone conditions,
  itself anti-monotone.

Every cube algorithm in the library accepts either an integer minimum
support (shorthand for :class:`CountThreshold`) or one of these objects.
"""

import math

from ..errors import PlanError


class Threshold:
    """An anti-monotone iceberg qualifier over a cell's (count, sum)."""

    #: Whether soundness requires all measures to be non-negative.
    requires_nonnegative_measures = False

    def qualifies(self, count, total):
        """Whether a cell with this support and measure sum is kept.

        Because the condition is anti-monotone, a failing partition can
        also be pruned from deeper (bottom-up) refinement.
        """
        raise NotImplementedError

    def describe(self):
        """The condition as HAVING-clause text."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.describe())


class CountThreshold(Threshold):
    """``HAVING COUNT(*) >= min_count`` — the thesis' minsup."""

    def __init__(self, min_count):
        if min_count < 1:
            raise PlanError("min_count must be >= 1, got %r" % (min_count,))
        self.min_count = int(min_count)

    def qualifies(self, count, total):
        return count >= self.min_count

    def describe(self):
        return "COUNT(*) >= %d" % self.min_count


class SumThreshold(Threshold):
    """``HAVING SUM(measure) >= min_sum``.

    Anti-monotone only when measures cannot be negative: refining a
    partition then never increases any cell's sum.  Algorithms validate
    this before pruning with it.
    """

    requires_nonnegative_measures = True

    def __init__(self, min_sum):
        self.min_sum = float(min_sum)
        if math.isnan(self.min_sum):
            # NaN qualifies no cell: a query asking for it is malformed
            raise PlanError("min_sum must be a number, got %r" % (min_sum,))

    def qualifies(self, count, total):
        return total >= self.min_sum

    def describe(self):
        # exact, as it is the cache key: %g keeps six significant digits
        text = "%g" % self.min_sum
        if float(text) != self.min_sum:
            text = repr(self.min_sum)
        return "SUM(measure) >= " + text


class AndThreshold(Threshold):
    """A conjunction of anti-monotone conditions (still anti-monotone)."""

    def __init__(self, *conditions):
        if not conditions:
            raise PlanError("AndThreshold needs at least one condition")
        self.conditions = tuple(as_threshold(c) for c in conditions)

    @property
    def requires_nonnegative_measures(self):
        return any(c.requires_nonnegative_measures for c in self.conditions)

    def qualifies(self, count, total):
        return all(c.qualifies(count, total) for c in self.conditions)

    def describe(self):
        return " AND ".join(c.describe() for c in self.conditions)


def as_threshold(value):
    """Normalize an int minsup or :class:`Threshold` to a threshold."""
    if isinstance(value, Threshold):
        return value
    if isinstance(value, bool):
        raise PlanError("minsup must be an integer or Threshold, got a bool")
    if isinstance(value, int):
        return CountThreshold(value)
    raise PlanError("minsup must be an integer or Threshold, got %r" % (value,))


def validate_measures(threshold, relation):
    """Reject workloads where pruning with ``threshold`` is unsound."""
    if threshold.requires_nonnegative_measures and any(
        m < 0 for m in relation.measures
    ):
        raise PlanError(
            "%s requires non-negative measures for sound pruning"
            % type(threshold).__name__
        )
