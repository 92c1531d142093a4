"""Incremental distance caches behind the online hot paths.

Every online algorithm in this reproduction repeatedly answers the same two
families of distance queries per arriving request:

* ``d(r, F)`` against a *growing* facility set (and per-commodity /
  large-facility subsets of it) — answered by
  :class:`~repro.accel.tracker.NearestSetTracker`: O(n) fold of the opened
  facility's distance column, read once for all the trackers it joins, and
  O(1) per query, instead of a fresh O(|F|)-point scan per query;
* ``d(C_i, r)`` against the *static* facility cost classes — answered by
  :class:`~repro.costs.classes.CostClassIndex`, which the instance's tables
  below hold: one memoized column per query point, kept as a tuple of floats
  for the scalar per-request loops, O(1) per query, instead of an O(n) scan
  per class per request.  The nearest point of a class, read only when a
  facility opens, is the plain ``metric.nearest`` scan on each call.

The primal–dual algorithms additionally need O(h x n) bid sums over their
request history each arrival;
:class:`~repro.accel.history.BidHistoryBuffer` is one run's bid ledger: per
slot (a commodity, or PD-OMFLP's large configuration) flat entry columns and
an exact running sum, O(n) per arrival, over one store holding each distinct
point's distance row once.

The tables that depend on the metric and the cost alone (per configuration:
the cost classes with their class-distance columns, and the cost vector)
belong to the instance: :class:`~repro.accel.tables.EnvironmentTables` fills
each once for every run on it.

These structures are the only production implementation.  All three are
**bit-identical** to the plain scans they replace (same floats, same
tie-breaks, same numpy reduction orders): the test suite keeps those scans
as an oracle (``tests/oracles.py``), and the equivalence harness
``tests/test_accel_equivalence.py`` compares every algorithm x metric x
workload x seed combination against it with exact ``==``.
"""

from repro.accel.history import BidHistoryBuffer
from repro.accel.tracker import NearestSetTracker

__all__ = ["NearestSetTracker", "BidHistoryBuffer"]
