"""Incremental distance caches behind the online hot paths.

Every online algorithm in this reproduction repeatedly answers the same two
families of distance queries per arriving request:

* ``d(r, F)`` against a *growing* facility set (and per-commodity /
  large-facility subsets of it) — answered by
  :class:`~repro.accel.tracker.NearestSetTracker`: O(n) fold per facility
  opening, O(1) per query, instead of a fresh O(|F|)-point scan per query;
* ``d(C_i, r)`` against the *static* facility cost classes — answered by
  :class:`~repro.accel.classes.ClassDistanceIndex`: one memoized column per
  query point, O(1) per query, instead of an O(n) scan per class per request.

The primal–dual algorithms additionally need O(h x n) bid sums over their
request history each arrival;
:class:`~repro.accel.history.BidHistoryBuffer` keeps those operands in
preallocated buffers updated in place, and the sum itself as an exact running
vector, O(n) per arrival.

These structures are the only production implementation.  All three are
**bit-identical** to the plain scans they replace (same floats, same
tie-breaks, same numpy reduction orders): the test suite keeps those scans
as an oracle (``tests/oracles.py``), and the equivalence harness
``tests/test_accel_equivalence.py`` compares every algorithm x metric x
workload x seed combination against it with exact ``==``.
"""

from repro.accel.classes import ClassDistanceIndex
from repro.accel.history import BidHistoryBuffer
from repro.accel.tracker import NearestSetTracker

__all__ = ["NearestSetTracker", "ClassDistanceIndex", "BidHistoryBuffer"]
