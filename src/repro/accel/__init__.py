"""Incremental distance-cache acceleration for the online hot paths.

Every online algorithm in this reproduction repeatedly answers the same two
families of distance queries per arriving request:

* ``d(r, F)`` against a *growing* facility set (and per-commodity /
  large-facility subsets of it) — accelerated by
  :class:`~repro.accel.tracker.NearestSetTracker`: O(n) fold per facility
  opening, O(1) per query, instead of a fresh O(|F|)-point scan per query;
* ``d(C_i, r)`` against the *static* facility cost classes — accelerated by
  :class:`~repro.accel.classes.ClassDistanceIndex`: one precomputed
  ``(classes, n)`` table, O(1) per query, instead of an O(n) scan per class
  per request.

The primal–dual algorithms additionally rebuild O(h x n) bid sums over their
request history each arrival;
:class:`~repro.accel.history.BidHistoryBuffer` keeps those operands in
preallocated buffers updated in place, and the sum itself as an exact running
vector, O(n) per arrival.

All three structures are **bit-identical** to the reference scans they
replace (same floats, same tie-breaks, same numpy reduction orders); the
equivalence harness ``tests/test_accel_equivalence.py`` pins this for every
algorithm x metric x workload x seed combination, and every consumer keeps
the reference path reachable via ``use_accel=False``.
"""

from repro.accel.classes import ClassDistanceIndex
from repro.accel.history import BidHistoryBuffer
from repro.accel.tracker import NearestSetTracker

__all__ = ["NearestSetTracker", "ClassDistanceIndex", "BidHistoryBuffer"]
