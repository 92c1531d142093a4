"""OMFLP problem instances.

An instance bundles the three ingredients of Section 1.1: a finite metric
space ``M``, a facility construction cost function ``f^σ_m`` and the request
sequence.  The same object serves as the offline instance (the whole sequence
is visible) and as the online instance (algorithms consume requests in
arrival order through :class:`repro.algorithms.base.OnlineAlgorithm`).

The instance also owns the tables its algorithms derive from the metric and
the cost alone (:attr:`Instance.tables`, see :mod:`repro.accel.tables`), so
every run on the same instance shares them.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.accel.tables import EnvironmentTables
from repro.core.commodities import CommodityUniverse
from repro.core.requests import Request, RequestSequence
from repro.costs.base import FacilityCostFunction
from repro.exceptions import InvalidInstanceError
from repro.metric.base import MetricSpace

__all__ = ["Instance"]


class Instance:
    """A complete OMFLP instance.

    Parameters
    ----------
    metric:
        The finite metric space whose points host requests and facilities.
    cost_function:
        The construction cost function ``f^σ_m``.
    requests:
        The request sequence in arrival order.
    commodities:
        Optional commodity universe (defaults to one inferred from the cost
        function); supplying it allows named commodities in reports.
    name:
        Optional instance name used by the experiment tables.
    """

    def __init__(
        self,
        metric: MetricSpace,
        cost_function: FacilityCostFunction,
        requests: RequestSequence,
        *,
        commodities: Optional[CommodityUniverse] = None,
        name: Optional[str] = None,
    ) -> None:
        self._metric = metric
        self._cost_function = cost_function
        self._requests = requests
        self._commodities = commodities or CommodityUniverse(cost_function.num_commodities)
        if self._commodities.size != cost_function.num_commodities:
            raise InvalidInstanceError(
                f"commodity universe has size {self._commodities.size} but the cost function "
                f"expects |S| = {cost_function.num_commodities}"
            )
        self.name = name or "instance"
        self._tables = EnvironmentTables(metric, cost_function)
        # The bounds every request is checked against; the metric and the
        # universe never change.
        self._num_points = metric.num_points
        self._commodity_set = self._commodities.full_set
        self._validate()

    def _validate(self) -> None:
        for request in self._requests:
            self.validate_request(request)

    def validate_request(self, request: Request) -> None:
        """Check one request against this instance's metric and commodities.

        Used both for the constructor's whole-sequence validation and for
        requests arriving incrementally through a streaming session.  A
        demand inside the universe passes with one subset test; any other
        goes through :meth:`CommodityUniverse.check` element by element, so
        the first commodity out of range is the one named.
        """
        if not 0 <= request.point < self._num_points:
            raise InvalidInstanceError(
                f"request {request.index} is located at unknown point {request.point}"
            )
        if not request.commodities <= self._commodity_set:
            for commodity in request.commodities:
                self._commodities.check(commodity)

    # ------------------------------------------------------------------
    @property
    def metric(self) -> MetricSpace:
        return self._metric

    @property
    def cost_function(self) -> FacilityCostFunction:
        return self._cost_function

    @property
    def requests(self) -> RequestSequence:
        return self._requests

    @property
    def commodities(self) -> CommodityUniverse:
        return self._commodities

    @property
    def tables(self) -> EnvironmentTables:
        """Per-configuration tables of the metric and the cost, filled on demand."""
        return self._tables

    @property
    def num_requests(self) -> int:
        """``n`` — the number of requests."""
        return len(self._requests)

    @property
    def num_commodities(self) -> int:
        """``|S|`` — the number of commodities."""
        return self._commodities.size

    @property
    def num_points(self) -> int:
        """``|M|`` — the number of metric points."""
        return self._num_points

    # ------------------------------------------------------------------
    def prefix(self, length: int) -> "Instance":
        """The instance restricted to the first ``length`` requests."""
        return Instance(
            self._metric,
            self._cost_function,
            self._requests.prefix(length),
            commodities=self._commodities,
            name=f"{self.name}[:{length}]",
        )

    def reordered(self, order: Sequence[int]) -> "Instance":
        """The same instance with a permuted arrival order."""
        return Instance(
            self._metric,
            self._cost_function,
            self._requests.reordered(order),
            commodities=self._commodities,
            name=f"{self.name}(reordered)",
        )

    def split_per_commodity(self) -> "Instance":
        """The per-commodity-cost model simulation of Section 1.1."""
        return Instance(
            self._metric,
            self._cost_function,
            self._requests.split_per_commodity(),
            commodities=self._commodities,
            name=f"{self.name}(split)",
        )

    def describe(self) -> Dict[str, object]:
        """Small dictionary of summary statistics used in experiment tables."""
        return {
            "name": self.name,
            "num_requests": self.num_requests,
            "num_commodities": self.num_commodities,
            "num_points": self.num_points,
            "total_demand": self._requests.total_demand(),
            "metric": type(self._metric).__name__,
            "cost_function": getattr(self._cost_function, "name", type(self._cost_function).__name__),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Instance(name={self.name!r}, n={self.num_requests}, "
            f"|S|={self.num_commodities}, |M|={self.num_points})"
        )
