"""The ``aggregate`` strategy: greedy cross-flow aggregation.

The paper's headline optimization (§4: "the aggregation of eager
segments collected from several independent communication flows brings
huge performance gains").  For each idle NIC, walk the highest-priority
non-empty channel queue in arrival order and pack as many eligible
eager entries — *regardless of which flow they belong to* — into one
wire packet as the driver's capabilities allow.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies._builder import build_from_queue
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["AggregationStrategy"]


@register_strategy("aggregate")
class AggregationStrategy(Strategy):
    """Greedy capability-bounded cross-flow aggregation."""

    def __init__(self, max_items: int | None = None) -> None:
        #: Optional cap on segments per packet (None: the driver's bound).
        self.max_items = max_items

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        limit = (
            self.max_items
            if self.max_items is not None
            else driver.max_segments_per_packet()
        )
        return self._walk(engine, driver, limit)

    @staticmethod
    def _walk(
        engine: "CommEngineBase", driver: Driver, limit: int
    ) -> TransferPlan | None:
        """The first plan of at most ``limit`` items, in queue order."""
        for queue in engine.queues_for(driver):
            # O(1) emptiness probe; the builder materializes the window
            # itself (array mirror when batching is enabled, object
            # snapshot otherwise).
            if not len(queue):
                continue
            plan = build_from_queue(engine, driver, queue, max_items=limit)
            if plan is not None:
                return plan
        return None
