"""The ``nagle`` strategy wrapper: artificial small-backlog delay.

Paper §3: when the NIC never stays busy long enough for a backlog to
accumulate, the scheduler "may artificially delay [packets] for a short
time to increase the potential of interesting aggregations (in a TCP
Nagle's algorithm fashion)".

This wrapper delegates to an inner strategy and *holds* small eager
plans while they are younger than ``nagle_delay`` and smaller than
``nagle_min_bytes``.  Control and rendezvous traffic is never held —
delaying a handshake stalls a bulk transfer end to end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver
from repro.network.wire import PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["NagleStrategy"]


@register_strategy("nagle")
class NagleStrategy(Strategy):
    """Hold small young eager plans hoping for better aggregations."""

    def __init__(
        self,
        inner: Strategy | None = None,
        delay: float | None = None,
        min_bytes: int | None = None,
    ) -> None:
        #: Strategy producing the candidate plan (default: ``aggregate``).
        self.inner = inner if inner is not None else AggregationStrategy()
        #: Overrides of the engine-config values (None: use the config).
        self.delay = delay
        self.min_bytes = min_bytes

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        return self._hold(engine, self.inner.make_plan(engine, driver))

    def _hold_params(self, config) -> tuple[float, int]:
        """The (delay, min_bytes) pair in force under ``config``."""
        return (
            self.delay if self.delay is not None else config.nagle_delay,
            self.min_bytes if self.min_bytes is not None else config.nagle_min_bytes,
        )

    def _hold(self, engine: "CommEngineBase", decision, params=None):
        """The hold test: ``decision`` itself, or a :class:`Hold` for it.

        Anything but an eager plan passes through untouched.  ``params``
        is the (delay, min_bytes) pair; ``None`` resolves it from the
        engine config.
        """
        if not isinstance(decision, TransferPlan):
            return decision
        if decision.kind is not PacketKind.EAGER:
            return decision
        delay, min_bytes = (
            params if params is not None else self._hold_params(engine.config)
        )
        if delay <= 0:
            # Holding disabled (the default): skip the byte-count probe
            # entirely — ``payload_bytes`` sums the plan's items, and
            # this wrapper sits on the per-decision hot path.
            return decision
        if decision.payload_bytes >= min_bytes:
            return decision
        oldest = min(item.entry.submit_time for item in decision.items)
        deadline = oldest + delay
        if engine.sim.now >= deadline:
            return decision
        return Hold(wake_at=deadline)
