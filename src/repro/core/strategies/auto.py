"""The ``auto`` meta-strategy: dynamic policy selection.

Paper §2: the scheduler may "dynamically change the assignment of
networking resources …, thus **selecting different policies**, as the
needs of the application evolve during the execution."  Beyond channel
assignment (see :mod:`repro.core.adaptive`), the same idea applies to
the packet-building policy itself:

* under a **deep backlog** the plain greedy aggregation is optimal —
  the lookahead pool is already full of opportunities;
* under **sparse arrivals** a Nagle-style hold harvests aggregations
  the backlog alone would miss;
* with **very few** waiting packets and recent holds not paying off,
  just send immediately (the "regular communication library" fallback
  of §3).

``AutoStrategy`` watches the waiting lists and recent activity and
delegates each decision to the matching inner strategy.  Its
``selections`` counter shows which regimes a run visited.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.plan import Hold, TransferPlan
from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.base import Strategy, register_strategy
from repro.core.strategies.nagle import NagleStrategy
from repro.drivers.base import Driver
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["AutoStrategy"]


@register_strategy("auto")
class AutoStrategy(Strategy):
    """Backlog-aware selection between aggregation and Nagle holding.

    Parameters
    ----------
    deep_backlog:
        Pending entries at or above this count mean the lookahead pool
        is rich: use plain greedy aggregation, never hold.
    hold_delay / hold_min_bytes:
        Nagle parameters used in the sparse regime (defaults chosen for
        MX-scale latencies; ``EngineConfig`` values are *not* used so
        the meta-strategy is self-contained).
    min_dwell:
        Hysteresis: the backlog test must contradict the current regime
        for this many *consecutive* decisions before the strategy
        switches.  ``1`` (the default) switches immediately — the exact
        pre-hysteresis behaviour; larger values stop an alternating
        workload from thrashing the policy every few decisions.
    """

    def __init__(
        self,
        deep_backlog: int = 8,
        hold_delay: float = 6 * us,
        hold_min_bytes: int = 2 * KiB,
        min_dwell: int = 1,
    ) -> None:
        if deep_backlog < 1:
            raise ConfigurationError(f"deep_backlog must be >= 1, got {deep_backlog}")
        if hold_delay < 0 or hold_min_bytes < 0:
            raise ConfigurationError("hold parameters must be >= 0")
        if min_dwell < 1:
            raise ConfigurationError(f"min_dwell must be >= 1, got {min_dwell}")
        self.deep_backlog = deep_backlog
        self.min_dwell = min_dwell
        self._aggregate = AggregationStrategy()
        self._nagle = NagleStrategy(
            inner=self._aggregate, delay=hold_delay, min_bytes=hold_min_bytes
        )
        #: regime name → times selected (for tests and reporting).
        self.selections: dict[str, int] = {"deep": 0, "sparse": 0}
        self._last_regime = "sparse"
        # Consecutive decisions whose raw backlog label contradicted
        # ``_last_regime`` (drives the min_dwell hysteresis).
        self._contrary = 0

    def _resolve_regime(self, backlog: int) -> tuple[str, int]:
        """The regime this decision serves, plus the new contrary count.

        Pure: callers commit the returned state themselves (the tuner's
        specialized fast path must be able to probe without mutating).
        """
        raw = "deep" if backlog >= self.deep_backlog else "sparse"
        if raw == self._last_regime:
            return raw, 0
        contrary = self._contrary + 1
        if contrary >= self.min_dwell:
            return raw, 0
        return self._last_regime, contrary

    def _commit_regime(self, regime: str, contrary: int) -> None:
        """Record that this decision served ``regime``."""
        self._contrary = contrary
        self.selections[regime] += 1
        self._last_regime = regime

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        regime, contrary = self._resolve_regime(engine.waiting.total_pending)
        self._commit_regime(regime, contrary)
        if regime == "deep":
            return self._aggregate.make_plan(engine, driver)
        return self._nagle.make_plan(engine, driver)

    def explain_last(self):
        inner = (
            self._aggregate if self._last_regime == "deep" else self._nagle
        ).explain_last()
        explain = {"regime": self._last_regime}
        if inner:
            explain.update(inner)
        return explain
