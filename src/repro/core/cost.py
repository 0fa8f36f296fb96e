"""Plan cost/score model.

"Estimating the value of a given packet reordering operation" (paper §3)
needs a number.  The model here is capability-parameterized through the
plan's driver: the same strategy code scores differently on MX and Elan
because their α/β/copy/gather structures differ.

``occupancy`` — predicted NIC busy time of the plan (what the request
*costs*).

``score`` — value density with two corrections:

* every included entry is credited one request start-up's worth of
  bytes (α·β): aggregating it into this packet saves the α a dedicated
  packet would have paid — without this, density scoring is myopic and
  prefers narrow plans;
* staleness multiplies the score by a *bounded* boost (≤ 2×): starving
  entries eventually win ties, but staleness can never make a tiny
  packet out-score a far more efficient aggregate (an unbounded aging
  credit divided by a tiny occupancy does exactly that).

Control plans get a strong fixed urgency — delaying a rendezvous ACK
stalls a bulk transfer end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernel import score_eager_packed as _score_eager_packed
from repro.core.plan import TransferPlan
from repro.network.wire import (
    HEADER_BYTES_PER_SEGMENT,
    PACKET_HEADER_BYTES,
)

__all__ = ["CostModel"]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Scores transfer plans for strategy ranking.

    Parameters
    ----------
    starvation_horizon:
        Waiting time (s) at which the staleness boost saturates at 2×.
    control_bonus_bytes:
        Virtual payload credited to control plans so REQ/ACK traffic is
        never starved by byte-count scoring.
    """

    starvation_horizon: float = 1e-3
    control_bonus_bytes: float = 4096.0

    def wire_bytes(self, plan: TransferPlan) -> int:
        """Predicted on-wire size of the plan's packet (with framing)."""
        return (
            PACKET_HEADER_BYTES
            + plan.segment_count * HEADER_BYTES_PER_SEGMENT
            + plan.payload_bytes
        )

    def _assembly(self, plan: TransferPlan):
        """``(wire_bytes, mode, aggregation)`` — the per-plan driver
        queries, computed exactly once per scoring pass."""
        driver = plan.driver
        size = self.wire_bytes(plan)
        if plan.kind.is_control:
            aggregation = driver.choose_aggregation([size])
        else:
            aggregation = driver.choose_aggregation(
                [item.take for item in plan.items]
            )
        mode = driver.choose_mode(plan.payload_bytes)
        return size, mode, aggregation

    def occupancy(self, plan: TransferPlan) -> float:
        """Predicted sender-side NIC busy time of the plan."""
        size, mode, aggregation = self._assembly(plan)
        return plan.driver.occupancy(size, mode, aggregation)

    def _terms(self, plan: TransferPlan, now: float) -> tuple:
        """Every term of :meth:`score`, computed once, in its float order.

        ``(wire_bytes, payload, control_bonus, saved, occupancy,
        density, oldest_wait, boost)`` — :meth:`breakdown` reports the
        same floats the ranking used, to the last bit.
        """
        driver = plan.driver
        size, mode, aggregation = self._assembly(plan)
        occupancy = driver.occupancy(size, mode, aggregation)
        payload = float(plan.payload_bytes)
        control_bonus = self.control_bonus_bytes if plan.kind.is_control else 0.0
        link = driver.nic.link
        startup_equivalent = link.startup(mode) * link.bandwidth(mode)
        saved = len(plan.items) * startup_equivalent
        density = (payload + control_bonus + saved) / occupancy
        oldest_wait = max(
            (now - item.entry.submit_time for item in plan.items), default=0.0
        )
        boost = 1.0 + min(max(oldest_wait, 0.0) / self.starvation_horizon, 1.0)
        return (
            size, payload, control_bonus, saved, occupancy, density,
            oldest_wait, boost,
        )

    def score(self, plan: TransferPlan, now: float) -> float:
        """Value density of the plan (higher is better); see module docs."""
        _, _, _, _, _, density, _, boost = self._terms(plan, now)
        return density * boost

    def score_packed(
        self,
        consts,
        n_items: int,
        payload_bytes: int,
        oldest_submit: float,
        now: float,
    ) -> float:
        """:meth:`score` for an EAGER data plan, from packed aggregates.

        ``consts`` is the driver's folded
        :class:`~repro.core.kernel.DriverConstants`; the remaining
        arguments are the prefix aggregates a
        :class:`~repro.core.kernel.SeedBuild` maintains.  Bit-identical
        with :meth:`score` on the materialized plan (the kernel
        hypothesis tests pin this), so the batched search ranks
        candidates exactly as the scalar model would — without building
        them.
        """
        return _score_eager_packed(
            consts, n_items, payload_bytes, oldest_submit, now,
            self.starvation_horizon,
        )

    def breakdown(self, plan: TransferPlan, now: float) -> dict[str, float]:
        """The :meth:`score` computation, term by term.

        Explainability only (the ``optimizer.decide`` trace record) —
        never called on the NullTracer fast path.
        """
        (
            size, payload, control_bonus, saved, occupancy, density,
            oldest_wait, boost,
        ) = self._terms(plan, now)
        return {
            "wire_bytes": float(size),
            "payload_bytes": payload,
            "control_bonus_bytes": control_bonus,
            "startup_saved_bytes": saved,
            "occupancy_s": occupancy,
            "density": density,
            "oldest_wait_s": oldest_wait,
            "staleness_boost": boost,
            "score": density * boost,
        }
