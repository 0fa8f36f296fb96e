"""Regime specializations: decision closures with their inputs folded.

When the :class:`~repro.tuner.regime.RegimeTracker` declares a regime
stable, the tuner synthesizes a **specialized** decision function for
the engine's strategy: a closure with everything that cannot change
while the regime holds resolved into its environment — driver
capabilities (cost constants, max aggregation width), engine-config
values (lookahead window, search budget, stripe chunk), the
precomputed width ladder, the multirail flag.  The general path
re-derives all of this on *every* decision; the specialized path pays
for it once at synthesis time.

A closure only folds values and checks guards; the decision itself is
the strategy's own code (``_search_batched``, ``_walk``, ``_hold``,
``_commit_regime``), called with the folded values.  There is one body
per decision algorithm, and this module holds none of them.

Correctness contract (pinned by the hypothesis property tests):

* a specialized function returns **bit-identical** decisions to the
  general path it was synthesized from, including side effects the
  rest of the system reads (budget accounting, score cache, explain
  fields) — specialization is an evaluation-order optimization, never
  a behavior change;
* every folded assumption is re-checked by a cheap guard at the top of
  the closure; a violated guard returns the :data:`MISS` sentinel and
  the :class:`TunedStrategy` wrapper falls through to the general path
  *within the same decision* — drift can make a specialization useless,
  never wrong.

``tuner: off`` installs no wrapper at all, so the escape hatch is not
"a disabled branch" but the literal absence of this module from the
hot path.  The module keeps its name although it no longer holds
decision code: the end-to-end benchmark's layer map
(``perfbench/layers.py``) wraps ``TunedStrategy.make_plan`` here to
attribute tuner time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core import kernel
from repro.core.cost import CostModel
from repro.core.plan import Hold, TransferPlan
from repro.core.strategies import search as search_mod
from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.auto import AutoStrategy
from repro.core.strategies.base import Strategy
from repro.core.strategies.nagle import NagleStrategy
from repro.core.strategies.search import BoundedSearchStrategy
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase
    from repro.tuner import Tuner

__all__ = ["MISS", "Specialization", "TunedStrategy", "synthesize"]


class _Miss:
    """Sentinel: a specialized closure declined (guard failed)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tuner MISS>"


#: Returned by specialized closures instead of a plan when one of their
#: folded assumptions no longer holds; the wrapper then runs the
#: general path in the same decision.
MISS = _Miss()


class Specialization:
    """One installed fast path: per-driver closures plus bookkeeping."""

    __slots__ = ("spec_id", "regime", "strategy_name", "fns", "hits", "misses")

    def __init__(
        self,
        spec_id: str,
        regime: str,
        strategy_name: str,
        fns: dict[int, Callable[["CommEngineBase"], Any]],
    ) -> None:
        self.spec_id = spec_id
        self.regime = regime
        self.strategy_name = strategy_name
        #: ``id(driver)`` → specialized closure taking just the engine.
        self.fns = fns
        self.hits = 0
        self.misses = 0

    def summary(self) -> dict:
        """JSON-able identity and hit/miss counters of this fast path."""
        return {
            "id": self.spec_id,
            "regime": self.regime,
            "strategy": self.strategy_name,
            "drivers": len(self.fns),
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Specialization({self.spec_id!r}, hits={self.hits})"


# ----------------------------------------------------------------------
# synthesizers, one per strategy type
# ----------------------------------------------------------------------
def _aggregate_fn(
    strat: AggregationStrategy, engine: "CommEngineBase", driver: Driver
) -> Callable[["CommEngineBase"], Any]:
    """Aggregation with the per-packet segment limit pre-resolved."""
    folded_max = strat.max_items
    limit = folded_max if folded_max is not None else driver.max_segments_per_packet()

    def fn(engine: "CommEngineBase") -> Any:
        if strat.max_items != folded_max:
            return MISS
        return strat._walk(engine, driver, limit)

    return fn


def _nagle_fn(
    strat: NagleStrategy,
    engine: "CommEngineBase",
    driver: Driver,
    inner_fn: Callable[["CommEngineBase"], Any],
) -> Callable[["CommEngineBase"], Any]:
    """Nagle wrapper with delay/min-bytes resolution folded + guarded."""
    params = strat._hold_params(engine.config)

    def fn(engine: "CommEngineBase") -> Any:
        if strat._hold_params(engine.config) != params:
            return MISS
        # A MISS from the inner closure is not a plan: the hold test
        # passes it through untouched.
        return strat._hold(engine, inner_fn(engine), params)

    return fn


def _auto_fn(
    strat: AutoStrategy, engine: "CommEngineBase", driver: Driver, regime: str
) -> Callable[["CommEngineBase"], Any]:
    """Auto meta-strategy pinned to one regime's inner strategy.

    The regime guard doubles as the drift fallback: the moment the
    backlog crosses the threshold the closure declines and the general
    path (which handles both regimes) serves the decision.
    """
    agg = _aggregate_fn(strat._aggregate, engine, driver)
    inner_fn = (
        agg if regime == "deep" else _nagle_fn(strat._nagle, engine, driver, agg)
    )

    def fn(engine: "CommEngineBase") -> Any:
        # Probe the hysteresis without committing: on a MISS the general
        # path re-resolves and commits the identical state itself.
        resolved, contrary = strat._resolve_regime(engine.waiting.total_pending)
        if resolved != regime:
            return MISS
        result = inner_fn(engine)
        if result is MISS:
            return MISS
        strat._commit_regime(regime, contrary)
        return result

    return fn


def _search_fn(
    strat: BoundedSearchStrategy, engine: "CommEngineBase", driver: Driver
) -> Callable[["CommEngineBase"], Any] | None:
    """Bounded search with the batched body's arguments folded.

    Everything :meth:`BoundedSearchStrategy.make_plan` derives before
    calling :meth:`~BoundedSearchStrategy._search_batched` — driver
    cost constants, width ladder, budget, config values, the multirail
    flag — is resolved once here and guarded per decision; the closure
    then runs the strategy's own body, so the score cache, budget
    counters and explain fields are shared with the general path.
    """
    consts = kernel.constants_for(driver)
    if not (
        search_mod._BATCHING_ENABLED
        and type(engine.cost) is CostModel
        and consts.exact
    ):
        return None  # reference-kernel mode: keep the semantic oracle pure

    config = engine.config
    window_limit = config.lookahead_window
    stripe_chunk = config.stripe_chunk
    multirail = len(engine.drivers) > 1
    cost = engine.cost
    widths = strat._widths(consts.max_items_cap)
    folded_budget = strat.budget if strat.budget is not None else config.search_budget

    def fn(engine: "CommEngineBase") -> Any:
        cfg = engine.config
        budget = strat.budget if strat.budget is not None else cfg.search_budget
        if (
            budget != folded_budget
            or cfg.lookahead_window != window_limit
            or cfg.stripe_chunk != stripe_chunk
            or (len(engine.drivers) > 1) != multirail
            or engine.cost is not cost
        ):
            return MISS
        return strat._search_batched(
            engine, driver, engine.queues_for(driver), consts, budget,
            window_limit, stripe_chunk, multirail, widths,
        )

    return fn


def synthesize(
    strategy: Strategy,
    engine: "CommEngineBase",
    regime: str,
    seq: int,
) -> Specialization | None:
    """Build a specialization of ``strategy`` for a stable ``regime``.

    Returns ``None`` when the strategy type has no synthesizer (or the
    kernel runs in reference mode) — the tuner then keeps tracking but
    serves everything from the general path.
    """
    fns: dict[int, Callable] = {}
    for driver in engine.drivers:
        fn: Callable | None
        if type(strategy) is BoundedSearchStrategy:
            fn = _search_fn(strategy, engine, driver)
        elif type(strategy) is AutoStrategy:
            fn = _auto_fn(strategy, engine, driver, regime)
        elif type(strategy) is AggregationStrategy:
            fn = _aggregate_fn(strategy, engine, driver)
        elif type(strategy) is NagleStrategy:
            inner = strategy.inner
            if type(inner) is not AggregationStrategy:
                return None
            fn = _nagle_fn(
                strategy, engine, driver, _aggregate_fn(inner, engine, driver)
            )
        else:
            return None
        if fn is None:
            return None
        fns[id(driver)] = fn
    name = type(strategy).name
    return Specialization(f"{regime}/{name}#{seq}", regime, name, fns)


# ----------------------------------------------------------------------
# the wrapper behind the existing strategy interface
# ----------------------------------------------------------------------
class TunedStrategy(Strategy):
    """Strategy facade: specialized fast path first, general fallback.

    Installed by the tuner in place of the engine's strategy (never via
    the registry — it is infrastructure, not a scenario-selectable
    policy).  Each ``make_plan`` call first lets the tuner observe the
    decision (regime tracking, sweep stepping, install/invalidate),
    then tries the active specialization; a :data:`MISS` — no
    specialization, unknown driver, or a failed guard — falls through
    to the wrapped general path in the same call.
    """

    name = "tuned"

    def __init__(self, inner: Strategy, tuner: "Tuner") -> None:
        self.inner = inner
        self._tuner = tuner
        self._last_path = "general"
        self._last_spec: str | None = None

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        tuner = self._tuner
        tuner.on_decision(engine)
        spec = tuner.active
        if spec is not None:
            fn = spec.fns.get(id(driver))
            if fn is not None:
                result = fn(engine)
                if result is not MISS:
                    spec.hits += 1
                    tuner.stats.specialized += 1
                    self._last_path = "specialized"
                    self._last_spec = spec.spec_id
                    return result
                spec.misses += 1
                tuner.stats.misses += 1
        self._last_path = "general"
        self._last_spec = None
        return self.inner.make_plan(engine, driver)

    def explain_last(self) -> dict | None:
        explain: dict = {}
        inner = self.inner.explain_last()
        if inner:
            explain.update(inner)
        explain["inner_strategy"] = type(self.inner).name
        explain["tuner_path"] = self._last_path
        explain["tuner_regime"] = self._tuner.tracker.committed
        if self._last_spec is not None:
            explain["specialization"] = self._last_spec
        return explain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TunedStrategy({self.inner!r})"
