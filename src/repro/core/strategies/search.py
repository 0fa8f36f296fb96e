"""The ``search`` strategy: bounded rearrangement search.

The paper's §4 announces the need "to bound the number of data
rearrangements the optimizer has to evaluate so as to determine the best
combination of optimization techniques".  This strategy makes the bound
explicit: it evaluates up to ``search_budget`` candidate plans (greedy
builds started from different seed entries of different channel queues,
with different aggregation widths), scores each with the
:class:`~repro.core.cost.CostModel`, and dispatches the best.

``search_budget = 1`` degenerates to the plain greedy aggregation plan;
the E5 experiment sweeps the budget to show the gain-vs-cost plateau.

Hot-path structure (one decision stays O(window), not O(backlog)):

* candidates are generated and scored over the queue's **flat-array
  mirror** (:meth:`~repro.core.waiting.ChannelQueue.pending_arrays`)
  with the driver's cost constants folded out of the loop — see
  :mod:`repro.core.kernel`.  A candidate only becomes a
  :class:`~repro.core.plan.TransferPlan` object if it *wins*; losing
  (seed, width) combinations are scored from prefix aggregates and
  discarded as plain floats;
* per seed, only the **widest** candidate is built; narrower widths are
  prefixes of it (a greedy walk stopped at *k* items takes exactly the
  first *k* items of the wider walk, and stopping early cannot change
  any earlier take/skip decision), so two of three builds disappear;
* scores are memoized per ``(driver, channel, queue version, seed,
  item count)`` — distinct widths that truncate to the same plan (a
  control packet, a lone SAFER fragment, a two-entry queue) are scored
  once.  The queue version stamp keys the cache, so any queue mutation
  invalidates it for free; the cache itself is dropped whenever
  simulated time moves (scores depend on waiting-time staleness).

Budget accounting is unchanged from the naive enumeration — each
(seed, width) candidate costs one evaluation whether it was built,
derived, or score-only — so a given budget explores exactly the same
candidates, and the packed scorer reproduces the scalar model's floats
bit for bit, so the same candidate wins.  ``REPRO_KERNEL=reference``
(or a driver/cost subclass the constant fold cannot represent) selects
:meth:`BoundedSearchStrategy._make_plan_reference`, the pre-batching
object walk kept as the semantic oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import kernel
from repro.core.cost import CostModel
from repro.core.plan import Hold, TransferPlan
from repro.core.strategies._builder import build_from_queue, park_oversized
from repro.core.strategies.base import Strategy, register_strategy
from repro.drivers.base import Driver

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import CommEngineBase

__all__ = ["BoundedSearchStrategy"]

_BATCHING_ENABLED = kernel.batching_enabled()


@register_strategy("search")
class BoundedSearchStrategy(Strategy):
    """Best-of-K legal rearrangements, scored by the cost model."""

    def __init__(self, budget: int | None = None) -> None:
        #: Optional override of ``EngineConfig.search_budget``.
        self.budget = budget
        #: Candidates evaluated over the strategy's lifetime (the
        #: kernel benchmarks and budget-accounting tests read this).
        self.candidates_evaluated = 0
        #: Candidates evaluated by the most recent ``make_plan`` call.
        self.last_evaluated = 0
        # (driver id, channel, queue version, seed, items) -> (score, plan),
        # valid for one instant of simulated time.  ``plan`` is None for
        # batched candidates that were scored without being materialized;
        # the winning candidate's plan is always stored (replays return
        # the identical object).
        self._score_cache: dict[tuple, tuple[float, TransferPlan | None]] = {}
        self._cache_now: float | None = None
        self._last_explain: dict | None = None

    def make_plan(
        self, engine: "CommEngineBase", driver: Driver
    ) -> TransferPlan | Hold | None:
        config = engine.config
        budget = self.budget if self.budget is not None else config.search_budget
        queues = engine.queues_for(driver)
        if _BATCHING_ENABLED and type(engine.cost) is CostModel:
            consts = kernel.constants_for(driver)
            if consts.exact:
                return self._search_batched(
                    engine, driver, queues, consts, budget,
                    config.lookahead_window, config.stripe_chunk,
                    len(engine.drivers) > 1, self._widths(consts.max_items_cap),
                )
        return self._make_plan_reference(engine, driver, budget, queues)

    # ------------------------------------------------------------------
    # batched kernel path (default)
    # ------------------------------------------------------------------
    def _search_batched(
        self,
        engine: "CommEngineBase",
        driver: Driver,
        queues,
        consts,
        budget: int,
        window_limit: int,
        stripe_chunk: int,
        multirail: bool,
        widths: tuple[int, ...],
    ) -> TransferPlan | None:
        """The batched search body, given its per-decision values.

        Everything a decision derives from the driver and the engine
        config arrives as an argument, so a caller that has those
        values already (the tuner's specializations) runs this very
        body instead of a copy of it.
        """
        cost = engine.cost
        driver_key = id(driver)

        # Rendezvous parking is a protocol action, not a rearrangement;
        # do it once up front so candidate generation has no side
        # effects.  The sweep runs over the array mirror: cheap integer
        # compares instead of per-entry capability calls.
        for queue in queues:
            arrays = queue.pending_arrays(window_limit)
            if arrays.n:
                for i in kernel.oversized_waiting_indices(arrays, consts):
                    engine.park_for_rendezvous(arrays.entries[i], queue.channel_id)

        now = engine.sim.now
        if now != self._cache_now:
            self._score_cache.clear()
            self._cache_now = now
        cache = self._score_cache

        best_plan: TransferPlan | None = None
        best_score = float("-inf")
        best_key: tuple | None = None
        best_build = None  # the winning SeedBuild awaiting materialization
        best_probe: tuple | None = None  # (arrays, channel, seed) probe winner
        best_n = 0
        best_meta: tuple | None = None
        widest_seen = 0
        evaluated = 0
        out_of_budget = False
        explain = engine.sim.tracer.enabled
        full_width = consts.max_items_cap
        SeedBuild = kernel.SeedBuild
        score_packed = cost.score_packed
        try:
            for queue in queues:
                # One array mirror per queue (rebuilt only if the park
                # sweep above mutated it), shared by every seed build.
                arrays = queue.pending_arrays(window_limit)
                version = queue.version
                channel_id = queue.channel_id

                # Uniform-window queues (the loaded steady state) are
                # probed in one pass: per-seed aggregates straight off
                # the arrays, no builder call and no plan object per
                # candidate.  Budget accounting is identical to the
                # per-seed walk below — the equivalence tests hold the
                # two together.
                stats = kernel.probe_uniform_seeds(
                    arrays, consts, full_width, widths, budget - evaluated
                )
                if stats is not None:
                    for seed, (base_items, payload, oldest, snaps) in enumerate(
                        stats
                    ):
                        if evaluated >= budget:
                            out_of_budget = True
                            break
                        evaluated += 1  # the seed's base build
                        if explain and base_items > widest_seen:
                            widest_seen = base_items
                        first = True
                        for width in widths:
                            if not first:
                                if evaluated >= budget:
                                    out_of_budget = True
                                    break
                                evaluated += 1
                            first = False
                            n_items = base_items if width >= base_items else width
                            key = (driver_key, channel_id, version, seed, n_items)
                            cached = cache.get(key)
                            if cached is None:
                                if n_items == base_items:
                                    p, o = payload, oldest
                                else:
                                    p = -1
                                    o = 0.0
                                    for cut_n, cut_p, cut_o in snaps:
                                        if cut_n == n_items:
                                            p, o = cut_p, cut_o
                                            break
                                    assert p >= 0, "probe width cut missing"
                                cached = (
                                    score_packed(consts, n_items, p, o, now),
                                    None,
                                )
                                cache[key] = cached
                            score, plan = cached
                            if score > best_score:
                                best_score = score
                                best_plan = plan
                                best_key = key
                                best_build = None
                                best_probe = (arrays, channel_id, seed)
                                best_n = n_items
                                if explain:
                                    best_meta = (channel_id, seed, n_items)
                        if out_of_budget:
                            break
                    else:
                        # Seeds exhausted mid-queue: the per-seed walk
                        # would try one deeper seed, find nothing
                        # dispatchable, and charge that probe.
                        if len(stats) < arrays.n:
                            if evaluated >= budget:
                                out_of_budget = True
                            else:
                                evaluated += 1
                    if out_of_budget:
                        break
                    continue

                for seed in range(arrays.n):
                    if evaluated >= budget:
                        out_of_budget = True
                        break
                    base = kernel.build_eager_arrays(
                        arrays,
                        consts,
                        engine,
                        driver,
                        channel_id,
                        full_width,
                        seed,
                        False,  # allow_park: parking happened up front
                        stripe_chunk,
                        multirail,
                    )
                    evaluated += 1
                    if base is None:
                        # Nothing is dispatchable even with every earlier
                        # seed blocked; deeper seeds only block more, so
                        # this whole queue is exhausted — move to the next
                        # queue instead of burning budget on impossible
                        # seeds.
                        break
                    is_prefix_family = type(base) is SeedBuild
                    base_items = (
                        base.n_items if is_prefix_family else len(base.items)
                    )
                    if explain and base_items > widest_seen:
                        widest_seen = base_items
                    first = True
                    for width in widths:
                        if not first:
                            if evaluated >= budget:
                                out_of_budget = True
                                break
                            evaluated += 1
                        first = False
                        n_items = base_items if width >= base_items else width
                        key = (driver_key, channel_id, version, seed, n_items)
                        cached = cache.get(key)
                        if cached is None:
                            if is_prefix_family:
                                # Score the prefix from its aggregates;
                                # no plan object unless it wins.
                                cached = (
                                    cost.score_packed(
                                        consts,
                                        n_items,
                                        base.payload_prefix[n_items - 1],
                                        base.oldest_prefix[n_items - 1],
                                        now,
                                    ),
                                    None,
                                )
                            else:
                                # Control / rendezvous / lone-SAFER plans
                                # come out of the builder materialized.
                                cached = (cost.score(base, now), base)
                            cache[key] = cached
                        score, plan = cached
                        if score > best_score:
                            best_score = score
                            best_plan = plan
                            best_key = key
                            best_build = base if is_prefix_family else None
                            best_probe = None
                            best_n = n_items
                            if explain:
                                best_meta = (channel_id, seed, n_items)
                    if out_of_budget:
                        break
                if out_of_budget:
                    break
            if best_key is None:
                return None
            if best_plan is None:
                # Materialize the winner (exactly one plan per decision)
                # and store it back so an unchanged-queue replay returns
                # this very object.
                if best_build is None:
                    # Probe winner: rebuild its seed over the same (still
                    # coherent) arrays — deterministic, so the prefix is
                    # exactly what the probe scored.
                    assert best_probe is not None
                    p_arrays, p_channel, p_seed = best_probe
                    best_build = kernel.build_eager_arrays(
                        p_arrays,
                        consts,
                        engine,
                        driver,
                        p_channel,
                        full_width,
                        p_seed,
                        False,
                        stripe_chunk,
                        multirail,
                    )
                    assert type(best_build) is SeedBuild
                best_plan = best_build.plan(best_n)
                cache[best_key] = (best_score, best_plan)
            return best_plan
        finally:
            self.last_evaluated = evaluated
            self.candidates_evaluated += evaluated
            if explain:
                self._last_explain = {
                    "candidates": evaluated,
                    "budget": budget,
                    "truncation": "budget" if out_of_budget else "exhausted",
                    "widest_items": widest_seen,
                    "best_score": best_score if best_key is not None else None,
                    "seed_channel": best_meta[0] if best_meta else None,
                    "seed": best_meta[1] if best_meta else None,
                }
            else:
                self._last_explain = None

    # ------------------------------------------------------------------
    # scalar reference path (REPRO_KERNEL=reference, exotic subclasses)
    # ------------------------------------------------------------------
    def _make_plan_reference(
        self, engine: "CommEngineBase", driver: Driver, budget: int, queues
    ) -> TransferPlan | None:
        # Rendezvous parking is a protocol action, not a rearrangement;
        # do it once up front so candidate generation has no side effects.
        for queue in queues:
            park_oversized(engine, driver, queue)

        now = engine.sim.now
        if now != self._cache_now:
            self._score_cache.clear()
            self._cache_now = now
        cache = self._score_cache
        cost = engine.cost
        window_limit = engine.config.lookahead_window

        best: TransferPlan | None = None
        best_score = float("-inf")
        best_meta: tuple | None = None
        widest_seen = 0
        evaluated = 0
        out_of_budget = False
        # Explainability is collected only while a trace sink is live;
        # with the NullTracer the extra work is two dead branches.
        explain = engine.sim.tracer.enabled
        full_width = driver.max_segments_per_packet()
        widths = self._widths(full_width)
        try:
            for queue in queues:
                # One snapshot per queue, shared by every candidate build.
                pending = queue.pending_view(window_limit)
                version = queue.version
                for seed in range(len(pending)):
                    if evaluated >= budget:
                        out_of_budget = True
                        break
                    base = build_from_queue(
                        engine,
                        driver,
                        queue,
                        max_items=full_width,
                        skip_seeds=seed,
                        allow_park=False,
                        pending=pending,
                    )
                    evaluated += 1
                    if base is None:
                        # Nothing is dispatchable even with every earlier
                        # seed blocked; deeper seeds only block more, so
                        # this whole queue is exhausted — move to the next
                        # queue instead of burning budget on impossible
                        # seeds.
                        break
                    base_items = len(base.items)
                    if explain and base_items > widest_seen:
                        widest_seen = base_items
                    first = True
                    for width in widths:
                        if not first:
                            if evaluated >= budget:
                                out_of_budget = True
                                break
                            evaluated += 1
                        first = False
                        n_items = base_items if width >= base_items else width
                        key = (id(driver), queue.channel_id, version, seed, n_items)
                        cached = cache.get(key)
                        if cached is None:
                            if n_items == base_items:
                                candidate = base
                            else:
                                candidate = TransferPlan(
                                    base.driver,
                                    base.kind,
                                    base.dst,
                                    base.channel_id,
                                    base.items[:n_items],
                                )
                            cached = (cost.score(candidate, now), candidate)
                            cache[key] = cached
                        score, candidate = cached
                        if score > best_score:
                            best, best_score = candidate, score
                            if explain:
                                best_meta = (queue.channel_id, seed, n_items)
                    if out_of_budget:
                        break
                if out_of_budget:
                    break
            return best
        finally:
            self.last_evaluated = evaluated
            self.candidates_evaluated += evaluated
            if explain:
                self._last_explain = {
                    "candidates": evaluated,
                    "budget": budget,
                    "truncation": "budget" if out_of_budget else "exhausted",
                    "widest_items": widest_seen,
                    "best_score": best_score if best is not None else None,
                    "seed_channel": best_meta[0] if best_meta else None,
                    "seed": best_meta[1] if best_meta else None,
                }
            else:
                self._last_explain = None

    def explain_last(self) -> dict | None:
        return self._last_explain

    @staticmethod
    def _widths(full_width: int) -> tuple[int, ...]:
        """Aggregation widths to try per seed: full, half, single."""
        widths = {full_width, max(full_width // 2, 1), 1}
        return tuple(sorted(widths, reverse=True))
