"""Batched kernel vs scalar reference: behavioural equivalence.

The array-batched decision kernel (:mod:`repro.core.kernel`) must be a
pure *speed* change: every observable decision — which entries travel,
in which packets, in which order, after how many candidate evaluations
— has to match the pre-batching object walk bit for bit.  These tests
hold the two implementations together:

* builder equivalence over randomized mixed windows (hypothesis);
* search equivalence: same winner, same ``candidates_evaluated``,
  across a (depth × budget) grid;
* whole-run dispatch-order equivalence on scaled-down E2/E5 workloads.

The reference path is selected in-process by clearing the strategies'
module-level batching flags — exactly what ``REPRO_KERNEL=reference``
does at import time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.strategies import _builder
from repro.core.strategies import search as search_mod
from repro.core.strategies.search import BoundedSearchStrategy
from repro.madeleine.message import Flow, PackMode
from repro.middleware import uniform_small_flows
from repro.middleware.mpi_like import StreamApp
from repro.runtime import Cluster, run_session
from repro.util.units import us

from tests.core.helpers import StubEngine, control_entry, data_entry, make_driver
from repro.sim import Simulator


def plan_signature(plan):
    """Order-sensitive, object-identity-free fingerprint of a plan."""
    if plan is None:
        return None
    return (
        str(plan.kind),
        plan.dst,
        plan.channel_id,
        tuple(
            (
                item.entry.flow.name if item.entry.flow is not None else None,
                item.entry.fragment.index if item.entry.fragment is not None else None,
                item.entry.kind.value,
                item.entry.offset,
                item.take,
            )
            for item in plan.items
        ),
    )


@pytest.fixture
def reference_mode(monkeypatch):
    """Force the scalar object-walk path, as REPRO_KERNEL=reference does."""

    def activate():
        monkeypatch.setattr(_builder, "_BATCHING_ENABLED", False)
        monkeypatch.setattr(search_mod, "_BATCHING_ENABLED", False)

    yield activate
    monkeypatch.undo()


# ----------------------------------------------------------------------
# builder equivalence over randomized mixed windows
# ----------------------------------------------------------------------
entry_spec = st.tuples(
    st.integers(min_value=1, max_value=64 * 1024),  # size (crosses rdv threshold)
    st.integers(min_value=0, max_value=3),  # flow index
    st.sampled_from([PackMode.CHEAPER, PackMode.LATER, PackMode.SAFER]),
    st.booleans(),  # second destination
    st.integers(min_value=0, max_value=20),  # control marker (0 => control entry)
)


def _load_queue(engine, specs):
    flows_n1 = [Flow(f"f{i}", "n0", "n1") for i in range(4)]
    flows_n2 = [Flow(f"g{i}", "n0", "n2") for i in range(4)]
    queue = engine.waiting.queue(0)
    for size, flow_idx, mode, alt_dst, marker in specs:
        if marker == 0:
            queue.append(control_entry(dst="n1", token=size))
            continue
        flow = (flows_n2 if alt_dst else flows_n1)[flow_idx]
        queue.append(data_entry(flow, size, mode=mode))
    return queue


class TestBuilderEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(entry_spec, min_size=1, max_size=20),
        skip_seeds=st.integers(min_value=0, max_value=6),
        max_items=st.integers(min_value=1, max_value=16),
    )
    def test_array_walk_matches_object_walk(self, specs, skip_seeds, max_items):
        """Same window, same knobs → identical plan, batched vs object."""
        sim = Simulator()
        driver, _ = make_driver(sim)
        engine = StubEngine([driver], sim=sim)
        queue = _load_queue(engine, specs)

        # allow_park=False keeps both walks side-effect free, so they
        # can run over the very same queue back to back.
        fast = _builder.build_from_queue(
            engine, driver, queue,
            max_items=max_items, skip_seeds=skip_seeds, allow_park=False,
        )
        ref = _builder.build_from_queue(
            engine, driver, queue,
            max_items=max_items, skip_seeds=skip_seeds, allow_park=False,
            pending=queue.pending_view(engine.config.lookahead_window),
        )
        assert plan_signature(fast) == plan_signature(ref)

    @settings(max_examples=40, deadline=None)
    @given(specs=st.lists(entry_spec, min_size=1, max_size=16))
    def test_parking_decisions_match(self, specs):
        """allow_park=True parks the same entries in the same order."""

        def run(batched):
            sim = Simulator()
            driver, _ = make_driver(sim)
            engine = StubEngine([driver], sim=sim)
            queue = _load_queue(engine, specs)
            saved = _builder._BATCHING_ENABLED
            _builder._BATCHING_ENABLED = batched
            try:
                plan = _builder.build_from_queue(
                    engine, driver, queue, max_items=8, allow_park=True
                )
            finally:
                _builder._BATCHING_ENABLED = saved
            parked = [
                (e.flow.name if e.flow else None, e.remaining)
                for e in engine.parked
            ]
            return plan_signature(plan), parked

        assert run(batched=True) == run(batched=False)


# ----------------------------------------------------------------------
# search equivalence: winner + budget accounting across depths/budgets
# ----------------------------------------------------------------------
def _loaded_search_engine(depth, budget, sizes=None):
    holder = []

    def factory():
        strategy = BoundedSearchStrategy(budget=budget)
        holder.append(strategy)
        return strategy

    cluster = Cluster(
        seed=0, strategy=factory, config=EngineConfig(lookahead_window=32)
    )
    engine = cluster.engine("n0")
    flows = [Flow(f"f{i}", "n0", "n1") for i in range(8)]
    for i in range(depth):
        size = 256 if sizes is None else sizes[i % len(sizes)]
        engine._enqueue(data_entry(flows[i % 8], size))
    return engine, holder[0]


class TestSearchBudgetEquivalence:
    @pytest.mark.parametrize("depth", [1, 4, 16, 64, 256])
    @pytest.mark.parametrize("budget", [1, 3, 8, 64])
    def test_winner_and_evaluations_match(self, depth, budget, reference_mode):
        """Batched and reference search agree on the winning plan and on
        exactly how many candidates the budget bought, at every
        (depth, budget) corner — including budgets that truncate
        mid-seed and depths that exhaust before the budget does."""
        sizes = [64, 256, 1024, 4096, 96, 513]  # mixed, all eager-sized
        engine_b, strat_b = _loaded_search_engine(depth, budget, sizes)
        plan_b = strat_b.make_plan(engine_b, engine_b.drivers[0])
        evals_b = strat_b.last_evaluated

        reference_mode()
        engine_r, strat_r = _loaded_search_engine(depth, budget, sizes)
        plan_r = strat_r.make_plan(engine_r, engine_r.drivers[0])
        evals_r = strat_r.last_evaluated

        assert plan_signature(plan_b) == plan_signature(plan_r)
        assert evals_b == evals_r

    def test_accounting_accumulates_identically(self, reference_mode):
        """candidates_evaluated over a run of decisions, not just one."""

        def total(make_reference):
            if make_reference:
                reference_mode()
            engine, strategy = _loaded_search_engine(64, 16, [128, 700, 2048])
            driver = engine.drivers[0]
            totals = []
            for _ in range(5):
                strategy.make_plan(engine, driver)
                for queue in engine.waiting.non_empty():
                    queue.invalidate_caches()
                totals.append(strategy.candidates_evaluated)
            return totals

        assert total(False) == total(True)


# ----------------------------------------------------------------------
# whole-run dispatch order: scaled-down E2 / E5 workloads
# ----------------------------------------------------------------------
def _record_dispatches(cluster):
    """Wrap every engine's strategy: ordered log of dispatched plans."""
    log = []
    for name in cluster.node_names:
        engine = cluster.engine(name)
        strategy = getattr(engine, "strategy", None)
        if strategy is None:
            continue
        real = strategy.make_plan

        def recording(engine_, driver_, _real=real, _node=name):
            plan = _real(engine_, driver_)
            if plan is not None and hasattr(plan, "items"):
                log.append((_node, plan_signature(plan)))
            return plan

        strategy.make_plan = recording
    return log


def _run_e2_like():
    cluster = Cluster(seed=102)
    log = _record_dispatches(cluster)
    apps = uniform_small_flows(4, size=256, count=40, interval=1 * us)
    run_session(cluster, [a.install for a in apps])
    return log


def _run_e5_like(budget):
    cluster = Cluster(
        n_nodes=3,
        seed=5,
        strategy=lambda: BoundedSearchStrategy(budget=budget),
    )
    log = _record_dispatches(cluster)
    apps = [
        StreamApp(
            "n0",
            "n1" if i % 2 == 0 else "n2",
            size=256 * (1 + i),
            count=30,
            interval=2 * us,
            size_sigma=0.8,
            name=f"s{i}",
        )
        for i in range(4)
    ]
    run_session(cluster, [a.install for a in apps])
    return log


class TestDispatchOrderEquivalence:
    def test_e2_dispatch_order_identical(self, reference_mode):
        batched = _run_e2_like()
        assert batched, "workload produced no dispatches"
        reference_mode()
        assert batched == _run_e2_like()

    @pytest.mark.parametrize("budget", [1, 8, 64])
    def test_e5_dispatch_order_identical(self, budget, reference_mode):
        batched = _run_e5_like(budget)
        assert batched, "workload produced no dispatches"
        reference_mode()
        assert batched == _run_e5_like(budget)
