"""Property tests for the cost model: monotonicity, positivity, and the
three-way drift guard pinning ``score`` == ``breakdown`` == the batched
kernel's packed scorer (dispatch order rides on exact float equality)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import kernel
from repro.core.cost import CostModel
from repro.core.plan import PlanItem, TransferPlan
from repro.madeleine.message import Flow
from repro.network.wire import PacketKind
from repro.sim import Simulator
from repro.util.units import KiB

from tests.core.helpers import data_entry, make_driver


def plan_of_sizes(driver, sizes, submit_time=0.0):
    flow = Flow("f", "n0", "n1")
    items = [PlanItem(data_entry(flow, s, submit_time=submit_time), s) for s in sizes]
    return TransferPlan(driver, PacketKind.EAGER, "n1", 0, items)


sizes_strategy = st.lists(
    st.integers(min_value=1, max_value=4 * KiB), min_size=1, max_size=12
)


class TestCostProperties:
    @settings(max_examples=80, deadline=None)
    @given(sizes=sizes_strategy)
    def test_occupancy_positive(self, sizes):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        assert CostModel().occupancy(plan) > 0

    @settings(max_examples=80, deadline=None)
    @given(sizes=sizes_strategy)
    def test_score_positive(self, sizes):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        assert CostModel().score(plan, now=0.0) > 0

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=sizes_strategy,
        extra=st.integers(min_value=1, max_value=4 * KiB),
    )
    def test_occupancy_monotone_in_payload(self, sizes, extra):
        """Adding a segment never makes the packet cheaper to send."""
        driver, _ = make_driver(Simulator())
        small = plan_of_sizes(driver, sizes)
        large = plan_of_sizes(driver, sizes + [extra])
        model = CostModel()
        assert model.occupancy(large) > model.occupancy(small)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=sizes_strategy,
        dt=st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
    )
    def test_score_nondecreasing_in_staleness(self, sizes, dt):
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes, submit_time=0.0)
        model = CostModel()
        assert model.score(plan, now=dt) >= model.score(plan, now=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sizes=sizes_strategy)
    def test_staleness_boost_bounded(self, sizes):
        """A stale plan scores at most 2x its fresh self."""
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes, submit_time=0.0)
        model = CostModel()
        fresh = model.score(plan, now=0.0)
        ancient = model.score(plan, now=1e6)
        assert ancient <= 2.0 * fresh + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=sizes_strategy,
        now=st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
    )
    # Once drew 267094997.7053694 != 267094997.70536944: breakdown
    # multiplied n * startup * bandwidth in another order than score.
    @example(sizes=[1] * 7, now=0.0)
    def test_breakdown_score_matches_score(self, sizes, now):
        """breakdown() repeats the score arithmetic; the two must never
        drift apart — not even in the last bit."""
        driver, _ = make_driver(Simulator())
        plan = plan_of_sizes(driver, sizes)
        model = CostModel()
        assert model.breakdown(plan, now)["score"] == model.score(plan, now)

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=sizes_strategy,
        submits=st.lists(
            st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        now=st.floats(min_value=0.0, max_value=2e-2, allow_nan=False),
    )
    def test_packed_score_matches_scalar(self, sizes, submits, now):
        """The batched kernel's packed scorer reproduces CostModel.score
        bit for bit from (n_items, payload, oldest_submit) aggregates —
        the invariant the whole batched search's dispatch-order
        equivalence rests on.  Submit times vary per item, so the
        ``now - min(submit)`` vs ``max(now - submit)`` equivalence is
        exercised too (including negative waits: *now* may precede a
        submit time)."""
        driver, _ = make_driver(Simulator())
        flow = Flow("f", "n0", "n1")
        items = [
            PlanItem(data_entry(flow, s, submit_time=submits[i % len(submits)]), s)
            for i, s in enumerate(sizes)
        ]
        plan = TransferPlan(driver, PacketKind.EAGER, "n1", 0, items)
        model = CostModel()
        consts = kernel.constants_for(driver)
        assert consts.exact
        packed = model.score_packed(
            consts,
            len(items),
            plan.payload_bytes,
            min(item.entry.submit_time for item in items),
            now,
        )
        assert packed == model.score(plan, now)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        size=st.integers(min_value=32, max_value=2 * KiB),
    )
    def test_aggregate_beats_singles(self, n, size):
        """One n-segment packet always out-scores its single pieces —
        the property the search strategy's correctness rides on."""
        driver, _ = make_driver(Simulator())
        model = CostModel()
        aggregate = model.score(plan_of_sizes(driver, [size] * n), now=0.0)
        single = model.score(plan_of_sizes(driver, [size]), now=0.0)
        assert aggregate > single
