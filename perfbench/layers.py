"""Which program functions belong to which layer, and the per-layer metrics.

The layers are the program's packages.  Each wrapped function is a
boundary where a layer is entered; its span's self time is the time the
layer spent before calling into another wrapped function.  Time between
spans (the simulator loop dispatching unwrapped callbacks, workload app
generators, the live peers' asyncio loop) is charged to the nearest
enclosing span, or to no layer when nothing is open.

Private functions are wrapped in two places only, where a layer's work
would otherwise be charged to its caller: the engine's dispatch loop
(``CommEngineBase._pump``, entered from NIC-idle callbacks) and the
coordinator's collector (read for the live clock's epoch; see
``sample.py``).
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Any

from spans import Target

__all__ = ["MODULES", "TARGETS", "GROUPS", "import_program", "process_header", "layer_metrics"]

#: Modules whose functions are wrapped (imported before installing).
MODULES = (
    "repro.core.engine",
    "repro.core.strategies",
    "repro.drivers.registry",
    "repro.madeleine.api",
    "repro.madeleine.rx",
    "repro.network.nic",
    "repro.network.receiver",
    "repro.sim.engine",
    "repro.tuner",
    "repro.tuner.specialize",
    "repro.live.nic",
    "repro.live.transport",
)


def _message_id(self, message, *args, **kwargs) -> int:
    return message.message_id


def _packet_id(self, packet, *args, **kwargs) -> int:
    return packet.packet_id


def _backlog(self, engine, driver) -> int:
    return engine.waiting.total_pending


def _encoded_packet_id(packet, *args, **kwargs) -> int:
    return packet.packet_id


# Subclasses that belong to another layer than their base come first:
# ``install`` wraps a function once, so the base's entry skips them.
TARGETS: list[Target] = [
    ("repro.tuner.specialize", "TunedStrategy.make_plan", "tuner.plan", _backlog),
    ("repro.live.nic", "LiveNIC.submit", "live.nic", _packet_id),
    ("repro.sim.engine", "Simulator.run", "sim.run", None),
    ("repro.madeleine.api", "MadAPI.send", "madeleine.collect", None),
    ("repro.madeleine.api", "PackingSession.flush", "madeleine.collect", None),
    ("repro.madeleine.rx", "MessageReassembler.sink", "madeleine.rx", _packet_id),
    ("repro.core.engine", "CommEngineBase.submit_message", "core.submit", _message_id),
    ("repro.core.engine", "CommEngineBase._pump", "core.pump", None),
    ("repro.core.strategies.base", "Strategy.make_plan", "core.plan", _backlog),
    ("repro.drivers.base", "Driver.send", "drivers.send", _packet_id),
    ("repro.network.nic", "NIC.submit", "network.nic", _packet_id),
    ("repro.network.receiver", "Receiver.deliver", "network.rx", _packet_id),
    ("repro.tuner", "Tuner.on_decision", "tuner.observe", None),
    ("repro.live.transport", "encode_live_packet", "live.encode", _encoded_packet_id),
    ("repro.live.transport", "StreamDecoder.feed", "live.decode", None),
    ("repro.live.transport", "MirrorReceiver.packet_from_frame", "live.mirror", None),
    ("repro.live.transport", "payload_bytes", "live.pattern", None),
]

#: Groups of span names whose outermost calls are counted together.
GROUPS = {
    "decisions": ("core.plan", "tuner.plan"),
    "collect": ("madeleine.collect",),
    "rx": ("madeleine.rx",),
    "nic": ("network.nic",),
}


#: Program counters :func:`layer_metrics` reads; absent ones count as 0.
_COUNTERS = (
    "candidates", "segments_per_packet", "nic_busy_frac", "retransmits",
    "sim_events", "tuner_decisions", "tuner_specialized", "tuner_misses",
    "tuner_installs", "tuner_invalidations", "live_frames", "live_bytes_tx",
    "live_busy_s", "peer_cpu_s",
)


def import_program() -> None:
    """Import every module :data:`TARGETS` names."""
    for name in MODULES:
        importlib.import_module(name)


def process_header(role: str, recorder) -> dict[str, Any]:
    """What one traced process reports beside its spans.

    ``candidates`` sums the search candidates every strategy that made
    a decision evaluated (a program counter, read after the run).
    """
    return {
        "role": role,
        "pid": os.getpid(),
        "wall_s": (time.perf_counter_ns() - recorder.started_ns) / 1e9,
        "candidates": sum(
            getattr(strategy, "candidates_evaluated", 0)
            for strategy in recorder.receivers.get("core.plan", {}).values()
        ),
    }


def _sum(summaries: list[dict], name: str) -> float:
    return sum(s["self_s"].get(name, 0.0) for s in summaries)


def _group(summaries: list[dict], group: str, field: str) -> float:
    return sum(s["groups"][group][field] for s in summaries)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], counters: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced sample.

    ``summaries`` holds one :func:`spans.summarize` result per process
    (the sample, plus each live peer); ``counters`` holds the program's
    own counters read after the run (see ``sample.py``), those of layers
    that did not run left out.
    """
    counters = dict.fromkeys(_COUNTERS, 0) | dict(counters)
    decisions = _group(summaries, "decisions", "calls")
    events = counters["sim_events"]
    tuner_decisions = counters["tuner_decisions"]
    frames = counters["live_frames"]
    return {
        "core.decisions": decisions,
        "core.self_s": sum(_sum(summaries, n) for n in ("core.plan", "core.pump", "core.submit")),
        "core.us_per_decision": 1e6 * _ratio(_group(summaries, "decisions", "total_s"), decisions),
        "core.backlog_at_decision": _ratio(_group(summaries, "decisions", "key_sum"), decisions),
        "core.candidates_per_decision": _ratio(counters["candidates"], decisions),
        "core.submit.self_s": _sum(summaries, "core.submit"),
        "core.segments_per_packet": counters["segments_per_packet"],
        "madeleine.collect.calls": _group(summaries, "collect", "calls"),
        "madeleine.collect.self_s": _sum(summaries, "madeleine.collect"),
        "madeleine.rx.calls": _group(summaries, "rx", "calls"),
        "madeleine.rx.self_s": _sum(summaries, "madeleine.rx"),
        "sim.events": events,
        "sim.self_s": _sum(summaries, "sim.run"),
        "sim.us_per_event": 1e6 * _ratio(_sum(summaries, "sim.run"), events),
        "network.nic.submits": _group(summaries, "nic", "calls"),
        "network.nic.self_s": _sum(summaries, "network.nic"),
        "network.rx.self_s": _sum(summaries, "network.rx"),
        "network.nic.busy_frac": counters["nic_busy_frac"],
        "network.retransmits": counters["retransmits"],
        "drivers.self_s": _sum(summaries, "drivers.send"),
        "tuner.self_s": _sum(summaries, "tuner.observe") + _sum(summaries, "tuner.plan"),
        "tuner.specialized_frac": _ratio(counters["tuner_specialized"], tuner_decisions),
        "tuner.miss_frac": _ratio(counters["tuner_misses"], tuner_decisions),
        "tuner.installs": counters["tuner_installs"],
        "tuner.invalidations": counters["tuner_invalidations"],
        "live.encode.self_s": _sum(summaries, "live.encode"),
        "live.decode.self_s": _sum(summaries, "live.decode"),
        "live.mirror.self_s": _sum(summaries, "live.mirror"),
        "live.pattern.self_s": _sum(summaries, "live.pattern"),
        "live.nic.self_s": _sum(summaries, "live.nic"),
        "live.frames_tx": frames,
        "live.bytes_per_frame": _ratio(counters["live_bytes_tx"], frames),
        "live.nic.busy_s": counters["live_busy_s"],
        "live.peer_cpu_s": counters["peer_cpu_s"],
    }
