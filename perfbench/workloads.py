"""The benchmark's workloads: one scenario mapping per (name, seed).

Every workload is a batch: the whole input is generated from the seed
before timing starts and handed to the program at once.  Simulated
arrivals follow their own virtual-time schedule; nothing paces the wall
clock.  The program sees only the scenario mapping built here.

Why each workload exists, and which layers do most of its work, is in
``BENCHMARK.json`` (one line each) and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["WORKLOADS", "LIVE", "scenario"]

_EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Multiplier applied to every count of ``examples/scenario_mixed.json``.
MIXED_SCALE = 20

#: Count keys of the mixed scenario's apps (the unit each app repeats).
_COUNT_KEYS = ("count", "calls", "faults", "operations", "rounds", "iterations")


def _sim_deep(seed: int) -> dict:
    # The E5 shape: six log-normal streams from n0, 2 us apart in virtual
    # time, so the backlog stays deep and bounded search does the work.
    return {
        "name": "sim_deep",
        "cluster": {
            "n_nodes": 3,
            "networks": [["mx", 1]],
            "engine": "optimizing",
            "strategy": "search",
            "config": {"search_budget": 64},
            "seed": seed,
        },
        "workloads": [
            {
                "app": "stream",
                "src": "n0",
                "dst": "n1" if i % 2 == 0 else "n2",
                "size": 256 * (1 + i),
                "count": 2000,
                "interval": 2e-6,
                "size_sigma": 0.8,
                "name": f"s{i}",
            }
            for i in range(6)
        ],
    }


def _sim_mixed(seed: int) -> dict:
    mixed = json.loads((_EXAMPLES / "scenario_mixed.json").read_text())
    tuner = json.loads((_EXAMPLES / "scenario_tuner.json").read_text())["tuner"]
    for app in mixed["workloads"]:
        for key in _COUNT_KEYS:
            if key in app:
                app[key] *= MIXED_SCALE
    mixed["name"] = "sim_mixed"
    mixed["cluster"]["seed"] = seed
    mixed["tuner"] = tuner
    return mixed


#: Messages per flow of ``live_small``: enough that one sample's traffic
#: phase lasts about 5 s, which keeps sample-to-sample spread near 3% on
#: 2 cores.
LIVE_COUNT = 6000


def _live_small(seed: int) -> dict:
    return {
        "name": "live_small",
        "cluster": {
            "n_nodes": 2,
            "networks": [["mx", 1]],
            "engine": "optimizing",
            "strategy": "aggregate",
            "seed": seed,
        },
        "workloads": [
            {"app": "stream", "src": "n0", "dst": "n1", "size": size,
             "count": LIVE_COUNT, "interval": 0.0}
            for size in (512, 256, 128)
        ],
    }


WORKLOADS = {
    "sim_deep": _sim_deep,
    "sim_mixed": _sim_mixed,
    "live_small": _live_small,
}

#: Workloads that run over real sockets between peer processes.
LIVE = frozenset({"live_small"})


def scenario(name: str, seed: int) -> dict:
    """The scenario mapping of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed)
