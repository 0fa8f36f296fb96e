"""Self-tests of the benchmark (not part of the program's test suite).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

They start real sample interpreters and live peers on the benchmark's
own workloads, and take about six minutes on a 2-core host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, scenario  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _env(*path: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), *path])
    return env


def _plant(directory, call: str) -> str:
    """A directory whose ``sitecustomize`` runs ``plants.<call>`` in every sample."""
    (directory / "sitecustomize.py").write_text(
        "import sys\n"
        "if sys.argv and sys.argv[0].endswith('sample.py'):\n"
        f"    sys.path.insert(0, {HERE!r})\n"
        "    import plants\n"
        f"    plants.{call}\n"
    )
    return str(directory)


def _sample(workload: str, trace_dir: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "sample.py"), workload, "7",
           repr(time.monotonic())]
    if trace_dir is not None:
        cmd += ["--trace", trace_dir]
    done = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.xfail(
    strict=True,
    reason=(
        "src/repro/middleware/base.py:17 names unnamed apps from a "
        "process-global itertools.count(), and src/repro/util/rng.py keys "
        "random streams by those names: a second run of the same scenario "
        "in one interpreter draws other random numbers.  The benchmark "
        "therefore runs every sample in a fresh interpreter."
    ),
)
def test_sim_mixed_repeats_in_one_interpreter():
    from repro.runtime.scenario import run_scenario

    mixed = scenario("sim_mixed", 2006)
    first = run_scenario(mixed)[0].messages
    second = run_scenario(mixed)[0].messages
    assert first == second


#: Per workload, layer metrics that must be positive (their layer runs)
#: and ones that must be zero (their layer does not).
RUNS = {
    "sim_deep": (
        ["core.decisions", "core.self_s", "core.candidates_per_decision",
         "madeleine.collect.self_s", "madeleine.rx.self_s", "sim.events",
         "sim.self_s", "network.nic.submits", "drivers.self_s"],
        ["tuner.self_s", "tuner.installs", "live.encode.self_s", "live.frames_tx"],
    ),
    "sim_mixed": (
        ["core.decisions", "tuner.self_s", "tuner.specialized_frac",
         "tuner.installs", "network.nic.self_s", "network.rx.self_s", "sim.events"],
        ["live.encode.self_s", "live.peer_cpu_s"],
    ),
    "live_small": (
        ["core.decisions", "madeleine.rx.self_s", "live.encode.self_s",
         "live.decode.self_s", "live.mirror.self_s", "live.pattern.self_s",
         "live.frames_tx", "live.bytes_per_frame", "live.nic.busy_s",
         "live.peer_cpu_s"],
        ["sim.events", "sim.self_s", "tuner.self_s", "network.nic.submits"],
    ),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_sample_self_times(workload, tmp_path):
    result = _sample(workload, str(tmp_path))
    expected = {e["name"] for e in SPEC["per_layer"]}
    setup = {"setup.import_s", "setup.build_s", "setup.spawn_s", "obs.trace_overhead_frac"}
    assert set(result["layers"]) == expected - setup
    positive, zero = RUNS[workload]
    for name in positive:
        assert result["layers"][name] > 0, name
    for name in zero:
        assert result["layers"][name] == 0, name
    # Live workloads trace the sample and both peers.
    roles = sorted(p["role"] for p in result["processes"])
    assert roles == (["peer", "peer", "sample"] if workload.startswith("live") else ["sample"])
    for process in result["processes"]:
        self_times = process["self_s"].values()
        assert all(t >= 0 for t in self_times), process
        assert sum(self_times) <= process["covered_s"] + 1e-6
        assert process["covered_s"] <= process["wall_s"]


def _run(workload: str, record: str, seconds: float = 0, *path: str):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", repr(seconds), "--trace", "0",
           "--record", record]
    return subprocess.run(cmd, cwd=ROOT, env=_env(*path), capture_output=True,
                          text=True, timeout=170)


def test_paired_mode_flags_planted_slowdown(tmp_path):
    """A 20% slowdown planted around the simulator loop reads as slower.

    The planted delay adds a quarter to the loop's own time, so the
    traffic phase delivers 20% fewer messages per second.  It runs when
    the loop returns: completion times (latencies) do not move.
    """
    parent, change = str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl")
    planted = _plant(tmp_path, 'delay("sim.run", 0.25)')
    for i in range(10):
        sides = [(parent, ()), (change, (planted,))]
        for record, path in sides if i % 2 == 0 else sides[::-1]:
            # Several samples a run: on a shared 2-vCPU host one
            # sample's speed can differ from the next by 20%.
            done = _run("sim_deep", record, 10, *path)
            assert done.returncode == 0, done.stderr[-2000:]
    lines, flagged = compare.compare(parent, change, SPEC)
    rate = next(line for line in lines if " msgs_per_s " in line)
    assert flagged, "\n".join(lines)
    assert " slower " in rate, "\n".join(lines)
    virtual = next(line for line in lines if " virt_MBps " in line)
    assert " same " in virtual and virtual.endswith(" ok"), virtual


def test_gate_fails_on_lost_packet(tmp_path):
    """A receiver that drops one packet makes the command fail."""
    record = str(tmp_path / "r.jsonl")
    done = _run("sim_deep", record, 0, _plant(tmp_path, 'drop("network.rx", 100)'))
    assert done.returncode == 1, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    # The dropped packet aggregates several messages.
    assert "sample 0: delivered " in done.stderr and " of 12000 messages" in done.stderr


def test_check_determinism_flags_differing_samples():
    same = {"messages": 10, "data_packets": 4}
    samples = [
        {"submitted": 10, "failed": 0, "determinism": dict(same)},
        {"submitted": 10, "failed": 0, "determinism": dict(same)},
        {"submitted": 10, "failed": 0, "determinism": dict(same, data_packets=5)},
    ]
    problems = run._check_determinism(samples)
    assert len(problems) == 1 and problems[0].startswith("sample 2 differs")
    assert [s["failed"] for s in samples] == [0, 0, 10]


def _records(path, values, correct=True, failed=0) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for seed, value in enumerate(values):
            metrics = {e["name"]: {"value": value, "unit": e["unit"]}
                       for e in SPEC["end_to_end"]}
            result = {"correct": correct, "attempted": 10, "failed": failed,
                      "metrics": metrics}
            out.write(json.dumps({"workload": "w", "seed": seed, "trace": 0,
                                  "result": result}) + "\n")


def test_compare_fails_incorrect_runs(tmp_path):
    parent, change = tmp_path / "p.jsonl", tmp_path / "c.jsonl"
    _records(parent, [100.0] * 10)
    _records(change, [50.0] * 10, correct=False, failed=1)
    lines, flagged = compare.compare(str(parent), str(change), SPEC)
    assert flagged and lines == [
        "w: FAILED: 10 incorrect runs; failed messages parent 0, change 10"
    ]


def test_compare_needs_ten_pairs(tmp_path):
    parent, change = tmp_path / "p.jsonl", tmp_path / "c.jsonl"
    _records(parent, [100.0] * 3)
    _records(change, [101.0] * 3)
    lines, flagged = compare.compare(str(parent), str(change), SPEC)
    assert not flagged
    assert all(" too-few-pairs " in line for line in lines), lines


def test_result_line(tmp_path):
    record = str(tmp_path / "r.jsonl")
    done = _run("live_small", record)
    assert done.returncode == 0, done.stderr[-2000:]
    with open(record, encoding="utf-8") as f:
        result = json.loads(f.readline())["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    """With only the benchmark's own files, it exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = dict(os.environ, PYTHONPATH="")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
