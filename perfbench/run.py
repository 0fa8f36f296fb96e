"""The end-to-end benchmark: run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_deep --seed 1 --seconds 20 --trace 0

Each sample runs in a fresh interpreter (``sample.py``); samples repeat
until ``--seconds`` is used up (at least :data:`MIN_SAMPLES`), and each
metric is the median over them.  With ``--trace 0`` the result holds
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1``,
samples alternate untraced and traced, and the result holds every
per-layer metric: set-up times from the untraced samples, the rest from
the traced ones, and ``obs.trace_overhead_frac`` from both.

Before the last line, one line per metric gives its median, quartiles
and sample count.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` counts submitted messages over all samples and ``failed``
those not delivered (byte-verified, on live workloads); on a simulated
workload every sample of one seed must also produce the same
deterministic outputs.  The exit code is 0 only when every check
passes; it is 2, with no result printed, when the program cannot run.

``--record FILE`` appends the result to a JSON-lines file for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from compare import quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest samples per run, so the medians of set-up time and of the
#: traffic phase always rest on several interpreters.
MIN_SAMPLES = 3
#: Bound on one sample's interpreter (a live run kills its peers sooner).
SAMPLE_TIMEOUT = 150.0
#: Where traced samples leave their span files (one directory per workload).
SPANS_DIR = os.path.join(".perfbench", "spans")


class SampleError(Exception):
    """A sample interpreter failed or printed no result."""


def _run_sample(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")) if p
    )
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), workload, str(seed)]
    if traced:
        cmd += ["--trace", os.path.join(SPANS_DIR, workload)]
    spawned_at = time.monotonic()
    cmd.insert(4, repr(spawned_at))
    # A session of its own, so a sample that hangs is stopped together
    # with the live peers it started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=SAMPLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"sample exceeded {SAMPLE_TIMEOUT:.0f}s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"sample exited {proc.returncode}: {stderr[-2000:]}")
    return json.loads(lines[-1])


def _check_determinism(samples: list[dict]) -> list[str]:
    """Simulated outputs of one seed must match across samples."""
    problems = []
    reference = samples[0].get("determinism")
    for index, sample in enumerate(samples[1:], start=1):
        if sample.get("determinism") != reference:
            problems.append(
                f"sample {index} differs from sample 0: "
                f"{sample.get('determinism')} != {reference}"
            )
            sample["failed"] = sample["submitted"]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Untimed warm-up: compile the sources once, so the first sample's
    # set-up does not include writing bytecode caches.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=False, timeout=120,
    )

    samples: list[dict] = []
    problems: list[str] = []
    started = time.monotonic()
    least = MIN_SAMPLES + (MIN_SAMPLES - 1 if args.trace else 0)
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        began = time.monotonic()
        try:
            sample = _run_sample(args.workload, args.seed, traced)
        except SampleError as err:
            if not samples:
                print(f"perfbench: {err}", file=sys.stderr)
                return 2
            # Its messages count as attempted and failed.
            problems.append(str(err))
            lost = samples[0]["submitted"]
            samples.append({"traced": traced, "submitted": lost, "failed": lost,
                            "problems": [], "crashed": True})
            break
        samples.append(sample)
        problems += [f"sample {len(samples) - 1}: {p}" for p in sample["problems"]]
        now = time.monotonic()
        if len(samples) >= least and now - started + (now - began) > args.seconds:
            break
    measured = [s for s in samples if not s.get("crashed")]
    problems += _check_determinism(measured)

    plain = [s for s in measured if not s["traced"]]
    traced_samples = [s for s in measured if s["traced"]]
    values: dict[str, list[float]] = {}
    if args.trace:
        for name in ("import_s", "build_s", "spawn_s"):
            values[f"setup.{name}"] = [s["setup"][name] for s in plain]
        for s in traced_samples:
            for name, value in s["layers"].items():
                values.setdefault(name, []).append(value)
        if traced_samples and plain:
            traced_wall = statistics.median(s["wall_s"] for s in traced_samples)
            plain_wall = statistics.median(s["wall_s"] for s in plain)
            values["obs.trace_overhead_frac"] = [traced_wall / plain_wall - 1.0]
    else:
        for s in plain:
            for name, value in s["metrics"].items():
                values.setdefault(name, []).append(value)

    for problem in problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    missing = [e["name"] for e in wanted if not values.get(e["name"])]
    if missing:
        print(f"perfbench: no samples measured {missing}", file=sys.stderr)
        return 1

    metrics = {}
    for entry in wanted:
        q1, median, q3 = quartiles(values[entry["name"]])
        metrics[entry["name"]] = {"value": median, "unit": entry["unit"]}
        print(
            f"{args.workload:<10} {entry['name']:<28} {median:>14.6g} {entry['unit']:<6} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values[entry['name']])}"
        )
    attempted = sum(s["submitted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                  "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
