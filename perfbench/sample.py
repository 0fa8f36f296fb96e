"""One sample of one workload, measured in a fresh interpreter.

Usage (``run.py`` starts it, from the root of the checkout)::

    python3 perfbench/sample.py WORKLOAD SEED SPAWNED_AT [--trace DIR]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
started this interpreter, so set-up time includes interpreter start.
With ``--trace DIR`` the layer functions are wrapped (``layers.py``),
spans are written under ``DIR`` and the live peers are traced too,
through ``hook/sitecustomize.py``.  The last line of standard output is
one JSON object describing the sample.

Each sample needs its own interpreter: the program names unnamed
workload apps from a process-wide counter and keys its random streams by
those names, so a second run in one process gets other random streams
(``tests/test_selftest.py`` keeps that defect visible).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import sys
import tempfile
import time

# The wall/monotonic pair converts the live clock (wall seconds since the
# coordinator's epoch) to this process's monotonic clock.
_MONO0 = time.monotonic()
_WALL_MINUS_MONO = time.time() - _MONO0

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: Hard bound on one live run (the coordinator kills its peers after it).
LIVE_TIMEOUT = 90.0


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_sim(scenario: dict, out: dict) -> dict:
    from repro.runtime.scenario import build_scenario
    from repro.runtime.session import run_session

    t0 = time.monotonic()
    cluster, apps = build_scenario(scenario)
    out["setup"]["build_s"] += time.monotonic() - t0
    out["setup"]["spawn_s"] = 0.0

    # Wall time at which each message completes: chained behind the
    # metrics collector's hook on every node's reassembler.  The stamp
    # runs inside the timed call, so its cost is part of the traffic phase.
    done_at: list[float] = []
    for reassembler in cluster.reassemblers.values():
        collect = reassembler.on_message_complete

        def stamped(message, now, _collect=collect):
            done_at.append(time.monotonic())
            _collect(message, now)

        reassembler.on_message_complete = stamped

    start = time.monotonic()
    report = run_session(cluster, [app.install for app in apps])
    end = time.monotonic()

    submitted = sum(e.stats.messages_submitted for e in cluster.engines.values())
    wall = end - start
    if not done_at:
        raise RuntimeError("no message completion was stamped")
    latencies = [t - start for t in done_at]
    out.update(
        first_submit=start,
        wall_s=wall,
        submitted=submitted,
        delivered=report.messages,
        failed=max(submitted - report.messages, 0),
        delivered_bytes=report.total_bytes,
        lat_p50_s=_percentile(latencies, 0.5),
        lat_p99_s=_percentile(latencies, 0.99),
    )
    if report.messages != submitted:
        out["problems"].append(f"delivered {report.messages} of {submitted} messages")
    out["determinism"] = {
        "messages": report.messages,
        "bytes": report.total_bytes,
        "data_packets": report.data_packets,
        "virt_MBps": report.throughput / 1e6,
        "virt_lat_p50_us": report.latency.p50 * 1e6,
        "virt_lat_p99_us": report.latency.p99 * 1e6,
    }
    counters = {"report": report, "sim_events": cluster.sim.events_processed}
    if cluster.tuner is not None:
        summary = cluster.tuner.summary()
        totals = summary["totals"]
        counters.update(
            tuner_decisions=totals["decisions"],
            tuner_specialized=totals["specialized"],
            tuner_misses=sum(node["misses"] for node in summary["nodes"].values()),
            tuner_installs=totals["installs"],
            tuner_invalidations=totals["invalidations"],
        )
    return counters


def _run_live(scenario: dict, out: dict, spans_dir: str | None) -> dict:
    import repro.live.cluster as coordinator

    # The coordinator puts its sockets in a fresh directory under /tmp.
    # Keep them in the checkout instead: a relative path is short enough
    # for a socket name and the peers share this working directory.
    local_tmp = os.path.join(".perfbench", "tmp")
    os.makedirs(local_tmp, exist_ok=True)
    mkdtemp = tempfile.mkdtemp

    def local_mkdtemp(suffix=None, prefix=None, dir=None):
        path = mkdtemp(suffix, prefix, local_tmp if dir == "/tmp" else dir)
        return os.path.relpath(path)

    tempfile.mkdtemp = local_mkdtemp

    # A peer answers control requests on the event loop that also runs
    # its traffic, and queueing a whole batch blocks that loop for a
    # while: about 2.3 s for live_small's 18000 messages on 2 idle
    # cores, and past the coordinator's 5 s reply budget when the host
    # is loaded, which aborts the run.  That budget is the coordinator's
    # guess at a wedged peer, not a check of the traffic, so the
    # benchmark gives each reply the whole run's budget instead.
    coordinator._REQUEST_TIMEOUT = LIVE_TIMEOUT

    # The live clock counts wall seconds from the coordinator's epoch;
    # the first submit in this process's clock needs that epoch.
    epochs: list[float] = []
    collector_init = coordinator._ObsCollector.__init__

    def note_epoch(self, epoch, time_scale):
        epochs.append(epoch)
        collector_init(self, epoch, time_scale)

    coordinator._ObsCollector.__init__ = note_epoch

    if spans_dir is not None:
        os.environ["PERFBENCH_PEER_SPANS"] = spans_dir
        path = [os.path.join(HERE, "hook"), os.environ.get("PYTHONPATH", "")]
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in path if p)

    cpu0 = _children_cpu_s()
    called = time.monotonic()
    result = coordinator.run_live_scenario(scenario, timeout=LIVE_TIMEOUT)
    peer_cpu = _children_cpu_s() - cpu0

    report = result.report
    peers = result.peer_reports
    first_submit = epochs[0] + min(r.submit_time for r in result.records) - _WALL_MINUS_MONO
    submitted = sum(p["transport"]["submitted"] for p in peers)
    corrupt = result.corrupt_slices
    out["setup"]["spawn_s"] = first_submit - called
    out.update(
        first_submit=first_submit,
        wall_s=report.duration,
        submitted=submitted,
        delivered=report.messages,
        failed=max(submitted - report.messages, 0) + corrupt + report.lost_messages,
        delivered_bytes=result.bytes_verified,
        lat_p50_s=report.latency.p50,
        lat_p99_s=report.latency.p99,
    )
    if report.messages != submitted:
        out["problems"].append(f"delivered {report.messages} of {submitted} messages")
    if result.bytes_verified != report.total_bytes:
        # No message is known to be intact: count them all.
        out["failed"] = submitted
        out["problems"].append(
            f"verified {result.bytes_verified} of {report.total_bytes} payload bytes"
        )
    if corrupt or report.lost_messages or report.degraded:
        out["problems"].append(
            f"corrupt slices {corrupt}, lost messages {report.lost_messages}, "
            f"degraded {report.degraded}"
        )
    nics = [nic for p in peers for nic in p["nics"]]
    return {
        "report": report,
        "live_frames": sum(nic["requests"] for nic in nics),
        "live_bytes_tx": sum(p["transport"]["bytes_tx"] for p in peers),
        "live_busy_s": sum(nic["busy_time"] for nic in nics),
        "peer_cpu_s": peer_cpu,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("spawned_at", type=float)
    parser.add_argument("--trace", metavar="DIR")
    args = parser.parse_args(argv)

    from workloads import LIVE, scenario

    live = args.workload in LIVE
    # What a user of each plane imports; the layer modules the tracer
    # needs on top are imported after set-up is measured.
    if live:
        import repro.live.cluster  # noqa: F401
    else:
        import repro.runtime.scenario  # noqa: F401
        import repro.runtime.session  # noqa: F401
    imported = time.monotonic()
    out: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace is not None,
        "problems": [],
        "setup": {"import_s": imported - args.spawned_at},
    }

    import layers
    import spans

    recorder = None
    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        for stale in glob.glob(os.path.join(args.trace, "*.jsonl")):
            os.remove(stale)
        layers.import_program()
        recorder = spans.SpanRecorder()
        spans.install(layers.TARGETS, recorder.wrap)

    built = time.monotonic()
    workload = scenario(args.workload, args.seed)
    out["setup"]["build_s"] = time.monotonic() - built
    if live:
        counters = _run_live(workload, out, args.trace)
    else:
        counters = _run_sim(workload, out)
    report = counters.pop("report")
    wall = out["wall_s"]
    out["setup_s"] = out["first_submit"] - args.spawned_at
    out["metrics"] = {
        "setup_s": out["setup_s"],
        "msgs_per_s": out["delivered"] / wall,
        "MBps": out["delivered_bytes"] / wall / 1e6,
        "lat_p50_ms": out.pop("lat_p50_s") * 1e3,
        "lat_p99_ms": out.pop("lat_p99_s") * 1e3,
        "virt_MBps": report.throughput / 1e6,
        "virt_lat_p50_us": report.latency.p50 * 1e6,
        "virt_lat_p99_us": report.latency.p99 * 1e6,
        "peak_rss_MB": _rss_mb(),
    }

    if recorder is not None:
        counters["segments_per_packet"] = report.aggregation_ratio
        counters["nic_busy_frac"] = report.nic_utilization
        counters["retransmits"] = report.retransmits
        own = layers.process_header("sample", recorder)
        recorder.write(os.path.join(args.trace, "sample.jsonl"), own)
        processes = [(own, spans.summarize(recorder.names, recorder.spans, layers.GROUPS))]
        for path in sorted(glob.glob(os.path.join(args.trace, "peer-*.jsonl"))):
            header, rows = spans.read_spans(path)
            processes.append((header, spans.summarize(header["names"], rows, layers.GROUPS)))
        counters["candidates"] = sum(header["candidates"] for header, _ in processes)
        summaries = [summary for _, summary in processes]
        out["layers"] = layers.layer_metrics(summaries, counters)
        out["processes"] = [
            {
                "role": header["role"],
                "wall_s": header["wall_s"],
                "covered_s": summary["covered_s"],
                "self_s": summary["self_s"],
            }
            for header, summary in processes
        ]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
