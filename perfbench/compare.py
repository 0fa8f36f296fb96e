"""Paired comparison of two result sets of ``run.py``.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --record FILE`` appended.  Runs are
paired by workload and seed, in the order they were recorded; run the
two sides alternately, changing which goes first, with the same
``--seconds``.  For every workload and end-to-end metric this prints
each side's median and quartiles and two verdicts:

* the paired rule: ``faster``/``slower`` when one side wins at least
  nine tenths of the pairs (ties count for neither) and the medians
  differ by more than the parent's interquartile range, else ``same``;
  with fewer than ten pairs it gives no verdict (``too-few-pairs``);
* the bound of ``BENCHMARK.json``: ``REGRESSION`` when the change's
  median is worse than the parent's by more than the bound,
  ``unresolved`` when the parent's own spread is wider than the bound
  and not every change run beats every parent run, else ``ok``.

A workload where any run failed its correctness checks, or where the
change's runs failed more messages than the parent's, is reported as
``FAILED`` with no verdicts: a speed-up does not count when it loses
messages.  The exit code is 1 when any workload ``FAILED`` or any metric
is ``slower`` or a ``REGRESSION``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of pairs one side must win for the paired rule.
WIN_SHARE = 0.9
#: Fewest pairs the paired rule judges.
MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a result set, by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record)
    return runs


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Parent and change runs of the same seed, matched in order."""
    waiting: dict[int, list[dict]] = defaultdict(list)
    for record in change:
        waiting[record["seed"]].append(record)
    out = []
    for record in parent:
        if waiting[record["seed"]]:
            out.append((record, waiting[record["seed"]].pop(0)))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(parent: list[float], change: list[float], higher: bool, bound: float) -> dict:
    """Both verdicts for one metric over paired values (see module docs).

    ``parent`` and ``change`` are (q1, median, q3) in the result.
    """
    sign = 1.0 if higher else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    moved = abs(cmed - pmed) > p3 - p1
    paired = "same"
    if len(parent) < MIN_PAIRS:
        paired = "too-few-pairs"
    elif moved and wins >= WIN_SHARE * len(parent) and sign * (cmed - pmed) > 0:
        paired = "faster"
    elif moved and losses >= WIN_SHARE * len(parent) and sign * (cmed - pmed) < 0:
        paired = "slower"
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if worse_by > bound:
        bounded = "REGRESSION"
    elif pmed and (p3 - p1) / abs(pmed) > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        bounded = "unresolved"
    else:
        bounded = "ok"
    return {
        "parent": (p1, pmed, p3),
        "change": (c1, cmed, c3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "paired": paired,
        "bound": bounded,
    }


def compare(parent_path: str, change_path: str, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any workload failed or metric got worse."""
    parent_runs, change_runs = load(parent_path), load(change_path)
    lines = []
    flagged = False
    for workload in sorted(parent_runs):
        matched = pairs(parent_runs[workload], change_runs.get(workload, []))
        if not matched:
            lines.append(f"{workload}: no paired runs")
            continue
        records = parent_runs[workload] + change_runs.get(workload, [])
        incorrect = sum(1 for r in records if not r["result"]["correct"])
        parent_failed = sum(p["result"]["failed"] for p, _ in matched)
        change_failed = sum(c["result"]["failed"] for _, c in matched)
        if incorrect or change_failed > parent_failed:
            flagged = True
            lines.append(
                f"{workload}: FAILED: {incorrect} incorrect runs; failed messages "
                f"parent {parent_failed}, change {change_failed}"
            )
            continue
        for entry in spec["end_to_end"]:
            name = entry["name"]
            parent = [p["result"]["metrics"][name]["value"] for p, _ in matched]
            change = [c["result"]["metrics"][name]["value"] for _, c in matched]
            v = verdicts(parent, change, entry["better"] == "higher", entry["bound"])
            flagged |= v["paired"] == "slower" or v["bound"] == "REGRESSION"
            lines.append(
                f"{workload:<10} {name:<16} {entry['unit']:<6} "
                "parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  "
                % (v["parent"][1], v["parent"][0], v["parent"][2],
                   v["change"][1], v["change"][0], v["change"][2])
                + f"wins {v['wins']}/{v['pairs']} losses {v['losses']}  "
                f"{v['paired']}  {v['bound']}"
            )
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    lines, flagged = compare(args.parent, args.change, spec)
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
