"""Compare two perf-benchmark result files (``run.py --out``).

Usage::

    python benchmarks/perf/compare.py PARENT.json CHANGE.json

One row per (workload, end-to-end metric): each side's value (the
statistic the benchmark reports: the fastest repeat for ``run_s``, the
median otherwise) with the median and quartiles of its repeats, the
change's delta, the metric's bound, and a verdict:

* ``unresolved`` -- either side's interquartile range is wider than the
  bound, unless every change sample beats every parent sample (then
  ``improved``);
* ``regressed`` -- the change's value is worse than the parent's by more
  than the bound;
* ``improved`` -- the change's value is better by more than the parent's
  interquartile range;
* ``unchanged`` -- otherwise.

A gain is claimed only from at least ten alternating parent/change pairs
(see the README); this table is the per-pair view.  The per-layer self
and phase times of the traced repeats follow, with their deltas.  Exits 1
when any row regressed or the change failed more repeats than the parent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def verdict(parent: dict, change: dict) -> tuple[float, str]:
    """(relative delta of the values, verdict) for one metric."""
    sign = 1.0 if parent["better"] == "lower" else -1.0
    delta = (change["value"] - parent["value"]) / parent["value"]
    worse = sign * delta
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (parent, change)
    )
    if spread > parent["bound"]:
        if max(sign * v for v in change["samples"]) < min(
            sign * v for v in parent["samples"]
        ):
            return delta, "improved"
        return delta, "unresolved"
    if worse > parent["bound"]:
        return delta, "regressed"
    if -worse > (parent["q3"] - parent["q1"]) / parent["median"]:
        return delta, "improved"
    return delta, "unchanged"


def _side(m: dict) -> str:
    return f"{m['value']:.6g} ({m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}])"


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """The report lines and whether the change regressed."""
    lines = [
        f"{'workload':<17} {'metric':<12} {'parent value (median [q1, q3])':<44} "
        f"{'change value (median [q1, q3])':<44} {'delta':>8} {'bound':>6}  verdict"
    ]
    regressed = False
    layer_lines: list[str] = []
    for workload, base in parent["workloads"].items():
        new = change["workloads"].get(workload)
        if new is None:
            lines.append(f"{workload:<17} missing from the change's results")
            regressed = True
            continue
        if new["failed"] > base["failed"]:
            lines.append(
                f"{workload:<17} failed repeats {base['failed']} -> {new['failed']}"
            )
            regressed = True
        for name, m in base["end_to_end"].items():
            if name not in new["end_to_end"]:
                lines.append(f"{workload:<17} {name:<12} missing from the change")
                regressed = True
                continue
            delta, call = verdict(m, new["end_to_end"][name])
            regressed = regressed or call == "regressed"
            lines.append(
                f"{workload:<17} {name:<12} {_side(m):<44} "
                f"{_side(new['end_to_end'][name]):<44} {delta:>+8.1%} "
                f"{m['bound']:>6.0%}  {call}"
            )
        for name, m in base["per_layer"].items():
            other = new["per_layer"].get(name)
            if m["unit"] != "s" or other is None or not m["value"]:
                continue
            change_pct = (other["value"] - m["value"]) / m["value"]
            layer_lines.append(
                f"{workload:<17} {name:<28} {m['value']:>12.6g} "
                f"{other['value']:>12.6g} {change_pct:>+8.1%}"
            )
    if layer_lines:
        lines.append("")
        lines.append(
            f"{'workload':<17} {'per-layer time (traced)':<28} "
            f"{'parent s':>12} {'change s':>12} {'delta':>8}"
        )
        lines += layer_lines
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two perf-benchmark result files."
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        parent, change = (json.loads(p.read_text()) for p in (args.parent, args.change))
    except (OSError, ValueError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    lines, regressed = compare(parent, change)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
