#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a verdict per workload and per
end-to-end metric.

    python3 perfbench/compare.py base.jsonl new.jsonl

Each file holds the records ``perfbench/run.py --out`` appends (untraced
runs only are read).  For every metric the verdict is

* ``better`` — the new side wins at least nine tenths of the run pairs
  (paired by seed where both sides ran it) and its median improves on
  the base median by more than the base side's own spread;
* ``worse`` — the new median is worse than the base median by more than
  the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — neither; "(noise)" when either side's spread (the
  distance between quartiles over the median) exceeds the bound and the
  sides overlap, so the data cannot say.

Spreads are ``statistics.quantiles(values, n=4)`` quartile distances
over the median.  Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str) -> dict:
    """workload -> list of untraced records, in file order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace") or not record.get("metrics"):
                continue
            runs[record["workload"]].append(record)
    return runs


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list, new: list, better: str, bound: float,
            pairs: list) -> tuple:
    """``(verdict, worse_share, spread_base, spread_new)`` for one metric.

    ``worse_share`` is how much worse the new median is, as a share of
    the base median (negative when it is better)."""
    med_a, med_b = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_share = sign * (med_b - med_a) / med_a
    s_a, s_b = spread(base), spread(new)

    def improves(x, y):  # does new value y beat base value x?
        return sign * (y - x) < 0

    separated = all(improves(a, b) for a in base for b in new)
    wins = sum(1 for a, b in pairs if improves(a, b))
    if max(s_a, s_b) > bound and not separated:
        return "unresolved (noise)", worse_share, s_a, s_b
    if worse_share > bound:
        return "worse", worse_share, s_a, s_b
    if pairs and wins >= 0.9 * len(pairs) and -worse_share > s_a:
        return "better", worse_share, s_a, s_b
    return "unresolved", worse_share, s_a, s_b


def _pairs(base: list, new: list, name: str) -> list:
    by_seed_a = {r["seed"]: r["metrics"][name]["value"] for r in base}
    by_seed_b = {r["seed"]: r["metrics"][name]["value"] for r in new}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in zip(base, new)]


def _failed_share(records: list) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return "{}/{}".format(failed, attempted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, new = load_runs(args.base), load_runs(args.new)
    any_worse = False
    for workload in sorted(set(base) | set(new)):
        a, b = base.get(workload, []), new.get(workload, [])
        print("== {}  (runs: base {}, new {}; failed base {}, new {})".format(
            workload, len(a), len(b), _failed_share(a), _failed_share(b)))
        if not a or not b:
            print("   only one side ran this workload")
            continue
        print("   {:<20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict".format(
            "metric", "base median", "new median", "worse", "sprd-a",
            "sprd-b"))
        for metric in metrics:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b
                  if name in r["metrics"]]
            if not va or not vb:
                print("   {:<20} missing on one side".format(name))
                continue
            result, worse_share, s_a, s_b = verdict(
                va, vb, metric["better"], metric["bound"],
                _pairs(a, b, name))
            any_worse = any_worse or result == "worse"
            print("   {:<20} {:>14.6g} {:>14.6g} {:>+7.1%} {:>7.1%} {:>7.1%}"
                  "  {} (bound {:.0%})".format(
                      name, statistics.median(va), statistics.median(vb),
                      worse_share, s_a, s_b, result, metric["bound"]))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
