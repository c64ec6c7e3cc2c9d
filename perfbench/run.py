#!/usr/bin/env python3
"""Benchmark of record for the ROFL reproduction.

Runs one workload in this process and prints, as its last stdout line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
Every metric is also printed by name with its unit, and every operation
kind with its attempted and failed counts.

    python3 perfbench/run.py --workload inter-build --seed 0 --seconds 10
    python3 perfbench/run.py --workload all --out results.jsonl
    python3 perfbench/run.py --workload serve-inter --trace 1

``--out`` appends one JSON record per run — environment stamp, metrics,
operation counts and the raw per-operation samples — for
``perfbench/compare.py``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from common import (END_TO_END, SETUP_REPEATS, Bench, clock,  # noqa: E402
                    end_to_end, environment, perf_counts)

WORKLOADS = ("inter-build", "intra-churn", "serve-inter")

#: Tolerance on "layer self times + unattributed_s = traced wall time",
#: as a share of the traced wall time.
LAYER_SUM_TOLERANCE = 0.01

#: name -> unit of every per-layer metric; each is reported for every
#: workload (0 where the layer does not run).
PER_LAYER = {
    "inter.canon.join_self_s": "s",
    "inter.canon.joins": "count",
    "inter.routing.lookup_self_s": "s",
    "inter.routing.lookups": "count",
    "inter.routing.data_self_s": "s",
    "inter.routing.hops": "count",
    "inter.fingers.self_s": "s",
    "inter.fingers.calls": "count",
    "inter.asnode.match_self_s": "s",
    "inter.asnode.flush_self_s": "s",
    "inter.asnode.flushes": "count",
    "inter.asnode.marks": "count",
    "inter.asnode.owners_per_flush": "owners",
    "inter.policy.path_self_s": "s",
    "inter.policy.path_calls": "count",
    "inter.bgp.distance_self_s": "s",
    "inter.bgp.tables_built": "count",
    "intra.ring.join_self_s": "s",
    "intra.forwarding.lookup_self_s": "s",
    "intra.forwarding.data_self_s": "s",
    "intra.forwarding.hops": "count",
    "intra.router.match_self_s": "s",
    "intra.router.flush_self_s": "s",
    "intra.router.owners_per_flush": "owners",
    "intra.router.cache_hit_ratio": "ratio",
    "intra.mobility.leave_self_s": "s",
    "linkstate.spf.self_s": "s",
    "linkstate.spf.tree_builds": "count",
    "linkstate.spf.tree_reuse_ratio": "ratio",
    "topology.hosts.plan_self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.self_s": "s",
    "workload.driver.self_s": "s",
    "snapshot.save_s": "s",
    "snapshot.load_s": "s",
    "snapshot.hash_s": "s",
    "snapshot.bytes": "bytes",
    "serve.handle_self_s": "s",
    "serve.requests": "count",
    "util.perf.snapshot_self_s": "s",
    "util.perf.histogram_samples": "count",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_ratio": "ratio",
}


def _workload_module(name: str):
    import importlib
    return importlib.import_module(name.replace("-", "_"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec, b: Bench, counts: dict, traced_wall: float,
              unattributed: float, overhead: float) -> dict:
    """``counts`` is :func:`common.perf_counts` taken right after the
    traced execution."""
    self_s, calls = rec.self_s, rec.calls
    c = counts["counters"]
    tree_builds = counts["timers"].get("spf.hop_tree", [0])[0]
    values = {
        "inter.canon.joins": calls["inter.canon.join"],
        "inter.routing.lookups": calls["inter.routing.lookup"],
        "inter.routing.hops": c.get("inter.fwd.hops", 0),
        "inter.fingers.calls": calls["inter.fingers"],
        "inter.asnode.flushes": c.get("asnode.index.refresh.flushes", 0)
        + c.get("asnode.index.rebuild", 0),
        "inter.asnode.marks": c.get("asnode.index.marks", 0),
        "inter.asnode.owners_per_flush": _ratio(
            c.get("asnode.index.refresh.owners", 0),
            c.get("asnode.index.refresh.flushes", 0)),
        "inter.policy.path_calls": calls["inter.policy.path"],
        "inter.bgp.tables_built": len(rec.distinct["inter.bgp.tables"]),
        "intra.forwarding.hops": c.get("fwd.hops", 0),
        "intra.router.owners_per_flush": _ratio(
            c.get("router.index.refresh.owners", 0),
            c.get("router.index.refresh.flushes", 0)),
        "intra.router.cache_hit_ratio": b.layer.get(
            "intra.router.cache_hit_ratio", 0.0),
        "linkstate.spf.tree_builds": tree_builds,
        "linkstate.spf.tree_reuse_ratio": (
            1.0 - _ratio(tree_builds, calls["linkstate.spf"])
            if calls["linkstate.spf"] else 0.0),
        "sim.engine.events": b.layer.get("sim.engine.events", 0),
        "snapshot.save_s": self_s["snapshot.save"],
        "snapshot.load_s": self_s["snapshot.load"],
        "snapshot.hash_s": self_s["snapshot.hash"],
        "snapshot.bytes": b.layer.get("snapshot.bytes", 0),
        "serve.requests": calls["serve.handle"],
        "util.perf.histogram_samples": counts["histogram_samples"],
        "unattributed_s": unattributed,
        "traced_wall_s": traced_wall,
        "trace_overhead_ratio": overhead,
    }
    for name in PER_LAYER:
        if name not in values:  # "<layer>_self_s" or "<layer>.self_s"
            values[name] = self_s[name[:-len("_self_s")]]
    return values


def _execute(module, b: Bench):
    gc.collect()
    return module.execute(b)


def _scaled_work(b: Bench) -> float:
    return sum(b.samples["setup"]) + sum(b.samples["wall"])


def run_untraced(name: str, seed: int, seconds: float):
    module = _workload_module(name)
    b = Bench(seed, seconds, setups=SETUP_REPEATS)
    state = _execute(module, b)
    module.verify(b, state)
    metrics = end_to_end(b, b.samples)
    return b, {k: (v, END_TO_END[k][0]) for k, v in metrics.items()}


def check_accounting(rec, unattributed: float, traced_wall: float) -> None:
    """Layer self times and ``unattributed_s`` are not negative and sum to
    the traced wall time within :data:`LAYER_SUM_TOLERANCE`."""
    from checks import CheckFailed
    negative = sorted(k for k, v in rec.self_s.items() if v < -1e-9)
    if negative or unattributed < -1e-9:
        raise CheckFailed("negative self time: {} unattributed {:.6f} s"
                          .format(", ".join(negative), unattributed))
    layers = sum(v for k, v in rec.self_s.items() if k != "bench")
    if abs(layers + unattributed - traced_wall) > (
            LAYER_SUM_TOLERANCE * traced_wall):
        raise CheckFailed(
            "layer self times + unattributed = {:.4f} s but traced wall is "
            "{:.4f} s".format(layers + unattributed, traced_wall))


def run_traced(name: str, seed: int, seconds: float):
    """A traced execution, then an untraced replay of the same rounds for
    the tracing overhead."""
    from repro.util import perf
    from spans import SpanRecorder

    module = _workload_module(name)
    rec = SpanRecorder()
    b = Bench(seed, seconds, setups=1, recorder=rec)
    perf.reset()
    rec.install()
    try:
        gc.collect()
        t0 = clock()
        state = rec.run_root("bench", module.execute, b)
        traced_wall = clock() - t0 - b.aside_s
    finally:
        rec.uninstall()
    counts = perf_counts()
    unattributed = rec.self_s["bench"] - b.aside_s
    check_accounting(rec, unattributed, traced_wall)
    module.verify(b, state)
    del state
    # The replay starts from the same empty registry as the traced run.
    perf.reset()
    replay = Bench(seed, seconds, setups=1, max_rounds=b.rounds)
    _execute(module, replay)
    # Scaled set-up and measured time on both sides, so a drift of the
    # box's speed between the two executions does not count as overhead.
    overhead = _scaled_work(b) / _scaled_work(replay)
    values = per_layer(rec, b, counts, traced_wall, unattributed, overhead)
    return b, {k: (values[k], unit) for k, unit in PER_LAYER.items()}, rec


def _print_ops(b: Bench) -> None:
    for kind, entry in sorted(b.ops.items()):
        print("op {:<13} attempted {:>7}  failed {:>5}".format(
            kind, entry["attempted"], entry["failed"]))
        for text, count in sorted(entry["errors"].items()):
            print("   {} x {}".format(count, text))


def run_one(args) -> int:
    from checks import CheckFailed

    env = environment(ROOT, args.seed)
    print("workload {}  seed {}  seconds {}  trace {}".format(
        args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    rec = None
    try:
        if args.trace:
            b, metrics, rec = run_traced(args.workload, args.seed,
                                         args.seconds)
        else:
            b, metrics = run_untraced(args.workload, args.seed, args.seconds)
        correct, problem = True, None
    except CheckFailed as exc:
        correct, problem = False, str(exc)
        print("CHECK FAILED: " + problem, file=sys.stderr)
        b, metrics = None, {}
    if b is not None:
        print("rounds {}  measured {:.3f} s".format(b.rounds, b.measure_wall))
        _print_ops(b)
    for name, (value, unit) in metrics.items():
        print("metric {:<32} {:>16.6f} {}".format(name, value, unit))
    result = {
        "correct": correct,
        "attempted": b.attempted if b is not None else 0,
        "failed": b.failed if b is not None else 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, env=env,
                      problem=problem)
        if b is not None:
            record["rounds"] = b.rounds
            record["ops"] = {k: {"attempted": e["attempted"],
                                 "failed": e["failed"],
                                 "errors": dict(e["errors"])}
                             for k, e in b.ops.items()}
            record["samples"] = dict(b.samples)
            record["raw_samples"] = dict(b.raw)
            if not args.trace:
                record["raw_metrics"] = end_to_end(b, b.raw)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    if rec is not None and args.spans:
        rec.write_spans(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="append a full JSON record of the run here")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1: write the raw spans (JSONL)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no program source at {} (run from a checkout of the "
              "repository)".format(os.path.join(ROOT, "src")),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
