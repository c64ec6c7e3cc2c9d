"""Shared pieces of the workloads: the per-run recorder, percentiles,
the end-to-end metric set and the environment stamp."""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

clock = time.perf_counter

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Error text of the graceful-leave fault every ``intra-churn`` round
#: reproduces (see ``intra_churn.reproduce_leave_fault``).
NAMED_FAULT = "predecessor lookup failed: no progress available"

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_rate": ("ops/s", "higher"),
    "join_rate": ("joins/s", "higher"),
    "join_p50_ms": ("ms", "lower"),
    "join_p99_ms": ("ms", "lower"),
    "send_rate": ("sends/s", "higher"),
    "send_p50_us": ("us", "lower"),
    "send_p99_us": ("us", "lower"),
    "scrape_p50_ms": ("ms", "lower"),
    "join_msgs_per_host": ("messages", "lower"),
    "hops_per_send": ("hops", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


#: Nominal seconds of one :func:`calibration_pass`.  Every timing is
#: scaled by ``REFERENCE_S / (calibration time measured around it)``, so
#: the metrics read as on a box that runs the pass in exactly this long
#: (about its typical time on the 2-CPU box the README's figures come
#: from, where it drifted between 1.0 and 1.9 ms).
REFERENCE_S = 0.0015
#: Measured seconds between two calibrations.
TICK_S = 0.05
#: While a measured phase runs, the cyclic garbage collector is off and
#: is run by hand at ticks instead: ``(every n-th tick, generation)``,
#: first match wins — about the cadence its default thresholds give.
GC_SCHEDULE = ((80, 2), (6, 1), (1, 0))


def calibration_pass() -> float:
    """Time a fixed piece of interpreter work (dict updates, integer
    arithmetic) that no program change can speed up."""
    t0 = clock()
    table: Dict[int, int] = {}
    total = 0
    for i in range(8000):
        key = i & 127
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return clock() - t0


class Bench:
    """Everything one workload execution records.

    Timings go in through :meth:`record` and are scaled to the reference
    speed at the next :meth:`tick`, from the calibration passes before
    and after them (the box's speed drifts by a fifth over seconds).
    ``samples`` holds the scaled per-operation seconds (``join``,
    ``send``, ``scrape``, ...), ``raw`` the unscaled ones; ``ops`` counts
    attempted and failed operations per kind, with the error texts.
    """

    def __init__(self, seed: int, seconds: float, setups: int,
                 max_rounds: Optional[int] = None, recorder=None):
        self.seed = seed
        self.seconds = seconds
        self.setups = setups
        #: Fixed round count instead of the time bound (the untraced
        #: replay a traced run is compared against).
        self.max_rounds = max_rounds
        self.rounds = 0
        #: Unscaled seconds of the measured phase (checks, calibration and
        #: set-up excluded).
        self.measure_wall = 0.0
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.raw: Dict[str, List[float]] = defaultdict(list)
        self.ops: Dict[str, Dict] = {}
        self.counts: Counter = Counter()
        #: Per-layer figures the workload reads off the program after a
        #: run (cache hit ratios, snapshot sizes, engine event counts).
        self.layer: Dict[str, float] = {}
        #: The traced run's :class:`spans.SpanRecorder`, else ``None``.
        self.recorder = recorder
        #: Seconds spent in :meth:`aside` during the execution.
        self.aside_s = 0.0
        self._pending: Dict[str, List[float]] = defaultdict(list)
        self._last_pass = self._calibrate()
        self._setup_from = 0
        self._lap_start = 0.0
        self._manual_gc = False
        self._gc_ticks = 0

    def aside(self, fn, *args):
        """Run benchmark-side work (check summaries, the round-trip hash,
        calibration) outside the layer accounting of a traced run.

        Its time is taken out of the root span only, so an aside inside a
        layer span would inflate that layer: that fails the run."""
        t0 = clock()
        if self.recorder is not None:
            if self.recorder.depth > 1:
                from checks import CheckFailed
                raise CheckFailed("benchmark-side work inside a layer span")
            self.recorder.paused = True
        try:
            return fn(*args)
        finally:
            if self.recorder is not None:
                self.recorder.paused = False
            self.aside_s += clock() - t0

    def span(self, name: str, fn, *args):
        """Call ``fn``; in a traced run, as one layer span ``name`` that
        takes in all the wrapped calls it makes."""
        if self.recorder is None:
            return fn(*args)
        return self.recorder.opaque(name, fn, *args)

    def record(self, kind: str, seconds: float) -> None:
        self._pending[kind].append(seconds)

    def _calibrate(self) -> float:
        """The faster of two passes: an interrupt only ever slows one."""
        return min(self.aside(calibration_pass), self.aside(calibration_pass))

    def tick(self) -> None:
        """Calibrate, and scale the timings recorded since the last tick."""
        this_pass = self._calibrate()
        factor = REFERENCE_S / ((self._last_pass + this_pass) / 2)
        self._last_pass = this_pass
        for kind, values in self._pending.items():
            self.raw[kind].extend(values)
            self.samples[kind].extend(v * factor for v in values)
        self._pending.clear()
        if self._manual_gc:
            self._gc_ticks += 1
            generation = next(g for every, g in GC_SCHEDULE
                              if self._gc_ticks % every == 0)
            t0 = clock()
            gc.collect(generation)
            elapsed = clock() - t0
            # Collector time is measured time (it counts in op_rate) but
            # no single operation's latency.
            self.record("wall", elapsed)
            self.measure_wall += elapsed

    def measuring(self, on: bool) -> None:
        """Enter (``True``) or leave a measured phase.  Inside one the
        collector runs only at ticks, so a collection never lands inside
        a timed operation."""
        self._manual_gc = on
        if on:
            gc.disable()
        else:
            gc.enable()

    def begin_setup(self) -> None:
        self.tick()
        self._setup_from = len(self.samples["setup_step"])
        self._lap_start = clock()

    def setup_lap(self, force: bool = False) -> None:
        """Close a set-up step once :data:`TICK_S` has passed, so long
        set-ups are scaled piece by piece."""
        now = clock()
        if force or now - self._lap_start >= TICK_S:
            self.record("setup_step", now - self._lap_start)
            self.tick()
            self._lap_start = clock()

    def end_setup(self) -> None:
        """Record the scaled (and unscaled) total of this set-up."""
        self.setup_lap(force=True)
        start = self._setup_from
        self.samples["setup"].append(sum(self.samples["setup_step"][start:]))
        self.raw["setup"].append(sum(self.raw["setup_step"][start:]))

    def more_rounds(self) -> bool:
        """Whether to start another round.  The time bound applies to the
        scaled measured time, so a run does about as many rounds on a slow
        stretch of the box as on a fast one."""
        if self.max_rounds is not None:
            return self.rounds < self.max_rounds
        return sum(self.samples["wall"]) < self.seconds

    def op(self, kind: str, error: Optional[str] = None,
           count: int = 1) -> None:
        entry = self.ops.setdefault(kind, {"attempted": 0, "failed": 0,
                                           "errors": Counter()})
        entry["attempted"] += count
        if error is not None:
            entry["failed"] += count
            entry["errors"][error] += count

    @property
    def attempted(self) -> int:
        return sum(e["attempted"] for e in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(e["failed"] for e in self.ops.values())


def scrape(b: Bench, *registries) -> None:
    """One timed metrics read: the global ``repro.util.perf`` registry
    plus the given registries or stats collectors."""
    from repro.util import perf
    t0 = clock()
    perf.snapshot()
    for registry in registries:
        registry.snapshot()
    b.record("scrape", clock() - t0)
    b.op("scrape")
    b.counts["ops_done"] += 1


def perf_counts() -> Dict:
    """A copy of the global ``repro.util.perf`` counters and timers, and
    its histograms' total sample count."""
    from repro.util import perf
    return {"counters": dict(perf.PERF.counters),
            "timers": {k: list(v) for k, v in perf.PERF.timers.items()},
            "histogram_samples": sum(
                len(h) for h in perf.PERF.histograms.values())}


def without_perf_counts(fn, *args):
    """Call ``fn`` and take the counts and timings it added to the global
    ``repro.util.perf`` registry back out (it adds no histogram samples:
    the benchmark's side networks do not snapshot or serve)."""
    from repro.util import perf
    saved = perf_counts()
    try:
        return fn(*args)
    finally:
        perf.PERF.counters.clear()
        perf.PERF.counters.update(saved["counters"])
        perf.PERF.timers.clear()
        perf.PERF.timers.update(saved["timers"])


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(b: Bench, samples: Dict[str, List[float]]) -> Dict[str, float]:
    """The end-to-end metric values of one untraced execution, from
    ``b.samples`` or, for the record, from ``b.raw``."""
    join, send, scrape = samples["join"], samples["send"], samples["scrape"]
    send_s = sum(send) + sum(samples["send_batch"])
    return {
        "setup_s": statistics.median(samples["setup"]),
        "op_rate": b.counts["ops_done"] / sum(samples["wall"]),
        "join_rate": len(join) / (sum(join) + sum(samples["join_settle"])),
        "join_p50_ms": percentile(join, 0.50) * 1e3,
        "join_p99_ms": percentile(join, 0.99) * 1e3,
        "send_rate": b.counts["sends"] / send_s,
        "send_p50_us": percentile(send, 0.50) * 1e6,
        "send_p99_us": percentile(send, 0.99) * 1e6,
        "scrape_p50_ms": percentile(scrape, 0.50) * 1e3,
        "join_msgs_per_host": b.counts["join_messages"] / b.counts["joins"],
        "hops_per_send": b.counts["hops"] / b.counts["delivered"],
        "peak_rss_mb": peak_rss_mb(),
    }


def _git_sha(root: str) -> Optional[str]:
    if not os.path.exists(os.path.join(root, ".git")):
        return None  # an exported tree; never report an enclosing repo's sha
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: str, seed: int) -> Dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
        "numpy": numpy_version,
        "seed": seed,
        "platform": platform.platform(),
    }
