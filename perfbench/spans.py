"""Span recording for the traced run.

The traced run installs wrappers from this file around the public entry
points of each layer (plus the few private methods that are the only
place a layer's work can be bracketed, such as the deferred index
flushes).  Each wrapper pushes a frame on one span stack, so a layer's
*self time* is its span's duration minus the time covered by its
directly nested spans.  The program's own ``repro.util.perf`` timers
nest without a parent link and cannot be summed; these spans can.

Nothing under ``src/`` is changed: wrappers replace module attributes
and class attributes for the duration of the run and are removed after.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: Raw span records kept for ``--spans`` output; aggregates are always
#: complete, the record list stops growing past this many spans.
KEEP_SPANS = 200_000


def _route_layer(prefix: str) -> Callable:
    """Layer name of a ``route(net, start, dest, mode=...)`` call."""
    def name(args, kwargs) -> str:
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "data")
        return prefix + mode
    return name


#: (module, attribute path, layer[, distinct-result counter]).  A layer
#: given as a callable picks the name from the call's arguments.  Several
#: targets may share a layer; nested calls of one layer are attributed
#: correctly because every span subtracts its children.  A distinct-result
#: counter counts the different objects a memoising call returned, i.e.
#: how many it built.
TARGETS: List[tuple] = [
    # interdomain
    ("repro.inter.canon", "join_inter", "inter.canon.join"),
    ("repro.inter.routing", "route", _route_layer("inter.routing.")),
    ("repro.inter.fingers", "acquire_fingers", "inter.fingers"),
    ("repro.inter.asnode", "RoflAS.best_match", "inter.asnode.match"),
    ("repro.inter.asnode", "RoflAS._flush_index", "inter.asnode.flush"),
    ("repro.inter.policy", "PolicyView.policy_path", "inter.policy.path"),
    ("repro.inter.bgp", "BgpBaseline.policy_distance", "inter.bgp.distance"),
    ("repro.inter.bgp", "BgpBaseline.routes_to", "inter.bgp.distance",
     "inter.bgp.tables"),
    # intradomain
    ("repro.intra.ring", "join_internal", "intra.ring.join"),
    ("repro.intra.ring", "join_with_id", "intra.ring.join"),
    ("repro.intra.forwarding", "route", _route_layer("intra.forwarding.")),
    ("repro.intra.router", "RoflRouter.best_match", "intra.router.match"),
    ("repro.intra.router", "RoflRouter._flush_index", "intra.router.flush"),
    ("repro.intra.mobility", "leave_host", "intra.mobility.leave"),
    ("repro.linkstate.spf", "PathCache.hop_path", "linkstate.spf"),
    # host identities (key pairs) drawn from the deterministic plan
    ("repro.topology.hosts", "HostPlan.next_host", "topology.hosts.plan"),
    # event engine and workload driver
    ("repro.sim.engine", "EventLoop.run", "sim.engine"),
    ("repro.sim.engine", "EventLoop.step", "sim.engine"),
    ("repro.workload.driver", "WorkloadDriver._arrival", "workload.driver"),
    ("repro.workload.driver", "WorkloadDriver._packet", "workload.driver"),
    # serving, metrics registry and snapshots
    ("repro.serve", "ReproServer.handle_line", "serve.handle"),
    ("repro.util.perf", "snapshot", "util.perf.snapshot"),
    ("repro.util.perf", "PerfRegistry.snapshot", "util.perf.snapshot"),
    ("repro.snapshot", "save", "snapshot.save"),
    ("repro.snapshot.store", "save", "snapshot.save"),
    ("repro.snapshot", "load", "snapshot.load"),
    ("repro.snapshot.store", "load", "snapshot.load"),
    ("repro.snapshot", "state_hash", "snapshot.hash"),
    ("repro.snapshot.store", "state_hash", "snapshot.hash"),
]


class SpanRecorder:
    """One span stack plus per-layer self-time and call aggregates."""

    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: counter name -> {id(result): result}; results are kept alive so
        #: a freed object's id is never counted twice.
        self.distinct: Dict[str, dict] = defaultdict(dict)
        #: ``(span_id, parent_id, name, start, end)``, first ``keep`` spans.
        self.spans: List[tuple] = []
        # Frames are ``[child_seconds, span_id]``.
        self._stack: List[list] = []
        self._next_id = 0
        self._installed: List[tuple] = []
        #: While set, wrappers call straight through (benchmark-side work
        #: such as output checks stays out of the layer accounting).
        self.paused = False

    # -- spans -------------------------------------------------------------

    def wrap(self, layer, fn: Callable,
             distinct: Optional[str] = None) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        keep = self.keep
        clock = time.perf_counter
        recorder = self
        seen = self.distinct[distinct] if distinct is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.paused:
                return fn(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            span_id = recorder._next_id
            recorder._next_id = span_id + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if seen is not None:
                    seen[id(result)] = result
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if len(spans) < keep:
                    spans.append((span_id, parent, name, start, end))

        return wrapper

    def run_root(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a root span; its self time is everything no
        layer span covers (the ``unattributed_s`` bucket)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def opaque(self, name: str, fn: Callable, *args):
        """Run ``fn`` as one span ``name`` with no spans nested in it: the
        wrapped calls it makes count in its self time."""
        def call():
            self.paused = True
            try:
                return fn(*args)
            finally:
                self.paused = False
        return self.wrap(name, call)()

    @property
    def depth(self) -> int:
        """Open spans, the root included."""
        return len(self._stack)

    # -- installation --------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, path, layer, *distinct in targets:
            owner = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(layer, original, *distinct))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

