"""``intra-churn``: an intradomain scenario run by ``repro.workload`` on
the event loop — a warm population, Poisson joins, Zipf traffic, no
injected faults.

Writes (joins) interleave with reads on the router index, and the
workload and engine layers do real work.  No interdomain code runs, so
an interdomain change must leave this workload unmoved.

Sessions outlive the run: no host departs in the random churn.  A
departure leaves stale successor pointers behind, and a later join that
meets one at the same router fails with :data:`common.NAMED_FAULT` — on
some seeds, now and then, after graceful leaves and after crashes alike.
Instead every round reproduces that fault once on fixed inputs
(:func:`reproduce_leave_fault`), so the failed share of operations is the
same in every run.
"""

from __future__ import annotations

from checks import (CheckFailed, Graph, check_join_messages, check_path,
                    check_ring_order)
from common import NAMED_FAULT, Bench, clock, scrape, without_perf_counts

N_ROUTERS = 67
TOPOLOGY_SEED = 0
WARM_HOSTS = 1500
#: Virtual-time rates: joins and packets per unit.
ARRIVAL_RATE = 12.0
TRAFFIC_RATE = 100.0
ZIPF = {"kind": "zipf", "exponent": 0.9}
#: Engine events per round, run in chunks with a metrics read after each.
EVENTS_PER_ROUND = 1000
CHUNK = 250
#: Far beyond any round count: no phase ends and no sample falls due.
HORIZON = 1e9


def _scenario(seed: int):
    from repro.workload.scenario import (ChurnSpec, NetworkSpec, Phase,
                                         Scenario, TrafficSpec)
    return Scenario(
        name="intra-churn", seed=seed, duration=HORIZON,
        warmup_hosts=WARM_HOSTS, sample_interval=HORIZON,
        network=NetworkSpec(kind="intra", n_routers=N_ROUTERS,
                            name="intra-churn"),
        phases=[Phase(name="churn", start=0.0, end=HORIZON,
                      churn=ChurnSpec(arrival_rate=ARRIVAL_RATE),
                      traffic=TrafficSpec(rate=TRAFFIC_RATE,
                                          popularity=dict(ZIPF)))])


def reproduce_leave_fault(b: Bench) -> None:
    """The graceful-leave fault on fixed inputs, independent of ``--seed``.

    Three IDs join just after a router's own ID, in reverse order, so the
    first of them holds the third in its successor group; the third
    leaves gracefully, which repairs only its immediate predecessor; a
    join just past the departed ID then meets the stale zero-hop pointer
    at the same router and its predecessor lookup stops with "no
    progress available".  The join is counted as failed; these operations
    are not timed.

    The side network stays out of the per-layer figures of a traced run:
    it is built and joined outside the layer accounting, its counts and
    timings are taken back out of ``repro.util.perf``, and only the leave
    is a span (``intra.mobility.leave``, taking in its nested calls).
    """
    without_perf_counts(_leave_fault_round, b)


def _fault_network():
    from repro.intra.network import IntraDomainNetwork
    from repro.topology.isp import synthetic_isp

    net = IntraDomainNetwork(synthetic_isp(n_routers=10, seed=0,
                                           name="leave-fault"), seed=0)
    router = net.topology.edge_routers()[0]
    return net, router, net.routers[router].router_id.value


def _fault_join(b: Bench, net, router, value: int, name: str) -> None:
    from repro.intra.ring import JoinError, join_with_id

    b.counts["fault_joins"] += 1
    try:
        join_with_id(net, net.space.make(value), router, name)
    except JoinError as exc:
        b.op("join", str(exc))
    else:
        b.op("join")


def _leave_fault_round(b: Bench) -> None:
    net, router, base = b.aside(_fault_network)
    for offset, name in ((3, "c"), (2, "b"), (1, "a")):
        b.aside(_fault_join, b, net, router, base + offset, name)
    b.span("intra.mobility.leave", net.leave_host, "c")
    b.op("leave")
    b.aside(_fault_join, b, net, router, base + 5, "d")


class _RoundLoop:
    """Stands in for the driver's ``loop.run`` so the scenario runs in
    whole rounds of :data:`EVENTS_PER_ROUND` events, with a metrics read
    and a calibration pass after every chunk and the fault reproduction
    after every round."""

    def __init__(self, b: Bench, driver, record: dict, measured: bool):
        self.b = b
        self.driver = driver
        self.record = record
        self.measured = measured

    def __call__(self, until=None, max_events=None) -> int:
        # The driver calls this once, right after its warm-up joins.
        b = self.b
        b.end_setup()
        if not self.measured:
            return 0
        self.record["measuring"] = True
        loop = self.driver.loop
        ran = 0
        b.measuring(True)
        while b.more_rounds():
            for _ in range(EVENTS_PER_ROUND // CHUNK):
                start = clock()
                ran += type(loop).run(loop, max_events=CHUNK)
                scrape(b, self.driver.metrics.perf, self.driver.net.stats)
                elapsed = clock() - start
                b.record("wall", elapsed)
                b.measure_wall += elapsed
                b.tick()
                b.aside(_check_paths, b, self.record)
            reproduce_leave_fault(b)
            b.rounds += 1
        b.measuring(False)
        self.record["events"] = ran
        return ran


def _instrument(b: Bench, net, record: dict) -> None:
    """Time the network calls the driver makes, from outside, by
    shadowing them on this network instance."""
    from repro.intra.ring import JoinError

    join_host, send = net.join_host, net.send

    def timed_join(host, via_router=None):
        t0 = clock()
        try:
            receipt = join_host(host, via_router=via_router)
        except JoinError as exc:
            if record["measuring"]:
                b.op("join", str(exc))
            raise
        elapsed = clock() - t0
        record["ids"][receipt.host_name] = receipt.flat_id.value
        vn = net.hosts[receipt.host_name]
        local = (vn.predecessor.n_hops == 0
                 and vn.primary_successor().n_hops == 0)
        if record["measuring"]:
            b.record("join", elapsed)
            record["messages"].append((receipt.messages, local))
            b.op("join")
        else:
            record["warm_messages"].append((receipt.messages, local))
            b.setup_lap()
        return receipt

    def timed_send(src, dst):
        src_router, dst_router = net.hosts[src].router, net.hosts[dst].router
        t0 = clock()
        result = send(src, dst)
        b.record("send", clock() - t0)
        b.op("send", None if result.delivered else "not delivered")
        record["paths"].append((src_router, dst_router, result.delivered,
                                result.path, result.hops))
        return result

    net.join_host, net.send = timed_join, timed_send


def _check_paths(b: Bench, record: dict) -> None:
    for src, dst, delivered, path, hops in record["paths"]:
        if not delivered:
            continue
        check_path(record["graph"], path, src, dst, hops)
        b.counts["delivered"] += 1
        b.counts["hops"] += hops
    record["paths"].clear()


def _setup(b: Bench, measured: bool):
    """Topology, network and driver; the driver's warm-up joins finish
    the set-up when :meth:`WorkloadDriver.run` reaches its event loop."""
    from repro.intra.network import IntraDomainNetwork
    from repro.topology.isp import synthetic_isp
    from repro.workload.driver import WorkloadDriver

    b.begin_setup()
    topo = synthetic_isp(n_routers=N_ROUTERS, seed=TOPOLOGY_SEED,
                         name="intra-churn")
    net = IntraDomainNetwork(topo, seed=b.seed)
    record = {"measuring": False, "ids": {}, "messages": [],
              "warm_messages": [], "paths": [], "events": 0,
              "graph": Graph(topo.links())}
    _instrument(b, net, record)
    driver = WorkloadDriver(_scenario(b.seed), network=net)
    driver.loop.run = _RoundLoop(b, driver, record, measured)
    return net, record, driver.run()


def execute(b: Bench) -> dict:
    for _ in range(b.setups - 1):
        _setup(b, measured=False)
    net, record, result = _setup(b, measured=True)
    # A packet event whose Zipf draw kept hitting its source is skipped;
    # it is still one attempted operation of the round.
    b.op("send-skipped", count=result.totals["packets_skipped"])
    b.counts["ops_done"] += record["events"]
    b.counts["sends"] += len(b.samples["send"])
    b.layer["sim.engine.events"] = record["events"]
    b.layer["intra.router.cache_hit_ratio"] = net.cache_stats()["hit_rate"]
    return {"net": net, "record": record}


def verify(b: Bench, state: dict) -> None:
    net, record = state["net"], state["record"]
    for messages, local in record["messages"] + record["warm_messages"]:
        check_join_messages(messages, local)
    b.counts["joins"] += len(record["messages"])
    b.counts["join_messages"] += sum(m for m, _ in record["messages"])
    # Live stable IDs: the routers' own IDs plus every joined host, as
    # the benchmark tracked them.
    live = {router.router_id.value: router.default_vn
            for router in net.routers.values()}
    for name, value in record["ids"].items():
        live[value] = net.hosts[name]
    primary = {}
    for value, vn in live.items():
        ptr = vn.primary_successor()
        primary[value] = ptr.dest_id.value if ptr is not None else None
    check_ring_order(primary)
    # Every engine event is one attempted operation.
    recorded = sum(b.ops.get(kind, {}).get("attempted", 0)
                   for kind in ("join", "send", "send-skipped"))
    recorded -= b.counts["fault_joins"]
    if recorded != record["events"]:
        raise CheckFailed("{} engine events but {} operations "
                          "recorded".format(record["events"], recorded))
    # The named fault on a join is the only failure the workload allows.
    for kind, entry in b.ops.items():
        for text in entry["errors"]:
            if kind != "join" or text != NAMED_FAULT:
                raise CheckFailed("unexpected failure: {} {}".format(
                    kind, text))
