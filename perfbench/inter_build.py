"""``inter-build``: a join storm over the synthetic 100-AS hierarchy
(multihomed joins, 8 fingers), then a long random-pair send phase.

Join time goes to level joins, lookups, finger selection and the per-AS
ring-index upkeep; the send phase reads that index without writing it.
Every round builds a fresh network, so every round does the same work.
"""

from __future__ import annotations

import random

from checks import (CheckFailed, Graph, check_join_messages,
                    check_merged_ring, check_path)
from common import TICK_S, Bench, clock, scrape

#: The AS hierarchy is part of the workload; ``--seed`` draws the hosts
#: (identities, home ASes, join order) and the send pairs.
N_ASES = 100
TOPOLOGY_SEED = 0
N_FINGERS = 8
HOSTS_PER_ROUND = 2500
SENDS_PER_ROUND = 16000
#: One metrics-registry read per this many operations.
SCRAPE_EVERY = 500


def build_network(seed: int):
    from repro.inter.network import InterDomainNetwork
    from repro.inter.policy import JoinStrategy
    from repro.topology.asgraph import synthetic_as_graph
    asg = synthetic_as_graph(n_ases=N_ASES, seed=TOPOLOGY_SEED)
    return InterDomainNetwork(asg, n_fingers=N_FINGERS, seed=seed,
                              strategy=JoinStrategy.MULTIHOMED)


def _timed_build(b: Bench, seed: int):
    b.begin_setup()
    net = build_network(seed)
    b.end_setup()
    return net


def _phase(b: Bench, net, calls, kind: str) -> list:
    """Time each call, calibrating every :data:`common.TICK_S`."""
    results = []
    b.measuring(True)
    chunk_start = clock()
    for fn, args in calls:
        t0 = clock()
        results.append(fn(*args))
        t1 = clock()
        b.record(kind, t1 - t0)
        if len(results) % SCRAPE_EVERY == 0:
            scrape(b, net.stats)
            t1 = clock()
        if t1 - chunk_start >= TICK_S or len(results) == len(calls):
            b.record("wall", t1 - chunk_start)
            b.measure_wall += t1 - chunk_start
            b.tick()
            chunk_start = clock()
    b.measuring(False)
    return results


def _round(b: Bench, seed: int) -> None:
    net = _timed_build(b, seed)
    rng = random.Random(seed)
    hosts = [net.next_planned_host() for _ in range(HOSTS_PER_ROUND)]
    receipts = _phase(b, net, [(net.join_host, (h,)) for h in hosts], "join")
    # Deferred index upkeep the storm left behind is join cost.
    t0 = clock()
    net.flush_indexes()
    elapsed = clock() - t0
    b.record("join_settle", elapsed)
    b.record("wall", elapsed)
    b.measure_wall += elapsed
    names = [r.host_name for r in receipts]
    pairs = [tuple(rng.sample(names, 2)) for _ in range(SENDS_PER_ROUND)]
    results = _phase(b, net, [(net.send, pair) for pair in pairs], "send")
    b.op("join", count=len(receipts))
    for result in results:
        b.op("send", None if result.delivered else "not delivered")
    b.counts["ops_done"] += len(receipts) + len(results)
    b.counts["sends"] += len(results)
    b.aside(_check_round, b, net, receipts, pairs, results)


def _check_round(b: Bench, net, receipts, pairs, results) -> None:
    """Checks one round while its network is alive, outside the measured
    time, so only one network is resident at a time."""
    graph = Graph((a, c) for a, c, _ in net.asg.links())
    home = {r.host_name: r.home_as for r in receipts}
    successors = {}
    for r in receipts:
        check_join_messages(r.messages)
        b.counts["joins"] += 1
        b.counts["join_messages"] += r.messages
        vn = net.hosts[r.host_name]
        successors[vn.id.value] = [p.dest_id.value
                                   for p in vn.succ_by_level.values()]
    check_merged_ring(successors, net.space.size)
    for (src, dst), result in zip(pairs, results):
        if not result.delivered:
            raise CheckFailed("send {} -> {} not delivered".format(src, dst))
        check_path(graph, result.path, home[src], home[dst], result.hops)
        b.counts["delivered"] += 1
        b.counts["hops"] += result.hops


def execute(b: Bench) -> None:
    for extra in range(b.setups - 1):
        _timed_build(b, b.seed * 1000 + 999 - extra)
    while b.more_rounds():
        _round(b, b.seed * 1000 + b.rounds)
        b.rounds += 1


def verify(b: Bench, state) -> None:
    """Every round was checked as it finished (see :func:`_check_round`)."""
