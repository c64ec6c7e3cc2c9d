"""``serve-inter``: a resident ``ReproServer`` over an interdomain network,
answering one closed-loop client.

Set-up builds the network, saves a snapshot and loads it back; the server
holds the loaded copy.  The client sends JSON lines through
``ReproServer.handle_line`` — the entry point every transport calls — so
no socket or pipe is crossed.  Each round is a fixed mix: mostly
``route`` for benchmark-chosen pairs, plus batched ``send``, single-host
``join`` and one ``metrics`` scrape.  Single joins interleave with reads
on the same per-AS index; the scrape's cost grows with the server's
latency histograms.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from checks import (CheckFailed, Graph, check_join_messages, check_path,
                    check_reply, check_snapshot)
from common import Bench, clock
from inter_build import build_network

#: The network is inter-build's (same AS hierarchy, strategy and fingers).
INITIAL_HOSTS = 1500
#: One round: this many requests of each op, shuffled per round.
ROUND_MIX = (("route", 93), ("send", 4), ("join", 2), ("metrics", 1))
SEND_BATCH = 10
#: Snapshots are written here, inside the checkout, and removed after.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def _setup(b: Bench, path: str):
    from repro import snapshot
    from repro.serve import ReproServer

    b.begin_setup()
    net = build_network(b.seed)
    for _ in range(INITIAL_HOSTS):
        net.join_random_hosts(1)
        b.setup_lap()
    digest = snapshot.save(net, path)
    b.setup_lap()
    loaded = snapshot.load(path)
    b.end_setup()
    b.layer["snapshot.bytes"] = os.path.getsize(path)
    return ReproServer(loaded), digest


def execute(b: Bench) -> None:
    from repro import snapshot

    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, "serve-inter-{}.snap".format(os.getpid()))
    try:
        for _ in range(b.setups):
            server, digest = _setup(b, path)
    finally:
        os.remove(path)
        if not os.listdir(WORK_DIR):
            shutil.rmtree(WORK_DIR)
    # The round trip is checked before any request changes the state.
    check_snapshot(digest, b.aside(snapshot.state_hash, server.net))

    rng = random.Random(b.seed)
    names = list(server.net.hosts.names)
    kinds = [op for op, count in ROUND_MIX for _ in range(count)]
    graph = Graph((str(a), str(c)) for a, c, _ in server.net.asg.links())
    request_id = 0
    join_messages = server.net.stats.messages
    b.measuring(True)
    while b.more_rounds():
        rng.shuffle(kinds)
        exchanges = []
        start = clock()
        for op in kinds:
            request_id += 1
            request = {"op": op, "id": request_id}
            if op == "route":
                request["src"], request["dst"] = rng.sample(names, 2)
            elif op in ("send", "join"):
                request["n"] = SEND_BATCH if op == "send" else 1
            line = json.dumps(request)
            before = join_messages["join"]
            t0 = clock()
            reply_line = server.handle_line(line)
            elapsed = clock() - t0
            reply = json.loads(reply_line)
            if op == "route":
                b.record("send", elapsed)
                b.counts["sends"] += 1
            elif op == "send":
                b.record("send_batch", elapsed)
                b.counts["sends"] += SEND_BATCH
            elif op == "join":
                b.record("join", elapsed)
                names.extend(reply.get("hosts", ()))
            else:
                b.record("scrape", elapsed)
            error = reply.get("error")
            if op == "route" and reply.get("delivered") is False:
                error = "not delivered"
            b.op(op, error)
            exchanges.append((request, reply, join_messages["join"] - before))
        elapsed = clock() - start
        b.record("wall", elapsed)
        b.measure_wall += elapsed
        b.tick()
        b.rounds += 1
        b.counts["ops_done"] += len(exchanges)
        b.aside(_check_round, b, server.net, graph, exchanges)
    b.measuring(False)


def _check_round(b: Bench, net, graph: Graph, exchanges: list) -> None:
    for request, reply, messages in exchanges:
        if not reply.get("ok") or reply.get("delivered") is False:
            raise CheckFailed("request {} failed: {}".format(
                json.dumps(request), reply.get("error", "not delivered")))
        check_reply(request, reply)
        if request["op"] == "join":
            check_join_messages(messages)
            b.counts["joins"] += 1
            b.counts["join_messages"] += messages
        if request["op"] != "route":
            continue
        src = str(net.hosts[request["src"]].home_as)
        dst = str(net.hosts[request["dst"]].home_as)
        check_path(graph, reply["path"], src, dst, reply["hops"])
        b.counts["delivered"] += 1
        b.counts["hops"] += reply["hops"]


def verify(b: Bench, state) -> None:
    """Every round was checked as it finished (see :func:`_check_round`)."""
