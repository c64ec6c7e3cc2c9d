"""Output checkers.

Each check compares a program output with a computation the benchmark
makes itself (breadth-first distances, sorted identifier rings), or with
a property the method must have.  They take plain data so the tests can
feed them broken inputs.

Two things are deliberately *not* checked, because ROFL allows them:

* an interdomain path may be shorter than the BGP policy distance —
  Gao-Rexford prefers customer routes over shorter ones, and a pointer
  may take the shorter way;
* an interdomain path need not be valley-free end to end — it joins
  several pointer segments, and each segment is policy-routed on its own.

The lower bound on an interdomain path is therefore the unrestricted
AS-graph distance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


class Graph:
    """Undirected adjacency with memoised breadth-first distances."""

    def __init__(self, edges: Iterable[Tuple[Hashable, Hashable]]):
        self.adj: Dict[Hashable, set] = defaultdict(set)
        for a, b in edges:
            self.adj[a].add(b)
            self.adj[b].add(a)
        self._dist: Dict[Hashable, Dict[Hashable, int]] = {}

    def distance(self, src: Hashable, dst: Hashable) -> Optional[int]:
        dist = self._dist.get(src)
        if dist is None:
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for node in frontier:
                    for peer in self.adj[node]:
                        if peer not in dist:
                            dist[peer] = dist[node] + 1
                            nxt.append(peer)
                frontier = nxt
            self._dist[src] = dist
        return dist.get(dst)


def check_path(graph: Graph, path: Sequence[Hashable], src: Hashable,
               dst: Hashable, hops: int) -> None:
    """A delivered path walks the topology from the source's attachment
    to the destination's and is no shorter than the BFS distance."""
    if not path:
        raise CheckFailed("empty path")
    if path[0] != src:
        raise CheckFailed("path starts at {!r}, not at the source's "
                          "attachment {!r}".format(path[0], src))
    if path[-1] != dst:
        raise CheckFailed("path ends at {!r}, not at the destination's "
                          "attachment {!r}".format(path[-1], dst))
    for a, b in zip(path, path[1:]):
        if b not in graph.adj[a]:
            raise CheckFailed("hop {!r} -> {!r} is not a link".format(a, b))
    if hops != len(path) - 1:
        raise CheckFailed("hops {} but the path has {} links".format(
            hops, len(path) - 1))
    check_distance_bound(graph, src, dst, hops)


def check_distance_bound(graph: Graph, src: Hashable, dst: Hashable,
                         hops: int) -> None:
    shortest = graph.distance(src, dst)
    if shortest is None:
        raise CheckFailed("{!r} cannot reach {!r}".format(src, dst))
    if hops < shortest:
        raise CheckFailed("{} hops from {!r} to {!r} is below the BFS "
                          "distance {}".format(hops, src, dst, shortest))


def check_merged_ring(successors: Dict[int, List[int]], modulus: int) -> None:
    """Interdomain merged ring: each joined ID's successor — the
    clockwise-closest target among its successor pointers at all levels,
    restricted to joined IDs — is the next joined ID in sorted order."""
    ids = sorted(successors)
    joined = set(ids)
    for i, vid in enumerate(ids):
        expected = ids[(i + 1) % len(ids)]
        targets = [t for t in successors[vid] if t in joined and t != vid]
        if not targets:
            raise CheckFailed("ID {:x} holds no successor among the joined "
                              "IDs".format(vid))
        got = min(targets, key=lambda t: (t - vid) % modulus)
        if got != expected:
            raise CheckFailed("ring successor of {:x} is {:x}, expected "
                              "{:x}".format(vid, got, expected))


def check_ring_order(primary: Dict[int, Optional[int]]) -> None:
    """Intradomain ring: each live ID's primary successor is the next
    live ID in sorted order."""
    ids = sorted(primary)
    for i, vid in enumerate(ids):
        expected = ids[(i + 1) % len(ids)]
        if primary[vid] != expected:
            raise CheckFailed("primary successor of {:x} is {}, expected "
                              "{:x}".format(vid, "none" if primary[vid] is None
                                            else "{:x}".format(primary[vid]),
                                            expected))


def check_join_messages(messages: int, neighbours_local: bool = False) -> None:
    """A join costs network messages, unless its predecessor and
    successor are hosted at the joining router itself."""
    if messages < 0 or (messages == 0 and not neighbours_local):
        raise CheckFailed("a join reported {} messages".format(messages))


def check_reply(request: Dict, reply: Dict) -> None:
    """A serve reply is well-formed for its request."""
    if not isinstance(reply, dict):
        raise CheckFailed("reply is not an object: {!r}".format(reply))
    if reply.get("ok") is not True:
        raise CheckFailed("request {!r} failed: {!r}".format(
            request, reply.get("error")))
    if reply.get("op") != request["op"] or reply.get("id") != request["id"]:
        raise CheckFailed("reply {!r} does not echo request {!r}".format(
            reply, request))
    op = request["op"]
    if op == "route":
        for key in ("delivered", "hops", "path"):
            if key not in reply:
                raise CheckFailed("route reply lacks {!r}".format(key))
    elif op == "send":
        if reply.get("sent") != request["n"] or \
                reply.get("delivered") != reply.get("sent"):
            raise CheckFailed("send reply {!r} for n={}".format(
                reply, request["n"]))
    elif op == "join":
        if reply.get("joined") != request["n"] or \
                len(reply.get("hosts", ())) != request["n"]:
            raise CheckFailed("join reply {!r} for n={}".format(
                reply, request["n"]))
    elif op == "metrics":
        for key in ("stats", "perf", "latency", "requests_served"):
            if key not in reply:
                raise CheckFailed("metrics reply lacks {!r}".format(key))


def check_snapshot(saved: str, loaded: str) -> None:
    if saved != loaded:
        raise CheckFailed("loaded snapshot hashes {}, save returned "
                          "{}".format(loaded, saved))
