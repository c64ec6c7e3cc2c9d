"""The output checkers reject broken outputs and accept what ROFL allows.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import (CheckFailed, Graph, check_distance_bound,  # noqa: E402
                    check_join_messages, check_merged_ring, check_path,
                    check_reply, check_ring_order, check_snapshot)

# a - b - c - d, plus the chord b - d
LINE = Graph([("a", "b"), ("b", "c"), ("c", "d"), ("b", "d")])


def test_valid_path_accepted():
    check_path(LINE, ["a", "b", "c", "d"], "a", "d", 3)
    check_path(LINE, ["a", "b", "d"], "a", "d", 2)


def test_non_adjacent_hop_rejected():
    with pytest.raises(CheckFailed, match="not a link"):
        check_path(LINE, ["a", "c", "d"], "a", "d", 2)


def test_path_ending_at_wrong_attachment_rejected():
    with pytest.raises(CheckFailed, match="ends at"):
        check_path(LINE, ["a", "b", "c"], "a", "d", 2)
    with pytest.raises(CheckFailed, match="starts at"):
        check_path(LINE, ["b", "c", "d"], "a", "d", 2)


def test_hop_count_must_match_path():
    with pytest.raises(CheckFailed, match="links"):
        check_path(LINE, ["a", "b", "c", "d"], "a", "d", 2)


def test_hops_below_bfs_bound_rejected():
    with pytest.raises(CheckFailed, match="below the BFS distance"):
        check_distance_bound(LINE, "a", "d", 1)
    check_distance_bound(LINE, "a", "d", 2)


def test_swapped_ring_successor_rejected():
    primary = {10: 20, 20: 30, 30: 40, 40: 10}
    check_ring_order(primary)
    with pytest.raises(CheckFailed, match="primary successor of a is 1e"):
        check_ring_order({10: 30, 20: 30, 30: 40, 40: 10})
    with pytest.raises(CheckFailed):
        check_ring_order({10: 20, 20: 40, 30: 20, 40: 10})


def test_merged_ring_uses_closest_joined_target_at_any_level():
    modulus = 1 << 8
    # 10's top-level pointer skips 20, but its inner-level pointer holds
    # it; 99 is not a joined ID and is ignored.
    successors = {10: [30, 20, 99], 20: [30], 30: [10]}
    check_merged_ring(successors, modulus)
    with pytest.raises(CheckFailed, match="ring successor of a"):
        check_merged_ring({10: [30], 20: [30], 30: [10]}, modulus)
    with pytest.raises(CheckFailed, match="no successor"):
        check_merged_ring({10: [99], 20: [30], 30: [10]}, modulus)


def test_zero_message_join_rejected_unless_neighbours_are_local():
    check_join_messages(1)
    check_join_messages(0, neighbours_local=True)
    with pytest.raises(CheckFailed):
        check_join_messages(0)


def test_serve_replies():
    send = {"op": "send", "id": 3, "n": 10}
    check_reply(send, {"ok": True, "op": "send", "id": 3, "sent": 10,
                       "delivered": 10})
    with pytest.raises(CheckFailed, match="send reply"):
        check_reply(send, {"ok": True, "op": "send", "id": 3, "sent": 10,
                           "delivered": 9})
    with pytest.raises(CheckFailed, match="does not echo"):
        check_reply(send, {"ok": True, "op": "send", "id": 4, "sent": 10,
                           "delivered": 10})
    with pytest.raises(CheckFailed, match="lacks"):
        check_reply({"op": "route", "id": 1}, {"ok": True, "op": "route",
                                               "id": 1, "hops": 2})


def test_snapshot_round_trip():
    check_snapshot("ab", "ab")
    with pytest.raises(CheckFailed):
        check_snapshot("ab", "ac")


def _as_graph():
    """S and Q are peering tier-1s; C1 -> C2 -> D is a customer chain
    under S, D also buys transit from Q, and S peers with D directly."""
    from repro.topology.asgraph import ASGraph
    asg = ASGraph()
    for asn in ("S", "C1", "C2", "D", "Q"):
        asg.add_as(asn)
    asg.add_customer_provider("C1", "S")
    asg.add_customer_provider("C2", "C1")
    asg.add_customer_provider("D", "C2")
    asg.add_customer_provider("D", "Q")
    asg.add_peering("S", "Q")
    asg.add_peering("S", "D")
    return asg


def test_path_shorter_than_bgp_policy_distance_accepted():
    from repro.inter.bgp import BgpBaseline
    asg = _as_graph()
    # Gao-Rexford: S prefers the 3-hop customer route over the peer link.
    assert BgpBaseline(asg).policy_distance("S", "D") == 3
    graph = Graph((a, b) for a, b, _ in asg.links())
    check_path(graph, ["S", "D"], "S", "D", 1)


def test_path_that_is_not_valley_free_accepted():
    from repro.inter.policy import PolicyView
    asg = _as_graph()
    # Down from Q to its customer D, then up again to C2: a valley, as
    # when two policy-routed pointer segments are joined at D.
    path = ["Q", "D", "C2"]
    assert not PolicyView(asg).route_is_valley_free(path)
    graph = Graph((a, b) for a, b, _ in asg.links())
    check_path(graph, path, "Q", "C2", 2)
