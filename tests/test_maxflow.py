import random
from fractions import Fraction

import pytest

from oracles import brute_force_min_cut
from vcsndp.maxflow import CapacitatedNetwork


def build(arcs, nodes):
    net = CapacitatedNetwork()
    ids = [net.add_node() for _ in range(nodes)]
    for tail, head, cap in arcs:
        net.add_arc(ids[tail], ids[head], cap)
    return net, ids


def test_parallel_unit_arcs():
    net, ids = build([(0, 1, 1), (0, 1, 1)], 2)
    value, cut = net.max_flow(ids[0], ids[1])
    assert value == 2
    assert len(cut) == 2


def test_single_path():
    net, ids = build([(0, 1, 1), (1, 2, 1)], 3)
    value, cut = net.max_flow(ids[0], ids[2])
    assert value == 1
    assert len(cut) == 1


def test_diamond_value_two():
    # hand-enumerated: cuts {sa,sb}=3, {at,bt}=3, {sa,bt}=2, {sb,at}=4,
    # {sa,ab,bt}... minimum is 2 via {s->a, b->t}
    net, ids = build(
        [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1), (1, 2, 1)], 4)
    value, cut = net.max_flow(ids[0], ids[3])
    assert value == 2


def test_disconnected_is_zero():
    net, ids = build([(0, 1, 1)], 3)
    value, cut = net.max_flow(ids[0], ids[2])
    assert value == 0
    assert cut == []


def test_fractional_capacities_exact():
    net, ids = build([(0, 1, Fraction(1, 3)), (0, 1, Fraction(1, 6))], 2)
    value, _ = net.max_flow(ids[0], ids[1])
    assert value == Fraction(1, 2)


def test_cut_is_certified():
    # removing the returned cut arcs must disconnect the pair
    net, ids = build(
        [(0, 1, 3), (0, 2, 1), (1, 3, 1), (2, 3, 2), (1, 2, 1)], 4)
    value, cut = net.max_flow(ids[0], ids[3])
    assert value == sum(net.orig[aid] for aid in cut)
    blocked = set(cut)
    # BFS over forward arcs minus the cut
    seen = {ids[0]}
    stack = [ids[0]]
    while stack:
        u = stack.pop()
        for aid in net.adj[u]:
            if aid % 2 == 0 and aid not in blocked and net.orig[aid] > 0:
                v = net.heads[aid]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    assert ids[3] not in seen


def test_bad_arcs_rejected():
    net = CapacitatedNetwork()
    a, b = net.add_node(), net.add_node()
    with pytest.raises(ValueError):
        net.add_arc(a, a, 1)
    with pytest.raises(ValueError):
        net.add_arc(a, b, -1)
    with pytest.raises(ValueError):
        net.max_flow(a, a)


def test_max_flow_with_a_target_matches_the_full_run():
    # every target from 0 to past the maximum: at or below the maximum the
    # early-exit run reaches the target, above it the run is the full one
    rng = random.Random(23)
    for _ in range(60):
        nodes = rng.randint(2, 8)
        arcs = [(u, v, rng.randint(0, 4))
                for u in range(nodes) for v in range(nodes)
                if u != v and rng.random() < 0.4]
        net, ids = build(arcs, nodes)
        s, t = rng.sample(ids, 2)
        value, cut = net.max_flow(s, t)
        for target in range(value + 3):
            got, got_cut = net.max_flow(s, t, target)
            if target <= value:
                assert got >= target
                assert got <= value
            else:
                assert (got, got_cut) == (value, cut)


def test_cut_is_the_smallest_minimum_side_by_enumeration():
    # the LP rows come from the cut's arcs, so not just any minimum cut
    # will do: it must be the forward arcs out of the residual-reachable
    # side, zero-capacity arcs included, which is the smallest minimum side
    rng = random.Random(59)
    ints = range(4)
    fractions = [Fraction(a, b) for a in range(7) for b in range(1, 5)]
    for trial in range(200):
        nodes = rng.randint(2, 7)
        caps = fractions if trial % 2 else ints
        arcs = [(u, v, rng.choice(caps)) for u in range(nodes)
                for v in range(nodes) if u != v
                for _ in range(rng.choice((0, 0, 1, 1, 2)))]
        s, t = rng.sample(range(nodes), 2)
        net, ids = build(arcs, nodes)
        value, cut = net.max_flow(ids[s], ids[t])
        assert (value, [aid // 2 for aid in cut]) == brute_force_min_cut(
            nodes, arcs, s, t)
