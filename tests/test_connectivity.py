import itertools
import random
from fractions import Fraction

import pytest

from conftest import c4, random_graph, triangle
from oracles import brute_force_menger_element, brute_force_menger_vertex
from vcsndp.connectivity import (
    ConnectivityQueryResult,
    ElementNetwork,
    element_connectivity_pair,
    fractional_element_mincut,
    verify_vc_solution,
    vertex_connectivity_pair,
)
from vcsndp.errors import BudgetExceededError
from vcsndp.instance import EdgeSolution, Instance
from vcsndp.maxflow import CapacitatedNetwork


def complete_graph(n):
    return Instance(n, tuple(
        (u, v, Fraction(1)) for u in range(n) for v in range(u + 1, n)))


def test_k4_vertex_connectivity():
    k4 = complete_graph(4)
    for s in range(4):
        for t in range(s + 1, 4):
            assert vertex_connectivity_pair(k4, s, t).value == 3


def test_c4_opposite_pair():
    assert vertex_connectivity_pair(c4(), 0, 2).value == 2


def test_same_vertex_rejected():
    with pytest.raises(ValueError):
        vertex_connectivity_pair(c4(), 1, 1)


def test_direct_edges_count_once_each():
    inst = Instance(3, ((0, 1, Fraction(1)), (0, 1, Fraction(1)),
                        (0, 2, Fraction(1)), (2, 1, Fraction(1))))
    assert vertex_connectivity_pair(inst, 0, 1).value == 3


def test_element_triangle_all_terminals():
    assert element_connectivity_pair(
        triangle(), frozenset({0, 1, 2}), 0, 1).value == 2


def test_element_triangle_nonterminal_corner():
    res = element_connectivity_pair(triangle(), frozenset({0, 1}), 0, 1)
    assert res.value == 2
    assert len(res.cut_edges) + len(res.cut_vertices) == 2


def test_element_path_internal_vertex():
    p3 = Instance(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))))
    res = element_connectivity_pair(p3, frozenset({0, 2}), 0, 2)
    assert res.value == 1
    assert res.cut_vertices == {1} or len(res.cut_edges) == 1


def test_element_requires_terminal_endpoints():
    with pytest.raises(ValueError):
        element_connectivity_pair(triangle(), frozenset({0, 1}), 0, 2)


def test_fractional_all_zero():
    res = fractional_element_mincut(
        triangle(), frozenset({0, 1}), 0, 1, {})
    assert res.value == 0
    # witness: the zero-capacity edges incident to the source side
    assert res.cut_edges


def test_fractional_all_one_matches_integral():
    full = {e: Fraction(1) for e in range(3)}
    res = fractional_element_mincut(triangle(), frozenset({0, 1}), 0, 1, full)
    assert res.value == element_connectivity_pair(
        triangle(), frozenset({0, 1}), 0, 1).value


def test_fractional_mixed_cut():
    # enumerated by hand over the eight mixed cuts: best is ({ab}, {c}) or
    # ({ab},{ac}) at value 3/2
    caps = {0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(1)}
    res = fractional_element_mincut(triangle(), frozenset({0, 1}), 0, 1, caps)
    assert res.value == Fraction(3, 2)


def test_fractional_rejects_bad_caps():
    with pytest.raises(ValueError):
        fractional_element_mincut(
            triangle(), frozenset({0, 1}), 0, 1, {0: Fraction(3, 2)})


def fraction_min_cut(inst, terminals, caps, s, t):
    """The element network built afresh on Fraction capacities, one node
    (non-terminals an in/out pair) for every vertex, isolated ones too."""
    net = CapacitatedNetwork()
    node_in = [net.add_node() for _ in range(inst.n)]
    node_out = list(node_in)
    ref = {}
    for w in sorted(set(range(inst.n)) - terminals):
        node_out[w] = net.add_node()
        ref[net.add_arc(node_in[w], node_out[w], Fraction(1))] = ("v", w)
    for e, (u, v, _) in enumerate(inst.edges):
        cap = caps.get(e, Fraction(0))
        ref[net.add_arc(node_out[u], node_in[v], cap)] = ("e", e)
        ref[net.add_arc(node_out[v], node_in[u], cap)] = ("e", e)
    value, cut = net.max_flow(node_in[s], node_in[t])
    return ConnectivityQueryResult(
        value, frozenset(r for kind, r in map(ref.get, cut) if kind == "e"),
        frozenset(r for kind, r in map(ref.get, cut) if kind == "v"))


def test_reused_separation_network_matches_a_fraction_build():
    # one integer-scaled network, reloaded and queried in two pair orders,
    # against a fresh Fraction-capacity network per query; bought edges are
    # capacity-1 entries, as in the LP separation
    rng = random.Random(41)
    for _ in range(25):
        graph = random_graph(rng.randint(4, 8), 0.6, rng)
        inst = Instance(graph.n + 2, graph.edges)  # two isolated vertices
        terminals = frozenset(
            rng.sample(range(inst.n), rng.randint(2, min(5, inst.n))))
        bought = dict.fromkeys(
            (e for e in range(inst.m) if rng.random() < 0.2), Fraction(1))
        pairs = list(itertools.combinations(sorted(terminals), 2))
        network = ElementNetwork(inst, terminals)
        for _ in range(2):
            caps = {}
            for e in range(inst.m):
                den = rng.choice((1, 2, 3, 7, 10**12 - 11))
                caps[e] = Fraction(rng.randint(0, den), den)
            caps |= bought
            want = {(s, t): fraction_min_cut(inst, terminals, caps, s, t)
                    for s, t in pairs}
            for order in (pairs, pairs[::-1]):
                for s, t in order:
                    got = fractional_element_mincut(
                        inst, terminals, s, t, caps, network=network)
                    assert got == want[s, t]


def test_verify_vc_solution_c4():
    inst = c4()
    assert verify_vc_solution(inst, EdgeSolution.of(inst, range(4))).feasible
    partial = verify_vc_solution(inst, EdgeSolution.of(inst, [0, 1, 2]))
    assert not partial.feasible
    assert partial.pairs[0].achieved == 1


def test_verify_empty_requirements_trivially_feasible():
    inst = Instance(3, ((0, 1, Fraction(1)),))
    assert verify_vc_solution(inst, EdgeSolution.of(inst, [])).feasible


def test_brute_force_small_cases():
    assert brute_force_menger_vertex(complete_graph(4), 0, 3) == 3
    p3 = Instance(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))))
    assert brute_force_menger_element(p3, frozenset({0, 2}), 0, 2) == 1


def test_brute_force_budget_guard():
    with pytest.raises(BudgetExceededError):
        brute_force_menger_vertex(complete_graph(8), 0, 7, budget=10)


def test_flow_matches_brute_force_vertex(rng):
    # on every edge and on a random subset, with up to two direct s-t edges
    # beside any the graph already has: each direct edge is one path
    for trial in range(40):
        graph = random_graph(rng.randint(4, 7), 0.45, rng)
        s, t = rng.sample(range(graph.n), 2)
        direct = ((s, t, Fraction(1)),) * rng.randint(0, 2)
        inst = Instance(graph.n, graph.edges + direct)
        for ids in (None, rng.sample(range(inst.m), rng.randint(0, inst.m))):
            assert vertex_connectivity_pair(inst, s, t, ids).value == \
                brute_force_menger_vertex(inst, s, t, ids), (trial, s, t, ids)


def test_flow_matches_brute_force_element(rng):
    for trial in range(20):
        inst = random_graph(rng.randint(4, 7), 0.45, rng)
        terms = frozenset(rng.sample(range(inst.n), rng.randint(2, inst.n)))
        s, t = rng.sample(sorted(terms), 2)
        assert element_connectivity_pair(inst, terms, s, t).value == \
            brute_force_menger_element(inst, terms, s, t), (trial, s, t)


def test_connectivity_ordering(rng):
    # vertex <= element <= edge connectivity on every pair
    for _ in range(15):
        inst = random_graph(6, 0.5, rng)
        terms = frozenset(rng.sample(range(6), 3))
        s, t = rng.sample(sorted(terms), 2)
        vc = vertex_connectivity_pair(inst, s, t).value
        ec = element_connectivity_pair(inst, terms, s, t).value
        # edge connectivity: all vertices terminal, so only edges are elements
        edge_conn = element_connectivity_pair(
            inst, frozenset(range(6)), s, t).value
        assert vc <= ec <= edge_conn


def test_monotone_in_edges(rng):
    for _ in range(10):
        inst = random_graph(6, 0.5, rng)
        if inst.m < 2:
            continue
        s, t = rng.sample(range(6), 2)
        sub = frozenset(rng.sample(range(inst.m), inst.m - 1))
        assert vertex_connectivity_pair(inst, s, t, sub).value <= \
            vertex_connectivity_pair(inst, s, t).value


def test_cut_certified_by_deletion(rng):
    for _ in range(15):
        inst = random_graph(6, 0.5, rng)
        s, t = rng.sample(range(6), 2)
        res = vertex_connectivity_pair(inst, s, t)
        if res.value == 0:
            continue
        remaining = [e for e in range(inst.m) if e not in res.cut_edges]
        survivors = frozenset(range(6)) - res.cut_vertices
        assert s in survivors and t in survivors
        # after deleting the cut, s and t must be separated
        adj = {}
        for e in remaining:
            u, v, _ = inst.edges[e]
            if u in survivors and v in survivors:
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        seen, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert t not in seen


def path_graph(n):
    return Instance(n, tuple((v, v + 1, Fraction(1)) for v in range(n - 1)))


def test_long_path_connectivity():
    # a level graph as deep as the path: max-flow must not recurse per level
    path = path_graph(2000)
    assert vertex_connectivity_pair(path, 0, 1999).value == 1
    assert vertex_connectivity_pair(path, 999, 1000).value == 1
    for terminals in (frozenset({0, 1999}), frozenset({0, 1000, 1999})):
        assert element_connectivity_pair(path, terminals, 0, 1999).value == 1


def test_min_cut_with_a_target_matches_the_full_run():
    # lcm-scaled Fraction capacities: a target at or below the minimum cut
    # value is reached, above it the value and the cut are the full run's
    rng = random.Random(43)
    for _ in range(25):
        inst = random_graph(rng.randint(4, 8), 0.6, rng)
        terminals = frozenset(
            rng.sample(range(inst.n), rng.randint(2, min(5, inst.n))))
        network = ElementNetwork(inst, terminals)
        caps = {}
        for e in range(inst.m):
            den = rng.choice((1, 2, 3, 7, 10**12 - 11))
            caps[e] = Fraction(rng.randint(0, den), den)
        for s, t in itertools.combinations(sorted(terminals), 2):
            full = network.min_cut(s, t, caps)
            for target in range(int(full.value) + 3):
                got = fractional_element_mincut(
                    inst, terminals, s, t, caps, network=network,
                    target=target)
                if full.value >= target:
                    assert full.value >= got.value >= target
                else:
                    assert got == full
            full = element_connectivity_pair(inst, terminals, s, t)
            for target in range(1, int(full.value) + 3):
                got = element_connectivity_pair(
                    inst, terminals, s, t, network=network, target=target)
                if full.value >= target:
                    assert full.value >= got.value >= target
                else:
                    assert got == full
            full = vertex_connectivity_pair(inst, s, t)
            for target in range(1, int(full.value) + 3):
                got = vertex_connectivity_pair(inst, s, t, target=target)
                if full.value >= target:
                    assert full.value >= got.value >= target
                else:
                    assert got == full
