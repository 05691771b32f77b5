"""Independent test oracles, kept out of the library: brute-force Menger
connectivity by removal enumeration, minimum cuts of small directed
networks by source-side enumeration, and a family's subsets T_i listed
from its draws. Only viable at desk scale."""

import itertools
from typing import Iterable

from vcsndp.errors import BudgetExceededError
from vcsndp.family import TerminalFamily
from vcsndp.instance import Instance

_DEFAULT_ENUM_BUDGET = 1 << 20


def subsets_of(family: TerminalFamily) -> dict[int, frozenset[int]]:
    """T_i = {t | i in phi(t)} for i = 1..p."""
    out: dict[int, set[int]] = {
        i: set() for i in range(1, family.params.p + 1)}
    for t, idx in family.phi.items():
        for i in idx:
            out[i].add(t)
    return {i: frozenset(s) for i, s in out.items()}


def _edge_list(inst: Instance, edge_ids: Iterable[int] | None):
    if edge_ids is None:
        return list(enumerate(inst.edges))
    return [(e, inst.edges[e]) for e in sorted(set(edge_ids))]


def _connected_after_removal(inst, edges, s, t, gone_edges, gone_vertices):
    adj = {s: set(), t: set()}
    for eid, (u, v, _) in edges:
        if eid in gone_edges or u in gone_vertices or v in gone_vertices:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    stack, seen = [s], {s}
    while stack:
        u = stack.pop()
        if u == t:
            return True
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def _enumerate_min_removal(inst, edges, s, t, edge_candidates,
                           vertex_candidates, budget):
    """Smallest removal set over the given candidates disconnecting s,t."""
    items = [("edge", e) for e in edge_candidates] + \
            [("vertex", w) for w in vertex_candidates]
    examined = 0
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(
                    f"removal-set enumeration exceeded {budget} combinations")
            ge = {ref for kind, ref in combo if kind == "edge"}
            gv = {ref for kind, ref in combo if kind == "vertex"}
            if not _connected_after_removal(inst, edges, s, t, ge, gv):
                return size
    raise AssertionError("removing every candidate must disconnect the pair")


def brute_force_menger_vertex(
    inst: Instance, s: int, t: int,
    edge_ids: Iterable[int] | None = None,
    budget: int = _DEFAULT_ENUM_BUDGET,
) -> int:
    """Vertex connectivity by removal enumeration.

    Removable objects: vertices other than s,t plus direct s-t edges (a
    direct edge can never be disconnected by vertex removal alone).
    """
    edges = _edge_list(inst, edge_ids)
    direct = [eid for eid, (u, v, _) in edges if {u, v} == {s, t}]
    others = [w for w in range(inst.n) if w not in (s, t)]
    return _enumerate_min_removal(inst, edges, s, t, direct, others, budget)


def brute_force_menger_element(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    edge_ids: Iterable[int] | None = None,
    budget: int = _DEFAULT_ENUM_BUDGET,
) -> int:
    """Element connectivity by removal enumeration over edges + non-terminals."""
    if s == t or s not in terminals or t not in terminals:
        raise ValueError("s and t must be distinct terminals")
    edges = _edge_list(inst, edge_ids)
    eids = [eid for eid, _ in edges]
    nonterms = [w for w in range(inst.n)
                if w not in terminals and w not in (s, t)]
    return _enumerate_min_removal(inst, edges, s, t, eids, nonterms, budget)


def brute_force_min_cut(nodes: int, arcs, s: int, t: int):
    """Minimum s-t cut of a directed network on nodes 0..nodes-1 (at most
    7) with arcs (tail, head, capacity), by trying every source side S
    with s in S and t not in S.

    Returns the minimum value and the positions in `arcs`, ascending, of
    the arcs from the smallest minimum side to the rest, zero-capacity
    arcs included. The smallest minimum side is the intersection of all
    minimum sides, which is itself a minimum side."""
    if nodes > 7:
        raise ValueError("at most 7 nodes")

    def leaving(side):
        return [i for i, (u, v, _) in enumerate(arcs)
                if u in side and v not in side]

    others = [w for w in range(nodes) if w not in (s, t)]
    best, sides = None, []
    for size in range(len(others) + 1):
        for extra in itertools.combinations(others, size):
            side = {s, *extra}
            value = sum(arcs[i][2] for i in leaving(side))
            if best is None or value < best:
                best, sides = value, [side]
            elif value == best:
                sides.append(side)
    smallest = set.intersection(*sides)
    cut = leaving(smallest)
    assert sum(arcs[i][2] for i in cut) == best
    return best, cut
