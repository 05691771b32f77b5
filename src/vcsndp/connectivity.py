"""Connectivity queries by max-flow, plus brute-force Menger oracles.

All three queries use one node-splitting construction: every vertex left
unsplit is one node, every other vertex an in/out pair joined by a unit
arc. Vertex connectivity leaves only the endpoints unsplit and gives graph
edges effectively-infinite arcs except direct s-t edges, which count one
path each. Element connectivity splits only non-terminal vertices and
gives every edge unit (or, for LP separation, fractional) capacity, so
minimum cuts are mixed (edge set F, non-terminal vertex set X) per Menger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import BudgetExceededError
from .instance import EdgeSolution, Instance, Pair
from .maxflow import CapacitatedNetwork


@dataclass(frozen=True)
class ConnectivityQueryResult:
    value: Fraction | int
    cut_edges: frozenset[int]     # edge ids
    cut_vertices: frozenset[int]  # vertex ids


def _edge_list(inst: Instance, edge_ids: Iterable[int] | None):
    if edge_ids is None:
        return list(enumerate(inst.edges))
    return [(e, inst.edges[e]) for e in sorted(set(edge_ids))]


def _check_query(s, t, terminals=None, capacities=()):
    if terminals is not None and (s not in terminals or t not in terminals):
        raise ValueError("s and t must be terminals")
    if s == t:
        raise ValueError("s == t")
    if any(c < 0 or c > 1 for c in capacities):
        raise ValueError("capacity outside [0,1]")


def _split_cut(inst: Instance, unsplit, s: int, t: int, edge_caps,
               one_way=frozenset()) -> ConnectivityQueryResult:
    """Minimum s-t cut of the node-splitting network.

    Every vertex outside `unsplit` becomes an in/out pair joined by a unit
    arc; `edge_caps` lists (edge id, capacity) for the edges in the
    network, which get an arc each way after all vertex arcs. Edges in
    `one_way` join s and t and get only the s->t arc.
    """
    net = CapacitatedNetwork()
    node_in, node_out = [], []
    for w in range(inst.n):
        node_in.append(net.add_node())
        if w in unsplit:
            node_out.append(node_in[w])
        else:
            node_out.append(net.add_node())
            net.add_arc(node_in[w], node_out[w], 1, ("vertex", w))
    for eid, cap in edge_caps:
        u, v, _ = inst.edges[eid]
        tag = ("edge", eid)
        if eid in one_way:
            net.add_arc(node_out[s], node_in[t], cap, tag)
        else:
            net.add_arc(node_out[u], node_in[v], cap, tag)
            net.add_arc(node_out[v], node_in[u], cap, tag)
    value, cut = net.max_flow(node_out[s], node_in[t])
    cut_refs = {"edge": set(), "vertex": set()}
    for aid in cut:
        kind, ref = net.tags[aid]
        cut_refs[kind].add(ref)
    return ConnectivityQueryResult(value, frozenset(cut_refs["edge"]),
                                   frozenset(cut_refs["vertex"]))


def vertex_connectivity_pair(
    inst: Instance, s: int, t: int,
    edge_ids: Iterable[int] | None = None,
) -> ConnectivityQueryResult:
    """Max internally vertex-disjoint s-t paths in the given edge subset."""
    _check_query(s, t)
    edges = _edge_list(inst, edge_ids)
    big = len(edges) + inst.n + 1
    # each parallel direct edge contributes exactly one path
    direct = {eid for eid, (u, v, _) in edges if {u, v} == {s, t}}
    return _split_cut(
        inst, (s, t), s, t,
        [(eid, 1 if eid in direct else big) for eid, _ in edges], direct)


def element_connectivity_pair(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    edge_ids: Iterable[int] | None = None,
) -> ConnectivityQueryResult:
    """Max element-disjoint s-t paths (elements: edges + non-terminals)."""
    _check_query(s, t, terminals)
    return _split_cut(inst, terminals, s, t,
                      [(eid, 1) for eid, _ in _edge_list(inst, edge_ids)])


def fractional_element_mincut(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    capacities: Mapping[int, Fraction],
    fixed_edges: frozenset[int] = frozenset(),
) -> ConnectivityQueryResult:
    """Minimum mixed cut value under fractional edge capacities in [0,1].

    Edges in fixed_edges count at capacity 1, others at capacities[eid]
    (default 0); non-terminal vertices count 1. Used as the separation
    oracle for the set-pair LP relaxation.
    """
    _check_query(s, t, terminals, capacities.values())
    # zero-capacity arcs stay in the network so cut witnesses can name
    # saturated-at-zero edges
    return _split_cut(inst, terminals, s, t, [
        (eid, Fraction(1) if eid in fixed_edges
         else Fraction(capacities.get(eid, 0)))
        for eid in range(inst.m)])


@dataclass(frozen=True)
class PairReport:
    u: int
    v: int
    required: int
    achieved: int


@dataclass(frozen=True)
class VerificationReport:
    feasible: bool
    pairs: tuple[PairReport, ...] = ()

    def violated(self) -> tuple[PairReport, ...]:
        return tuple(p for p in self.pairs if p.achieved < p.required)


def verify_vc_solution(inst: Instance, sol: EdgeSolution) -> VerificationReport:
    """Check every requirement pair's vertex connectivity in the bought subgraph."""
    reports = []
    ok = True
    for pr in sorted(inst.requirements, key=sorted):
        u, v = sorted(pr)
        r = inst.requirements[pr]
        got = vertex_connectivity_pair(inst, u, v, sol.edge_ids).value
        ok &= got >= r
        reports.append(PairReport(u, v, r, int(got)))
    return VerificationReport(ok, tuple(reports))


def verify_element_solution(
    inst: Instance, terminals: frozenset[int],
    active_pairs: Mapping[Pair, int], edge_ids: Iterable[int],
) -> VerificationReport:
    """Element-connectivity analogue of verify_vc_solution."""
    ids = frozenset(edge_ids)
    reports = []
    ok = True
    for pr in sorted(active_pairs, key=sorted):
        u, v = sorted(pr)
        r = active_pairs[pr]
        got = element_connectivity_pair(inst, terminals, u, v, ids).value
        ok &= got >= r
        reports.append(PairReport(u, v, r, int(got)))
    return VerificationReport(ok, tuple(reports))


# ---------------------------------------------------------------------------
# Brute-force Menger oracles: enumerate removal sets in increasing size.
# Only viable on desk-scale graphs; these are the independent test oracles.
# ---------------------------------------------------------------------------

_DEFAULT_ENUM_BUDGET = 1 << 20


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
    _check_query(s, t, terminals)
    edges = _edge_list(inst, edge_ids)
    eids = [eid for eid, _ in edges]
    nonterms = [w for w in range(inst.n)
                if w not in terminals and w not in (s, t)]
    return _enumerate_min_removal(inst, edges, s, t, eids, nonterms, budget)
