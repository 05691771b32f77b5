"""Connectivity queries by max-flow, plus brute-force Menger oracles.

All three queries use one node-splitting construction: every vertex left
unsplit is one node, every other vertex an in/out pair joined by a unit
arc. Vertex connectivity leaves only the endpoints unsplit and gives graph
edges effectively-infinite arcs except direct s-t edges, which count one
path each. Element connectivity splits only non-terminal vertices and
gives every edge unit (or, for LP separation, fractional) capacity, so
minimum cuts are mixed (edge set F, non-terminal vertex set X) per Menger.
LP separation builds its network once per LP (SeparationNetwork) and runs
Dinic on exact ints: the fractional capacities scaled by the lcm of their
denominators.
"""

from __future__ import annotations

import itertools
import math
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


def _check_query(s, t, terminals=None):
    if terminals is not None and (s not in terminals or t not in terminals):
        raise ValueError("s and t must be terminals")
    if s == t:
        raise ValueError("s == t")


@dataclass(frozen=True)
class _SplitNetwork:
    net: CapacitatedNetwork
    node_in: list[int]
    node_out: list[int]


def _split_network(inst: Instance, unsplit, edge_caps, one_way=frozenset(),
                   source: int | None = None) -> _SplitNetwork:
    """The node-splitting network.

    Every vertex outside `unsplit` becomes an in/out pair joined by a unit
    arc; `edge_caps` lists (edge id, capacity) for the edges in the
    network, which get an arc each way after all vertex arcs. Edges in
    `one_way` join `source` to the sink and get only the arc out of
    `source`.
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
        if eid in one_way and v == source:
            u, v = v, u
        net.add_arc(node_out[u], node_in[v], cap, tag)
        if eid not in one_way:
            net.add_arc(node_out[v], node_in[u], cap, tag)
    return _SplitNetwork(net, node_in, node_out)


def _min_cut(split: _SplitNetwork, s: int, t: int) -> ConnectivityQueryResult:
    """Minimum s-t cut of a node-splitting network, as graph objects."""
    value, cut = split.net.max_flow(split.node_out[s], split.node_in[t])
    cut_refs = {"edge": set(), "vertex": set()}
    for aid in cut:
        kind, ref = split.net.tags[aid]
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
    return _min_cut(_split_network(
        inst, (s, t),
        [(eid, 1 if eid in direct else big) for eid, _ in edges],
        direct, s), s, t)


def element_connectivity_pair(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    edge_ids: Iterable[int] | None = None,
) -> ConnectivityQueryResult:
    """Max element-disjoint s-t paths (elements: edges + non-terminals)."""
    _check_query(s, t, terminals)
    return _min_cut(_split_network(
        inst, terminals,
        [(eid, 1) for eid, _ in _edge_list(inst, edge_ids)]), s, t)


class SeparationNetwork:
    """The LP separation network of one element instance, built once.

    Non-terminal vertices count 1, edges in `fixed_edges` count 1, every
    other edge its LP capacity. Capacities are scaled by the lcm L of
    their denominators, so Dinic runs on exact ints: a cut of scaled value
    c is a cut of value c / L, and scaling keeps the minimum cut.
    """

    def __init__(self, inst: Instance, terminals: frozenset[int],
                 fixed_edges: frozenset[int] = frozenset()):
        self.fixed_edges = fixed_edges
        # zero-capacity arcs stay in the network so cut witnesses can name
        # saturated-at-zero edges
        self._split = _split_network(
            inst, terminals, [(eid, 1) for eid in range(inst.m)])
        self._arc_edge = [ref if kind == "edge" else None
                          for kind, ref in self._split.net.tags[0::2]]
        self.capacities: Mapping[int, Fraction] | None = None
        self._scale = 1

    def load(self, capacities: Mapping[int, Fraction]) -> None:
        """Take exact edge capacities in [0,1] (default 0)."""
        ratios = {eid: c.as_integer_ratio() for eid, c in capacities.items()}
        if any(not 0 <= num <= den for num, den in ratios.values()):
            raise ValueError("capacity outside [0,1]")
        ratios.update(dict.fromkeys(self.fixed_edges, (1, 1)))
        scale = math.lcm(*(den for _, den in ratios.values()))
        arcs = [(1, 1) if eid is None else ratios.get(eid, (0, 1))
                for eid in self._arc_edge]
        self._split.net.set_capacities(
            [num * (scale // den) for num, den in arcs])
        self.capacities, self._scale = capacities, scale

    def min_cut(self, s: int, t: int) -> ConnectivityQueryResult:
        res = _min_cut(self._split, s, t)
        return ConnectivityQueryResult(
            Fraction(res.value, self._scale), res.cut_edges, res.cut_vertices)


def fractional_element_mincut(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    capacities: Mapping[int, Fraction],
    fixed_edges: frozenset[int] = frozenset(),
    network: SeparationNetwork | None = None,
) -> ConnectivityQueryResult:
    """Minimum mixed cut value under fractional edge capacities in [0,1].

    Edges in fixed_edges count at capacity 1, others at capacities[eid]
    (default 0); non-terminal vertices count 1. Used as the separation
    oracle for the set-pair LP relaxation. A `network` built for the same
    inst, terminals and fixed_edges is reused; it loads `capacities` only
    when they are not the mapping it already holds, so the caller must not
    change that mapping in place between queries.
    """
    _check_query(s, t, terminals)
    if network is None:
        network = SeparationNetwork(inst, terminals, fixed_edges)
    if network.capacities is not capacities:
        network.load(capacities)
    return network.min_cut(s, t)


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
