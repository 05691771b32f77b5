"""Connectivity queries by max-flow.

Every query runs on one network, ElementNetwork(inst, terminals): each
non-terminal vertex becomes an in/out pair joined by a unit arc, each edge
an arc each way with the capacity the query gives it. Minimum cuts are
mixed (edge set F, non-terminal vertex set X) per Menger. Vertex
connectivity of s, t is element connectivity with terminals {s, t}:
internally vertex-disjoint s-t paths are exactly the paths that share no
edge and no vertex but s and t. Only the terminals and the vertices on an
edge get nodes, so isolated vertices cost nothing. Capacities in [0,1] are
scaled by the lcm of their denominators, so Dinic runs on exact ints. An
element solve builds one network and reloads it for each separation round
and once for each integral check. A query that only asks whether the value
reaches a target stops its flow there. The brute-force Menger oracles that
the tests check these queries against live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .instance import EdgeSolution, Instance
from .maxflow import CapacitatedNetwork


@dataclass(frozen=True)
class ConnectivityQueryResult:
    value: Fraction
    cut_edges: frozenset[int] | None     # edge ids; None past a target
    cut_vertices: frozenset[int] | None  # vertex ids; None past a target


class ElementNetwork:
    """The element-connectivity network of `inst` with `terminals`, built
    once over every edge and queried under any edge capacities."""

    def __init__(self, inst: Instance, terminals: Iterable[int]):
        self.inst, self.terminals = inst, frozenset(terminals)
        self._net = net = CapacitatedNetwork()
        self._split: list[int] = []  # the vertex of each vertex arc
        node_in, node_out = {}, {}
        ends = {w for u, v, _ in inst.edges for w in (u, v)}
        for w in sorted(ends | self.terminals):
            node_in[w] = node_out[w] = net.add_node()
            if w not in self.terminals:
                node_out[w] = net.add_node()
                net.add_arc(node_in[w], node_out[w], 1)
                self._split.append(w)
        # then edge e's two arcs, 2e and 2e + 1 places after the vertex arcs
        for u, v, _ in inst.edges:
            net.add_arc(node_out[u], node_in[v], 1)
            net.add_arc(node_out[v], node_in[u], 1)
        self._node = node_in
        self._capacities: Mapping[int, Fraction] | None = None
        self._scale = 1
        self._unit_ids: frozenset[int] | None = None
        self._units: Mapping[int, int] = {}

    def units(self, edge_ids: frozenset[int]) -> Mapping[int, int]:
        """Capacity 1 on each edge of `edge_ids`: the mapping last returned
        while edge_ids equals the last set asked for, so that integral
        queries on one edge set load it once."""
        if edge_ids != self._unit_ids:
            self._unit_ids, self._units = edge_ids, dict.fromkeys(edge_ids, 1)
        return self._units

    def _load(self, capacities: Mapping[int, Fraction]) -> None:
        ratios = [capacities.get(eid, 0).as_integer_ratio()
                  for eid in range(self.inst.m)]
        if any(not 0 <= num <= den for num, den in ratios):
            raise ValueError("capacity outside [0,1]")
        scale = math.lcm(*(den for _, den in ratios))
        edge_caps = [num * (scale // den) for num, den in ratios]
        split = len(self._split)
        caps = [scale] * (split + 2 * len(edge_caps))
        caps[split::2] = caps[split + 1::2] = edge_caps
        self._net.set_capacities(caps)
        self._capacities, self._scale = capacities, scale

    def min_cut(self, s: int, t: int, capacities: Mapping[int, Fraction],
                target: int | None = None) -> ConnectivityQueryResult:
        """Minimum s-t cut when edge e has capacity capacities[e] in [0,1]
        (default 0) and every non-terminal vertex 1. s and t must be
        distinct terminals; ValueError otherwise.

        The network keeps the capacities it last loaded, and reloads only
        for a different mapping object, so the caller must not change that
        mapping in place between queries. A cut of scaled value c is a cut
        of value c / L for the lcm L, and scaling keeps the minimum cut.

        With a positive `target`, a minimum cut at or above it is not
        computed: the flow stops once it reaches the target, and the
        result holds that flow value (>= target, <= the minimum) and None
        for both cut sets. Below the target the result is the one without
        a target.
        """
        if s not in self.terminals or t not in self.terminals:
            raise ValueError("s and t must be terminals")
        if capacities is not self._capacities:
            self._load(capacities)
        scaled = None if target is None else target * self._scale
        value, cut = self._net.max_flow(self._node[s], self._node[t], scaled)
        if cut is None:
            return ConnectivityQueryResult(
                Fraction(value, self._scale), None, None)
        split = len(self._split)
        arcs = [aid // 2 for aid in cut]
        return ConnectivityQueryResult(
            Fraction(value, self._scale),
            frozenset((a - split) // 2 for a in arcs if a >= split),
            frozenset(self._split[a] for a in arcs if a < split))


def vertex_connectivity_pair(
    inst: Instance, s: int, t: int,
    edge_ids: Iterable[int] | None = None,
) -> ConnectivityQueryResult:
    """Max internally vertex-disjoint s-t paths in the given edge subset."""
    return element_connectivity_pair(inst, frozenset((s, t)), s, t, edge_ids)


def element_connectivity_pair(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    edge_ids: Iterable[int] | None = None,
    network: ElementNetwork | None = None, target: int | None = None,
) -> ConnectivityQueryResult:
    """Max element-disjoint s-t paths (elements: edges + non-terminals).

    `network` and `target` work as in fractional_element_mincut; queries
    on one network with equal edge sets load the capacities once."""
    ids = frozenset(range(inst.m) if edge_ids is None else edge_ids)
    if network is None:
        network = ElementNetwork(inst, terminals)
    return network.min_cut(s, t, network.units(ids), target)


def fractional_element_mincut(
    inst: Instance, terminals: frozenset[int], s: int, t: int,
    capacities: Mapping[int, Fraction],
    network: ElementNetwork | None = None, target: int | None = None,
) -> ConnectivityQueryResult:
    """Minimum mixed cut value under fractional edge capacities in [0,1].

    Edge e counts at capacities[e] (default 0), every non-terminal vertex
    at 1. Used as the separation oracle for the set-pair LP relaxation. A
    `network` built for the same inst and terminals is reused, under the
    terms of ElementNetwork.min_cut; a `target` stops the query there, as
    ElementNetwork.min_cut says.
    """
    if network is None:
        network = ElementNetwork(inst, terminals)
    return network.min_cut(s, t, capacities, target)


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
