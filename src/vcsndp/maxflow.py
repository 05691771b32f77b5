"""Exact max-flow / min-cut on capacitated directed networks.

Dinic's algorithm over exact arithmetic (int or Fraction capacities), so
connectivity values and LP separation never suffer float drift. One loop
runs the phases: a breadth-first search labels the residual graph with
levels from the source, and a depth-first search pushes a blocking flow
along the levels. The phase whose search misses the sink has labelled
exactly the residual-reachable side of the source, and the minimum cut is
read off those labels. Arcs are numbered in the order they are added
(add_arc returns twice that number), which is all a caller needs to map
min cuts back to its own objects. A network can be queried many times:
every max_flow call starts from the arc capacities, which set_capacities
may replace between calls.
"""

from __future__ import annotations

from fractions import Fraction

Num = int | Fraction


class CapacitatedNetwork:
    """Directed network with a single source/sink query."""

    def __init__(self):
        self.heads: list[int] = []
        self.orig: list[Num] = []
        self.adj: list[list[int]] = []

    def add_node(self) -> int:
        self.adj.append([])
        return len(self.adj) - 1

    def add_arc(self, tail: int, head: int, cap: Num) -> int:
        """Add arc tail->head; a zero-capacity reverse arc is paired with it."""
        if cap < 0:
            raise ValueError("negative capacity")
        if tail == head:
            raise ValueError("self-arc")
        aid = len(self.heads)
        self.heads.extend((head, tail))
        self.orig.extend((cap, 0))
        self.adj[tail].append(aid)
        self.adj[head].append(aid + 1)
        return aid

    def set_capacities(self, caps: list[Num]) -> None:
        """Replace every arc's capacity, listed in the order the arcs were
        added."""
        if len(caps) != len(self.heads) // 2:
            raise ValueError("one capacity per arc")
        if any(c < 0 for c in caps):
            raise ValueError("negative capacity")
        self.orig[0::2] = caps

    def max_flow(self, s: int, t: int, target: Num | None = None
                 ) -> tuple[Num, list[int] | None]:
        """Run Dinic from scratch; returns (value, min-cut arc ids).

        Each phase labels every node that the residual graph reaches from
        s with its BFS distance, then pushes a blocking flow by depth-first
        search over the arcs that go one level up. The search keeps its
        path on an explicit stack, so the depth of the level graph is not
        bounded by the interpreter's recursion limit, and a pointer per
        node to the next arc to try: the pointer moves past an arc only
        when the arc is not in the level graph or leads to a dead end, the
        order a recursive search takes.

        Once a phase's labels miss t, the labelled nodes are the
        residual-reachable side of s, and the cut is every forward arc,
        zero-capacity ones included, from a labelled tail to an unlabelled
        head: a certified minimum s-t cut. That side is the same for every
        maximum flow, so the cut does not depend on the order in which
        paths are found.

        With a positive `target`, the flow stops as soon as its value
        reaches it and returns (a flow value >= target, None): that value
        need not be the maximum, and no cut is computed. A maximum flow
        below the target is found in full, with the same value and cut as
        without one.
        """
        if s == t:
            raise ValueError("source equals sink")
        adj, heads = self.adj, self.heads
        caps = self.orig.copy()  # residual capacities
        value: Num = 0
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            queue = [s]
            for u in queue:
                for aid in adj[u]:
                    v = heads[aid]
                    if caps[aid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                break
            it = [0] * len(adj)
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(caps[aid] for aid in path)
                    for aid in path:
                        caps[aid] -= pushed
                        caps[aid ^ 1] += pushed
                    value += pushed
                    if target is not None and value >= target:
                        return value, None
                    path.clear()
                    u = s
                arcs, i = adj[u], it[u]
                while i < len(arcs):
                    aid = arcs[i]
                    if caps[aid] > 0 and level[heads[aid]] == level[u] + 1:
                        break
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(aid)
                    u = heads[aid]
                elif path:
                    # u is a dead end: retreat and skip the arc that led here
                    u = heads[path.pop() ^ 1]
                    it[u] += 1
                else:
                    break
        return value, [aid for aid in range(0, len(heads), 2)
                       if level[heads[aid + 1]] >= 0 and level[heads[aid]] < 0]
