"""Exact max-flow / min-cut on capacitated directed networks.

Dinic's algorithm over exact arithmetic (int or Fraction capacities), so
connectivity values and LP separation never suffer float drift. Arcs are
numbered in the order they are added (add_arc returns twice that number),
which is all a caller needs to map min cuts back to its own objects. A
network can be queried many times: every max_flow call starts from the arc
capacities, which set_capacities may replace between calls.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

Num = int | Fraction


class CapacitatedNetwork:
    """Directed network with a single source/sink query."""

    def __init__(self):
        self._n = 0
        self.heads: list[int] = []
        self.caps: list[Num] = []  # residual capacity, reset by max_flow
        self.orig: list[Num] = []
        self.adj: list[list[int]] = []

    def add_node(self) -> int:
        self.adj.append([])
        self._n += 1
        return self._n - 1

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

    def _bfs_levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self._n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for aid in self.adj[u]:
                v = self.heads[aid]
                if self.caps[aid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level if level[t] >= 0 else None

    def _dfs_push(self, s: int, t: int, limit: Num, level, it) -> Num:
        """Push along one s-t path of the level graph; returns the amount
        pushed, 0 when the level graph has no path left.

        A depth-first search with an explicit stack of path arcs, so the
        depth of the level graph is not bounded by the interpreter's
        recursion limit. `it[u]` is the next arc of u to try: it moves past
        an arc only when the arc is not in the level graph or leads to a
        dead end, the order a recursive search takes."""
        adj, heads, caps = self.adj, self.heads, self.caps
        path: list[int] = []
        u = s
        while u != t:
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
                return 0
        pushed = min(limit, *(caps[aid] for aid in path))
        for aid in path:
            caps[aid] -= pushed
            caps[aid ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int, target: Num | None = None
                 ) -> tuple[Num, list[int] | None]:
        """Run Dinic from scratch; returns (value, min-cut arc ids).

        Cut arcs are forward arcs from the residual-reachable side of s to
        the unreachable side, i.e. a certified minimum s-t cut. That side is
        the same for every maximum flow, so the cut does not depend on the
        order in which paths are found.

        With a positive `target`, the flow stops as soon as its value
        reaches it and returns (a flow value >= target, None): that value
        need not be the maximum, and no cut is computed. A maximum flow below the target
        is found in full, with the same value and cut as without one.
        """
        if s == t:
            raise ValueError("source equals sink")
        self.caps = self.orig.copy()
        # an int above every path's bottleneck, so integral networks
        # compare ints only
        unbounded = int(sum(self.orig)) + 1
        value: Num = 0
        while (level := self._bfs_levels(s, t)) is not None:
            it = [0] * self._n
            while True:
                pushed = self._dfs_push(s, t, unbounded, level, it)
                if pushed <= 0:
                    break
                value += pushed
                if target is not None and value >= target:
                    return value, None
        # residual reachability gives the cut
        seen = [False] * self._n
        seen[s] = True
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for aid in self.adj[u]:
                v = self.heads[aid]
                if self.caps[aid] > 0 and not seen[v]:
                    seen[v] = True
                    dq.append(v)
        cut = []
        for aid in range(0, len(self.heads), 2):
            tail = self.heads[aid + 1]
            head = self.heads[aid]
            if seen[tail] and not seen[head]:
                cut.append(aid)
        return value, cut
