"""Core data model: weighted graphs with pairwise connectivity requirements.

Vertices are integers 0..n-1. Edges carry exact nonnegative costs
(fractions.Fraction) and are identified by their position in the edge list,
so parallel edges are fine. Requirements are stored once per unordered pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, TextIO

from .errors import ParseError

Pair = frozenset  # frozenset({u, v}) with u != v


def pair(u: int, v: int) -> Pair:
    if u == v:
        raise ValueError(f"self-pair ({u}, {v})")
    return frozenset((u, v))


def parse_cost(text: str) -> Fraction:
    """Exact cost from a decimal or 'a/b' literal; ValueError if malformed."""
    try:
        c = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in cost {text}") from None
    if c < 0:
        raise ValueError(f"negative cost {text}")
    return c


def lp_cost_ok(cost: Fraction | int) -> bool:
    """Whether the LP can hold `cost`: it gets float(cost), and the LP
    solver takes a float of 1e20 or more for infinite."""
    # compared exactly first, since float() overflows far above 1e20
    return cost < 10**20 and float(cost) < 1e20


def format_cost(c: Fraction) -> str:
    """Canonical text for a cost: integer, terminating decimal, or a/b."""
    if c.denominator == 1:
        return str(c.numerator)
    d = c.denominator
    exp2 = exp5 = 0
    while d % 2 == 0:
        d //= 2
        exp2 += 1
    while d % 5 == 0:
        d //= 5
        exp5 += 1
    if d == 1:
        digits = max(exp2, exp5)
        scaled = c.numerator * 10**digits // c.denominator
        s = str(scaled).rjust(digits + 1, "0")
        return s[:-digits] + "." + s[-digits:]
    return f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True)
class Instance:
    """A VC-SNDP instance: graph, edge costs, pairwise requirements."""

    n: int
    edges: tuple[tuple[int, int, Fraction], ...]
    requirements: dict[Pair, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative vertex count")
        for eid, (u, v, cost) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"edge {eid}: self-loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {eid}: vertex out of range")
            if cost < 0:
                raise ValueError(f"edge {eid}: negative cost")
        for pr, r in self.requirements.items():
            u, v = sorted(pr)
            if r < 1:
                raise ValueError(f"requirement r({u},{v}) = {r} < 1")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"requirement ({u},{v}): vertex out of range")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def k(self) -> int:
        """Maximum requirement; 0 when there are no requirements."""
        return max(self.requirements.values(), default=0)

    def edge_cost(self, eid: int) -> Fraction:
        return self.edges[eid][2]

    def total_cost(self, edge_ids: Iterable[int]) -> Fraction:
        return sum((self.edges[e][2] for e in edge_ids), Fraction(0))


def derive_terminals(inst: Instance) -> frozenset[int]:
    """Vertices appearing in at least one requirement pair."""
    out: set[int] = set()
    for pr in inst.requirements:
        out |= pr
    return frozenset(out)


@dataclass(frozen=True)
class EdgeSolution:
    """A purchased edge set for some instance, with its exact total cost."""

    edge_ids: frozenset[int]
    cost: Fraction

    @classmethod
    def of(cls, inst: Instance, edge_ids: Iterable[int]) -> "EdgeSolution":
        ids = frozenset(edge_ids)
        for e in ids:
            if not (0 <= e < inst.m):
                raise ValueError(f"edge id {e} out of range")
        return cls(ids, inst.total_cost(ids))


_WS = re.compile(r"\s+")


def _tokens(stream: TextIO | str) -> list[tuple[int, list[str]]]:
    """(line number from 1, whitespace-split fields) of each line that
    holds anything once its '#' comment is cut."""
    text = stream if isinstance(stream, str) else stream.read()
    return [(ln, _WS.split(body))
            for ln, raw in enumerate(text.splitlines(), start=1)
            if (body := raw.split("#", 1)[0].strip())]


def parse_instance(stream: TextIO | str) -> Instance:
    """Parse the line-oriented instance format.

    Format: `graph <n> <m>`, then m `edge <u> <v> <cost>` lines, then
    `req <u> <v> <r>` lines. '#' starts a comment; blank lines ignored.
    """
    tokens = _tokens(stream)
    if not tokens:
        raise ParseError("empty input, expected 'graph <n> <m>' header")
    ln, head = tokens[0]
    if len(head) != 3 or head[0] != "graph":
        raise ParseError("expected 'graph <n> <m>' header", ln)
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError("non-integer vertex/edge count", ln) from None
    if n < 0 or m < 0:
        raise ParseError("negative vertex/edge count", ln)

    edges: list[tuple[int, int, Fraction]] = []
    requirements: dict[Pair, int] = {}
    for ln, toks in tokens[1:]:
        kind = toks[0]
        if kind == "edge":
            if len(requirements) > 0:
                raise ParseError("edge line after req lines", ln)
            if len(edges) >= m:
                raise ParseError(f"more than {m} edge lines", ln)
            if len(toks) != 4:
                raise ParseError("expected 'edge <u> <v> <cost>'", ln)
            try:
                u, v = int(toks[1]), int(toks[2])
                cost = parse_cost(toks[3])
            except ValueError as exc:
                raise ParseError(str(exc), ln) from None
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", ln)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range 0..{n - 1}", ln)
            if not lp_cost_ok(cost):
                raise ParseError(
                    f"cost {toks[3]} is not below 10**20 as a float", ln)
            edges.append((u, v, cost))
        elif kind == "req":
            if len(toks) != 4:
                raise ParseError("expected 'req <u> <v> <r>'", ln)
            try:
                u, v, r = int(toks[1]), int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("non-integer req field", ln) from None
            if u == v:
                raise ParseError(f"self-pair requirement at vertex {u}", ln)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"vertex id out of range 0..{n - 1}", ln)
            if r < 1:
                raise ParseError(f"requirement must be >= 1, got {r}", ln)
            pr = pair(u, v)
            if pr in requirements:
                raise ParseError(f"duplicate requirement pair ({u},{v})", ln)
            requirements[pr] = r
        else:
            raise ParseError(f"unknown directive '{kind}'", ln)

    if len(edges) != m:
        raise ParseError(f"header declares {m} edges, found {len(edges)}")
    return Instance(n=n, edges=tuple(edges), requirements=requirements)


def write_instance(inst: Instance) -> str:
    """Inverse of parse_instance (canonical formatting)."""
    out = [f"graph {inst.n} {inst.m}"]
    for u, v, cost in inst.edges:
        out.append(f"edge {u} {v} {format_cost(cost)}")
    for pr in sorted(inst.requirements, key=sorted):
        u, v = sorted(pr)
        out.append(f"req {u} {v} {inst.requirements[pr]}")
    return "\n".join(out) + "\n"


def parse_solution(stream: TextIO | str, inst: Instance) -> EdgeSolution:
    """Parse `solution <count> <cost>` + one edge-id per line."""
    tokens = _tokens(stream)
    if not tokens:
        raise ParseError("empty input, expected 'solution <count> <cost>'")
    ln, head = tokens[0]
    if len(head) != 3 or head[0] != "solution":
        raise ParseError("expected 'solution <count> <cost>' header", ln)
    try:
        count = int(head[1])
        declared = parse_cost(head[2])
    except ValueError as exc:
        raise ParseError(f"bad solution header fields: {exc}", ln) from None
    ids = set()
    for ln, toks in tokens[1:]:
        if len(toks) != 1:
            raise ParseError("expected one edge id per line", ln)
        try:
            eid = int(toks[0])
        except ValueError:
            raise ParseError(f"non-integer edge id '{toks[0]}'", ln) from None
        if not (0 <= eid < inst.m):
            raise ParseError(f"edge id {eid} out of range", ln)
        if eid in ids:
            raise ParseError(f"repeated edge id {eid}", ln)
        ids.add(eid)
    if len(ids) != count:
        raise ParseError(f"header declares {count} edges, found {len(ids)}")
    sol = EdgeSolution.of(inst, ids)
    if sol.cost != declared:
        raise ParseError(
            f"declared cost {declared} != recomputed {sol.cost}"
        )
    return sol


def write_solution(sol: EdgeSolution) -> str:
    out = [f"solution {len(sol.edge_ids)} {format_cost(sol.cost)}"]
    out.extend(str(e) for e in sorted(sol.edge_ids))
    return "\n".join(out) + "\n"
