"""Element-connectivity SNDP solvers.

Two backends over the same instance type:

* solve_iterative_rounding: cutting-plane LP over mixed (edge, non-terminal
  vertex) cuts with a max-flow separation oracle, then repeatedly buy the
  highest-valued edge. Emits a per-run certificate (LP lower bound, ratio,
  deviation flag for any purchase below 1/2).
* solve_exact: branch and bound over edge subsets, feasibility judged by
  the flow-based element-connectivity verifier. Desk-scale oracle only;
  branch_and_bound also serves the exact VC-SNDP oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy.optimize import linprog

from .connectivity import (
    element_connectivity_pair,
    fractional_element_mincut,
)
from .errors import BudgetExceededError, InfeasibleError
from .instance import EdgeSolution, Instance, Pair

SEPARATION_TOL = 1e-9
HALF_TOL = 1e-7
DEFAULT_NODE_BUDGET = 1 << 22


@dataclass(frozen=True)
class ElementInstance:
    """One induced element-connectivity problem.

    `terminals` fixes which vertices are elements (everything outside it);
    `active_pairs` maps terminal pairs to their requirement.
    """

    inst: Instance
    terminals: frozenset[int]
    active_pairs: dict[Pair, int] = field(default_factory=dict)

    def __post_init__(self):
        for pr in self.active_pairs:
            if not pr <= self.terminals:
                u, v = sorted(pr)
                raise ValueError(f"active pair ({u},{v}) not inside terminals")

    @property
    def k(self) -> int:
        return max(self.active_pairs.values(), default=0)


def induce_element_instance(
    inst: Instance, full_terminals: frozenset[int], subset: Iterable[int],
) -> ElementInstance:
    """Restrict requirements to pairs inside `subset`.

    The induced instance's terminal set is the subset itself, so terminals
    of the parent instance left out of the subset become elements here.
    """
    sub = frozenset(subset)
    if not sub <= frozenset(full_terminals):
        raise ValueError("subset must be contained in the terminal set")
    active = {pr: r for pr, r in inst.requirements.items() if pr <= sub}
    return ElementInstance(inst=inst, terminals=sub, active_pairs=active)


def _sorted_pairs(ei: ElementInstance):
    return sorted(ei.active_pairs, key=sorted)


def _short_pair(ei: ElementInstance, edge_ids: frozenset[int] | None = None):
    """The first active pair, in sorted order, whose element connectivity
    over `edge_ids` (default: every edge) is below its requirement, with
    that connectivity; None when every pair is served."""
    for pr in _sorted_pairs(ei):
        got = element_connectivity_pair(
            ei.inst, ei.terminals, *sorted(pr), edge_ids).value
        if got < ei.active_pairs[pr]:
            return pr, got
    return None


# ---------------------------------------------------------------------------
# LP relaxation by constraint generation
# ---------------------------------------------------------------------------

@dataclass
class LpState:
    values: dict[int, float]              # edge id -> LP value in [0,1]
    purchased: frozenset[int]
    objective: float                      # cost of the fractional part


def solve_lp(ei: ElementInstance, purchased: Iterable[int] = ()) -> LpState:
    """Optimize the mixed-cut relaxation given already-purchased edges.

    Loop: separate every active pair with the fractional min-cut oracle at
    the current point; add each violated cut Sum_{e in F free} x_e >=
    r - |X| - |F purchased| and re-solve until no cut is violated. A pair
    the full graph cannot serve ends in InfeasibleError: its cut either
    has no free edge or makes the LP infeasible.
    """
    purchased = frozenset(purchased)
    free = [e for e in range(ei.inst.m) if e not in purchased]
    pos = {e: j for j, e in enumerate(free)}
    costs = np.array([float(ei.inst.edge_cost(e)) for e in free])

    values = {e: 0.0 for e in free}
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    seen_keys = set()

    while True:
        caps = {e: Fraction(values[e]).limit_denominator(10**12)
                for e in free}
        new_rows = 0
        for pr in _sorted_pairs(ei):
            u, v = sorted(pr)
            r = ei.active_pairs[pr]
            res = fractional_element_mincut(
                ei.inst, ei.terminals, u, v, caps, fixed_edges=purchased)
            if float(res.value) >= r - SEPARATION_TOL:
                continue
            f_free = frozenset(res.cut_edges) - purchased
            bound = r - len(res.cut_vertices) - len(res.cut_edges & purchased)
            if bound <= 0:
                continue
            if not f_free:
                raise InfeasibleError(
                    f"pair ({u},{v}): violated cut with no free edges")
            key = (f_free, bound)
            if key in seen_keys:
                continue  # LP already carries it; within-tolerance noise
            seen_keys.add(key)
            row = np.zeros(len(free))
            for e in f_free:
                row[pos[e]] = 1.0
            rows.append(row)
            rhs.append(float(bound))
            new_rows += 1
        if new_rows == 0:
            break
        res = linprog(
            costs,
            A_ub=-np.array(rows), b_ub=-np.array(rhs),
            bounds=[(0.0, 1.0)] * len(free), method="highs")
        if not res.success:
            raise InfeasibleError(f"LP solve failed: {res.message}")
        values = {e: min(1.0, max(0.0, float(res.x[pos[e]]))) for e in free}

    objective = float(np.dot(costs, [values[e] for e in free])) if free else 0.0
    return LpState(values=values, purchased=purchased, objective=objective)


@dataclass(frozen=True)
class SolveCertificate:
    lp_lower_bound: float
    solution_cost: float
    ratio: float
    rounding_log: tuple[tuple[int, float], ...]  # (edge id, value bought at)
    theory_deviation: bool


def solve_iterative_rounding(
    ei: ElementInstance,
) -> tuple[EdgeSolution, SolveCertificate]:
    """Iterative rounding: re-solve the LP, buy the max-value free edge,
    until purchased edges alone satisfy every active pair."""
    short = _short_pair(ei)
    if short is not None:
        pr, got = short
        u, v = sorted(pr)
        raise InfeasibleError(
            f"pair ({u},{v}) needs {ei.active_pairs[pr]} element-disjoint "
            f"paths but the full graph only provides {got}")
    purchased: set[int] = set()
    log: list[tuple[int, float]] = []
    first_lp: float | None = None

    while _short_pair(ei, frozenset(purchased)) is not None:
        lp = solve_lp(ei, purchased)
        if first_lp is None:
            first_lp = lp.objective
        candidates = [e for e in lp.values if e not in purchased]
        if not candidates:
            raise InfeasibleError("no edge left to purchase")
        # max LP value, ties to the lowest edge id, for determinism
        best = min(candidates, key=lambda e: (-lp.values[e], e))
        purchased.add(best)
        log.append((best, lp.values[best]))

    sol = EdgeSolution.of(ei.inst, purchased)
    cost = float(sol.cost)
    lb = first_lp if first_lp is not None else 0.0
    ratio = cost / lb if lb > 0 else 1.0
    deviation = any(v < 0.5 - HALF_TOL for _, v in log)
    cert = SolveCertificate(
        lp_lower_bound=lb, solution_cost=cost, ratio=ratio,
        rounding_log=tuple(log), theory_deviation=deviation)
    return sol, cert


# ---------------------------------------------------------------------------
# Exact branch and bound
# ---------------------------------------------------------------------------

def solve_exact(ei: ElementInstance,
                budget: int = DEFAULT_NODE_BUDGET) -> EdgeSolution:
    """Minimum-cost feasible edge subset by branch and bound.

    Branches over edges in nonincreasing cost order, exclude-first; a
    branch dies when the edges still available cannot satisfy some pair.
    """
    return branch_and_bound(
        ei.inst,
        lambda ids: _short_pair(ei, ids) is None,
        trivially_feasible=not ei.active_pairs,
        budget=budget)


def branch_and_bound(inst: Instance, feasible, trivially_feasible: bool,
                     budget: int) -> EdgeSolution:
    """Cheapest edge subset accepted by the monotone `feasible` test."""
    if trivially_feasible:
        return EdgeSolution.of(inst, ())
    all_ids = frozenset(range(inst.m))
    if not feasible(all_ids):
        raise InfeasibleError("full edge set is not feasible")
    order = sorted(all_ids, key=lambda e: (-inst.edge_cost(e), e))
    best_ids = all_ids
    best_cost = inst.total_cost(all_ids)
    nodes = 0

    def rest(idx: int) -> frozenset[int]:
        return frozenset(order[idx:])

    def dfs(idx: int, chosen: frozenset[int], cost: Fraction):
        nonlocal best_ids, best_cost, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"branch-and-bound exceeded {budget} nodes")
        if cost >= best_cost:
            return
        if idx == len(order):
            if feasible(chosen):
                best_ids, best_cost = chosen, cost
            return
        e = order[idx]
        # exclude e when the remaining edges can still cover everything
        if feasible(chosen | rest(idx + 1)):
            dfs(idx + 1, chosen, cost)
        dfs(idx + 1, chosen | {e}, cost + inst.edge_cost(e))

    dfs(0, frozenset(), Fraction(0))
    return EdgeSolution(best_ids, best_cost)
