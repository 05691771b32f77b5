"""Element-connectivity SNDP solvers.

Two backends over the same instance type:

* solve_iterative_rounding: cutting-plane LP over mixed (edge, non-terminal
  vertex) cuts with a max-flow separation oracle, then repeatedly buy the
  highest-valued edge. Emits a per-run certificate (LP lower bound, ratio,
  deviation flag for any purchase below 1/2). One solve makes one HiGHS
  solver and one element network and uses them for every LP, separation
  round and integral check. The LPs go to the HiGHS core that scipy
  bundles, with the numbers and options scipy.optimize.linprog(
  method="highs") would give it and the cut rows as built; an LP that
  HiGHS proves infeasible raises InfeasibleError, and any other outcome
  but an optimum raises SolverError. This is the one module that loads
  that private extension module, on the first LP solve: by path, after
  the top-level scipy package alone, so scipy.optimize is never
  imported.
* solve_exact: the one exact search, branch and bound over edge subsets
  with feasibility judged by element-connectivity max-flows, for one or
  more instances of one graph at once. Desk-scale oracle only; the exact
  VC-SNDP oracle runs it over one instance per requirement pair.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .connectivity import (
    ElementNetwork,
    element_connectivity_pair,
    fractional_element_mincut,
)
from .errors import BudgetExceededError, InfeasibleError, SolverError
from .instance import EdgeSolution, Instance, Pair

SEPARATION_TOL = 1e-9
HALF_TOL = 1e-7
DEFAULT_NODE_BUDGET = 1 << 22
# the most LP solves one solve_lp call makes; a loop that needs more raises
# SolverError (the benchmark corpora and the tests need at most 49)
MAX_CUT_ROUNDS = 1000


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


def _serves(ei: ElementInstance, edge_ids: frozenset[int],
            network: ElementNetwork) -> bool:
    """Whether `edge_ids` alone give every active pair its requirement in
    element connectivity; checks the pairs in sorted order on `network`,
    built for ei, stopping at the first one short. The pairs share one load
    of the unit capacities, and each flow stops at the pair's
    requirement."""
    for pr in _sorted_pairs(ei):
        r = ei.active_pairs[pr]
        if element_connectivity_pair(
                ei.inst, ei.terminals, *sorted(pr), edge_ids,
                network=network, target=r).value < r:
            return False
    return True


# ---------------------------------------------------------------------------
# LP relaxation by constraint generation
# ---------------------------------------------------------------------------

# the name scipy gives its bundled HiGHS core; scipy.optimize imports it
# under this name too, so both find the one module in sys.modules
_CORE = "scipy.optimize._highspy._core"
# serialises the first load: the --jobs pool may reach it from two threads
_CORE_LOCK = threading.Lock()


@cache
def _highs() -> SimpleNamespace:
    """The HiGHS core that scipy bundles (`core`), with the options
    linprog sets (`options`). Loaded on first use, by path from
    scipy/optimize/_highspy under its own dotted name, after importing
    only the top-level scipy package: importing scipy.optimize to reach
    it takes about 0.65 s and 49 MiB, against about 0.01 s and 4 MiB for
    the core alone. scipy.optimize is never imported here; when a caller
    has imported it, its core is the one used."""
    import importlib.machinery
    import importlib.util
    import os
    import sys

    with _CORE_LOCK:
        highs = sys.modules.get(_CORE)
        if highs is None:
            import scipy

            found = importlib.machinery.PathFinder.find_spec(
                "_core",
                [os.path.join(scipy.__path__[0], "optimize", "_highspy")])
            if found is None:
                raise ModuleNotFoundError(f"no module named {_CORE!r}",
                                          name=_CORE)
            spec = importlib.util.spec_from_file_location(_CORE, found.origin)
            highs = importlib.util.module_from_spec(spec)
            sys.modules[_CORE] = highs
            spec.loader.exec_module(highs)

    return SimpleNamespace(
        core=highs,
        # passModel's codes for a row-wise matrix and for minimising
        rowwise=int(highs.MatrixFormat.kRowwise),
        minimize=int(highs.ObjSense.kMinimize),
        # the options scipy.optimize.linprog(method="highs") sets, output
        # first so that nothing is logged
        options=(
            ("output_flag", False),
            ("log_to_console", False),
            ("presolve", "on"),
            ("simplex_strategy", int(
                highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
            ("highs_debug_level",
             int(highs.HighsDebugLevel.kHighsDebugLevelNone)),
        ))


def _check_call(status, call: str) -> None:
    """SolverError unless a HiGHS call returned kOk: after a rejected model
    the solver keeps the last one, and run would report its solution."""
    if status != _highs().core.HighsStatus.kOk:
        raise SolverError(f"HiGHS {call} returned {status.name}")


def lp_solver():
    """A HiGHS solver set up as scipy.optimize.linprog(method="highs") sets
    it up; use it from one thread only."""
    highs = _highs()
    solver = highs.core._Highs()
    for name, value in highs.options:
        _check_call(solver.setOptionValue(name, value),
                    f"setOptionValue({name}={value!r})")
    return solver


def linprog(costs: np.ndarray, rows: list[list[int]], rhs: list[float],
            solver) -> np.ndarray:
    """min costs.x  s.t.  sum(x[j] for j in rows[i]) >= rhs[i],  0 <= x <= 1.

    Solved by the HiGHS core that scipy bundles, given the options and the
    numbers that `scipy.optimize.linprog(costs, A_ub=-A, b_ub=-rhs,
    bounds=(0, 1), method="highs")` gives it, so x is bit-identical to
    linprog's; the rows go over as built, row-wise, in one flat passModel
    call. `solver`, from lp_solver(), may be reused by the thread that made
    it: passing a model clears what the last solve left. Returns x when
    HiGHS finds an optimum. Raises InfeasibleError when it proves the LP
    infeasible, and SolverError on any other model status or when a HiGHS
    call does not return kOk.
    """
    ncol, nrow = len(costs), len(rows)
    start, nnz = [], 0
    for row in rows:
        start.append(nnz)
        nnz += len(row)
    highs = _highs()
    _check_call(solver.passModel(
        ncol, nrow, nnz, highs.rowwise, highs.minimize, 0.0,
        costs, np.zeros(ncol), np.ones(ncol),
        np.full(nrow, -highs.core.kHighsInf), -np.array(rhs, dtype=float),
        np.array(start, dtype=np.int32),
        np.array([j for row in rows for j in row], dtype=np.int32),
        np.full(nnz, -1.0),
        # every column continuous: an empty array makes passModel fail
        np.zeros(ncol, dtype=np.int32)), "passModel")
    _check_call(solver.run(), "run")
    status = solver.getModelStatus()
    if status == highs.core.HighsModelStatus.kOptimal:
        return np.array(solver.getSolution().col_value)
    message = f"LP solve failed: {solver.modelStatusToString(status)}"
    if status == highs.core.HighsModelStatus.kInfeasible:
        raise InfeasibleError(message)
    raise SolverError(message)


@dataclass
class LpState:
    values: dict[int, float]              # free edge id -> LP value in [0,1]
    objective: float                      # cost of the fractional part


def solve_lp(ei: ElementInstance, purchased: Iterable[int] = (),
             solver=None, network: ElementNetwork | None = None) -> LpState:
    """Optimize the mixed-cut relaxation given already-purchased edges.

    Loop: separate every active pair with the fractional min-cut oracle at
    the current point, purchased edges at capacity 1; add each violated
    cut Sum_{e in F free} x_e >= r - |X| - |F purchased| and re-solve until
    no cut is violated. Each separation flow stops at the pair's
    requirement, since only a cut below it is used. A pair the full graph
    cannot serve ends in InfeasibleError: its cut either has no free edge
    or makes the LP infeasible. Any other LP failure, or a loop still
    finding violated cuts after MAX_CUT_ROUNDS LP solves, raises
    SolverError. `solver` (from lp_solver()) and `network` (built for ei)
    are made here when not given; the caller may pass its own to reuse
    them across calls.
    """
    purchased = frozenset(purchased)
    free = [e for e in range(ei.inst.m) if e not in purchased]
    pos = {e: j for j, e in enumerate(free)}
    costs = np.array([float(ei.inst.edge_cost(e)) for e in free])
    if network is None:
        network = ElementNetwork(ei.inst, ei.terminals)
    if solver is None:
        solver = lp_solver()

    values = {e: 0.0 for e in free}
    rows: list[list[int]] = []
    rhs: list[float] = []
    seen_keys = set()
    rounds = 0

    while True:
        exact = {x: Fraction(x).limit_denominator(10**12)
                 for x in set(values.values())}
        caps = ({e: exact[values[e]] for e in free}
                | dict.fromkeys(purchased, Fraction(1)))
        new_rows = 0
        for pr in _sorted_pairs(ei):
            u, v = sorted(pr)
            r = ei.active_pairs[pr]
            res = fractional_element_mincut(
                ei.inst, ei.terminals, u, v, caps, network=network, target=r)
            if float(res.value) >= r - SEPARATION_TOL:
                continue
            f_free = frozenset(res.cut_edges) - purchased
            bound = r - len(res.cut_vertices) - len(res.cut_edges & purchased)
            if not f_free:
                raise InfeasibleError(
                    f"pair ({u},{v}): violated cut with no free edges")
            key = (f_free, bound)
            if key in seen_keys:
                continue  # LP already carries it; within-tolerance noise
            seen_keys.add(key)
            rows.append([pos[e] for e in f_free])
            rhs.append(float(bound))
            new_rows += 1
        if new_rows == 0:
            break
        if rounds == MAX_CUT_ROUNDS:
            raise SolverError(f"cutting-plane loop still finds violated "
                              f"cuts after {MAX_CUT_ROUNDS} LP solves")
        rounds += 1
        x = linprog(costs, rows, rhs, solver)
        values = {e: min(1.0, max(0.0, float(x[pos[e]]))) for e in free}

    objective = float(np.dot(costs, [values[e] for e in free])) if free else 0.0
    return LpState(values=values, objective=objective)


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
    until purchased edges alone satisfy every active pair. A pair the full
    graph cannot serve raises InfeasibleError from the first LP solve.
    Every LP and check of the solve shares one solver and one network."""
    network = ElementNetwork(ei.inst, ei.terminals)
    solver = lp_solver()
    purchased: set[int] = set()
    log: list[tuple[int, float]] = []
    first_lp: float | None = None

    while not _serves(ei, frozenset(purchased), network):
        lp = solve_lp(ei, purchased, solver, network)
        if first_lp is None:
            first_lp = lp.objective
        # max LP value, ties to the lowest edge id, for determinism
        best = min(lp.values, key=lambda e: (-lp.values[e], e))
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

def solve_exact(*eis: ElementInstance,
                budget: int = DEFAULT_NODE_BUDGET) -> EdgeSolution:
    """Minimum-cost edge subset serving every active pair of every given
    instance, all of one `inst`, by branch and bound: the toolkit's one
    exact search (desk-scale oracle). The exact VC-SNDP oracle passes one
    instance per requirement pair with terminals {s, t}.

    Branches over edges in nonincreasing cost order, then id,
    exclude-first; a branch dies when the edges still available cannot
    serve some pair. Each instance with active pairs gets one network,
    built once. A pair the full edge set cannot serve raises
    InfeasibleError; more than `budget` nodes raise BudgetExceededError.
    """
    inst = eis[0].inst
    if any(ei.inst is not inst for ei in eis):
        raise ValueError("element instances must share one inst")
    checks = [(ei, ElementNetwork(inst, ei.terminals))
              for ei in eis if ei.active_pairs]
    if not checks:
        return EdgeSolution.of(inst, ())

    def feasible(ids: frozenset[int]) -> bool:
        return all(_serves(ei, ids, network) for ei, network in checks)

    all_ids = frozenset(range(inst.m))
    if not feasible(all_ids):
        raise InfeasibleError("full edge set is not feasible")
    order = sorted(all_ids, key=lambda e: (-inst.edge_cost(e), e))
    best_ids = all_ids
    best_cost = inst.total_cost(all_ids)
    nodes = 0

    def dfs(idx: int, chosen: frozenset[int], cost: Fraction):
        nonlocal best_ids, best_cost, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"branch-and-bound exceeded {budget} nodes")
        if cost >= best_cost:
            return
        if idx == len(order):
            # chosen is feasible: chosen | order[idx:] is at every node,
            # from the full set at the root down, since an edge is left
            # out only when the rest still serve every pair
            best_ids, best_cost = chosen, cost
            return
        e = order[idx]
        # exclude e when the remaining edges can still cover everything
        if feasible(chosen | frozenset(order[idx + 1:])):
            dfs(idx + 1, chosen, cost)
        dfs(idx + 1, chosen | {e}, cost + inst.edge_cost(e))

    dfs(0, frozenset(), Fraction(0))
    return EdgeSolution(best_ids, best_cost)
