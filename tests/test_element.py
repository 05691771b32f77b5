import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from conftest import random_graph, run_python_child, triangle
from vcsndp import connectivity, element
from vcsndp.connectivity import (
    PairReport,
    VerificationReport,
    element_connectivity_pair,
    fractional_element_mincut,
)
from vcsndp.element import (
    ElementInstance,
    induce_element_instance,
    linprog,
    lp_solver,
    solve_exact,
    solve_iterative_rounding,
    solve_lp,
)
from vcsndp.errors import BudgetExceededError, InfeasibleError, SolverError
from vcsndp.generate import generate_instance
from vcsndp.instance import Instance, derive_terminals, pair, write_instance

TOL = 1e-6


def verify_element_solution(inst, terminals, active_pairs, edge_ids):
    """Element-connectivity analogue of verify_vc_solution."""
    ids = frozenset(edge_ids)
    reports = []
    for pr in sorted(active_pairs, key=sorted):
        u, v = sorted(pr)
        got = element_connectivity_pair(inst, terminals, u, v, ids).value
        reports.append(PairReport(u, v, active_pairs[pr], int(got)))
    return VerificationReport(
        all(p.achieved >= p.required for p in reports), tuple(reports))


def random_element_instance(rng, n_max=6, k_max=2, want_pairs=2):
    """Feasible random element instance with requirements clamped to the
    full graph's element connectivity."""
    while True:
        inst = random_graph(rng.randint(4, n_max), 0.55, rng)
        terms = frozenset(rng.sample(range(inst.n),
                                     rng.randint(2, min(4, inst.n))))
        active = {}
        for _ in range(want_pairs):
            s, t = rng.sample(sorted(terms), 2)
            cap = element_connectivity_pair(inst, terms, s, t).value
            if cap >= 1:
                active[pair(s, t)] = min(rng.randint(1, k_max), cap)
        if active:
            return ElementInstance(inst=inst, terminals=terms,
                                   active_pairs=active)


def test_induce_examples():
    inst = Instance(4, ((0, 1, Fraction(1)), (1, 2, Fraction(1)),
                        (2, 3, Fraction(1))),
                    {pair(0, 1): 1, pair(1, 2): 2})
    full = derive_terminals(inst)
    assert induce_element_instance(inst, full, set()).active_pairs == {}
    assert induce_element_instance(inst, full, full).active_pairs == \
        inst.requirements
    sub = induce_element_instance(inst, full, {0, 1})
    assert sub.active_pairs == {pair(0, 1): 1}
    assert sub.terminals == {0, 1}  # vertex 2 is an element here


def test_induce_rejects_foreign_subset():
    inst = Instance(3, (), {pair(0, 1): 1})
    with pytest.raises(ValueError):
        induce_element_instance(inst, frozenset({0, 1}), {0, 2})


def test_exact_triangle_needs_all_edges():
    # full 2^3 enumeration: with c non-terminal, the mixed cut
    # {edge ab, vertex c} forces both the direct edge and the detour
    ei = induce_element_instance(triangle(2), frozenset({0, 1}), {0, 1})
    sol = solve_exact(ei)
    assert sol.edge_ids == {0, 1, 2}
    assert sol.cost == 3


def test_exact_path_single_pair():
    inst = Instance(4, ((0, 1, Fraction(2)), (1, 2, Fraction(3)),
                        (2, 3, Fraction(1))), {pair(0, 3): 1})
    ei = induce_element_instance(inst, frozenset({0, 3}), {0, 3})
    assert solve_exact(ei).edge_ids == {0, 1, 2}


def test_exact_infeasible_requirement():
    ei = induce_element_instance(triangle(3), frozenset({0, 1}), {0, 1})
    with pytest.raises(InfeasibleError):
        solve_exact(ei)


def test_exact_budget():
    rng = random.Random(5)
    ei = random_element_instance(rng)
    with pytest.raises(BudgetExceededError):
        solve_exact(ei, budget=1)


def test_lp_no_active_pairs():
    inst = Instance(3, ((0, 1, Fraction(2)),))
    ei = ElementInstance(inst=inst, terminals=frozenset({0, 1}))
    state = solve_lp(ei)
    assert state.objective == 0
    assert all(v == 0 for v in state.values.values())


def test_lp_triangle_forces_all_ones():
    ei = induce_element_instance(triangle(2), frozenset({0, 1}), {0, 1})
    state = solve_lp(ei)
    assert state.objective == pytest.approx(3, abs=TOL)
    assert all(v == pytest.approx(1, abs=TOL) for v in state.values.values())


def test_lp_with_everything_purchased():
    ei = induce_element_instance(triangle(2), frozenset({0, 1}), {0, 1})
    state = solve_lp(ei, purchased=range(3))
    assert state.objective == 0
    assert state.values == {}


def test_lp_infeasible_pair_raises():
    # the full graph gives (0,1) only 2 element-disjoint paths; with no
    # up-front check the separation loop itself must reject r = 3
    ei = induce_element_instance(triangle(3), frozenset({0, 1}), {0, 1})
    with pytest.raises(InfeasibleError):
        solve_lp(ei)
    with pytest.raises(InfeasibleError):
        solve_lp(ei, purchased={0})
    with pytest.raises(InfeasibleError):
        solve_iterative_rounding(ei)


def test_linprog_matches_scipy_linprog():
    # element.linprog drives scipy's private HiGHS core: it must keep the
    # exact x of scipy's public linprog on covering LPs shaped like the
    # cutting-plane LPs, and raise InfeasibleError where scipy reports
    # status 2, with a fresh or a reused solver
    rng = random.Random(2008)
    cases = [([1.0, 2.0], [[0]], [2.0])]  # x0 <= 1 cannot reach 2
    for _ in range(240):
        ncol = rng.randint(3, 30)
        costs = [float(rng.randint(1, 9)) for _ in range(ncol)]
        rows = [rng.sample(range(ncol), rng.randint(1, ncol))
                for _ in range(rng.randint(1, 40))]
        rhs = [float(rng.randint(1, min(3, len(row)))) for row in rows]
        if rng.random() < 0.1:
            rhs[0] = float(len(rows[0]) + 1)  # infeasible
        cases.append((costs, rows, rhs))
    solver = lp_solver()
    statuses = set()
    for costs, rows, rhs in cases:
        dense = np.zeros((len(rows), len(costs)))
        for i, row in enumerate(rows):
            dense[i, row] = 1.0
        ref = scipy.optimize.linprog(
            costs, A_ub=-dense, b_ub=-np.array(rhs), bounds=(0, 1),
            method="highs")
        statuses.add(ref.status)
        for reused in (lp_solver(), solver):
            if ref.status == 2:
                with pytest.raises(InfeasibleError,
                                   match="^LP solve failed: Infeasible$"):
                    linprog(np.array(costs), rows, rhs, reused)
            else:
                assert np.array_equal(
                    linprog(np.array(costs), rows, rhs, reused), ref.x)
    assert statuses == {0, 2}


class StubSolver:
    """Returns the given HiGHS call statuses and model status; with the
    default kOptimal it reports an optimum, as a reused solver does after a
    rejected model: run solves the previous one."""

    def __init__(self, pass_status, run_status, model_status=None):
        core = element._highs().core
        self.pass_status, self.run_status = pass_status, run_status
        self.model_status = (core.HighsModelStatus.kOptimal
                             if model_status is None else model_status)
        self.runs = 0

    def passModel(self, *args):
        return self.pass_status

    def run(self):
        self.runs += 1
        return self.run_status

    def getModelStatus(self):
        return self.model_status

    def modelStatusToString(self, status):
        return element._highs().core._Highs().modelStatusToString(status)


def test_linprog_raises_on_any_highs_call_not_ok():
    status = element._highs().core.HighsStatus
    for pass_status, run_status, runs in (
            (status.kError, status.kOk, 0), (status.kWarning, status.kOk, 0),
            (status.kOk, status.kError, 1), (status.kOk, status.kWarning, 1)):
        stub = StubSolver(pass_status, run_status)
        with pytest.raises(SolverError, match="HiGHS"):
            linprog(np.array([1.0, 2.0]), [[0, 1]], [1.0], solver=stub)
        assert stub.runs == runs


@pytest.mark.parametrize("model_status, error, message", [
    ("kInfeasible", InfeasibleError, "Infeasible"),
    ("kIterationLimit", SolverError, "Iteration limit reached"),
    ("kTimeLimit", SolverError, "Time limit reached"),
    ("kUnbounded", SolverError, "Unbounded"),
])
def test_linprog_raises_on_a_model_status_not_optimal(model_status, error,
                                                      message):
    core = element._highs().core
    stub = StubSolver(core.HighsStatus.kOk, core.HighsStatus.kOk,
                      getattr(core.HighsModelStatus, model_status))
    with pytest.raises(error, match=f"^LP solve failed: {message}$"):
        linprog(np.array([1.0, 2.0]), [[0, 1]], [1.0], stub)


def test_one_solver_and_one_network_per_element_solve(monkeypatch):
    made = Counter()
    real_solver, real_solve_lp = element.lp_solver, element.solve_lp

    def counting_solver():
        made["solvers"] += 1
        return real_solver()

    def counting_solve_lp(*args):
        made["lp_solves"] += 1
        return real_solve_lp(*args)

    class CountingNetwork(connectivity.ElementNetwork):
        def __init__(self, *args):
            made["networks"] += 1
            super().__init__(*args)

    monkeypatch.setattr(element, "lp_solver", counting_solver)
    monkeypatch.setattr(element, "solve_lp", counting_solve_lp)
    for module in (element, connectivity):
        monkeypatch.setattr(module, "ElementNetwork", CountingNetwork)
    rng = random.Random(29)
    lp_solves = 0
    for _ in range(6):
        ei = random_element_instance(rng)
        made.clear()
        _, cert = solve_iterative_rounding(ei)
        assert made == {"solvers": 1, "networks": 1,
                        "lp_solves": len(cert.rounding_log)}
        lp_solves += made["lp_solves"]
    assert lp_solves > 6  # some solves share the two across LPs


def test_scipy_optimize_loads_on_first_lp():
    # importing the toolkit leaves scipy.optimize (0.5-0.7 s, ~50 MB) out
    code = ("import sys, vcsndp, vcsndp.cli; "
            "print('scipy.optimize' in sys.modules)")
    proc = run_python_child(code)
    assert proc.stdout == "False\n"


SOLVE_WITHOUT_SCIPY_OPTIMIZE = """
import io, random, sys
import numpy as np
from vcsndp import cli, element

out = io.StringIO()
assert cli.run(["solve", {path!r}, "--single-source", "off", "--verify",
                "--verify-family", "--jobs", "2"], out=out) == 0, out
assert "cost " in out.getvalue()
assert "scipy.optimize._highspy._core" in sys.modules
assert "scipy.optimize" not in sys.modules
core = element._highs().core

import scipy.optimize
from scipy.optimize._highspy import _core
assert _core is core is sys.modules["scipy.optimize._highspy._core"]
rng = random.Random(7)
solver = element.lp_solver()
for _ in range(20):
    ncol = rng.randint(3, 20)
    costs = np.array([float(rng.randint(1, 9)) for _ in range(ncol)])
    rows = [rng.sample(range(ncol), rng.randint(1, ncol))
            for _ in range(rng.randint(1, 20))]
    rhs = [float(rng.randint(1, min(3, len(row)))) for row in rows]
    dense = np.zeros((len(rows), ncol))
    for i, row in enumerate(rows):
        dense[i, row] = 1.0
    ref = scipy.optimize.linprog(costs, A_ub=-dense, b_ub=-np.array(rhs),
                                 bounds=(0, 1), method="highs")
    assert np.array_equal(element.linprog(costs, rows, rhs, solver), ref.x)
print("ok")
"""


def test_solve_loads_the_highs_core_without_scipy_optimize(tmp_path):
    # a full solve loads the core by path and never scipy.optimize; an
    # import of scipy.optimize afterwards finds the same core, and linprog
    # keeps scipy's x. This process imported scipy.optimize first, so the
    # other tests cover the other order.
    path = tmp_path / "inst.txt"
    path.write_text(write_instance(
        generate_instance("erdos-renyi", 8, 0.6, 2, 3, (1, 9), seed=4)))
    proc = run_python_child(SOLVE_WITHOUT_SCIPY_OPTIMIZE.format(
        path=str(path)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


CONCURRENT_FIRST_LOAD = """
import sys, threading
from vcsndp import element

sys.setswitchinterval(1e-6)
barrier = threading.Barrier(16, timeout=30)
cores = []

def load():
    barrier.wait()
    cores.append(element._highs().core)

threads = [threading.Thread(target=load) for _ in range(16)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(30)
assert not any(thread.is_alive() for thread in threads)
core = sys.modules["scipy.optimize._highspy._core"]
assert len(cores) == 16 and all(c is core for c in cores), len(cores)
print("ok")
"""


def test_first_load_from_many_threads_gives_one_core():
    # the --jobs pool can reach the first load from several threads; one
    # that saw the core half loaded would fail on its first attribute.
    # Each thread may reserve a 64 MiB malloc arena, hence the wider cap.
    proc = run_python_child(CONCURRENT_FIRST_LOAD, limit=4 << 30, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_serves_loads_the_unit_capacities_once(monkeypatch):
    # the pairs of one integral check share one load; the element.check
    # hook still sees each pair checked, and the verdict is unchanged
    calls = Counter()
    real_load = connectivity.ElementNetwork._load
    real_pair = element.element_connectivity_pair

    def counting_load(self, capacities):
        calls["loads"] += 1
        real_load(self, capacities)

    def counting_pair(*args, **kwargs):
        calls["checks"] += 1
        return real_pair(*args, **kwargs)

    monkeypatch.setattr(connectivity.ElementNetwork, "_load", counting_load)
    monkeypatch.setattr(element, "element_connectivity_pair", counting_pair)
    rng = random.Random(31)
    checks = 0
    for _ in range(12):
        ei = random_element_instance(rng, want_pairs=4)
        pairs = sorted(ei.active_pairs, key=sorted)
        network = connectivity.ElementNetwork(ei.inst, ei.terminals)
        for edges in (frozenset(range(ei.inst.m)),
                      frozenset(e for e in range(ei.inst.m)
                                if rng.random() < 0.7)):
            # a fractional load between checks, as a separation round does
            fractional_element_mincut(
                ei.inst, ei.terminals, *sorted(pairs[0]),
                {e: Fraction(1, 2) for e in edges}, network=network)
            short = [real_pair(ei.inst, ei.terminals, *sorted(pr),
                               edges).value < ei.active_pairs[pr]
                     for pr in pairs]
            calls.clear()
            served = element._serves(ei, edges, network)
            assert served == (True not in short)
            checked = short.index(True) + 1 if True in short else len(short)
            assert calls == {"loads": 1, "checks": checked}
            checks += checked
    assert checks > 24  # most checks cover more than one pair


def test_lp_separation_soundness():
    rng = random.Random(17)
    for _ in range(8):
        ei = random_element_instance(rng)
        state = solve_lp(ei)
        caps = {e: Fraction(v).limit_denominator(10**12)
                for e, v in state.values.items()}
        for pr, r in ei.active_pairs.items():
            res = fractional_element_mincut(
                ei.inst, ei.terminals, *sorted(pr), caps)
            assert float(res.value) >= r - TOL


def test_iterative_rounding_no_pairs():
    inst = Instance(3, ((0, 1, Fraction(2)),))
    ei = ElementInstance(inst=inst, terminals=frozenset({0, 1}))
    sol, cert = solve_iterative_rounding(ei)
    assert sol.cost == 0
    assert cert.ratio == 1.0


def test_iterative_rounding_triangle():
    ei = induce_element_instance(triangle(2), frozenset({0, 1}), {0, 1})
    sol, cert = solve_iterative_rounding(ei)
    assert sol.cost == 3
    assert cert.lp_lower_bound == pytest.approx(3, abs=TOL)
    assert cert.ratio == pytest.approx(1, abs=TOL)
    assert not cert.theory_deviation


def test_oracle_sandwich_random_instances():
    # lp <= exact <= iterative <= 2 * exact, feasibility via the verifier
    rng = random.Random(99)
    deviations = 0
    for _ in range(30):
        ei = random_element_instance(rng)
        exact = solve_exact(ei)
        approx, cert = solve_iterative_rounding(ei)
        assert verify_element_solution(
            ei.inst, ei.terminals, ei.active_pairs, exact.edge_ids).feasible
        assert verify_element_solution(
            ei.inst, ei.terminals, ei.active_pairs, approx.edge_ids).feasible
        assert cert.lp_lower_bound <= float(exact.cost) + TOL
        assert float(exact.cost) <= float(approx.cost) + TOL
        assert float(approx.cost) <= 2 * float(exact.cost) + TOL
        if cert.theory_deviation:
            deviations += 1
        else:
            assert cert.solution_cost <= 2 * cert.lp_lower_bound + TOL
    assert deviations <= 2  # diagnostic: rare on this corpus
