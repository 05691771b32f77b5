import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import c4, random_graph
from oracles import subsets_of
from vcsndp.connectivity import (
    element_connectivity_pair,
    verify_vc_solution,
    vertex_connectivity_pair,
)
from vcsndp.element import ElementInstance, solve_exact
from vcsndp.errors import GenerationError, InfeasibleError
from vcsndp.generate import generate_instance
from vcsndp.instance import EdgeSolution, Instance, pair
from vcsndp.pipeline import (
    PipelineConfig,
    find_common_source,
    resolve_mode,
    solve_exact_vcsndp,
    solve_pipeline,
)
from vcsndp.report import benchmark, dumps, result_to_dict


def feasible_instances(count, rng, n_max=10, k_max=2, pairs=2):
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        try:
            inst = generate_instance(
                "erdos-renyi", rng.randint(6, n_max), 0.45, k_max, pairs,
                (1, 9), seed=seed)
        except GenerationError:
            continue
        out.append(inst)
    return out


def test_c4_exact_backend_golden():
    cfg = PipelineConfig(seed=1, backend="exact", verify_family=True)
    res = solve_pipeline(c4(), cfg)
    assert res.solution.cost == 4
    assert res.verification.feasible
    assert res.solution.edge_ids == {0, 1, 2, 3}
    assert solve_exact_vcsndp(c4()).cost == 4


def test_k1_override_collapses_to_single_instance():
    inst = Instance(3, ((0, 1, Fraction(2)), (1, 2, Fraction(1)),
                        (0, 2, Fraction(5))), {pair(0, 2): 1})
    cfg = PipelineConfig(seed=0, backend="exact", params_override=(1, 1),
                         unsafe_params=True, verify_family=True)
    res = solve_pipeline(inst, cfg)
    assert res.family.params.p == 1
    assert len(res.records) == 1
    assert res.verification.feasible
    assert res.solution.cost == 3  # the cheap two-edge path


def test_union_law_and_cost_subadditivity():
    rng = random.Random(4)
    for inst in feasible_instances(5, rng):
        res = solve_pipeline(inst, PipelineConfig(seed=2, verify_family=True))
        union = frozenset().union(*(r.edge_ids for r in res.records))
        assert res.solution.edge_ids == union
        assert res.solution.cost <= sum(r.cost for r in res.records)


def test_verified_families_give_feasible_solutions():
    rng = random.Random(8)
    for inst in feasible_instances(6, rng):
        res = solve_pipeline(inst, PipelineConfig(seed=3, verify_family=True))
        assert res.verification.feasible


def test_determinism():
    rng = random.Random(10)
    (inst,) = feasible_instances(1, rng)
    cfg = PipelineConfig(seed=7, verify_family=True)
    a = dumps(result_to_dict(inst, cfg, solve_pipeline(inst, cfg)))
    b = dumps(result_to_dict(inst, cfg, solve_pipeline(inst, cfg)))
    assert a == b


def test_jobs_do_not_change_output():
    rng = random.Random(12)
    (inst,) = feasible_instances(1, rng)
    cfg1 = PipelineConfig(seed=5, verify_family=True, jobs=1)
    cfg4 = PipelineConfig(seed=5, verify_family=True, jobs=4)
    r1 = solve_pipeline(inst, cfg1)
    r4 = solve_pipeline(inst, cfg4)
    assert r1.solution == r4.solution
    assert r1.records == r4.records


def test_infeasible_instance_rejected():
    inst = Instance(3, ((0, 1, Fraction(1)), (1, 2, Fraction(1))),
                    {pair(0, 2): 2})
    with pytest.raises(InfeasibleError):
        solve_pipeline(inst, PipelineConfig(seed=0))
    with pytest.raises(InfeasibleError):
        solve_exact_vcsndp(inst)


def test_empty_requirements_rejected():
    inst = Instance(3, ((0, 1, Fraction(1)),))
    with pytest.raises(InfeasibleError):
        solve_pipeline(inst, PipelineConfig(seed=0))


def test_exact_vcsndp_shortest_path_case():
    inst = Instance(4, ((0, 1, Fraction(5)), (1, 3, Fraction(5)),
                        (0, 2, Fraction(2)), (2, 3, Fraction(3)),
                        (0, 3, Fraction(9))), {pair(0, 3): 1})
    sol = solve_exact_vcsndp(inst)
    assert sol.cost == 5  # shortest 0-3 path through vertex 2


def _cheapest_accepted(inst, accepts):
    """Least cost over every one of the 2^m edge subsets that `accepts`."""
    return min(inst.total_cost(ids)
               for size in range(inst.m + 1)
               for ids in map(frozenset, combinations(range(inst.m), size))
               if accepts(ids))


def test_exact_entry_points_match_exhaustive_search():
    rng = random.Random(8)
    seen = 0
    while seen < 24:
        graph = random_graph(rng.randint(4, 6), 0.6, rng)
        if not 1 <= graph.m <= 8:
            continue
        seen += 1
        # solve_exact_vcsndp, each subset judged by verify_vc_solution
        reqs = {}
        for s, t in rng.sample(list(combinations(range(graph.n), 2)),
                               rng.randint(1, 3)):
            cap = vertex_connectivity_pair(graph, s, t).value
            if cap >= 1:
                reqs[pair(s, t)] = min(rng.randint(1, 3), cap)
        if reqs:
            inst = Instance(graph.n, graph.edges, reqs)
            sol = solve_exact_vcsndp(inst)
            assert verify_vc_solution(inst, sol).feasible
            assert sol.cost == _cheapest_accepted(
                inst, lambda ids: verify_vc_solution(
                    inst, EdgeSolution.of(inst, ids)).feasible)
        # solve_exact with a terminal beyond the pair ends, each subset
        # judged pair by pair; the spare terminal is a vertex of top
        # degree, where paths sharing it are likeliest to pay
        degree = Counter(w for u, v, _ in graph.edges for w in (u, v))
        spare = max(range(graph.n), key=lambda w: (degree[w], rng.random()))
        terms = rng.sample([w for w in range(graph.n) if w != spare],
                           rng.randint(2, min(4, graph.n - 1)))
        terminals = frozenset((spare, *terms))
        active = {}
        pairs = list(combinations(terms, 2))
        for s, t in rng.sample(pairs, rng.randint(1, min(2, len(pairs)))):
            cap = element_connectivity_pair(graph, terminals, s, t).value
            if cap >= 1:
                active[pair(s, t)] = min(rng.randint(1, 3), cap)
        if not active:
            continue
        ei = ElementInstance(graph, terminals, active)

        def serves(ids):
            return all(element_connectivity_pair(
                graph, terminals, *sorted(pr), ids).value >= r
                for pr, r in active.items())

        sol = solve_exact(ei)
        assert serves(sol.edge_ids)
        assert sol.cost == graph.total_cost(sol.edge_ids)
        assert sol.cost == _cheapest_accepted(graph, serves)


def test_single_source_star():
    star = Instance(5, tuple((0, i, Fraction(1)) for i in range(1, 5)),
                    {pair(0, i): 1 for i in range(1, 5)})
    cfg = PipelineConfig(mode="single-source", seed=1, backend="exact",
                         params_override=(1, 1), unsafe_params=True,
                         verify_family=True)
    res = solve_pipeline(star, cfg)
    assert res.source == 0
    assert res.solution.edge_ids == {0, 1, 2, 3}
    assert res.verification.feasible


def test_single_source_wheel_r3():
    hub = generate_instance("wheel", 6, None, 3, 1, (1, 1), seed=0)
    # rebuild with a guaranteed r=3 hub requirement
    inst = Instance(hub.n, hub.edges, {pair(0, 2): 3})
    cfg = PipelineConfig(mode="single-source", seed=1, verify_family=True)
    res = solve_pipeline(inst, cfg)
    assert res.verification.feasible
    opt = solve_exact_vcsndp(inst)
    assert opt.cost <= res.solution.cost
    assert res.solution.cost <= 2 * res.family.params.p * opt.cost


def test_single_source_requires_common_vertex():
    inst = Instance(4, tuple((u, v, Fraction(1)) for u in range(4)
                             for v in range(u + 1, 4)),
                    {pair(0, 1): 1, pair(2, 3): 1})
    with pytest.raises(InfeasibleError, match="common source"):
        solve_pipeline(inst, PipelineConfig(mode="single-source"))


def test_find_common_source():
    inst = Instance(4, (), {pair(2, 0): 1, pair(2, 3): 1})
    assert find_common_source(inst) == 2
    both = Instance(4, (), {pair(1, 3): 1})
    assert find_common_source(both) == 1


def test_auto_mode_runs_the_detected_mode():
    cycle = c4(1).edges
    source = Instance(4, cycle, {pair(0, 1): 1, pair(0, 2): 2})
    general = Instance(4, cycle, {pair(0, 2): 1, pair(1, 3): 1})
    for inst, mode in ((source, "single-source"), (general, "general")):
        assert resolve_mode(inst, "auto") == mode
        auto_cfg = PipelineConfig(mode="auto", seed=4)
        fixed_cfg = PipelineConfig(mode=mode, seed=4)
        auto = solve_pipeline(inst, auto_cfg)
        assert auto.family.params.mode == mode
        assert auto.source == (0 if mode == "single-source" else None)
        # the same run, and report, as naming the mode
        fixed = solve_pipeline(inst, fixed_cfg)
        assert (dumps(result_to_dict(inst, auto_cfg, auto))
                == dumps(result_to_dict(inst, fixed_cfg, fixed)))
    assert resolve_mode(source, "general") == "general"
    with pytest.raises(ValueError, match="mode must be one of"):
        PipelineConfig(mode="nonesuch")


def test_cost_bound_2p_opt():
    rng = random.Random(21)
    for inst in feasible_instances(3, rng, n_max=8, pairs=2):
        res = solve_pipeline(inst, PipelineConfig(seed=9, verify_family=True))
        opt = solve_exact_vcsndp(inst)
        assert res.solution.cost <= 2 * res.family.params.p * opt.cost


def test_skipped_subsets_have_no_active_pairs():
    rng = random.Random(30)
    (inst,) = feasible_instances(1, rng)
    wheel = generate_instance("wheel", 7, None, 2, 1, (1, 9), seed=0)
    rooted = Instance(wheel.n, wheel.edges,
                      {pair(0, v): 2 for v in (2, 4, 6)})
    for inst, mode in ((inst, "general"), (rooted, "single-source")):
        res = solve_pipeline(inst, PipelineConfig(mode=mode, seed=11,
                                                  verify_family=True))
        pinned = {res.source} - {None}
        subsets = subsets_of(res.family)
        assert set(res.subset_classes) <= set(subsets)
        slots = set()
        for i in subsets:
            slot = res.subset_classes.get(i, -1)
            active = {pr for pr in inst.requirements
                      if pr <= subsets[i] | pinned}
            assert (slot == -1) == (not active)
            if slot != -1:
                # the class's active pairs are exactly those inside
                # T_i + pinned
                rec = res.records[slot]
                assert {pair(u, v) for u, v, _ in rec.active_pairs} == active
                slots.add(slot)
        assert slots == set(range(len(res.records)))
        # some index is skipped
        assert len(res.subset_classes) < len(subsets)


def test_benchmark_report():
    rng = random.Random(40)
    instances = [(f"i{j}", inst)
                 for j, inst in enumerate(feasible_instances(3, rng, n_max=7))]
    cfg = PipelineConfig(seed=2, verify_family=True, verify_solution=True)
    rep = benchmark(instances, cfg, include_timing=False)
    assert rep["aggregate"]["count"] == 3
    for row in rep["instances"]:
        assert row["feasible"] is True
        if row["empirical_ratio"] is not None:
            assert row["empirical_ratio"] <= 2 * row["p"]
    # determinism without timing
    assert dumps(rep) == dumps(benchmark(instances, cfg,
                                         include_timing=False))
    assert benchmark([], cfg, include_timing=False)["instances"] == []


def test_solve_pipeline_dispatch():
    star = Instance(3, ((0, 1, Fraction(1)), (0, 2, Fraction(1))),
                    {pair(0, 1): 1, pair(0, 2): 1})
    res = solve_pipeline(star, PipelineConfig(
        mode="single-source", seed=0, params_override=(1, 1),
        unsafe_params=True))
    assert res.source == 0
