"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 2 and 7 are the slow ones (pipeline sweeps with exhaustive
family checks); the whole module targets a few minutes.
"""

import math
import random
from itertools import combinations

from conftest import c4, random_graph, triangle
from oracles import brute_force_menger_element, brute_force_menger_vertex
from vcsndp import family as fam
from vcsndp.connectivity import (
    element_connectivity_pair,
    vertex_connectivity_pair,
)
from vcsndp.element import (
    induce_element_instance,
    solve_exact,
    solve_iterative_rounding,
    solve_lp,
)
from vcsndp.errors import GenerationError
from vcsndp.generate import generate_instance
from vcsndp.instance import Instance
from vcsndp.pipeline import PipelineConfig, solve_exact_vcsndp, solve_pipeline

TOL = 1e-6


def _line(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _feasible_corpus(count, rng, n_range, edge_prob, k_max, pairs, seed0=0):
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        try:
            inst = generate_instance(
                "erdos-renyi", rng.randint(*n_range), edge_prob, k_max,
                pairs, (1, 9), seed=seed)
        except GenerationError:
            continue
        if inst.m <= 25:
            out.append(inst)
    return out


def test_criterion_1_menger_oracle_equivalence():
    # 200 random graphs, n <= 8: flow values equal deletion-enumeration
    rng = random.Random(1)
    checked = 0
    ok = True
    for _ in range(200):
        inst = random_graph(rng.randint(4, 8), 0.4, rng)
        terms = frozenset(rng.sample(range(inst.n), rng.randint(2, inst.n)))
        s, t = rng.sample(range(inst.n), 2)
        ok &= vertex_connectivity_pair(inst, s, t).value == \
            brute_force_menger_vertex(inst, s, t)
        u, v = rng.sample(sorted(terms), 2)
        ok &= element_connectivity_pair(inst, terms, u, v).value == \
            brute_force_menger_element(inst, terms, u, v)
        checked += 1
    _line(1, "Menger oracle equivalence", ok and checked == 200)


def test_criterion_2_feasibility_of_good_family_runs():
    # 50 feasible instances x 3 seeds; every run with a verified good
    # family must produce a verified feasible solution
    rng = random.Random(2)
    corpus = _feasible_corpus(50, rng, (6, 14), 0.4, 3, 3)
    runs = passes = 0
    for inst in corpus:
        for seed in (11, 22, 33):
            cfg = PipelineConfig(seed=seed, verify_family=True,
                                 verify_solution=True)
            result = solve_pipeline(inst, cfg)
            runs += 1
            passes += result.verification.feasible
    _line(2, "good family implies feasible", runs == 150 and passes == 150)


def test_criterion_3_default_params_goodness_rate():
    # default natural-log parameters, |T| <= 6, k <= 2: >= 99/100 seeds good
    terms = list(range(6))
    prs = [frozenset(c) for c in combinations(terms, 2)]
    ok = True
    for k in (1, 2):
        gen = fam.default_params(k, len(terms), fam.GENERAL)
        hits = sum(
            fam.is_good_family_general(
                fam.sample_family(terms, gen, seed), prs, terms, k).good
            for seed in range(100))
        ok &= hits >= 99
        ss = fam.default_params(k, len(terms), fam.SINGLE_SOURCE)
        hits_ss = sum(
            fam.is_good_family_single_source(
                fam.sample_family(terms, ss, seed), terms, k).good
            for seed in range(100))
        ok &= hits_ss >= 99
    _line(3, "sampled families are good", ok)


def test_criterion_4_single_source_bad_event_bound():
    # Pr[phi(t) subset of phi(X)] <= (1/2)^q + 3 sigma over 10^4 samples
    trials = 10_000
    ok = True
    for k, tau in ((1, 4), (2, 6)):
        params = fam.default_params(k, tau, fam.SINGLE_SOURCE)
        _, rate = fam.estimate_bad_events(range(tau), params, seed=7,
                                          trials=trials)
        bound = 0.5 ** params.q
        sigma = math.sqrt(bound * (1 - bound) / trials)
        ok &= rate <= bound + 3 * sigma
    _line(4, "single-source bad-event rate", ok)


def test_criterion_5_certified_two_approximation():
    # every non-deviating iterative run: cost <= 2 * lp bound + 1e-6;
    # deviations at most 5% of the corpus
    rng = random.Random(5)
    from test_element import random_element_instance

    runs = deviations = 0
    ok = True
    for _ in range(40):
        ei = random_element_instance(rng)
        _, cert = solve_iterative_rounding(ei)
        runs += 1
        if cert.theory_deviation:
            deviations += 1
        else:
            ok &= cert.solution_cost <= 2 * cert.lp_lower_bound + 1e-6
    ok &= deviations <= 0.05 * runs
    _line(5, "certified 2x LP bound", ok)


def test_criterion_6_oracle_sandwich():
    # lp <= exact <= iterative <= 2 * exact on 30 tiny instances
    rng = random.Random(6)
    from test_element import random_element_instance

    ok = True
    count = 0
    while count < 30:
        ei = random_element_instance(rng)
        if ei.inst.m > 14:
            continue
        count += 1
        lp = solve_lp(ei)
        exact = solve_exact(ei)
        approx, _ = solve_iterative_rounding(ei)
        ok &= lp.objective <= float(exact.cost) + TOL
        ok &= float(exact.cost) <= float(approx.cost) + TOL
        ok &= float(approx.cost) <= 2 * float(exact.cost) + TOL
    _line(6, "oracle sandwich", ok)


def test_criterion_7_per_run_cost_bound():
    # wherever the exact oracle completes: pipeline cost <= 2 p OPT
    rng = random.Random(7)
    corpus = _feasible_corpus(8, rng, (6, 8), 0.45, 2, 2, seed0=700)
    ok = True
    ratios = []
    for inst in corpus:
        res = solve_pipeline(inst, PipelineConfig(seed=1, verify_family=True))
        opt = solve_exact_vcsndp(inst)
        ok &= res.solution.cost <= 2 * res.family.params.p * opt.cost
        if opt.cost > 0:
            ratios.append(float(res.solution.cost / opt.cost))
    print(f"  observed ratios: mean {sum(ratios) / len(ratios):.3f} "
          f"max {max(ratios):.3f} (bound 2p)")
    _line(7, "cost <= 2p * OPT", ok)


def test_criterion_8_hand_derived_golden_cases():
    ok = True
    # C4 opposite pair r=2, exact backend: cost 4
    res = solve_pipeline(c4(), PipelineConfig(seed=1, backend="exact",
                                              verify_family=True))
    ok &= res.solution.cost == 4 and res.verification.feasible
    # triangle with non-terminal corner: exact 3, LP 3, iterative 3
    ei = induce_element_instance(triangle(2), frozenset({0, 1}), {0, 1})
    ok &= solve_exact(ei).cost == 3
    ok &= abs(solve_lp(ei).objective - 3) <= TOL
    sol, cert = solve_iterative_rounding(ei)
    ok &= sol.cost == 3 and abs(cert.lp_lower_bound - 3) <= TOL
    # path a-b-c with terminals {a,c}: element connectivity 1
    p3 = Instance(3, triangle().edges[:2])
    ok &= element_connectivity_pair(p3, frozenset({0, 2}), 0, 2).value == 1
    _line(8, "hand-derived golden cases", ok)


def test_criterion_9_report_determinism(tmp_path):
    from vcsndp.cli import run

    inst_path = tmp_path / "inst.txt"
    code = run(["gen", "--model", "erdos-renyi", "--n", "8", "--edge-param",
                "0.5", "--k", "2", "--pairs", "2", "--seed", "9",
                "-o", str(inst_path)])
    assert code == 0
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run(["solve", str(inst_path), "--seed", "13", "--verify",
                    "--verify-family", "--json", str(out)])
        assert code == 0
        blobs.append(out.read_bytes())
    _line(9, "byte-identical JSON reports", blobs[0] == blobs[1])
