import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import subsets_of
from vcsndp import family as fam
from vcsndp.errors import BudgetExceededError
from vcsndp.instance import pair


def all_pairs(terminals):
    return [frozenset(c) for c in combinations(sorted(terminals), 2)]


def test_default_params_general_k1():
    p = fam.default_params(1, 2, fam.GENERAL)
    assert p.q == math.ceil(64 * math.log(2)) == 45
    assert p.p == 90


def test_default_params_single_source():
    p = fam.default_params(2, 16, fam.SINGLE_SOURCE)
    assert p.q == math.ceil(4 * math.log(16)) == 12
    assert p.p == 48


def test_default_params_rejects_small_basis():
    with pytest.raises(ValueError):
        fam.default_params(2, 1)


def test_params_relation_enforced():
    with pytest.raises(ValueError):
        fam.FamilyParams(k=2, basis=4, mode=fam.GENERAL, p=5, q=1)
    with pytest.raises(ValueError):
        fam.override_params(1, 2, fam.GENERAL, p=1, q=1)
    p = fam.override_params(1, 2, fam.GENERAL, p=1, q=1, unsafe=True)
    assert (p.p, p.q) == (1, 1)
    assert not p.paper_relation


def test_sampling_deterministic():
    params = fam.default_params(2, 8)
    a = fam.sample_family(range(5), params, seed=11)
    b = fam.sample_family(range(5), params, seed=11)
    assert a == b
    assert a != fam.sample_family(range(5), params, seed=12)


def test_phi_bounded_by_q():
    params = fam.override_params(1, 4, fam.GENERAL, p=6, q=3)
    f = fam.sample_family(range(10), params, seed=0)
    for idx in f.phi.values():
        assert 1 <= len(idx) <= 3
        assert all(1 <= i <= 6 for i in idx)


def test_empty_terminal_set():
    params = fam.default_params(1, 2)
    f = fam.sample_family([], params, seed=0)
    assert f.phi == {}
    assert all(not s for s in subsets_of(f).values())


def test_subset_phi_duality():
    params = fam.default_params(2, 6)
    f = fam.sample_family(range(6), params, seed=3)
    subsets = subsets_of(f)
    for t, idx in f.phi.items():
        for i in range(1, params.p + 1):
            assert (t in subsets[i]) == (i in idx)


def test_k1_single_full_subset_is_good():
    params = fam.override_params(1, 2, fam.GENERAL, p=1, q=1, unsafe=True)
    f = fam.sample_family(range(4), params, seed=0)
    assert all(f.phi[t] == {1} for t in range(4))
    report = fam.is_good_family_general(f, all_pairs(range(4)), range(4), 1)
    assert report.good


def test_empty_subset_not_good():
    params = fam.override_params(1, 2, fam.GENERAL, p=1, q=1, unsafe=True)
    f = fam.TerminalFamily.from_phi(params=params, seed=0,
                                    phi={0: frozenset(), 1: frozenset()})
    report = fam.is_good_family_general(f, [pair(0, 1)], [0, 1], 1)
    assert not report.good
    assert report.witness[0] == (0, 1)
    assert report.witness[1] == frozenset()
    assert fam.replay_witness(f, report.witness, fam.GENERAL)


def test_single_source_goodness_and_witness():
    params = fam.override_params(1, 2, fam.SINGLE_SOURCE, p=1, q=1,
                                 unsafe=True)
    good = fam.sample_family(range(3), params, seed=0)
    assert fam.is_good_family_single_source(good, range(3), 1).good
    bad = fam.TerminalFamily.from_phi(params=params, seed=0,
                                      phi={0: frozenset()})
    report = fam.is_good_family_single_source(bad, [0], 1)
    assert not report.good
    assert fam.replay_witness(bad, report.witness, fam.SINGLE_SOURCE)


def test_default_params_sampled_families_usually_good():
    # spot version of the acceptance sweep: 20 seeds, |T|=5, k=2
    terms = range(5)
    params = fam.default_params(2, 5)
    prs = all_pairs(terms)
    hits = sum(
        fam.is_good_family_general(
            fam.sample_family(terms, params, seed), prs, terms, 2).good
        for seed in range(20))
    assert hits == 20


def test_checker_equivalence_on_random_families(rng):
    terms = list(range(5))
    prs = all_pairs(terms)
    params = fam.override_params(2, 5, fam.GENERAL, p=64, q=16)
    agree = 0
    for seed in range(40):
        f = fam.sample_family(terms, params, seed)
        a = fam.is_good_family_general(f, prs, terms, 2)
        b = fam.is_good_family_general_subset_check(f, prs, terms, 2)
        assert a.good == b.good
        agree += a.good
    assert 0 < agree < 40  # small p: both verdicts occur


def test_single_source_check_matches_subset_check():
    # the single-source condition is the general one with the source in
    # every subset: phi(source) = {1..p} and pairs (source, t)
    sinks = list(range(1, 6))
    verdicts = set()
    for k, q in ((1, 1), (2, 2), (3, 1)):
        params = fam.override_params(k, 6, fam.SINGLE_SOURCE,
                                     p=2 * k * q, q=q)
        full = frozenset(range(1, params.p + 1))
        for seed in range(30):
            f = fam.sample_family(sinks, params, seed)
            pinned = fam.TerminalFamily.from_phi(params=params, seed=seed,
                                                 phi={**f.phi, 0: full})
            a = fam.is_good_family_single_source(f, sinks, k)
            b = fam.is_good_family_general_subset_check(
                pinned, [pair(0, t) for t in sinks], [0, *sinks], k)
            assert a.good == b.good
            verdicts.add(a.good)
    assert verdicts == {True, False}


def reference_covering_check(family, mode, subjects, terms, k):
    """The exhaustive frozenset loop over every blocking set: the oracle
    for the pruned bitmask check."""
    note = {fam.GENERAL: "phi(s) & phi(t) is covered by phi(X)",
            fam.SINGLE_SOURCE: "phi(t) is covered by phi(X)"}[mode]
    for subject in subjects:
        members = subject if mode == fam.GENERAL else (subject,)
        shared = frozenset.intersection(
            *(family.phi.get(x, frozenset()) for x in members))
        others = [x for x in terms if x not in members]
        for size in range(k):
            for xs in combinations(others, size):
                if shared <= family.phi_of(xs):
                    return fam.GoodnessReport(False, (
                        subject, frozenset(xs), note))
    return fam.GoodnessReport(True)


def seeded_families():
    """2400 small families on unsafe (p, q), alternating the two modes:
    (family, mode, k, terms, general-mode pairs). Some terminals draw
    nothing or are missing from phi."""
    rng = random.Random(2024)
    for seed in range(2400):
        mode = fam.MODES[seed % 2]
        k = rng.randint(1, 4)
        terms = list(range(rng.randint(1, 7)))
        p, q = rng.randint(1, 9), rng.randint(1, 4)
        params = fam.override_params(k, 4, mode, p, q, unsafe=True)
        phi = dict(fam.sample_family(terms, params, seed).phi)
        for t in terms:
            roll = rng.random()
            if roll < 0.1:
                del phi[t]
            elif roll < 0.2:
                phi[t] = frozenset()
        f = fam.TerminalFamily.from_phi(params=params, seed=seed, phi=phi)
        prs = []
        if mode == fam.GENERAL:
            prs = all_pairs(terms)
            prs = rng.sample(prs, rng.randint(0, len(prs)))
        yield f, mode, k, terms, prs


def test_pruned_check_matches_reference_reports():
    # whole reports, witness included, on small unsafe (p, q) in both modes
    seen = set()
    for f, mode, k, terms, prs in seeded_families():
        if mode == fam.GENERAL:
            got = fam.is_good_family_general(f, prs, terms, k)
            subjects = [tuple(sorted(pr)) for pr in sorted(prs, key=sorted)]
        else:
            got = fam.is_good_family_single_source(f, terms, k)
            subjects = terms
        assert got == reference_covering_check(f, mode, subjects, terms, k)
        if got.good:
            seen.add((mode, "good"))
        else:
            subject, xs, _ = got.witness
            members = subject if mode == fam.GENERAL else (subject,)
            shared = frozenset.intersection(
                *(f.phi.get(x, frozenset()) for x in members))
            seen.add((mode, "covered" if shared else "empty"))
    assert seen == {(m, v) for m in fam.MODES
                    for v in ("good", "covered", "empty")}


def reference_subset_check(family, pairs, terminals, k):
    """The literal loop over every pair, blocking set and subset T_i: the
    oracle for the subset-form check."""
    subsets = subsets_of(family)
    terms = sorted(set(terminals))
    for pr in sorted(pairs, key=sorted):
        s, t = sorted(pr)
        others = [x for x in terms if x not in pr]
        for size in range(k):
            for xs in combinations(others, size):
                if not any(s in ti and t in ti and not (ti & set(xs))
                           for ti in subsets.values()):
                    return fam.GoodnessReport(False, (
                        (s, t), frozenset(xs), "no subset covers the pair"))
    return fam.GoodnessReport(True)


def subset_check_cases():
    """(family, pairs, terminals, k) for the subset-form differential
    test, besides the seeded families."""
    # the nine `family --check` items of the family-check benchmark at
    # seed 1: (tau, k) cycles through (12, 3), (10, 3), (20, 2)
    rng = random.Random("family-check:1")
    for i in range(9):
        tau, k = ((12, 3), (10, 3), (20, 2))[i % 3]
        terms = list(range(tau))
        f = fam.sample_family(terms, fam.default_params(k, tau),
                              rng.randrange(1 << 31))
        yield f, all_pairs(terms), terms, k
    # bad families at (12, 3) with unsafe (p, q); their witnesses block
    # with 0, 1 and 2 terminals
    terms = list(range(12))
    for p, q, seed in ((60, 10, 5), (300, 40, 1), (150, 20, 1), (500, 60, 0)):
        params = fam.override_params(3, 12, fam.GENERAL, p, q, unsafe=True)
        yield (fam.sample_family(terms, params, seed), all_pairs(terms),
               terms, 3)
    # more than 64 terminals: `family --terminals 70 --k 1`, and a bad
    # family whose pairs reach past the first 64-bit word
    terms = list(range(70))
    yield (fam.sample_family(terms, fam.default_params(1, 70), 0),
           all_pairs(terms), terms, 1)
    params = fam.override_params(2, 70, fam.GENERAL, 1200, 80, unsafe=True)
    yield (fam.sample_family(terms, params, 2),
           [pr for pr in all_pairs(terms) if max(pr) >= 64], terms, 2)


def test_subset_check_matches_literal_reference():
    verdicts = set()
    for f, mode, k, terms, prs in seeded_families():
        # the condition is read in general mode; single-source families
        # are checked over all their pairs
        prs = prs if mode == fam.GENERAL else all_pairs(terms)
        assert (fam.is_good_family_general_subset_check(f, prs, terms, k)
                == reference_subset_check(f, prs, terms, k))
    for f, prs, terms, k in subset_check_cases():
        got = fam.is_good_family_general_subset_check(f, prs, terms, k)
        assert got == reference_subset_check(f, prs, terms, k)
        verdicts.add((len(terms), got.good))
        if not got.good:
            assert fam.replay_witness(f, got.witness, fam.GENERAL)
    assert verdicts == {(12, True), (12, False), (10, True), (20, True),
                        (70, True), (70, False)}


def test_masks_mirror_phi():
    params = fam.override_params(2, 4, fam.GENERAL, p=17, q=5, unsafe=True)
    f = fam.sample_family(range(6), params, seed=7)
    f = fam.TerminalFamily.from_phi(
        params=params, seed=7,
        phi={**f.phi, 6: frozenset(), 7: frozenset({17})})
    for t, idx in f.phi.items():
        assert {i for i in range(params.p + 1)
                if f.masks[t] >> i & 1} == idx
    assert f.masks[6] == 0 and f.masks[7] == 1 << 17
    subsets = subsets_of(f)
    for group in [(), (8,), *combinations(range(9), 1),
                  *combinations(range(9), 2)]:
        assert f.common_indices(group) == [
            i for i in range(1, params.p + 1) if set(group) <= subsets[i]]


DRAW_WIDTHS = [1, 2, 3, 7, 8, 9, 1024, 1025, 8592]


@pytest.mark.parametrize("p", [*DRAW_WIDTHS, 2**32 + 5])
def test_index_draws_follow_randrange(p):
    # sample_family draws with getrandbits the values rng.randrange(1, p+1)
    # gives; an interpreter that changes randrange fails here. A p past
    # the sampling budget is refused before any draw: one mask at
    # p = 2**32 + 5 would take 512 MiB
    params = fam.override_params(1, 4, fam.GENERAL, p, 30, unsafe=True)
    if p > fam.SAMPLE_BUDGET:
        with pytest.raises(BudgetExceededError, match="over budget"):
            fam.sample_family([0], params, 0)
        return
    for seed in range(100):
        assert (fam.sample_family([0], params, seed).phi
                == randrange_phi([0], p, 30, seed))


def randrange_phi(terms, p, q, seed):
    rng = random.Random(seed)
    return {t: frozenset(rng.randrange(1, p + 1) for _ in range(q))
            for t in sorted(terms)}


def test_sample_family_matches_randrange_reference():
    # the bulk draw gives randrange's values, terminal by terminal
    for p, terms, q in product(
            DRAW_WIDTHS, ([], [0, 1, 2, 3, 4], [9, 2, 40, 7], range(12)),
            (1, 5, 40)):
        for seed in range(3):
            want = randrange_phi(terms, p, q, seed)
            params = fam.override_params(1, 4, fam.GENERAL, p, q, unsafe=True)
            assert fam.sample_family(terms, params, seed).phi == want
    for k, tau, mode in ((3, 12, fam.GENERAL), (2, 6, fam.SINGLE_SOURCE)):
        params = fam.default_params(k, tau, mode)
        for seed in range(5):
            assert (fam.sample_family(range(tau), params, seed).phi
                    == randrange_phi(range(tau), params.p, params.q, seed))


def test_sample_family_refuses_a_sample_over_budget():
    # tau * (p + 32 q) bytes, tau counted as at least 1; the samples at
    # the budget have no terminal, so they allocate nothing
    budget = fam.SAMPLE_BUDGET

    def sample(terms, p, q):
        params = fam.override_params(1, 4, fam.GENERAL, p, q, unsafe=True)
        return fam.sample_family(terms, params, 0)

    for p, q in ((budget - 32, 1), (64, budget // 32 - 2)):
        assert sample([], p, q).masks == {}
        with pytest.raises(BudgetExceededError, match="over budget"):
            sample([], p + 1, q)
    for terms, p, q in (([0, 1], budget // 2 - 31, 1),
                        ([0, 1, 2, 3], 64, budget // 128 - 1)):
        with pytest.raises(BudgetExceededError, match="over budget"):
            sample(terms, p, q)


def test_masks_and_phi_round_trip():
    params = fam.override_params(2, 4, fam.GENERAL, p=70, q=9, unsafe=True)
    f = fam.sample_family([3, 5, 8, 13, 21], params, seed=4)
    phi = {**f.phi, 34: frozenset(), 55: frozenset({1, 64, 70})}
    g = fam.TerminalFamily.from_phi(params, 4, phi)
    assert g.phi == phi
    assert fam.TerminalFamily.from_phi(params, 4, g.phi) == g
    assert fam.TerminalFamily.from_phi(params, 4, f.phi) == f
    assert g.masks[34] == 0 and g.masks[55] == 2 | 1 << 64 | 1 << 70
    assert g.phi_of([5, 55]) == phi[5] | phi[55]


def test_witnesses_replay(rng):
    terms = list(range(5))
    prs = all_pairs(terms)
    params = fam.override_params(2, 5, fam.GENERAL, p=6, q=1, unsafe=True)
    found = 0
    for seed in range(50):
        f = fam.sample_family(terms, params, seed)
        report = fam.is_good_family_general(f, prs, terms, 2)
        if not report.good:
            found += 1
            assert fam.replay_witness(f, report.witness, fam.GENERAL)
    assert found > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_goodness_monotone_under_perturbation(seed):
    # adding indices to a pair member never breaks a condition it already
    # satisfies; adding indices to a blocker never helps
    rng = random.Random(seed)
    terms = list(range(4))
    params = fam.override_params(2, 4, fam.GENERAL, p=6, q=2, unsafe=True)
    f = fam.sample_family(terms, params, seed)
    s, t = 0, 1
    x = 2
    shared = f.phi[s] & f.phi[t]
    covered_before = shared <= f.phi[x]
    # enlarge phi(s) and phi(t) with one common fresh index if available
    fresh = set(range(1, params.p + 1)) - f.phi[x]
    if not covered_before and fresh:
        i = min(fresh)
        phi2 = dict(f.phi)
        phi2[s] = f.phi[s] | {i}
        phi2[t] = f.phi[t] | {i}
        f2 = fam.TerminalFamily.from_phi(params=params, seed=seed, phi=phi2)
        assert not (f2.phi[s] & f2.phi[t] <= f2.phi[x])
    # enlarging the blocker keeps any covered condition covered
    if covered_before:
        phi3 = dict(f.phi)
        phi3[x] = f.phi[x] | {rng.randrange(1, params.p + 1)}
        f3 = fam.TerminalFamily.from_phi(params=params, seed=seed, phi=phi3)
        assert f3.phi[s] & f3.phi[t] <= f3.phi[x]


def test_resolve_params_override_or_default():
    assert fam.resolve_params(2, 8, fam.GENERAL) == fam.default_params(2, 8)
    params = fam.resolve_params(1, 4, fam.GENERAL, (6, 3))
    assert (params.p, params.q, params.paper_relation) == (6, 3, True)
    with pytest.raises(ValueError, match="2kq"):
        fam.resolve_params(1, 4, fam.GENERAL, (5, 3))
    assert not fam.resolve_params(1, 4, fam.GENERAL, (5, 3),
                                  unsafe=True).paper_relation


def test_budget_guard():
    params = fam.default_params(3, 40)
    f = fam.sample_family(range(40), params, seed=0)
    with pytest.raises(BudgetExceededError, match="budget"):
        fam.is_good_family_general(
            f, all_pairs(range(40)), range(40), 3, budget=100)


def test_estimate_bad_events_k1():
    # with X empty, e2 is exactly Pr[phi(s) & phi(t) == empty]
    params = fam.override_params(1, 4, fam.GENERAL, p=4, q=2, unsafe=True)
    r1, r2 = fam.estimate_bad_events(range(4), params, seed=1, trials=2000)
    # exact: draws are 2 of 4 indices with replacement; empirical approx
    assert 0.15 < r2 < 0.45
    assert r1 >= 0  # q=2: threshold 1.5, possible only via phi(X); X empty
    assert r1 == 0


def test_estimate_bad_events_default_params_are_zero():
    params = fam.default_params(1, 2)  # q = 45
    r1, r2 = fam.estimate_bad_events(range(4), params, seed=5, trials=2000)
    assert r1 == 0 and r2 == 0


def test_estimate_bad_events_requires_enough_terminals():
    params = fam.default_params(3, 4)
    with pytest.raises(ValueError, match="terminals"):
        fam.estimate_bad_events(range(3), params, seed=0, trials=10)
    # single-source: one terminal and its k-1 blockers, so k terminals
    ss = fam.default_params(2, 3, fam.SINGLE_SOURCE)
    assert fam.estimate_bad_events(range(2), ss, seed=1, trials=10) == (0, 0)
    with pytest.raises(ValueError, match="need at least 2 terminals, got 1"):
        fam.estimate_bad_events(range(1), ss, seed=1, trials=10)


@pytest.mark.parametrize("mode, rates", [
    (fam.GENERAL, (0.0275, 0.6525)),
    (fam.SINGLE_SOURCE, (0.0325, 0.0525)),
])
def test_estimate_bad_events_pinned_rates(mode, rates):
    # pins the RNG draw order of both modes
    params = fam.override_params(2, 5, mode, p=8, q=2)
    assert fam.estimate_bad_events(range(5), params, seed=3,
                                   trials=400) == rates


def test_family_dump_roundtrip():
    # the `family --dump` lines: a header, then one sorted phi line per
    # terminal, bare when the terminal drew nothing
    params = fam.default_params(2, 6)
    f = fam.sample_family(range(6), params, seed=9)
    text = fam.write_family(f)
    assert text.startswith(f"family {params.p} {params.q} 9\n")
    small = fam.override_params(1, 4, fam.GENERAL, p=6, q=3)
    f = fam.sample_family(range(3), small, seed=9)
    f = fam.TerminalFamily.from_phi(params=small, seed=9,
                                    phi={**f.phi, 3: frozenset()})
    assert fam.write_family(f) == (
        "family 6 3 9\nphi 0 3 4 5\nphi 1 2 3\nphi 2 1 3 6\nphi 3\n")
