"""Seeded corpora, CLI argument lists and independent output checks.

Each workload is a list of items; an item is one `vcsndp` CLI invocation.
The solve workloads keep a fixed catalogue of graph shapes (topology and
requirements, drawn once from a constant seed) and let the benchmark seed
draw every edge cost; the solver runs at its default `--seed`, so the
program sees only the generated instance files. Drawing new topologies per
seed makes per-item cost vary by 20-60x (m and k dominate), which no run
that fits the time budget can average out; redrawn costs still change
every LP and rounding step.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from vcsndp import family as fam
from vcsndp.connectivity import vertex_connectivity_pair, verify_vc_solution
from vcsndp.errors import GenerationError, ParseError
from vcsndp.generate import generate_instance
from vcsndp.instance import Instance, pair, parse_cost, parse_solution, write_instance

WORKLOADS = ("general-er", "single-source", "family-check")

COST_RANGE = (1, 9)
# corpus sizes: one pass takes about 22 s on a 2-CPU x86 box
GENERAL_ER_ITEMS = 48
SINGLE_SOURCE_ITEMS = 56
# (terminals, k) for family-check; tau=14, k=3 needs ~65.6M steps and is
# refused by the 50M-step goodness budget, so it is not used
FAMILY_SIZES = ((12, 3), (10, 3), (20, 2))
FAMILY_ITEMS = 3 * len(FAMILY_SIZES)
GOODNESS_BUDGET = fam._DEFAULT_CHECK_BUDGET


@dataclass(frozen=True)
class Item:
    key: str
    argv: tuple[str, ...]          # CLI arguments without per-attempt outputs
    inst: Instance | None = None   # the instance the item solves, if any
    family: tuple[int, int, int] | None = None  # (terminals, k, seed)


@dataclass(frozen=True)
class Check:
    ok: bool
    reason: str
    blob: bytes                    # the output that goes into the digest
    cost: Fraction | None = None
    ratios: tuple[float, ...] = ()


def criterion2_corpus(count: int) -> list[Instance]:
    """The acceptance criterion-2 corpus: ER, n 6-14, edge prob 0.4, k <= 3,
    3 pairs, costs 1-9, m <= 25; generator seeds 1, 2, ... skip failed
    draws."""
    rng = random.Random(2)
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        try:
            inst = generate_instance("erdos-renyi", rng.randint(6, 14), 0.4,
                                     3, 3, COST_RANGE, seed=seed)
        except GenerationError:
            continue
        if inst.m <= 25:
            out.append(inst)
    return out


def _single_source_shapes(count: int) -> list[Instance]:
    """Wheel, grid and ER graphs, n 8-10, source 0 to 2-3 sinks,
    r <= 3 clamped to the pair's vertex connectivity. (n 10-12 with 5-6
    sinks takes about 2.5 s an item: too few items in a run to give a
    median and a tail.)"""
    rng = random.Random(60)
    models = ("wheel", "grid", "erdos-renyi")
    out = []
    seed = 6000
    while len(out) < count:
        seed += 1
        model = models[len(out) % len(models)]
        n = rng.randint(8, 10)
        try:
            graph = generate_instance(
                model, n, 0.4 if model == "erdos-renyi" else None, 1, 1,
                COST_RANGE, seed=seed)
        except GenerationError:
            continue
        req = {}
        for t in sorted(rng.sample(range(1, n), rng.randint(2, 3))):
            kappa = int(vertex_connectivity_pair(graph, 0, t).value)
            if kappa >= 1:
                req[pair(0, t)] = min(rng.randint(1, 3), kappa)
        if len(req) >= 2:
            out.append(Instance(n=n, edges=graph.edges, requirements=req))
    return out


def _recost(inst: Instance, rng: random.Random) -> Instance:
    edges = tuple((u, v, Fraction(rng.randint(*COST_RANGE)))
                  for u, v, _ in inst.edges)
    return Instance(n=inst.n, edges=edges, requirements=inst.requirements)


def goodness_steps(terminals: int, k: int) -> int:
    """The goodness checker's own step estimate for `family --check`."""
    params = fam.default_params(k, max(2, terminals), fam.GENERAL)
    combos = sum(math.comb(max(terminals - 2, 0), j) for j in range(k))
    return math.comb(terminals, 2) * combos * params.p


def build_corpus(workload: str, seed: int, directory: Path) -> list[Item]:
    """Write the workload's instance files under `directory`; return items."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "family-check":
        for tau, k in FAMILY_SIZES:
            # raises ValueError, as `family --check` would, if over budget
            fam._check_budget(math.comb(tau, 2), tau, k,
                              fam.default_params(k, tau, fam.GENERAL).p,
                              GOODNESS_BUDGET)
        items = []
        for i in range(FAMILY_ITEMS):
            tau, k = FAMILY_SIZES[i % len(FAMILY_SIZES)]
            fseed = rng.randrange(1 << 31)
            items.append(Item(
                key=f"fam{i:02d}",
                argv=("family", "--terminals", str(tau), "--k", str(k),
                      "--seed", str(fseed), "--check"),
                family=(tau, k, fseed)))
        return items
    if workload == "general-er":
        shapes = criterion2_corpus(GENERAL_ER_ITEMS)
        flags = ("--single-source", "off", "--verify", "--verify-family")
    elif workload == "single-source":
        shapes = _single_source_shapes(SINGLE_SOURCE_ITEMS)
        flags = ("--verify", "--verify-family")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    items = []
    for i, shape in enumerate(shapes):
        inst = _recost(shape, rng)
        path = directory / f"inst{i:02d}.txt"
        path.write_text(write_instance(inst))
        items.append(Item(key=f"inst{i:02d}", argv=("solve", str(path), *flags),
                          inst=inst))
    return items


def output_args(item: Item, stem: str) -> tuple[list[str], dict[str, Path]]:
    """Per-attempt output flags and the files they name."""
    if item.argv[0] == "solve":
        files = {"solution": Path(stem + ".sol"),
                 "report": Path(stem + ".json")}
        return (["-o", str(files["solution"]), "--json", str(files["report"])],
                files)
    return [], {}


_COST_LINE = re.compile(r"^cost (\S+) edges (\d+)$", re.M)


def _stdout_cost(stdout: str) -> Fraction | None:
    found = _COST_LINE.search(stdout)
    try:
        return parse_cost(found.group(1)) if found else None
    except ValueError:
        return None


def check(workload: str, item: Item, code: int | None, stdout: str,
          files: dict[str, Path]) -> Check:
    """Check one attempt's output independently of the run that made it."""
    if workload == "family-check":
        return _check_family(item, code, stdout)
    if code != 0:
        return Check(False, f"exit code {code}", b"")
    try:
        sol = parse_solution(files["solution"].read_text(), item.inst)
    except (OSError, ParseError) as exc:
        return Check(False, f"unreadable solution: {exc}", b"")
    if not verify_vc_solution(item.inst, sol).feasible:
        return Check(False, "solution fails re-verification", b"")
    if _stdout_cost(stdout) != sol.cost:
        return Check(False, "printed cost differs from the solution file", b"")

    blob = b""
    try:
        blob = files["report"].read_bytes()
        report = json.loads(blob)
        mode, source = report["mode"], report["source"]
        feasible = (report["verification"] or {}).get("feasible")
        cost = parse_cost(report["solution"]["cost"]["exact"])
        ratios = tuple(float(rec["ratio"]) for rec in report["per_instance"]
                       if rec["ratio"] is not None)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return Check(False, f"unreadable report: {exc!r}", blob)
    want_mode = fam.SINGLE_SOURCE if workload == "single-source" else fam.GENERAL
    want_source = 0 if workload == "single-source" else None
    if mode != want_mode or source != want_source:
        return Check(False, f"mode {mode} source {source}", blob)
    if not feasible:
        return Check(False, "report does not say feasible", blob)
    if cost != sol.cost:
        return Check(False, "report cost differs from the solution file", blob)
    return Check(True, "", blob, cost=sol.cost, ratios=ratios)


_HEADER = re.compile(r"^mode (\S+) k (\d+) basis (\d+) p (\d+) q (\d+)$", re.M)
_VERDICT = re.compile(r"^good (True|False)$", re.M)
_WITNESS = re.compile(
    r"^witness \(\((\d+), (\d+)\), frozenset\((?:\{([\d, ]*)\})?\), '[^']*'\)$",
    re.M)


def _check_family(item: Item, code: int | None, stdout: str) -> Check:
    tau, k, fseed = item.family
    blob = stdout.encode()
    params = fam.default_params(k, max(2, tau), fam.GENERAL)
    header = _HEADER.search(stdout)
    verdict = _VERDICT.search(stdout)
    if header is None or verdict is None:
        return Check(False, f"exit code {code}, unparsable output", blob)
    if header.groups() != (fam.GENERAL, str(k), str(params.basis),
                           str(params.p), str(params.q)):
        return Check(False, f"unexpected header {header.group(0)!r}", blob)
    terminals = list(range(tau))
    family = fam.sample_family(terminals, params, fseed)
    pairs = [frozenset(c) for c in combinations(terminals, 2)]
    cross = fam.is_good_family_general_subset_check(family, pairs, terminals, k)
    good = verdict.group(1) == "True"
    if good != cross.good:
        return Check(False, "verdict differs from the subset-form check", blob)
    if good:
        return Check(code == 0, "" if code == 0 else f"exit code {code}", blob)
    found = _WITNESS.search(stdout)
    if code != 1 or found is None:
        return Check(False, f"exit code {code} for a bad family", blob)
    s, t, xs = found.groups()
    blocking = frozenset(int(x) for x in (xs or "").split(",") if x.strip())
    witness = ((int(s), int(t)), blocking, "")
    if not fam.replay_witness(family, witness, fam.GENERAL):
        return Check(False, "witness does not replay", blob)
    return Check(True, "", blob)
