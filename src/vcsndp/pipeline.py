"""End-to-end VC-SNDP solving via the element-connectivity reduction.

Sample a family of terminal subsets, induce one element instance per
subset, solve each with the chosen backend, return the union of the
purchased edge sets. The two modes differ only in the family's rate and
in a pinned terminal: single-source mode draws the family over the sinks
and pins the common source, which joins every subset. Mode "auto" picks
single-source when every requirement pair shares a vertex. `family_setup`
makes these decisions once, for `solve_pipeline` and for `family --from`:
the mode, the drawn terminals and the pinned source, the feasibility
precheck and the family's (p, q). The precheck asks each pair's flow only
to reach its requirement. Identical induced instances (same
requirement-pair set) are solved once, in the order of their first subset
index; the representative is solved with the minimal terminal set (the
endpoints of its pairs), which is at least as constrained as any subset
in its class, so reuse preserves feasibility.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from . import family as fam
from .connectivity import (
    VerificationReport,
    verify_vc_solution,
    vertex_connectivity_pair,
)
from .element import (
    DEFAULT_NODE_BUDGET,
    ElementInstance,
    SolveCertificate,
    induce_element_instance,
    solve_exact,
    solve_iterative_rounding,
)
from .errors import FamilyNotGoodError, InfeasibleError
from .instance import EdgeSolution, Instance, derive_terminals, pair

BACKENDS = ("iterative", "exact")
MODES = (*fam.MODES, "auto")
MAX_RESAMPLES = 16  # families drawn, at seeds seed..seed+15, before giving up


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = fam.GENERAL            # general | single-source | auto
    seed: int = 0
    backend: str = "iterative"
    params_override: tuple[int, int] | None = None  # (p, q)
    unsafe_params: bool = False
    verify_family: bool = True
    verify_solution: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.jobs < 1:
            raise ValueError("jobs >= 1")


@dataclass(frozen=True)
class InstanceRecord:
    """One distinct induced element instance and its solution."""

    first_index: int                   # smallest subset index in the class
    multiplicity: int                  # how many subsets induced it
    terminals: frozenset[int]
    active_pairs: tuple[tuple[int, int, int], ...]  # (u, v, r)
    edge_ids: frozenset[int]
    cost: Fraction
    certificate: SolveCertificate | None  # None for the exact backend


@dataclass(frozen=True)
class PipelineResult:
    solution: EdgeSolution
    family: fam.TerminalFamily
    records: tuple[InstanceRecord, ...]
    verification: VerificationReport | None
    cost_bound: Fraction | None        # 2 * p * (best OPT lower bound)
    resamples_used: int
    source: int | None = None          # single-source mode only


def check_instance_feasible(inst: Instance) -> None:
    """r(u,v) must not exceed the full graph's vertex connectivity.
    Vertex-disjoint paths are element-disjoint too, so this also covers
    the pairs of every induced element instance."""
    for u, v, r in inst.pairs:
        got = vertex_connectivity_pair(inst, u, v, target=r).value
        if got < r:
            raise InfeasibleError(
                f"pair ({u},{v}) requires {r} vertex-disjoint paths but the "
                f"full graph only provides {got}")


def resolve_mode(inst: Instance, mode: str) -> str:
    """`mode`, or for "auto" single-source when every requirement pair
    shares a vertex and general otherwise."""
    if mode != "auto":
        return mode
    shared = inst.requirements and frozenset.intersection(*inst.requirements)
    return fam.SINGLE_SOURCE if shared else fam.GENERAL


def family_setup(inst: Instance, mode: str,
                 override: tuple[int, int] | None = None,
                 unsafe: bool = False, basis: int | None = None
                 ) -> tuple[frozenset[int], frozenset[int], fam.FamilyParams]:
    """(terminals the family is drawn over, pinned terminals, params) for
    `inst` in `mode`. Single-source mode pins the common source, the least
    vertex that every requirement pair holds: it draws no indices and
    joins every subset. An instance without requirements, or without a
    common source in single-source mode, raises InfeasibleError. The full
    graph must meet every requirement before k sizes the family, whose
    log basis defaults to max(2, tau) (Remark 1)."""
    if not inst.requirements:
        raise InfeasibleError("instance has no requirements")
    mode = resolve_mode(inst, mode)
    pinned = frozenset()
    if mode == fam.SINGLE_SOURCE:
        shared = frozenset.intersection(*inst.requirements)
        if not shared:
            raise InfeasibleError("requirement pairs share no common source")
        pinned = frozenset({min(shared)})
    check_instance_feasible(inst)
    terminals = derive_terminals(inst)
    basis = basis if basis is not None else max(2, len(terminals))
    params = fam.resolve_params(inst.k, basis, mode, override, unsafe)
    return terminals - pinned, pinned, params


def _sample_good_family(terminals, params, cfg, pairs):
    """Sample; when verification is on, resample with seed+1 until good,
    at most MAX_RESAMPLES draws in all."""
    last_witness = None
    for attempt in range(MAX_RESAMPLES):
        f = fam.sample_family(terminals, params, cfg.seed + attempt)
        if not cfg.verify_family:
            return f, attempt
        report = fam.is_good_family(f, terminals, pairs)
        if report.good:
            return f, attempt
        last_witness = report.witness
    raise FamilyNotGoodError(
        f"no good family within {MAX_RESAMPLES} resamples "
        f"(p={params.p}, q={params.q}); last witness: {last_witness}",
        witness=last_witness)


def _solve_backend(ei: ElementInstance, cfg: PipelineConfig):
    if cfg.backend == "exact":
        return solve_exact(ei), None
    return solve_iterative_rounding(ei)


def solve_pipeline(inst: Instance, cfg: PipelineConfig) -> PipelineResult:
    """VC-SNDP in `cfg.mode` by the good-family reduction to element
    instances; `result.family.params.mode` names the mode it ran in."""
    drawn, pinned, params = family_setup(
        inst, cfg.mode, cfg.params_override, cfg.unsafe_params)
    terminals = drawn | pinned
    pairs = frozenset(inst.requirements)
    family, resamples = _sample_good_family(drawn, params, cfg, pairs)

    # group subset indices by the requirement pairs inside T_i + pinned;
    # a pinned endpoint lies in every subset
    held: dict[int, list[frozenset]] = {}
    for pr in pairs:
        for i in family.common_indices(pr - pinned):
            held.setdefault(i, []).append(pr)
    class_of: dict[frozenset, list[int]] = {}
    for i in sorted(held):
        class_of.setdefault(frozenset(held[i]), []).append(i)

    # in order of each class's first index, since that is the order in
    # which the classes were first met
    keys = list(class_of)
    # the class's endpoints, the pinned source among them, induce exactly
    # the class's pairs
    instances = [induce_element_instance(inst, terminals,
                                         frozenset().union(*key))
                 for key in keys]
    if cfg.jobs > 1 and len(instances) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            solved = list(pool.map(_solve_backend, instances,
                                   [cfg] * len(instances)))
    else:
        solved = [_solve_backend(ei, cfg) for ei in instances]

    records = []
    union: set[int] = set()
    for key, ei, (sol, cert) in zip(keys, instances, solved):
        indices = class_of[key]
        union |= sol.edge_ids
        records.append(InstanceRecord(
            first_index=min(indices), multiplicity=len(indices),
            terminals=ei.terminals, active_pairs=ei.pairs,
            edge_ids=sol.edge_ids, cost=sol.cost, certificate=cert))

    solution = EdgeSolution.of(inst, union)
    verification = verify_vc_solution(inst, solution) if cfg.verify_solution else None

    # each induced optimum is <= OPT, so any per-instance lower bound
    # lower-bounds OPT; the paper's per-run guarantee is 2p * OPT
    lb = Fraction(0)
    for rec in records:
        if rec.certificate is not None:
            bound = Fraction(rec.certificate.lp_lower_bound).limit_denominator(10**9)
        else:
            bound = rec.cost
        lb = max(lb, bound)
    cost_bound = 2 * params.p * lb if records else None

    return PipelineResult(
        solution=solution, family=family, records=tuple(records),
        verification=verification, cost_bound=cost_bound, resamples_used=resamples,
        source=min(pinned, default=None))


def solve_exact_vcsndp(inst: Instance,
                       budget: int = DEFAULT_NODE_BUDGET) -> EdgeSolution:
    """Exact minimum-cost VC-SNDP (desk-scale oracle): solve_exact over one
    element instance per requirement pair (s, t), with terminals {s, t},
    where element connectivity is vertex connectivity. A requirement the
    full graph cannot meet raises InfeasibleError naming its pair. With no
    requirements it passes one instance without pairs, which buys
    nothing."""
    check_instance_feasible(inst)
    eis = [ElementInstance(inst, pair(u, v), {pair(u, v): r})
           for u, v, r in inst.pairs]
    return solve_exact(*(eis or [ElementInstance(inst, frozenset())]),
                       budget=budget)
