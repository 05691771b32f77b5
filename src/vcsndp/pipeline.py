"""End-to-end VC-SNDP solving via the element-connectivity reduction.

Sample a family of terminal subsets, induce one element instance per
subset, solve each with the chosen backend, return the union of the
purchased edge sets. The two modes differ only in the family's rate and
in a pinned terminal: single-source mode draws the family over the sinks
and pins the common source, which joins every subset. Identical induced
instances (same requirement-pair set) are solved once; the representative
is solved with the minimal terminal set (the endpoints of its pairs), which
is at least as constrained as any subset in its class, so reuse preserves
feasibility.
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
    branch_and_bound,
    induce_element_instance,
    solve_exact,
    solve_iterative_rounding,
)
from .errors import FamilyNotGoodError, InfeasibleError
from .instance import EdgeSolution, Instance, derive_terminals

BACKENDS = ("iterative", "exact")
MAX_RESAMPLES = 16  # families drawn, at seeds seed..seed+15, before giving up


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = fam.GENERAL            # general | single-source
    seed: int = 0
    backend: str = "iterative"
    params_override: tuple[int, int] | None = None  # (p, q)
    unsafe_params: bool = False
    verify_family: bool = True
    verify_solution: bool = True
    jobs: int = 1

    def __post_init__(self):
        if self.mode not in fam.MODES:
            raise ValueError(f"mode must be one of {fam.MODES}")
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
    # subset index -> record position; an index not in it is skipped (its
    # T_i holds no requirement pair)
    subset_classes: dict[int, int]
    verification: VerificationReport | None
    cost_bound: Fraction | None        # 2 * p * (best OPT lower bound)
    resamples_used: int
    source: int | None = None          # single-source mode only


def check_instance_feasible(inst: Instance) -> None:
    """r(u,v) must not exceed the full graph's vertex connectivity.
    Vertex-disjoint paths are element-disjoint too, so this also covers
    the pairs of every induced element instance."""
    for pr in sorted(inst.requirements, key=sorted):
        u, v = sorted(pr)
        r = inst.requirements[pr]
        got = vertex_connectivity_pair(inst, u, v).value
        if got < r:
            raise InfeasibleError(
                f"pair ({u},{v}) requires {r} vertex-disjoint paths but the "
                f"full graph only provides {got}")


def find_common_source(inst: Instance) -> int:
    """The vertex shared by all requirement pairs; smallest id on ties."""
    if not inst.requirements:
        raise InfeasibleError("instance has no requirements")
    common = None
    for pr in inst.requirements:
        common = set(pr) if common is None else common & pr
    if not common:
        raise InfeasibleError("requirement pairs share no common source")
    return min(common)


def family_terminals(inst: Instance, mode: str
                     ) -> tuple[frozenset[int], frozenset[int]]:
    """(terminals the family is drawn over, pinned terminals). Single-source
    mode pins the common source: it draws no indices and joins every
    subset."""
    pinned = (frozenset({find_common_source(inst)})
              if mode == fam.SINGLE_SOURCE else frozenset())
    return derive_terminals(inst) - pinned, pinned


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
    instances."""
    if not inst.requirements:
        raise InfeasibleError("instance has no requirements")
    drawn, pinned = family_terminals(inst, cfg.mode)
    check_instance_feasible(inst)
    terminals = derive_terminals(inst)
    # the family is sized by log tau (Remark 1), as `family --from` sizes it
    params = fam.resolve_params(inst.k, max(2, len(terminals)), cfg.mode,
                                cfg.params_override, cfg.unsafe_params)
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

    keys = sorted(class_of, key=lambda key: min(class_of[key]))
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
    subset_classes: dict[int, int] = {}
    union: set[int] = set()
    for slot, (key, ei, (sol, cert)) in enumerate(
            zip(keys, instances, solved)):
        indices = class_of[key]
        for i in indices:
            subset_classes[i] = slot
        union |= sol.edge_ids
        records.append(InstanceRecord(
            first_index=min(indices), multiplicity=len(indices),
            terminals=ei.terminals,
            active_pairs=tuple(sorted(
                (*sorted(pr), r) for pr, r in ei.active_pairs.items())),
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
        subset_classes=subset_classes, verification=verification,
        cost_bound=cost_bound, resamples_used=resamples,
        source=min(pinned, default=None))


def solve_exact_vcsndp(inst: Instance,
                       budget: int = DEFAULT_NODE_BUDGET) -> EdgeSolution:
    """Exact minimum-cost VC-SNDP by branch and bound (desk-scale oracle)."""
    if not inst.requirements:
        return EdgeSolution.of(inst, ())
    check_instance_feasible(inst)
    return branch_and_bound(
        inst,
        lambda ids: verify_vc_solution(
            inst, EdgeSolution.of(inst, ids)).feasible,
        budget)
