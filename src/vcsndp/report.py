"""JSON reports for pipeline runs and benchmark batches.

Reports are deterministic for a fixed (instance, config) unless timing is
requested, so byte-identical output doubles as a reproducibility check.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Iterable

from .errors import BudgetExceededError
from .instance import Instance, derive_terminals, format_cost
from .pipeline import PipelineConfig, PipelineResult, solve_exact_vcsndp, solve_pipeline


def _cost_json(c: Fraction) -> dict:
    return {"exact": format_cost(c), "float": float(c)}


def result_to_dict(inst: Instance, cfg: PipelineConfig,
                   result: PipelineResult) -> dict:
    params = result.family.params
    per_instance = [
        {
            "instance_index": rec.first_index,
            "multiplicity": rec.multiplicity,
            "terminals": sorted(rec.terminals),
            "active_pairs": [list(t) for t in rec.active_pairs],
            "edge_ids": sorted(rec.edge_ids),
            "cost": _cost_json(rec.cost),
            "lp_lower_bound": (rec.certificate.lp_lower_bound
                               if rec.certificate else None),
            "ratio": rec.certificate.ratio if rec.certificate else None,
            "theory_deviation": (rec.certificate.theory_deviation
                                 if rec.certificate else None),
        }
        for rec in result.records
    ]
    out = {
        "instance": {
            "n": inst.n, "m": inst.m, "k": inst.k,
            "tau": len(derive_terminals(inst)),
            "num_pairs": len(inst.requirements),
        },
        "mode": cfg.mode,
        "seed": cfg.seed,
        "backend": cfg.backend,
        "params": {"p": params.p, "q": params.q, "basis": params.basis,
                   "paper_relation": params.paper_relation},
        "family": {
            "resamples_used": result.resamples_used,
            "goodness_checked": cfg.verify_family,
        },
        "distinct_instances": len(result.records),
        "solution": {
            "num_edges": len(result.solution.edge_ids),
            "edge_ids": sorted(result.solution.edge_ids),
            "cost": _cost_json(result.solution.cost),
        },
        "cost_bound_2p_lb": (_cost_json(result.cost_bound)
                             if result.cost_bound is not None else None),
        "per_instance": per_instance,
        "source": result.source,
    }
    if result.verification is not None:
        out["verification"] = {
            "feasible": result.verification.feasible,
            "pairs": [
                {"u": p.u, "v": p.v, "required": p.required,
                 "achieved": p.achieved}
                for p in result.verification.pairs
            ],
        }
    else:
        out["verification"] = None
    return out


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def benchmark(instances: Iterable[tuple[str, Instance]], cfg: PipelineConfig,
              *, exact_oracle: bool = True, include_timing: bool = True,
              mode_of: Callable[[Instance], str] | None = None) -> dict:
    """Run the pipeline (and the exact oracle, within its default node
    budget, where it completes) over a corpus; per-instance failures are
    recorded, not fatal. `mode_of`, when given, picks each instance's mode,
    and the report's mode is "auto"."""
    rows = []
    ratios = []
    for name, inst in instances:
        run_cfg = cfg if mode_of is None else replace(cfg, mode=mode_of(inst))
        row = {"name": name, "mode": run_cfg.mode, "n": inst.n, "m": inst.m,
               "k": inst.k, "tau": len(derive_terminals(inst)),
               "num_pairs": len(inst.requirements)}
        start = time.monotonic()
        try:
            result = solve_pipeline(inst, run_cfg)
        except (ValueError, OSError):
            raise  # a usage error, the same for every instance
        except Exception as exc:
            # a toolkit error, or an internal one (`solve` exits 5 on it)
            row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
            continue
        params = result.family.params
        cost = result.solution.cost
        row.update({
            "p": params.p, "q": params.q,
            "cost": _cost_json(cost),
            "family_resamples": result.resamples_used,
            "distinct_instances": len(result.records),
            "feasible": (result.verification.feasible
                         if result.verification else None),
        })
        exact_opt = None
        if exact_oracle:
            try:
                exact_opt = solve_exact_vcsndp(inst)
            except BudgetExceededError:
                pass
        if exact_opt is not None and exact_opt.cost > 0:
            ratio = float(cost / exact_opt.cost)
            row["exact_opt"] = _cost_json(exact_opt.cost)
            row["empirical_ratio"] = ratio
            ratios.append(ratio)
        else:
            row["exact_opt"] = None
            row["empirical_ratio"] = None
        if include_timing:
            row["wall_time"] = time.monotonic() - start
        rows.append(row)
    return {
        "mode": cfg.mode if mode_of is None else "auto",
        "seed": cfg.seed,
        "backend": cfg.backend,
        "instances": rows,
        "aggregate": {
            "count": len(rows),
            "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
            "max_ratio": max(ratios) if ratios else None,
        },
    }
