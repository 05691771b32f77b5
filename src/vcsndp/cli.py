"""Command-line interface.

Subcommands: gen, solve, verify, family, exact, bench. The commands parse
arguments and print results: `pipeline` picks a run's mode and family,
for `solve`, `bench` and `family --from` alike, and sizes the family by
the terminal count tau unless `--p/--q` give another size.
Exit codes: 0 success/feasible, 1 infeasible or not-good, 2 usage/input
error (a malformed file, a bad cost or grid width, an `exact --budget`
below 1 among them), 3 search budget exceeded, a family sample over its
memory budget or a `gen` model over its edge budget, 4 solver
failure (the LP solver rejected a model or stopped without an optimum or
a proof of infeasibility, or a cutting-plane loop reached its round cap),
5 internal error (any other exception, a fault in the toolkit).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import combinations
from pathlib import Path

from . import family as fam
from .connectivity import verify_vc_solution
from .element import DEFAULT_NODE_BUDGET
from .errors import (
    BudgetExceededError,
    FamilyNotGoodError,
    GenerationError,
    InfeasibleError,
    ParseError,
    SolverError,
)
from .generate import MODELS, generate_instance
from .instance import (
    format_cost,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .pipeline import (
    PipelineConfig,
    family_setup,
    solve_exact_vcsndp,
    solve_pipeline,
)
from .report import benchmark, dumps, result_to_dict

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4
EXIT_INTERNAL = 5


@cache  # parsing leaves the parser as it was; building one takes ~2.6 ms
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vcsndp",
        description="Vertex-connectivity survivable network design toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random feasible instance")
    g.add_argument("--model", choices=MODELS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--edge-param", type=float, default=None)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--pairs", type=int, required=True)
    g.add_argument("--cost-min", type=int, default=1)
    g.add_argument("--cost-max", type=int, default=10)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", type=Path, default=None,
                   help="write here instead of stdout")

    def add_solve_flags(p):
        p.add_argument("--single-source", choices=("auto", "on", "off"),
                       default="auto")
        p.add_argument("--backend", choices=("iterative", "exact"),
                       default="iterative")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--q", type=int, default=None)
        p.add_argument("--unsafe-params", action="store_true")
        p.add_argument("--verify", action="store_true",
                       help="verify the final solution pair by pair")
        p.add_argument("--verify-family", action="store_true",
                       help="exhaustively check family goodness (resampling)")
        p.add_argument("--json", type=Path, default=None)
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    s = sub.add_parser("solve", help="run the randomized reduction pipeline")
    s.add_argument("instance", type=Path)
    add_solve_flags(s)
    s.add_argument("-o", "--output", type=Path, default=None,
                   help="write the solution file here")

    v = sub.add_parser("verify", help="check a solution file for feasibility")
    v.add_argument("instance", type=Path)
    v.add_argument("solution", type=Path)

    f = sub.add_parser("family", help="sample/check a terminal family")
    src = f.add_mutually_exclusive_group(required=True)
    src.add_argument("--terminals", type=int,
                     help="use terminals 0..count-1")
    src.add_argument("--from", dest="from_instance", type=Path,
                     help="derive terminals from an instance file")
    f.add_argument("--k", type=int, default=None,
                   help="connectivity; with --from: default and only "
                        "accepted value the instance's largest requirement")
    f.add_argument("--basis", type=int, default=None,
                   help="log basis; default: terminal count")
    f.add_argument("--mode", choices=fam.MODES, default=fam.GENERAL)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--p", type=int, default=None)
    f.add_argument("--q", type=int, default=None)
    f.add_argument("--unsafe-params", action="store_true")
    f.add_argument("--check", action="store_true",
                   help="run the exhaustive goodness check")
    f.add_argument("--estimate", type=int, metavar="TRIALS", default=None,
                   help="Monte Carlo bad-event rates over TRIALS samples")
    f.add_argument("--dump", action="store_true",
                   help="print the phi assignment")

    e = sub.add_parser("exact", help="exact VC-SNDP optimum (branch and bound)")
    e.add_argument("instance", type=Path)
    e.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    e.add_argument("-o", "--output", type=Path, default=None)

    b = sub.add_parser("bench", help="run the pipeline over a directory")
    b.add_argument("directory", type=Path)
    add_solve_flags(b)
    b.add_argument("--no-exact", action="store_true",
                   help="skip the exact oracle")
    b.add_argument("--no-timing", action="store_true",
                   help="omit wall_time for byte-reproducible reports")
    return top


def _params_override(args) -> tuple[int, int] | None:
    """(p, q) from --p/--q, which `solve`, `bench` and `family` share."""
    if (args.p is None) != (args.q is None):
        raise ValueError("--p and --q must be given together")
    return None if args.p is None else (args.p, args.q)


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        mode={"on": fam.SINGLE_SOURCE, "off": fam.GENERAL,
              "auto": "auto"}[args.single_source],
        seed=args.seed,
        backend=args.backend,
        params_override=_params_override(args),
        unsafe_params=args.unsafe_params,
        verify_family=args.verify_family,
        verify_solution=args.verify,
        jobs=args.jobs,
    )


def _emit(text: str, path: Path | None, out):
    if path is None:
        out.write(text)
    else:
        path.write_text(text)


def _cmd_gen(args, out) -> int:
    inst = generate_instance(
        args.model, args.n, args.edge_param, args.k, args.pairs,
        (args.cost_min, args.cost_max), args.seed)
    _emit(write_instance(inst), args.output, out)
    return EXIT_OK


def _cmd_solve(args, out) -> int:
    inst = parse_instance(args.instance.read_text())
    cfg = _pipeline_config(args)
    result = solve_pipeline(inst, cfg)
    if args.json is not None:
        args.json.write_text(dumps(result_to_dict(inst, cfg, result)))
    out.write(f"mode {result.family.params.mode}\n")
    out.write(f"p {result.family.params.p} q {result.family.params.q} "
              f"resamples {result.resamples_used}\n")
    out.write(f"distinct-instances {len(result.records)}\n")
    out.write(f"cost {format_cost(result.solution.cost)} "
              f"edges {len(result.solution.edge_ids)}\n")
    if args.output is not None:
        args.output.write_text(write_solution(result.solution))
    if result.verification is not None:
        if result.verification.feasible:
            out.write("FEASIBLE\n")
        else:
            for pr in result.verification.violated():
                out.write(f"VIOLATED pair ({pr.u},{pr.v}): achieved "
                          f"{pr.achieved} < required {pr.required}\n")
            out.write("INFEASIBLE\n")
            return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    inst = parse_instance(args.instance.read_text())
    sol = parse_solution(args.solution.read_text(), inst)
    report = verify_vc_solution(inst, sol)
    for pr in report.pairs:
        status = "ok" if pr.achieved >= pr.required else "VIOLATED"
        out.write(f"pair ({pr.u},{pr.v}): required {pr.required} "
                  f"achieved {pr.achieved} {status}\n")
    out.write("FEASIBLE\n" if report.feasible else "INFEASIBLE\n")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def _cmd_family(args, out) -> int:
    if args.from_instance is not None:
        # the terminals, pairs and params that `solve` draws over and checks
        inst = parse_instance(args.from_instance.read_text())
        if args.k not in (None, inst.k):
            raise ValueError(f"--k {args.k} differs from the instance's "
                             f"largest requirement {inst.k}")
        drawn, _, params = family_setup(
            inst, args.mode, _params_override(args), args.unsafe_params,
            args.basis)
        terminals = sorted(drawn)
        pairs = list(inst.requirements)
    else:
        if args.k is None:
            raise ValueError("--terminals needs --k")
        if args.terminals < 1:
            raise ValueError("--terminals must be >= 1")
        tau = args.terminals
        basis = args.basis if args.basis is not None else max(2, tau)
        params = fam.resolve_params(args.k, basis, args.mode,
                                    _params_override(args), args.unsafe_params)
        # the sample's budget bounds tau before the terminals are listed
        fam.check_sample_budget(tau, params)
        terminals = list(range(tau))
        # lazy: only a general-mode --check reads the pairs
        pairs = map(frozenset, combinations(terminals, 2))
    family = fam.sample_family(terminals, params, args.seed)
    out.write(f"mode {params.mode} k {params.k} basis {params.basis} "
              f"p {params.p} q {params.q}\n")
    if args.dump:
        out.write(fam.write_family(family))
    rc = EXIT_OK
    if args.check:
        report = fam.is_good_family(family, terminals, pairs)
        out.write(f"good {report.good}\n")
        if not report.good:
            out.write(f"witness {report.witness}\n")
            rc = EXIT_INFEASIBLE
    if args.estimate is not None:
        r1, r2 = fam.estimate_bad_events(terminals, params, args.seed,
                                         args.estimate)
        out.write(f"rate_e1 {r1}\nrate_e2 {r2}\n")
    return rc


def _cmd_exact(args, out) -> int:
    inst = parse_instance(args.instance.read_text())
    sol = solve_exact_vcsndp(inst, budget=args.budget)
    out.write(f"cost {format_cost(sol.cost)} edges {len(sol.edge_ids)}\n")
    _emit(write_solution(sol), args.output, out)
    return EXIT_OK


def _cmd_bench(args, out) -> int:
    if not args.directory.is_dir():
        raise ValueError(f"{args.directory}: not a directory")
    paths = sorted(args.directory.glob("*.txt"))
    instances = [(p.name, parse_instance(p.read_text())) for p in paths]
    rep = benchmark(instances, _pipeline_config(args),
                    exact_oracle=not args.no_exact,
                    include_timing=not args.no_timing)
    if args.json is not None:
        args.json.write_text(dumps(rep))
    agg = rep["aggregate"]
    out.write(f"instances {agg['count']} mean_ratio {agg['mean_ratio']} "
              f"max_ratio {agg['max_ratio']}\n")
    for row in rep["instances"]:
        if "error" in row:
            out.write(f"{row['name']}: ERROR {row['error']}\n")
        else:
            out.write(f"{row['name']}: cost {row['cost']['exact']} "
                      f"ratio {row['empirical_ratio']}\n")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "family": _cmd_family,
    "exact": _cmd_exact,
    "bench": _cmd_bench,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except (ParseError, GenerationError, ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (InfeasibleError, FamilyNotGoodError) as exc:
        err.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        err.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except SolverError as exc:
        err.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except Exception as exc:
        err.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
