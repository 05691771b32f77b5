"""Vertex-connectivity survivable network design via randomized reduction
to element-connectivity subproblems, with certified solving and verification."""

from .connectivity import (
    ConnectivityQueryResult,
    VerificationReport,
    element_connectivity_pair,
    fractional_element_mincut,
    verify_vc_solution,
    vertex_connectivity_pair,
)
from .element import (
    ElementInstance,
    LpState,
    SolveCertificate,
    induce_element_instance,
    solve_exact,
    solve_iterative_rounding,
    solve_lp,
)
from .errors import (
    BudgetExceededError,
    FamilyNotGoodError,
    GenerationError,
    InfeasibleError,
    ParseError,
    SolverError,
    VcsndpError,
)
from .family import (
    FamilyParams,
    GoodnessReport,
    TerminalFamily,
    default_params,
    estimate_bad_events,
    is_good_family,
    is_good_family_general,
    is_good_family_single_source,
    sample_family,
)
from .generate import generate_instance
from .instance import (
    EdgeSolution,
    Instance,
    derive_terminals,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    solve_exact_vcsndp,
    solve_pipeline,
)
from .report import benchmark

__all__ = [name for name in dir() if not name.startswith("_")]
