"""Shared exception types."""


class VcsndpError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VcsndpError):
    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class GenerationError(VcsndpError):
    """Random instance generation produced nothing usable."""


class InfeasibleError(VcsndpError):
    """The instance (or subproblem) admits no feasible solution."""


class SolverError(VcsndpError):
    """The LP solver rejected a call or stopped without an optimum or a
    proof of infeasibility, or a cutting-plane loop reached its cap."""


class BudgetExceededError(VcsndpError):
    """An exhaustive search exceeded its configured budget."""


class FamilyNotGoodError(VcsndpError):
    """No good terminal family was found within the resample limit."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
