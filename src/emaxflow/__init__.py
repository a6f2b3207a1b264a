"""Approximate directed max flow via electrical flows and multiplicative weights.

The package exports the functions the README documents, the types of their
arguments and results, and the exceptions they raise.  Everything else is
importable from its submodule.
"""

from .driver import SolveReport, approx_max_flow, exact_max_flow
from .electrical import (
    ConvergenceError,
    DisconnectedNetworkError,
    ElectricalSolveResult,
    RepairError,
    electrical_st_flow,
)
from .mwu import BoundedFlowResult, WidthViolationError, solve_bounded_flow
from .network import (
    DimacsParseError,
    DirectedNetwork,
    FlowAssignment,
    SymmetrizedNetwork,
    parse_dimacs,
    symmetrize,
)
from .recovery import RecoveryError, RecoveryResult, recover_directed_flow

__version__ = "0.1.0"

__all__ = [
    "BoundedFlowResult",
    "ConvergenceError",
    "DimacsParseError",
    "DirectedNetwork",
    "DisconnectedNetworkError",
    "ElectricalSolveResult",
    "FlowAssignment",
    "RecoveryError",
    "RecoveryResult",
    "RepairError",
    "SolveReport",
    "SymmetrizedNetwork",
    "WidthViolationError",
    "approx_max_flow",
    "electrical_st_flow",
    "exact_max_flow",
    "parse_dimacs",
    "recover_directed_flow",
    "solve_bounded_flow",
    "symmetrize",
]
