"""Equilibrium and efficiency analysis for single-commodity routing games."""

from .costs import Affine, CostFunction, PiecewiseLinear, Polynomial, cost_from_json, cost_to_json
from .errors import (
    BisectionFailure,
    CertificateFailure,
    GridExceedsBreakpointMax,
    NegativeLoad,
    NoPath,
    NonConvergence,
    NonpositiveOptimum,
    PathExplosion,
    PoakitError,
    SignViolation,
    SupportSearchExhausted,
    TraceFailure,
)
from .network import (
    Edge,
    Network,
    PathSet,
    enumerate_paths,
    load_network,
)
from .equilibrium import (
    EquilibriumSolution,
    OptimumSolution,
    RegularityReport,
    WardropReport,
    check_regularity,
    solve_affine_exact,
    solve_equilibrium,
    solve_optimum,
    verify_wardrop,
)
from .parametric import (
    AffineTrace,
    Breakpoint,
    TraceSegment,
    optimum_breakpoints,
    trace_affine,
    trace_from_json,
    trace_to_completion,
    trace_to_json,
)
from .poa import (
    PoACurve,
    PoAMaximum,
    PoAPiece,
    PoAPoint,
    active_set_hash,
    classify_segments,
    compute_poa,
    find_poa_max,
    sweep_csv_text,
    sweep_poa,
)

__version__ = "0.1.0"
