"""Radial finite-volume laboratory for a chemotaxis-consumption system.

Simulates u_t = div(D(u) grad u - u grad v) coupled to the quasi-static
signal equation 0 = Lap(v) - u v on a ball in R^n, reduced to one radial
variable, with power-law diffusion D(u) = kappa (u+1)^(-alpha). Provides
verification of the discrete conservation/comparison identities and sweep
experiments around the decay exponent alpha = 1 separating bounded runs
from blow-up candidates.
"""

from .elliptic import EllipticSolution, boundary_flux_bound, solve_v, vr_from_integral
from .errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    NumericalError,
    RadtaxisError,
    SingularSystemError,
)
from .grid import (
    RadialGrid,
    RadialProfile,
    boundary_trace,
    integrate,
    lp_norm,
    write_state_csv,
)
from .lab import (
    BLOWUP_SUSPECTED,
    BOUNDED,
    INCONCLUSIVE,
    TOLERANCE_FAILURE,
    CaseReport,
    CheckResult,
    SweepPlan,
    SweepRow,
    SweepVariant,
    Verdict,
    paired_separation,
    parse_plan,
    run_case,
    run_sweep,
    verify_suite,
    write_sweep_csv,
    write_trace_csv,
)
from .model import (
    AnnulusBump,
    BoundaryDatum,
    ConstantData,
    DiffusionLaw,
    GaussianBump,
    Geometry,
    InitialData,
    RunConfig,
    load_config,
    parse_config,
    sample_initial,
    unit_ball_volume,
)
from .stepper import (
    SimState,
    StepOutcome,
    StepStatus,
    TraceRecord,
    advance,
    cfl_dt,
    face_flux,
    initial_state,
    step,
)
from .svg import read_table, render_svg

__version__ = "0.1.0"

__all__ = [
    "AnnulusBump", "BLOWUP_SUSPECTED", "BOUNDED", "BoundaryDatum", "CaseReport",
    "CheckResult", "ConfigError", "ConstantData", "DiffusionLaw", "DomainError",
    "EllipticSolution", "GaussianBump", "Geometry", "GridMismatchError",
    "INCONCLUSIVE", "InitialData", "NumericalError", "RadialGrid", "RadialProfile",
    "RadtaxisError", "RunConfig", "SimState", "SingularSystemError", "StepOutcome",
    "StepStatus", "SweepPlan", "SweepRow", "SweepVariant", "TOLERANCE_FAILURE",
    "TraceRecord", "Verdict", "advance", "boundary_flux_bound", "boundary_trace",
    "cfl_dt", "face_flux", "initial_state", "integrate", "load_config",
    "lp_norm", "paired_separation", "parse_config", "parse_plan",
    "read_table", "render_svg", "run_case", "run_sweep", "sample_initial",
    "solve_v", "step", "unit_ball_volume", "verify_suite", "vr_from_integral",
    "write_state_csv", "write_sweep_csv", "write_trace_csv",
]
