"""rde_lab: fixed points, endogeny and simulation for X = 1 - prod(X_i)
on Galton-Watson trees with possibly infinite family sizes."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    RdeLabError,
    ResourceError,
    SpecValidationError,
)
from .pgf import (
    Deterministic,
    FinitePmf,
    Geometric,
    OffspringSpec,
    Pgf,
    Thinned,
    spec_from_json,
    spec_to_json,
)
from .analysis import (
    CycleScan,
    Endogeny,
    FixedPointReport,
    MomentKind,
    MomentSequence,
    TwoCycle,
    basin_of_mean,
    build_fixed_point_report,
    find_two_cycles,
    finite_depth_moments,
    iterated_mu2_plus,
    moment_map,
    moment_sequence,
    solve_mu1,
    solve_mu2,
    solve_mu_star,
)
from .simulate import endogeny_diagnostic, mc_moments
from .distiter import (
    EmpiricalDist,
    TrajectoryRecord,
    apply_T,
    basin_test,
    mean_matched_uniform,
    point_mass,
)
