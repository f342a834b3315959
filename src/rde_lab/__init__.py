"""rde_lab: fixed points, endogeny and simulation for X = 1 - prod(X_i)
on Galton-Watson trees with possibly infinite family sizes."""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    FeasibilityError,
    RdeLabError,
    ResourceError,
    SpecValidationError,
)
from .pgf import (
    INFINITY,
    Deterministic,
    FinitePmf,
    Geometric,
    OffspringSpec,
    Pgf,
    Thinned,
    sample_family_size,
    spec_from_json,
    spec_to_json,
)
from .analysis import (
    CycleScan,
    Endogeny,
    FixedPointReport,
    MomentKind,
    MomentSequence,
    PerronReport,
    TwoCycle,
    basin_of_mean,
    build_fixed_point_report,
    classify_endogeny,
    find_two_cycles,
    iterated_mu2_plus,
    moment_sequence,
    perron_rho,
    solve_mu1,
    solve_mu2,
    solve_mu_star,
)
from .simulate import (
    SampledTree,
    SolutionLayer,
    conditional_solution,
    discrete_solution,
    endogeny_diagnostic,
    iterated_conditional,
    mc_moments,
    sample_tree,
)
from .distiter import (
    EmpiricalDist,
    TrajectoryRecord,
    apply_T,
    basin_test,
    iterate_T,
    kolmogorov_distance,
    mean_matched_uniform,
    moment_recursions,
    point_mass,
)
