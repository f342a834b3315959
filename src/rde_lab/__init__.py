"""rde_lab: fixed points, endogeny and simulation for X = 1 - prod(X_i)
on Galton-Watson trees with possibly infinite family sizes.

The public names load their submodule on first access (PEP 562), so a
run imports only the layers it uses."""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "errors": "DomainError RdeLabError ResourceError SpecValidationError",
    "pgf": "Deterministic FinitePmf Geometric OffspringSpec Pgf Thinned spec_from_json spec_to_json",
    "analysis": "CycleScan Endogeny FixedPointReport MomentKind MomentSequence TwoCycle basin_of_mean "
                "build_fixed_point_report find_two_cycles finite_depth_moments iterated_mu2_plus "
                "moment_map moment_sequence solve_mu1 solve_mu2 solve_mu_star",
    "simulate": "endogeny_diagnostic mc_moments",
    "distiter": "EmpiricalDist TrajectoryRecord apply_T basin_test mean_matched_uniform point_mass",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
