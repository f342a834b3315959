"""The sampling commands of the CLI, simulate and iterate.

``rde_lab.cli`` imports this module only when one of them runs, so an
analysis process neither compiles nor loads it.  Both draw on a seed and
load numpy, the tree layer and the distributional map; the config checks
and report writers are the ones in ``rde_lab.cli``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from . import analysis
from .cli import INT_FIELDS, ConfigError, _int, _is_int, _out_dir, _write_csv
from .errors import SpecValidationError
from .pgf import OffspringSpec, Pgf

if TYPE_CHECKING:
    import numpy as np


def _real(obj: dict, key: str, prefix: str = "") -> float:
    v = obj.get(key)
    # NaN compares false; an int past the float range compares exactly, where float(v) raises
    if not (_is_int(v) or isinstance(v, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"config field '{prefix}{key}' must be a finite number, got {v!r}")
    return float(v)


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise ConfigError("a seed is required for stochastic commands (config 'seed' or --seed)")
    return _int(config, "seed")


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each value, formed once per distinct value: the repr of the
    list of distinct values, split at its separators."""
    import numpy as np

    distinct, inverse = np.unique(values, return_inverse=True)
    names = np.array(repr(distinct.tolist())[1:-1].split(", "), dtype=object)
    return names[inverse].tolist()


def simulate_cmd(config: dict, spec: OffspringSpec) -> dict:
    """Monte Carlo moments of C plus the endogeny diagnostic."""
    from . import simulate

    seed = _require_seed(config)
    depth = _int(config, "depth")
    pgf = Pgf(spec)
    report = analysis.build_fixed_point_report(pgf)
    mu1, mu2 = report.mu1, report.mu2
    mc, diag, c_roots, s_roots = simulate.endogeny_diagnostic(
        spec, mu1, depth, _int(config, "reps"), seed + 1,
        node_cap=_int(config, "node_cap") if "node_cap" in config else simulate.DEFAULT_NODE_CAP,
    )
    if config.get("traces", False):
        pairs = enumerate(zip(_reprs(c_roots), _reprs(s_roots)))
        rows = [f"{r},{c},{s},{depth}" for r, (c, s) in pairs]
        (_out_dir(config) / "traces.csv").write_text("\n".join(["rep,root_C,root_S,depth", *rows]) + "\n")
    # the exact second moment of C at the simulated depth
    m2 = float(analysis.finite_depth_moments(pgf, mu1, depth, 2)[2])
    gap = mu1 - m2
    return dict(
        analytic={"mu1": mu1, "mu2": mu2, "mu1_minus_mu2": mu1 - mu2},
        finite_depth={"m2": m2, "e_c_one_minus_c": gap, "p_disagree": 2.0 * gap},
        mc_moments=mc._asdict(),
        endogeny_diagnostic=diag._asdict(),
        flags={
            "mean_within_3se": bool(abs(mc.mean_C - mu1) <= 3.0 * mc.se_mean + 1e-9),
            "m2_within_3se": bool(abs(mc.m2_C - m2) <= 3.0 * mc.se_m2 + 1e-9),
            "diagnostic_within_3se": bool(abs(diag.e_c_one_minus_c - gap) <= 3.0 * diag.se_e + 1e-9),
        },
    )


def _read_points(path: str) -> np.ndarray:
    """A points file's whitespace-separated reals, parsed a chunk of lines at a time."""
    import numpy as np

    most, count, chunks = INT_FIELDS["size"][1], 0, []
    try:
        with open(path) as f:
            while lines := f.readlines(1 << 20):
                tokens = "".join(lines).split()
                count += len(tokens)
                if count <= most:
                    chunks.append(np.array(tokens, dtype=float))
    except OSError as exc:
        raise ConfigError(f"cannot read points file: {exc}") from exc
    except ValueError as exc:  # a token that is not a real, or bytes that are not text
        raise ConfigError(f"config field 'initial.path' must name a file of reals: {exc}") from exc
    if count > most:
        raise ConfigError(f"config field 'initial.path' names a file of {count} points, more than {most}")
    return np.concatenate(chunks or [np.empty(0)])


def _initial_dist(config: dict):
    """iterate's start sample, an EmpiricalDist made as config's 'initial' object says."""
    from . import distiter

    init = config.get("initial")
    if not isinstance(init, dict) or "kind" not in init:
        raise ConfigError("iterate requires an 'initial' object with a 'kind'")
    size = _int(init, "size", "initial.") if "size" in init else distiter.DEFAULT_SAMPLE_SIZE
    kind = init["kind"]
    if kind == "points_csv":
        if not isinstance(init.get("path"), str):
            raise ConfigError("config field 'initial.path' must be a string")
        key, make, args = "path", distiter.EmpiricalDist, (_read_points(init["path"]),)
    elif kind in ("point_mass", "mean_matched_uniform", "bernoulli"):
        key = "value" if kind == "point_mass" else "mean"
        make = {"point_mass": distiter.point_mass, "mean_matched_uniform": distiter.mean_matched_uniform,
                "bernoulli": distiter.bernoulli_two_point}[kind]
        args = (_real(init, key, "initial."), size)
    else:
        raise ConfigError(f"unknown initial distribution kind {kind!r}")
    try:
        return make(*args)
    except SpecValidationError as exc:  # the sample or its mean lies outside [0, 1]
        raise ConfigError(f"config field 'initial.{key}': {exc}") from exc


def iterate(config: dict, spec: OffspringSpec) -> dict:
    """Basin verdict and trajectory of the distributional map."""
    from . import distiter

    seed = _require_seed(config)
    # no local keeps the start sample, so basin_test can let it go
    report = distiter.basin_test(_initial_dist(config), spec, _int(config, "steps"), seed=seed)
    start = report.records[0]
    rows = [[rec.k, rec.m1, rec.m2] for rec in report.records]
    _write_csv(_out_dir(config) / "trajectory.csv", ["k", "m1", "m2"], rows)
    return dict(
        verdict={"analytic": report.analytic, "empirical": report.empirical},
        mu1=report.mu1,
        mu2=report.mu2,
        initial={"mean": start.m1, "m2": start.m2, "size": report.size},
        final={"m1": report.records[-1].m1, "m2": report.records[-1].m2},
    )
