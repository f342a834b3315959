"""Batch command-line front-end.

Subcommands (analyze, simulate, iterate, transform, cycles) read a JSON
config describing the offspring spec and run parameters, orchestrate the
library, and write machine-readable reports: JSON for nested results, CSV
for trajectories and tables.  Outputs are deterministic: identical
(config, seed) pairs produce byte-identical files, and every report embeds
the config hash and library version.

Exit codes: 0 success, 2 a usage error or a config or spec validation
failure, 3 resource limit (a tree too large, or a step of the map with too
many child draws).  Statistical disagreement between estimates and analytic
values never fails the process; it is the experiment's output.  The config
digest comes from the builtin _sha256, as in random.py: hashlib would map
OpenSSL into every process.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, analysis
from .errors import ResourceError, SpecValidationError
from .pgf import OffspringSpec, Pgf, Thinned, spec_from_json, spec_to_json

try:
    from _sha256 import sha256
except ImportError:  # a Python built without the module
    from hashlib import sha256

if TYPE_CHECKING:
    import numpy as np

EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

# name: (least, most, default) of every integer config field.  The lower
# limits of K, grid and steps are the library's (below them it raises
# ValueError); size is iterate's initial.size.  A seed has no default, and
# size and node_cap take distiter's and simulate's, where their commands run.
INT_FIELDS = {
    "depth": (0, 64, 12),
    "reps": (100, 10_000_000, 10_000),
    "steps": (1, 100_000, 30),
    "K": (1, 64, 8),
    "grid": (100, 1_000_000, analysis.SCAN_GRID),
    "size": (1, 10_000_000, None),
    "node_cap": (0, 100_000_000, None),
    "seed": (0, math.inf, None),
}


class ConfigError(SpecValidationError):
    pass


def _config_hash(config: dict) -> str:
    # output location is not part of the experiment identity
    scrubbed = {k: v for k, v in config.items() if k != "out"}
    canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _int(obj: dict, key: str, prefix: str = "") -> int:
    """obj[key], or the default of its INT_FIELDS row, checked against that row's range."""
    least, most, default = INT_FIELDS[key]
    v = obj.get(key, default)
    if not _is_int(v) or not least <= v <= most:
        raise ConfigError(f"config field '{prefix}{key}' must be an integer in [{least}, {most}], got {v!r}")
    return v


def _real(obj: dict, key: str, prefix: str = "") -> float:
    v = obj.get(key)
    # NaN compares false; an int past the float range compares exactly, where float(v) raises
    if not (_is_int(v) or isinstance(v, float)) or not abs(v) <= sys.float_info.max:
        raise ConfigError(f"config field '{prefix}{key}' must be a finite number, got {v!r}")
    return float(v)


def _json_int(digits: str) -> int | float:
    # past Python's digit limit int() raises; the literal then reads as +-inf, as 1e400 does
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _load_config(path: str | None, seed: int | None, out: str | None) -> dict:
    if path is None:
        raise ConfigError("--config PATH is required")
    try:
        config = json.loads(Path(path).read_text(), parse_int=_json_int)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    # a JSONDecodeError, a UnicodeDecodeError from read_text, or nesting too deep to decode
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    if "spec" not in config:
        raise ConfigError("config must contain a 'spec' object")
    for key in INT_FIELDS:
        if key in config and key != "size":  # size is initial.size, checked where iterate reads it
            _int(config, key)
    if not isinstance(config.get("out", ""), str):
        raise ConfigError("config field 'out' must be a string")
    if not isinstance(config.get("traces", False), bool):
        raise ConfigError("config field 'traces' must be true or false")
    return config


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise ConfigError("a seed is required for stochastic commands (config 'seed' or --seed)")
    return _int(config, "seed")


def _out_dir(config: dict) -> Path:
    out = Path(config.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _envelope(config: dict, command: str) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config_hash": _config_hash(config),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def analyze(config: dict, spec: OffspringSpec) -> dict:
    """Fixed points, endogeny class, moment sequences and two-cycles."""
    pgf = Pgf(spec)
    order = _int(config, "K")
    report = analysis.build_fixed_point_report(pgf)
    discrete = analysis.moment_sequence(pgf, report, analysis.MomentKind.DISCRETE, order)
    endogenous = analysis.moment_sequence(pgf, report, analysis.MomentKind.ENDOGENOUS, order)
    scan = analysis.find_two_cycles(pgf, _int(config, "grid"))
    mu1 = report.mu1
    return dict(
        fixed_point=asdict(report),
        moment_sequences={"discrete": asdict(discrete), "endogenous": asdict(endogenous)},
        two_cycles=asdict(scan),
        residuals={
            "mean_equation": abs(pgf.eval(mu1) + mu1 - 1.0),
            "mu2_equation": abs((pgf.eval(report.mu2) - report.mu2) - (1.0 - 2.0 * mu1)),
            "cycle_map": max(
                (abs((1.0 - pgf.eval(c.mu_plus)) - c.mu_minus) for c in scan.cycles),
                default=0.0,
            ),
        },
    )


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
        mc_moments=asdict(mc),
        endogeny_diagnostic=asdict(diag),
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


def transform(config: dict, spec: OffspringSpec) -> dict:
    """Tabulate the thinned PGF H, its derivative and the defining residual."""
    if not isinstance(spec, Thinned):
        raise ConfigError("transform requires a thinned spec (base + p)")
    pgf = Pgf(spec)
    base = Pgf(spec.base)
    p, q = spec.p, 1.0 - spec.p
    rows = []
    for z in analysis.unit_grid(101):
        h = pgf.eval(z)
        rows.append([z, h, pgf.deriv_or_inf(z), abs(h - base.eval(p * h + q * z))])
    _write_csv(_out_dir(config) / "transform.csv", ["z", "H", "H_prime", "residual"], rows)
    h1_lo, h1_hi = pgf.eval_bounds(1.0)
    return dict(
        defect=pgf.defect(),
        defect_bounds=[1.0 - h1_hi, 1.0 - h1_lo],
        max_residual=max(row[3] for row in rows),
    )


def cycles(config: dict, spec: OffspringSpec) -> dict:
    """Two-cycle scan with stability and iterated second moments."""
    pgf = Pgf(spec)
    scan = analysis.find_two_cycles(pgf, _int(config, "grid"))
    return dict(
        neutral_continuum=scan.neutral_continuum,
        resolution=scan.resolution,
        fixed_points=list(scan.fixed_points),
        cycles=[asdict(c) | {"mu2_plus": analysis.iterated_mu2_plus(pgf, c), "degenerate": c.degenerate}
                for c in scan.cycles],
    )


COMMANDS = {
    "analyze": (analyze, "analysis.json"),
    "simulate": (simulate_cmd, "simulate.json"),
    "iterate": (iterate, "verdict.json"),
    "transform": (transform, "transform.json"),
    "cycles": (cycles, "cycles.json"),
}


def _run(args: argparse.Namespace) -> None:
    """Load the config, parse the spec, and write the command's report: the
    envelope, the spec echo and the fields that its function returns."""
    body, filename = COMMANDS[args.command]
    try:
        config = _load_config(args.config, args.seed, args.out)
        spec = spec_from_json(config["spec"])
        payload = _envelope(config, args.command)
        payload.update(body(config, spec), spec=spec_to_json(spec))
        _write_json(_out_dir(config) / filename, payload)
    except SpecValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        sys.exit(EXIT_RESOURCE)


def main(argv: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run one command on argv (sys.argv[1:] by default).  A usage error or
    an invalid config exits 2 and a resource limit 3, in either mode; on
    success this returns 0, or exits 0 when standalone_mode is true."""
    parser = argparse.ArgumentParser(
        prog="rde-lab", allow_abbrev=False,
        description="Analyze and simulate the recursion X = 1 - prod(X_i) on random trees.",
    )
    parser.add_argument("--config", help="JSON run configuration.")
    parser.add_argument("--seed", type=int, help="Override the config seed.")
    parser.add_argument("--out", help="Output directory.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (body, _) in COMMANDS.items():
        commands.add_parser(name, help=body.__doc__)
    _run(parser.parse_args(argv))
    if standalone_mode:
        sys.exit(0)
    return 0


if __name__ == "__main__":
    main()
