"""Batch command-line front-end.

Subcommands (analyze, simulate, iterate, transform, cycles) read a JSON
config describing the offspring spec and run parameters, orchestrate the
library, and write machine-readable reports: JSON for nested results, CSV
for trajectories and tables.  Outputs are deterministic: identical
(config, seed) pairs produce byte-identical files, and every report embeds
the config hash and library version.

Exit codes: 0 success, 2 config or spec validation failure, 3 resource
limit (tree too large).  Statistical disagreement between estimates and
analytic values never fails the process; it is the experiment's output.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis, distiter, simulate
from .errors import FeasibilityError, ResourceError, SpecValidationError
from .pgf import Pgf, Thinned, spec_from_json, spec_to_json

EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

# name: (least, most, default) of every integer config field.  The lower
# limits of K, grid and steps are the library's (below them it raises
# ValueError); M also bounds initial.size; a seed has no default.
INT_FIELDS = {
    "depth": (0, 64, 12),
    "reps": (100, 10_000_000, 10_000),
    "steps": (1, 100_000, 30),
    "K": (1, 64, 8),
    "grid": (100, 1_000_000, analysis.SCAN_GRID),
    "M": (1, 10_000_000, distiter.DEFAULT_SAMPLE_SIZE),
    "node_cap": (0, 100_000_000, simulate.DEFAULT_NODE_CAP),
    "seed": (0, math.inf, None),
}


class ConfigError(SpecValidationError):
    pass


def _config_hash(config: dict) -> str:
    # output location is not part of the experiment identity
    scrubbed = {k: v for k, v in config.items() if k != "out"}
    canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(v, int) and not isinstance(v, bool)


def _int(obj: dict, key: str, row: str | None = None, prefix: str = "") -> int:
    """obj[key], or the default of its INT_FIELDS row (``row``, else ``key``),
    checked against that row's range."""
    least, most, default = INT_FIELDS[row or key]
    v = obj.get(key, default)
    if not _is_int(v) or not least <= v <= most:
        raise ConfigError(f"config field '{prefix}{key}' must be an integer in [{least}, {most}], got {v!r}")
    return v


def _real(obj: dict, key: str, prefix: str = "") -> float:
    v = obj.get(key)
    if not (_is_int(v) or isinstance(v, float)):
        raise ConfigError(f"config field '{prefix}{key}' must be a number, got {v!r}")
    return float(v)


def _load_config(path: str | None, seed: int | None, out: str | None, tol: float | None) -> dict:
    if path is None:
        raise ConfigError("--config PATH is required")
    try:
        config = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = out
    if tol is not None:
        config["tol"] = tol
    if "spec" not in config:
        raise ConfigError("config must contain a 'spec' object")
    for key in INT_FIELDS:
        if key in config:
            _int(config, key)
    if "tol" in config and not _real(config, "tol") > 0:
        raise ConfigError("config field 'tol' must be a positive number")
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None, help="JSON run configuration.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory.")
@click.option("--tol", type=float, default=None, help="Override the config tolerance.")
@click.pass_context
def main(ctx, config_path, seed, out, tol):
    """Analyze and simulate the recursion X = 1 - prod(X_i) on random trees."""
    ctx.ensure_object(dict)
    ctx.obj.update(config_path=config_path, seed=seed, out=out, tol=tol)


def _run(ctx, command: str, filename: str, body) -> None:
    """Load the config, parse the spec, and write out/filename: the envelope,
    the spec echo and the fields that body(config, spec) returns."""
    o = ctx.obj
    try:
        config = _load_config(o["config_path"], o["seed"], o["out"], o["tol"])
        spec = spec_from_json(config["spec"])
        payload = _envelope(config, command)
        payload.update(body(config, spec), spec=spec_to_json(spec))
        _write_json(_out_dir(config) / filename, payload)
    except SpecValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except ResourceError as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)


@main.command()
@click.pass_context
def analyze(ctx):
    """Fixed points, endogeny class, moment sequences and two-cycles."""

    def body(config, spec):
        pgf = Pgf(spec)
        tol = float(config.get("tol", analysis.DEFAULT_TOL))
        order = _int(config, "K")
        report = analysis.build_fixed_point_report(pgf, tol)
        discrete = analysis.moment_sequence(pgf, report, analysis.MomentKind.DISCRETE, order, tol)
        try:
            endogenous = analysis.moment_sequence(pgf, report, analysis.MomentKind.ENDOGENOUS, order, tol)
            endo_json = asdict(endogenous)
        except FeasibilityError as exc:
            endo_json = {"infeasible_at": exc.n}
        scan = analysis.find_two_cycles(pgf, _int(config, "grid"))
        mu1 = report.mu1
        return dict(
            fixed_point=asdict(report),
            moment_sequences={"discrete": asdict(discrete), "endogenous": endo_json},
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

    _run(ctx, "analyze", "analysis.json", body)


@main.command(name="simulate")
@click.pass_context
def simulate_cmd(ctx):
    """Monte Carlo moments of C plus the endogeny diagnostic."""

    def body(config, spec):
        seed = _require_seed(config)
        depth = _int(config, "depth")
        report = analysis.build_fixed_point_report(Pgf(spec))
        mu1, mu2 = report.mu1, report.mu2
        mc, diag, c_roots, s_roots = simulate.endogeny_diagnostic(
            spec, mu1, depth, _int(config, "reps"), seed + 1, node_cap=_int(config, "node_cap")
        )
        if config.get("traces", False):
            pairs = enumerate(zip(c_roots.tolist(), s_roots.tolist()))
            rows = [f"{r},{c!r},{s!r},{depth}" for r, (c, s) in pairs]
            (_out_dir(config) / "traces.csv").write_text("\n".join(["rep,root_C,root_S,depth", *rows]) + "\n")
        gap = mu1 - mu2
        return dict(
            analytic={"mu1": mu1, "mu2": mu2, "mu1_minus_mu2": gap},
            mc_moments=mc.to_json(),
            endogeny_diagnostic=asdict(diag),
            flags={
                "mean_within_3se": bool(abs(mc.mean_c - mu1) <= 3.0 * mc.se_mean + 1e-9),
                "m2_within_3se": bool(abs(mc.m2_c - mu2) <= 3.0 * mc.se_m2 + 1e-9),
                "diagnostic_within_3se": bool(abs(diag.e_c_one_minus_c - gap) <= 3.0 * diag.se_e + 1e-9),
            },
        )

    _run(ctx, "simulate", "simulate.json", body)


def _initial_dist(config: dict) -> distiter.EmpiricalDist:
    init = config.get("initial")
    if not isinstance(init, dict) or "kind" not in init:
        raise ConfigError("iterate requires an 'initial' object with a 'kind'")
    size = _int(init, "size", "M", "initial.") if "size" in init else _int(config, "M")
    kind = init["kind"]
    if kind == "points_csv":
        if not isinstance(init.get("path"), str):
            raise ConfigError("config field 'initial.path' must be a string")
        try:
            text = Path(init["path"]).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read points file: {exc}") from exc
        try:
            pts = np.array([float(line) for line in text.split() if line.strip()])
        except ValueError as exc:
            raise ConfigError(f"points file must hold one real per line: {exc}") from exc
        key, make, args = "path", distiter.EmpiricalDist, (pts,)
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


@main.command()
@click.pass_context
def iterate(ctx):
    """Basin verdict and trajectory of the distributional map."""

    def body(config, spec):
        seed = _require_seed(config)
        tol = float(config.get("tol", distiter.BASIN_TOL))
        nu0 = _initial_dist(config)
        report = distiter.basin_test(nu0, spec, _int(config, "steps"), tol=tol, seed=seed)
        rows = [
            [rec.k, rec.m1, rec.m2, rec.r, rec.E, rec.kolmogorov_to_target]
            for rec in report.records
        ]
        _write_csv(_out_dir(config) / "trajectory.csv", ["k", "m1", "m2", "r", "E", "kolmogorov"], rows)
        return dict(
            verdict={"analytic": report.analytic, "empirical": report.empirical},
            mu1=report.mu1,
            mu2=report.mu2,
            initial={"mean": nu0.mean(), "m2": nu0.second_moment(), "size": nu0.size},
            final={"m1": report.records[-1].m1, "m2": report.records[-1].m2},
        )

    _run(ctx, "iterate", "verdict.json", body)


@main.command()
@click.pass_context
def transform(ctx):
    """Tabulate the thinned PGF H, its derivative and the defining residual."""

    def body(config, spec):
        if not isinstance(spec, Thinned):
            raise ConfigError("transform requires a thinned spec (base + p)")
        pgf = Pgf(spec)
        base = Pgf(spec.base)
        p, q = spec.p, 1.0 - spec.p
        zs = np.linspace(0.0, 1.0, 101)
        h = pgf.eval(zs)
        resid = np.abs(h - base.eval(p * h + q * zs))
        rows = [
            [float(z), float(h[i]), pgf.deriv_or_inf(float(z)), float(resid[i])]
            for i, z in enumerate(zs)
        ]
        _write_csv(_out_dir(config) / "transform.csv", ["z", "H", "H_prime", "residual"], rows)
        h1_lo, h1_hi = pgf.eval_bounds(1.0)
        return dict(
            defect=pgf.defect(),
            defect_bounds=[1.0 - h1_hi, 1.0 - h1_lo],
            max_residual=float(resid.max()),
        )

    _run(ctx, "transform", "transform.json", body)


@main.command()
@click.pass_context
def cycles(ctx):
    """Two-cycle scan with stability and iterated second moments."""

    def body(config, spec):
        pgf = Pgf(spec)
        scan = analysis.find_two_cycles(pgf, _int(config, "grid"))
        cycles_json = []
        for cyc in scan.cycles:
            m2p = analysis.iterated_mu2_plus(pgf, cyc)
            entry = asdict(cyc)
            entry["mu2_plus"] = m2p.value
            entry["degenerate"] = m2p.degenerate
            cycles_json.append(entry)
        return dict(
            neutral_continuum=scan.neutral_continuum,
            resolution=scan.resolution,
            fixed_points=list(scan.fixed_points),
            cycles=cycles_json,
        )

    _run(ctx, "cycles", "cycles.json", body)


if __name__ == "__main__":
    main()
