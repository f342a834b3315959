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
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis, distiter, simulate
from .errors import FeasibilityError, ResourceError, SpecValidationError
from .pgf import Pgf, Thinned, spec_from_json, spec_to_json

EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

CAPS = {
    "depth": 64,
    "reps": 10_000_000,
    "steps": 100_000,
    "K": 64,
    "grid": 1_000_000,
    "M": 10_000_000,
    "node_cap": 100_000_000,
}
# the library's lower limits (moment order, scan grid, map steps); below them
# it raises ValueError, so a config there is rejected as invalid instead
MINIMUMS = {"K": 1, "grid": 100, "steps": 1}


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
    for key, cap in CAPS.items():
        if key in config:
            v = config[key]
            least = MINIMUMS.get(key, 0)
            if not _is_int(v) or v < least or v > cap:
                raise ConfigError(f"config field '{key}' must be an integer in [{least}, {cap}], got {v!r}")
    if "tol" in config and not ((_is_int(config["tol"]) or isinstance(config["tol"], float)) and config["tol"] > 0):
        raise ConfigError("tol must be a positive number")
    if "seed" in config and not _is_int(config["seed"]):
        raise ConfigError("seed must be an integer")
    return config


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise ConfigError("a seed is required for stochastic commands (config 'seed' or --seed)")
    return int(config["seed"])


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
        order = int(config.get("K", 8))
        grid = int(config.get("grid", 1001))
        report = analysis.build_fixed_point_report(pgf, tol)
        discrete = analysis.moment_sequence(pgf, report, analysis.MomentKind.DISCRETE, order, tol)
        try:
            endogenous = analysis.moment_sequence(pgf, report, analysis.MomentKind.ENDOGENOUS, order, tol)
            endo_json: dict | None = endogenous.to_json()
        except FeasibilityError as exc:
            endo_json = {"infeasible_at": exc.n}
        scan = analysis.find_two_cycles(pgf, grid)
        mu1 = report.mu1
        return dict(
            fixed_point=report.to_json(),
            moment_sequences={"discrete": discrete.to_json(), "endogenous": endo_json},
            two_cycles=scan.to_json(),
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
        depth = int(config.get("depth", 12))
        reps = int(config.get("reps", 10_000))
        if reps < 100:
            raise ConfigError("reps must be >= 100 for simulation commands")
        node_cap = int(config.get("node_cap", simulate.DEFAULT_NODE_CAP))
        report = analysis.build_fixed_point_report(Pgf(spec))
        mu1, mu2 = report.mu1, report.mu2
        mc = simulate.mc_moments(spec, depth, reps, seed, node_cap=node_cap)
        want_traces = bool(config.get("traces", False))
        diag_out = simulate.endogeny_diagnostic(
            spec, depth, reps, seed + 1, node_cap=node_cap, keep_values=want_traces
        )
        if want_traces:
            diag, c_roots, s_roots = diag_out
            rows = [[r, float(c_roots[r]), float(s_roots[r]), depth] for r in range(reps)]
            _write_csv(_out_dir(config) / "traces.csv", ["rep", "root_C", "root_S", "depth"], rows)
        else:
            diag = diag_out
        gap = mu1 - mu2
        return dict(
            analytic={"mu1": mu1, "mu2": mu2, "mu1_minus_mu2": gap},
            mc_moments=mc.to_json(),
            endogeny_diagnostic=diag.to_json(),
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
    size = int(init.get("size", config.get("M", distiter.DEFAULT_SAMPLE_SIZE)))
    kind = init["kind"]
    if kind == "points_csv":
        path = init.get("path")
        if path is None:
            raise ConfigError("initial.kind=points_csv requires 'path'")
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read points file: {exc}") from exc
        try:
            pts = np.array([float(line) for line in text.split() if line.strip()])
        except ValueError as exc:
            raise ConfigError(f"points file must hold one real per line: {exc}") from exc
        return distiter.EmpiricalDist(pts)
    if kind == "point_mass":
        return distiter.point_mass(float(init["value"]), size)
    if kind == "mean_matched_uniform":
        return distiter.mean_matched_uniform(float(init["mean"]), size)
    if kind == "bernoulli":
        return distiter.bernoulli_two_point(float(init["mean"]), size)
    raise ConfigError(f"unknown initial distribution kind {kind!r}")


@main.command()
@click.pass_context
def iterate(ctx):
    """Basin verdict and trajectory of the distributional map."""

    def body(config, spec):
        seed = _require_seed(config)
        steps = int(config.get("steps", 30))
        tol = float(config.get("tol", 1e-6))
        nu0 = _initial_dist(config)
        report = distiter.basin_test(nu0, spec, steps, tol=tol, seed=seed)
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
        grid = int(config.get("grid", 1001))
        scan = analysis.find_two_cycles(pgf, grid)
        cycles_json = []
        for cyc in scan.cycles:
            m2p = analysis.iterated_mu2_plus(pgf, cyc)
            entry = cyc.to_json()
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
