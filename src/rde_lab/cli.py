"""Batch command-line front-end.

    rde-lab [--config PATH] [--seed N] [--out DIR] COMMAND

Subcommands (analyze, simulate, iterate, transform, cycles) read a JSON
config describing the offspring spec and run parameters, orchestrate the
library, and write machine-readable reports: JSON for nested results, CSV
for trajectories and tables.  Outputs are deterministic: identical
(config, seed) pairs produce byte-identical files, and every report embeds
the config hash and library version.  The sampling commands, simulate and
iterate, live in ``rde_lab.cli_sampling``, which loads when one of them runs.

Exit codes: 0 success, 2 a usage error or a config or spec validation
failure, 3 resource limit (a tree too large, or a step of the map with too
many child draws).  Statistical disagreement between estimates and analytic
values never fails the process; it is the experiment's output.  The config
digest comes from the builtin _sha256, as in random.py: hashlib would map
OpenSSL into every process.  For the same reason of start-up cost, the
fixed grammar above is parsed here rather than with argparse, and reports
are NamedTuples written with _asdict() rather than dataclasses.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, analysis
from .errors import ResourceError, SpecValidationError
from .pgf import OffspringSpec, Pgf, Thinned, spec_from_json, spec_to_json

try:
    from _sha256 import sha256
except ImportError:  # a Python built without the module
    from hashlib import sha256

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
    # a file at the out path or above it fails before the command runs; the directory is made where a
    # report is written, so a config rejected later leaves none
    out_path = Path(config.get("out", "."))
    if any(d.is_file() for d in (out_path, *out_path.parents)):
        raise ConfigError(f"output directory {config['out']!r} is a file or lies below one")
    if not isinstance(config.get("traces", False), bool):
        raise ConfigError("config field 'traces' must be true or false")
    return config


def _out_dir(config: dict) -> Path:
    out = Path(config.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file at the path or above it, no permission, a NUL byte
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc}") from exc
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
        fixed_point=report._asdict(),
        moment_sequences={"discrete": discrete._asdict(), "endogenous": endogenous._asdict()},
        two_cycles=scan._asdict() | {"cycles": [c._asdict() for c in scan.cycles]},
        residuals={
            "mean_equation": abs(pgf.eval(mu1) + mu1 - 1.0),
            "mu2_equation": abs((pgf.eval(report.mu2) - report.mu2) - (1.0 - 2.0 * mu1)),
            "cycle_map": max(
                (abs((1.0 - pgf.eval(c.mu_plus)) - c.mu_minus) for c in scan.cycles),
                default=0.0,
            ),
        },
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
        rows.append([z, h, pgf.deriv(z), abs(h - base.eval(p * h + q * z))])
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
        cycles=[c._asdict() | {"mu2_plus": analysis.iterated_mu2_plus(pgf, c), "degenerate": c.degenerate}
                for c in scan.cycles],
    )


def simulate_cmd(config: dict, spec: OffspringSpec) -> dict:
    """Monte Carlo moments of C plus the endogeny diagnostic."""
    from . import cli_sampling
    return cli_sampling.simulate_cmd(config, spec)


def iterate(config: dict, spec: OffspringSpec) -> dict:
    """Basin verdict and trajectory of the distributional map."""
    from . import cli_sampling
    return cli_sampling.iterate(config, spec)


COMMANDS = {
    "analyze": (analyze, "analysis.json"),
    "simulate": (simulate_cmd, "simulate.json"),
    "iterate": (iterate, "verdict.json"),
    "transform": (transform, "transform.json"),
    "cycles": (cycles, "cycles.json"),
}

USAGE = "usage: rde-lab [-h] [--config CONFIG] [--seed SEED] [--out OUT] COMMAND ..."
HELP = """{usage}

Analyze and simulate the recursion X = 1 - prod(X_i) on random trees.

commands:
{commands}
options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON run configuration.
  --seed SEED      Override the config seed.
  --out OUT        Output directory."""
OPTIONS = ("--config", "--seed", "--out")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # an option's value, not an option, as argparse reads it


def _usage_error(message: str) -> NoReturn:
    print(f"{USAGE}\nrde-lab: error: {message}", file=sys.stderr)
    sys.exit(EXIT_VALIDATION)


def _parse(argv: list[str]) -> tuple[str, str | None, int | None, str | None]:
    """(command, config path, seed, out) from argv, which gives each option
    as --opt VALUE or --opt=VALUE, all of them before the one command; the
    last of a repeated option wins.  -h or --help anywhere prints the help
    and exits 0; a usage error exits 2."""
    if "-h" in argv or "--help" in argv:
        commands = "".join(f"  {name:<11}{body.__doc__}\n" for name, (body, _) in COMMANDS.items())
        print(HELP.format(usage=USAGE, commands=commands))
        sys.exit(0)
    command, options, args = None, dict.fromkeys(OPTIONS), iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if command is not None:  # an option after the command, or a second command
            _usage_error(f"unrecognized arguments: {' '.join([arg, *args])}")
        elif name in OPTIONS:
            if not eq:
                value = next(args, None)
                if value is None or value[:1] == "-" and value != "-" and not _NEGATIVE_NUMBER.fullmatch(value):
                    _usage_error(f"argument {name}: expected one argument")
            options[name] = value
        elif arg[:1] == "-":  # an unknown option or an abbreviation
            _usage_error(f"unrecognized arguments: {arg}")
        elif arg not in COMMANDS:
            _usage_error(f"argument COMMAND: invalid choice: {arg!r} (choose from {', '.join(map(repr, COMMANDS))})")
        else:
            command = arg
    if command is None:
        _usage_error("the following arguments are required: COMMAND")
    seed = options["--seed"]
    try:
        seed = None if seed is None else int(seed)
    except ValueError:
        _usage_error(f"argument --seed: invalid int value: {seed!r}")
    return command, options["--config"], seed, options["--out"]


def _run(command: str, path: str | None, seed: int | None, out: str | None) -> None:
    """Load the config, parse the spec, and write the command's report: the
    envelope, the spec echo and the fields that its function returns."""
    body, filename = COMMANDS[command]
    try:
        config = _load_config(path, seed, out)
        spec = spec_from_json(config["spec"])
        payload = _envelope(config, command)
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
    _run(*_parse(sys.argv[1:] if argv is None else argv))
    if standalone_mode:
        sys.exit(0)
    return 0


if __name__ == "__main__":
    # run by python -m, this module is __main__; entered under its own name
    # too, cli_sampling's import of it finds it instead of loading a copy
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
