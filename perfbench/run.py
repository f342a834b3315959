"""Benchmark of the rde-lab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``
with nothing installed.  Workloads (see workloads.py):

* ``analytic-thinned``: analyze, cycles and transform on four thinned specs;
* ``tree-mc``: simulate on four tree configs;
* ``law-iterate``: iterate at M = 1e6 on three configs.

``--trace 0`` times the workload end to end: each CLI run is a subprocess,
one at a time, and whole passes over the workload's runs repeat while
another one fits in ``--seconds`` (at least one).  Metrics, medians over
passes:

* ``wall_s``: wall time of one pass, the sum of its processes' wall times
  from start to exit;
* ``setup_s``: wall time of a subprocess that imports rde_lab.cli and
  exits (three probes before each pass);
* ``peak_rss_mb``: the highest peak RSS of one process in the pass, from
  ``os.wait4`` (a running maximum over all children would charge one run's
  peak to every later run).

The table printed above the result line adds ``fail_frac`` and the wall
time of each subcommand that the workload runs (``analyze_s``, ...).

``--trace 1`` drives ``rde_lab.cli.main`` in-process instead, running each
CLI run untraced and traced back to back, and reports the per-layer metrics
of tracing.py (medians over passes); ``trace.overhead_frac`` is traced over
untraced wall, minus 1.

Every run's output is checked against oracle.py.  A run fails when it exits
with a code other than 0 or its output disagrees with its oracle; failures
count in ``failed``.  ``correct`` is false when a run fails that is not one
of the known defects listed in workloads.py.

Every process runs with RDE_LAB_THREADS=1, one BLAS/OpenMP thread and a
fixed glibc mmap threshold (see RUN_ENV); the machine may be shared, and
thread scaling is out of scope.  Results, spans
and the machine description go to ``.perfbench-out/``; CLI outputs go to
``.perfbench-work/``, which is removed at exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, Run, make_runs

RUN_ENV = {
    "RDE_LAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # fixed glibc malloc thresholds at the ceiling the default sliding ones
    # climb to: with sliding ones, whether an array near the size of an
    # earlier freed one is mmapped or carved from the heap depends on the
    # seed, and peak RSS of one config jumped between 152 and 175 MB
    # (geometric-neutral); a low fixed threshold instead mmaps every array
    # and slowed runs by 20-40 %
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20),
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 3  # per pass
# a run that outlives this is killed and counted as failed, so that the
# benchmark still reports within its time limit
DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COMMANDS = ("analyze", "cycles", "transform", "simulate", "iterate")


@dataclass
class Outcome:
    run: Run
    exit_code: int
    problems: list[str]
    wall_s: float
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)

    @property
    def unexpected(self) -> bool:
        return self.failed and self.run.known_defect is None


def classify(run: Run, exit_code: int, out: Path) -> list[str]:
    """Why a finished run failed: its exit code, else its oracle's findings."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return oracle.CHECKS[run.command](run.config, out, **run.expect)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _prepare(run: Run, index: int) -> Path:
    out = WORK / f"run{index}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    (out / "config.json").write_text(json.dumps(run.config))
    return out


def _cli_args(out: Path, run: Run) -> list[str]:
    return ["--config", str(out / "config.json"), "--out", str(out), run.command]


def _child_env() -> dict:
    env = dict(os.environ, **RUN_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], cwd: Path, stderr, limit_s: float) -> tuple[int, float, float]:
    """(exit code, wall s, peak RSS MB) of one child, reaped with wait4."""
    env = _child_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
    killer = threading.Timer(max(1.0, limit_s), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def subprocess_pass(runs: list[Run], deadline: float) -> list[Outcome]:
    outcomes = []
    for i, run in enumerate(runs):
        out = _prepare(run, i)
        with open(out / "stderr.txt", "wb") as err:
            code, wall, rss = _spawn(
                [sys.executable, "-m", "rde_lab.cli", *_cli_args(out, run)], out, err, deadline - time.monotonic()
            )
        outcomes.append(Outcome(run, code, classify(run, code, out), wall, rss))
    return outcomes


def setup_probes(n: int) -> list[float]:
    """Wall times of n subprocesses that import rde_lab.cli and exit."""
    times = []
    for _ in range(n):
        code, wall, _ = _spawn([sys.executable, "-c", "import rde_lab.cli"], WORK, subprocess.DEVNULL, 60.0)
        if code != 0:
            raise RuntimeError(f"importing rde_lab.cli failed with exit code {code}")
        times.append(wall)
    return times


def import_cli():
    sys.path.insert(0, str(SRC))
    import rde_lab
    import rde_lab.cli

    if Path(rde_lab.__file__).resolve().parent != SRC / "rde_lab":
        raise RuntimeError(f"rde_lab imported from {rde_lab.__file__}, not from {SRC}")
    return rde_lab.cli


def _exit_code(cli, args: list[str]) -> int:
    try:
        rv = cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an uncaught error is a traceback, exit 1, in the CLI
        return 1
    return rv if isinstance(rv, int) else 0


def _inprocess(cli, run: Run, index: int, tracer: tracing.Tracer) -> Outcome:
    out = _prepare(run, index)
    tracer.trace_id += 1
    root = tracer.open(f"cli.{run.command}") if tracer.enabled else None
    t0 = time.perf_counter()
    code = _exit_code(cli, _cli_args(out, run))
    wall = time.perf_counter() - t0
    if root is not None:
        tracer.close(root)
        reports = (p for p in out.iterdir() if p.name != "config.json")
        tracer.spans[root].work["report_bytes"] = sum(p.stat().st_size for p in reports)
    return Outcome(run, code, classify(run, code, out), wall)


def paired_pass(cli, runs: list[Run], tracer: tracing.Tracer, flip: bool) -> tuple[list[Outcome], list[Outcome], list]:
    """Each run untraced and traced back to back, alternating which goes
    first from run to run and, with ``flip``, from pass to pass, so that
    drift in machine speed and order effects hit both sides alike.  Returns
    the untraced and traced outcomes and the pass's spans."""
    tracer.spans = []
    plain, traced = [], []
    for i, run in enumerate(runs):
        for enabled in ((False, True) if (i % 2 == 0) != flip else (True, False)):
            tracer.enabled = enabled
            (traced if enabled else plain).append(_inprocess(cli, run, i, tracer))
    tracer.enabled = False
    return plain, traced, tracer.spans


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "env": RUN_ENV,
        "note": "the machine may be shared with other jobs; thread scaling is out of scope on 2 cores",
    }


def end_to_end(passes: list[list[Outcome]], setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the result line, per-subcommand wall times); medians over passes."""
    metrics = {
        "wall_s": statistics.median(sum(o.wall_s for o in p) for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(max(o.peak_rss_mb for o in p) for p in passes),
    }
    table = {"passes": (len(passes), "count")}
    for cmd in COMMANDS:
        if any(o.run.command == cmd for o in passes[0]):
            walls = (sum(o.wall_s for o in p if o.run.command == cmd) for p in passes)
            table[f"{cmd}_s"] = (statistics.median(walls), "s")
    return metrics, table


def another_fits(t0: float, done: int, seconds: int) -> bool:
    """Whether a pass as long as the average so far still ends within seconds."""
    elapsed = time.monotonic() - t0
    return elapsed + elapsed / done <= seconds


def measure(workload: str, seed: int, seconds: int) -> tuple[list[Outcome], dict, dict]:
    runs = make_runs(workload, seed)
    deadline = time.monotonic() + DEADLINE_S
    setup_probes(1)  # byte-compile once, untimed
    setup: list[float] = []
    passes: list[list[Outcome]] = []
    t0 = time.monotonic()
    while not passes or another_fits(t0, len(passes), seconds):
        # import probes spread over the run, like the passes
        setup += setup_probes(SETUP_PROBES)
        passes.append(subprocess_pass(runs, deadline))
    metrics, table = end_to_end(passes, setup)
    return [o for p in passes for o in p], metrics, table


def measure_traced(workload: str, seed: int, seconds: int) -> tuple[list[Outcome], dict, dict, list]:
    runs = make_runs(workload, seed)
    cli = import_cli()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    outcomes: list[Outcome] = []
    plain_walls, traced_walls, layer_passes, spans = [], [], [], []
    try:
        t0 = time.monotonic()
        while not layer_passes or another_fits(t0, len(layer_passes), seconds):
            plain, traced, pass_spans = paired_pass(cli, runs, tracer, flip=len(layer_passes) % 2 == 1)
            outcomes += plain + traced
            plain_walls.append(sum(o.wall_s for o in plain))
            traced_walls.append(sum(o.wall_s for o in traced))
            layer_passes.append(tracing.layer_metrics(pass_spans))
            spans.append(pass_spans)
    finally:
        restore()
    metrics = tracing.median_metrics(layer_passes)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    counts = [k for k, unit in tracing.PER_LAYER_UNITS.items() if unit == "count"]
    unstable = [k for k in counts if len({p[k] for p in layer_passes}) > 1]
    table = {"passes": (len(layer_passes), "count"), "untraced_wall_s": (statistics.median(plain_walls), "s")}
    if unstable:
        print(f"# counts that varied between traced passes: {unstable}")
    return outcomes, metrics, table, spans


def report_line(outcomes: list[Outcome], metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": not any(o.unexpected for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rde_lab" / "cli.py").is_file():
        print(f"error: no rde_lab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            outcomes, metrics, table, spans = measure_traced(args.workload, args.seed, args.seconds)
            units = tracing.PER_LAYER_UNITS
            stem = OUT / f"{args.workload}-seed{args.seed}"
            with open(f"{stem}-spans.jsonl", "w") as fh:
                # one line per span; parent is an index among the same pass's spans
                for n, pass_spans in enumerate(spans):
                    for s in pass_spans:
                        fh.write(json.dumps([n, s.name, s.start, s.end, s.parent, s.trace_id, s.work]) + "\n")
        else:
            outcomes, metrics, table = measure(args.workload, args.seed, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    env = machine()
    failures: dict[str, list[Outcome]] = {}
    for o in outcomes:
        if o.failed:
            failures.setdefault(o.run.label, []).append(o)
    for label, group in failures.items():
        known = group[0].run.known_defect
        tag = f"known defect, {known}" if known else "FAILED"
        print(f"# {tag} ({len(group)}x): {label}: {'; '.join(group[0].problems)[:300]}")
    table["fail_frac"] = (sum(o.failed for o in outcomes) / len(outcomes), "ratio")
    table.update((k, (v, units[k])) for k, v in metrics.items())
    for name, (value, unit) in table.items():
        print(f"# {name} {value} {unit}")
    print(f"# machine {json.dumps(env)}")
    line = report_line(outcomes, metrics, units)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": env, "table": table, "result": json.loads(line),
              "runs": [[o.run.label, o.exit_code, o.failed, o.wall_s, o.peak_rss_mb] for o in outcomes]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        # glibc and the BLAS read these at process start: restart with them set
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **RUN_ENV})
    sys.exit(main())
