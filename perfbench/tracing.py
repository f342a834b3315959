"""Spans around the rde_lab layers, and the per-layer metrics made from them.

``install`` replaces public functions of rde_lab with timing wrappers at
the attributes their callers look up (``rde_lab.pgf.Pgf.eval``,
``rde_lab.simulate.sample_family_sizes``, ...), so the program itself is
unchanged.  Each call made while the tracer is enabled records a span:
name, start and end in ns, parent span, trace id (one per CLI run) and
the work it was handed (points evaluated, family sizes drawn).  Spans stay
in memory and are written out once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int | None
    trace_id: int
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.trace_id = 0
        self._stack: list[int] = []

    def open(self, name: str, **work) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.trace_id, work))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, work_in=None, work_out=None):
        """fn with a span around each call; ``work_in(args, kwargs)`` and
        ``work_out(result)`` return the counts recorded on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name, **(work_in(args, kwargs) if work_in else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if work_out:
                self.spans[index].work.update(work_out(result))
            return result

        return traced


def _points(args, kwargs):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["s"]))}


def _draws(args, kwargs):
    return {"draws": int(args[1] if len(args) > 1 else kwargs["n"])}


def _children(sizes):
    # children resampled by apply_T: the sum of the finite sizes (infinite is -1)
    return {"children": int(sizes.sum() + (sizes < 0).sum())}


def install(tracer: Tracer):
    """Wrap the rde_lab layers; returns a function that restores them."""
    from rde_lab import analysis, distiter, pgf, simulate

    targets = [
        (pgf.Pgf, "eval", "pgf.eval", _points, None),
        (pgf.Pgf, "deriv", "pgf.deriv", None, None),
        (simulate, "sample_family_sizes", "pgf.sample", _draws, None),
        (distiter, "sample_family_sizes", "pgf.sample", _draws, _children),
        (analysis, "build_fixed_point_report", "analysis.fixed_point", None, None),
        (analysis, "moment_sequence", "analysis.moment_sequence", None, None),
        (analysis, "find_two_cycles", "analysis.find_two_cycles", None, None),
        (analysis, "iterated_mu2_plus", "analysis.iterated_mu2_plus", None, None),
        (analysis, "basin_of_mean", "analysis.basin_of_mean", None, None),
        (analysis, "solve_mu1", "analysis.solve_mu1", None, None),
        (analysis, "solve_mu2", "analysis.solve_mu2", None, None),
        (simulate, "mc_moments", "simulate.mc_moments", None, None),
        (simulate, "endogeny_diagnostic", "simulate.endogeny_diagnostic", None, None),
        (distiter, "basin_test", "distiter.basin_test", None, None),
        (distiter, "apply_T", "distiter.apply_T", None, None),
    ]
    saved = []
    for owner, attr, name, work_in, work_out in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, work_in, work_out))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0
        reach = s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def has_ancestor(spans: list[Span], index: int, names: tuple[str, ...]) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


SIMULATE = ("simulate.mc_moments", "simulate.endogeny_diagnostic")

# name -> unit; every traced run reports all of them, 0 where a layer does no
# work on the workload
PER_LAYER_UNITS = {
    "pgf.eval.calls": "count",
    "pgf.eval.points": "count",
    "pgf.eval.self_s": "s",
    "pgf.eval.us_per_point": "us",
    "pgf.deriv.calls": "count",
    "pgf.deriv.self_s": "s",
    "pgf.sample.draws": "count",
    "pgf.sample.self_s": "s",
    "pgf.sample.ns_per_draw": "ns",
    "analysis.find_two_cycles.s": "s",
    "analysis.find_two_cycles.self_s": "s",
    "analysis.evals_per_scan": "count",
    "analysis.fixed_point.s": "s",
    "analysis.moment_sequence.s": "s",
    "analysis.iterated_mu2_plus.s": "s",
    "analysis.basin_of_mean.s": "s",
    "simulate.nodes": "count",
    "simulate.self_s": "s",
    "simulate.ns_per_node": "ns",
    "distiter.apply_T.calls": "count",
    "distiter.child_draws": "count",
    "distiter.apply_T.self_s": "s",
    "distiter.ns_per_child_draw": "ns",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without trace.overhead_frac).

    The root span of each CLI run is named ``cli.<subcommand>`` and carries
    the bytes of the reports the run wrote.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    work: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = "cli" if s.name.startswith("cli.") else "simulate" if s.name in SIMULATE else s.name
        calls[name] = calls.get(name, 0) + 1
        total_s[name] = total_s.get(name, 0.0) + s.duration / 1e9
        self_s[name] = self_s.get(name, 0.0) + own[i] / 1e9
        for key, v in s.work.items():
            work[key] = work.get(key, 0) + v
        if s.name == "pgf.sample" and has_ancestor(spans, i, SIMULATE):
            work["nodes"] = work.get("nodes", 0) + s.work["draws"]
        if s.name == "pgf.eval" and has_ancestor(spans, i, ("analysis.find_two_cycles",)):
            work["scan_evals"] = work.get("scan_evals", 0) + 1
    m = {
        "pgf.eval.calls": calls.get("pgf.eval", 0),
        "pgf.eval.points": work.get("points", 0),
        "pgf.eval.self_s": self_s.get("pgf.eval", 0.0),
        "pgf.deriv.calls": calls.get("pgf.deriv", 0),
        "pgf.deriv.self_s": self_s.get("pgf.deriv", 0.0),
        "pgf.sample.draws": work.get("draws", 0),
        "pgf.sample.self_s": self_s.get("pgf.sample", 0.0),
        "analysis.find_two_cycles.s": total_s.get("analysis.find_two_cycles", 0.0),
        "analysis.find_two_cycles.self_s": self_s.get("analysis.find_two_cycles", 0.0),
        "analysis.evals_per_scan": _ratio(work.get("scan_evals", 0), calls.get("analysis.find_two_cycles", 0), 1.0),
        "analysis.fixed_point.s": total_s.get("analysis.fixed_point", 0.0),
        "analysis.moment_sequence.s": total_s.get("analysis.moment_sequence", 0.0),
        "analysis.iterated_mu2_plus.s": total_s.get("analysis.iterated_mu2_plus", 0.0),
        "analysis.basin_of_mean.s": total_s.get("analysis.basin_of_mean", 0.0),
        "simulate.nodes": work.get("nodes", 0),
        "simulate.self_s": self_s.get("simulate", 0.0),
        "distiter.apply_T.calls": calls.get("distiter.apply_T", 0),
        "distiter.child_draws": work.get("children", 0),
        "distiter.apply_T.self_s": self_s.get("distiter.apply_T", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.report_bytes": work.get("report_bytes", 0),
    }
    m["pgf.eval.us_per_point"] = _ratio(m["pgf.eval.self_s"], m["pgf.eval.points"], 1e6)
    m["pgf.sample.ns_per_draw"] = _ratio(m["pgf.sample.self_s"], m["pgf.sample.draws"], 1e9)
    m["simulate.ns_per_node"] = _ratio(m["simulate.self_s"], m["simulate.nodes"], 1e9)
    m["distiter.ns_per_child_draw"] = _ratio(m["distiter.apply_T.self_s"], m["distiter.child_draws"], 1e9)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Medians over passes; counts repeat exactly, so they keep their type."""
    return {k: passes[0][k] if PER_LAYER_UNITS[k] in ("count", "bytes") else statistics.median(p[k] for p in passes)
            for k in passes[0]}
