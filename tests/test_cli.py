import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rde_lab.analysis as analysis
import rde_lab.cli as cli
import rde_lab.cli_sampling as cli_sampling
import rde_lab.distiter as distiter
import rde_lab.simulate as simulate
from rde_lab.cli import main
from rde_lab.pgf import ALPHA_FLOOR, MAX_FAMILY_SIZE, Pgf, spec_from_json

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Result(NamedTuple):
    exit_code: int
    output: str  # what the run wrote to stderr


def invoke(argv: list[str]) -> Result:
    """main(argv) in-process: the exit code, taken from SystemExit, and the stderr it wrote."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return Result(code, err.getvalue())


def run_cli(tmp_path, config: dict, command: str, name: str = "cfg.json"):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out_{command}_{name}"
    return invoke(["--config", str(cfg), "--out", str(out), command]), out


DET2_CFG = {"spec": {"kind": "deterministic", "d": 2}, "K": 6, "seed": 9, "depth": 6, "reps": 400, "steps": 10}


def test_analyze_binary(tmp_path):
    result, out = run_cli(tmp_path, DET2_CFG, "analyze")
    assert result.exit_code == 0
    payload = json.loads((out / "analysis.json").read_text())
    fp = payload["fixed_point"]
    assert fp["mu1"] == pytest.approx(0.6180339887, abs=1e-9)
    assert fp["endogeny"] == "NonEndogenous"
    cyc = payload["two_cycles"]["cycles"][0]
    assert (cyc["mu_plus"], cyc["mu_minus"]) == (pytest.approx(1.0, abs=1e-9), pytest.approx(0.0, abs=1e-9))
    assert payload["residuals"]["mean_equation"] < 1e-10
    assert payload["config_hash"] and payload["version"]


def test_analyze_geometric_neutral(tmp_path):
    cfg = {"spec": {"kind": "geometric", "alpha": 0.25}, "K": 4}
    result, out = run_cli(tmp_path, cfg, "analyze")
    assert result.exit_code == 0
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["fixed_point"]["critical"] is True
    assert payload["fixed_point"]["endogeny"] == "Endogenous"
    assert payload["two_cycles"]["neutral_continuum"] is True


@pytest.mark.parametrize(
    "spec",
    [{"kind": "geometric", "alpha": 0.042780271335}, {"kind": "finite", "pmf": {"1": 0.5, "2": 0.5000000000009}}],
    ids=["geometric-H1-rounds-up", "finite-mass-within-tolerance"],
)
def test_analyze_exits_0_where_H_would_round_past_1(tmp_path, spec):
    # 1 - (1 - alpha) s put H(1) 1.1e-15 above 1, and the second pmf's mass is 1 + 9e-13
    result, out = run_cli(tmp_path, {"spec": spec, "K": 4}, "analyze")
    assert result.exit_code == 0
    assert json.loads((out / "analysis.json").read_text())["fixed_point"]["endogeny"]


def test_analyze_thinned_critical(tmp_path):
    cfg = {"spec": {"kind": "thinned", "p": 0.5, "base": {"kind": "deterministic", "d": 2}}}
    result, out = run_cli(tmp_path, cfg, "analyze")
    assert result.exit_code == 0
    payload = json.loads((out / "analysis.json").read_text())
    assert payload["fixed_point"]["mu1"] == pytest.approx(0.75, abs=1e-8)
    assert payload["fixed_point"]["endogeny"] == "Endogenous"
    assert payload["fixed_point"]["critical"] is True
    # H(z) = 2 - z - 2 sqrt(1 - z), so f∘f = id exactly; floats resolve the
    # double root at z = 1 only to about sqrt(eps), which resolution shows
    scan = payload["two_cycles"]
    resolution = scan.pop("resolution")
    assert scan == {"neutral_continuum": True, "fixed_points": [], "cycles": []}
    assert 1e-9 < resolution < 1e-6


SOLVERS = ("build_fixed_point_report", "solve_mu1", "solve_mu_star", "solve_mu2")


@pytest.mark.parametrize(
    "command, cfg, expected",
    [
        ("analyze",
         {"spec": {"kind": "thinned", "p": 0.3, "base": {"kind": "deterministic", "d": 2}}, "K": 6},
         {"build_fixed_point_report": 1, "solve_mu1": 1, "solve_mu_star": 1, "solve_mu2": 1}),
        ("iterate",
         {"spec": {"kind": "finite", "pmf": {"2": 0.5}, "infinity_mass": 0.5}, "seed": 3, "steps": 4,
          "initial": {"kind": "point_mass", "value": 0.2, "size": 1000}},
         {"build_fixed_point_report": 1, "solve_mu1": 1, "solve_mu_star": 1, "solve_mu2": 1}),
        ("simulate", DET2_CFG,
         {"build_fixed_point_report": 1, "solve_mu1": 1, "solve_mu_star": 1, "solve_mu2": 1}),
    ],
)
def test_roots_solved_once_per_command(tmp_path, monkeypatch, command, cfg, expected):
    # each call is recorded with the solvers it runs inside; mu_star and mu2
    # may only be solved by the fixed-point report
    calls = []
    active = []
    for name in SOLVERS:
        real = getattr(analysis, name)

        def traced(*args, _name=name, _real=real, **kwargs):
            calls.append((_name, tuple(active)))
            active.append(_name)
            try:
                return _real(*args, **kwargs)
            finally:
                active.pop()

        monkeypatch.setattr(analysis, name, traced)
    result, _ = run_cli(tmp_path, cfg, command)
    assert result.exit_code == 0
    counts = Counter(name for name, _ in calls)
    assert {name: counts[name] for name in expected} == expected
    for name, outer in calls:
        if name in ("solve_mu_star", "solve_mu2"):
            assert outer == ("build_fixed_point_report",)


def test_cycles_thinned_critical(tmp_path):
    cfg = {"spec": {"kind": "thinned", "p": 0.5, "base": {"kind": "deterministic", "d": 2}}, "grid": 101}
    result, out = run_cli(tmp_path, cfg, "cycles")
    assert result.exit_code == 0
    payload = json.loads((out / "cycles.json").read_text())
    assert payload["neutral_continuum"] is True
    assert payload["fixed_points"] == [] and payload["cycles"] == []


def test_simulate_report_embeds_analytic_values(tmp_path):
    cfg = dict(DET2_CFG, traces=True)
    result, out = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["analytic"]["mu1"] == pytest.approx(GOLDEN, abs=1e-10)
    assert payload["flags"]["mean_within_3se"] is True
    traces = (out / "traces.csv").read_text().splitlines()
    assert traces[0] == "rep,root_C,root_S,depth"
    assert len(traces) == cfg["reps"] + 1
    for r, line in enumerate(traces[1:]):
        c, s = float(line.split(",")[1]), float(line.split(",")[2])
        assert s in (0.0, 1.0)
        assert line == f"{r},{c!r},{s!r},{cfg['depth']}"


FINITE_INF = {"kind": "finite", "pmf": {"1": 0.3, "2": 0.4, "3": 0.2}, "infinity_mass": 0.1}
THINNED_03 = {"kind": "thinned", "p": 0.3, "base": {"kind": "deterministic", "d": 2}}


@pytest.mark.parametrize(
    "spec, depth, distinct",
    [
        # mu1 at the leaves is the root's value at every depth
        ({"kind": "deterministic", "d": 2}, 6, (1, 1)),
        (THINNED_03, 2, (100, 2000)),
        (THINNED_03, 5, (3000, 3000)),
    ],
    ids=["det2-constant-root", "thinned-p0.3-repeated-roots", "thinned-p0.3-distinct-roots"],
)
def test_simulate_traces_are_the_repr_of_each_root(tmp_path, spec, depth, distinct):
    # the file is the rows f"{r},{c!r},{s!r},{depth}" of the roots that the
    # forest draws, byte for byte, however the reprs are formed
    cfg = {"spec": spec, "depth": depth, "reps": 3000, "seed": 4, "traces": True}
    result, out = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 0
    pgf_spec = spec_from_json(spec)
    mu1 = analysis.build_fixed_point_report(Pgf(pgf_spec)).mu1
    # the command draws its forest from seed + 1
    _, _, c_roots, s_roots = simulate.endogeny_diagnostic(pgf_spec, mu1, depth, 3000, 5)
    rows = [f"{r},{c!r},{s!r},{depth}" for r, (c, s) in enumerate(zip(c_roots.tolist(), s_roots.tolist()))]
    assert (out / "traces.csv").read_bytes() == ("\n".join(["rep,root_C,root_S,depth", *rows]) + "\n").encode()
    assert distinct[0] <= len(set(c_roots.tolist())) <= distinct[1]


@pytest.mark.parametrize(
    "spec, depth, m2",
    [(FINITE_INF, 10, 0.52275), (THINNED_03, 5, 0.51538)],
    ids=["finite-inf-depth10", "thinned-p0.3-depth5"],
)
def test_simulate_flags_test_the_exact_finite_depth_values(tmp_path, spec, depth, m2):
    # the depth-n second moment sits well below its n = infinity limit mu2,
    # so flags tested against mu2 read false on these configs
    for seed in range(1, 6):
        cfg = {"spec": spec, "depth": depth, "reps": 10_000, "seed": seed}
        result, out = run_cli(tmp_path, cfg, "simulate", name=f"seed{seed}.json")
        assert result.exit_code == 0
        payload = json.loads((out / "simulate.json").read_text())
        exact = payload["finite_depth"]
        mu1 = payload["analytic"]["mu1"]
        assert exact["m2"] == pytest.approx(m2, abs=1e-5)
        assert exact["e_c_one_minus_c"] == mu1 - exact["m2"]
        assert exact["p_disagree"] == 2.0 * exact["e_c_one_minus_c"]
        assert payload["analytic"]["mu2"] - exact["m2"] > 0.01
        assert all(payload["flags"].values()), (seed, payload["flags"])


def test_iterate_oscillating_start(tmp_path):
    cfg = {
        "spec": {"kind": "deterministic", "d": 2},
        "seed": 5,
        "steps": 14,
        "initial": {"kind": "point_mass", "value": 0.5, "size": 20000},
    }
    result, out = run_cli(tmp_path, cfg, "iterate")
    assert result.exit_code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["verdict"]["analytic"] == "NotInBasin"
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,m1,m2"
    assert len(lines) == cfg["steps"] + 2
    assert all(len(line.split(",")) == 3 for line in lines)
    last_m1 = float(lines[-1].split(",")[1])
    assert min(last_m1, 1.0 - last_m1) < 0.05


def test_iterate_sample_size_is_initial_size_only(tmp_path):
    # the sample size is initial.size; a top-level M or size is ignored like any key no command reads
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "seed": 5, "steps": 1, "M": 500, "size": 0,
           "initial": {"kind": "point_mass", "value": 0.5}}
    result, out = run_cli(tmp_path, cfg, "iterate")
    assert result.exit_code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["initial"]["size"] == 100_000


def test_iterate_lets_the_start_sample_go(tmp_path, monkeypatch):
    # neither the command nor basin_test keeps the start sample past its
    # image, so each later step holds two samples, not three
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "finite", "pmf": {"2": 0.5}, "infinity_mass": 0.5}, "seed": 5,
                               "steps": 3, "initial": {"kind": "point_mass", "value": 0.2, "size": 1000}}))
    apply_T = distiter.apply_T
    start, alive = [], []

    def spy(nu, spec, rng):
        if start:
            gc.collect()
            alive.append(start[0]() is not None)
        else:
            start.append(weakref.ref(nu.rest))
        return apply_T(nu, spec, rng)

    monkeypatch.setattr(distiter, "apply_T", spy)
    main(["--config", str(cfg), "--out", str(tmp_path / "out"), "iterate"], standalone_mode=False)
    assert alive == [False, False]


def test_iterate_from_points_csv(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("\n".join(str(0.2) for _ in range(500)))
    cfg = {
        "spec": {"kind": "finite", "pmf": {"2": 0.5}, "infinity_mass": 0.5},
        "seed": 6,
        "steps": 40,
        "initial": {"kind": "points_csv", "path": str(pts)},
    }
    result, out = run_cli(tmp_path, cfg, "iterate")
    assert result.exit_code == 0
    payload = json.loads((out / "verdict.json").read_text())
    assert payload["verdict"]["analytic"] == "InBasin"


def test_points_file_is_read_across_chunks(tmp_path):
    # 150k reals, three to a line and about 3 MB, span several 1 MiB chunks
    pts = np.random.default_rng(3).random(150_000)
    path = tmp_path / "pts.txt"
    path.write_text("\n".join(" ".join(map(repr, row)) for row in pts.reshape(-1, 3).tolist()) + "\n")
    got = cli_sampling._read_points(str(path))
    assert got.dtype == np.float64 and np.array_equal(got, pts)


@pytest.mark.parametrize("content, named", [(b"0.5\n0.25 0.75\nhalf\n", "'half'"), (b"\xff\xfe0.5\n", "utf-8")])
def test_points_file_with_a_bad_token_exits_2(tmp_path, content, named):
    pts = tmp_path / "pts.txt"
    pts.write_bytes(content)
    result, _ = run_cli(tmp_path, _iterate_cfg({"kind": "points_csv", "path": str(pts)}), "iterate")
    assert result.exit_code == 2
    assert "'initial.path'" in result.output and named in result.output


@pytest.mark.parametrize("lines, code", [(10, 0), (11, 2)])
def test_points_file_past_the_size_cap_exits_2(tmp_path, monkeypatch, lines, code):
    monkeypatch.setitem(cli.INT_FIELDS, "size", (1, 10, 10))
    pts = tmp_path / "pts.txt"
    pts.write_text("0.5\n" * lines)
    result, _ = run_cli(tmp_path, _iterate_cfg({"kind": "points_csv", "path": str(pts)}), "iterate")
    assert result.exit_code == code
    if code:
        assert "'initial.path'" in result.output and "file of 11 points" in result.output


def test_transform_defect_table(tmp_path):
    for p, defect in ((0.4, 0.0), (0.6, 5.0 / 9.0)):
        cfg = {"spec": {"kind": "thinned", "p": p, "base": {"kind": "deterministic", "d": 2}}}
        result, out = run_cli(tmp_path, cfg, "transform", name=f"t{int(p*10)}.json")
        assert result.exit_code == 0
        payload = json.loads((out / "transform.json").read_text())
        assert payload["defect"] == pytest.approx(defect, abs=1e-9)
        assert payload["max_residual"] < 1e-12
        lines = (out / "transform.csv").read_text().splitlines()
        assert lines[0] == "z,H,H_prime,residual"
        assert len(lines) == 102


def test_transform_defect_bounds(tmp_path):
    # at p = 1/2 H(1) = 1 is a double root, resolved only to about sqrt(eps)
    for p, defect, width in ((0.5, 0.0, 1e-7), (0.6, 5.0 / 9.0, 1e-13)):
        cfg = {"spec": {"kind": "thinned", "p": p, "base": {"kind": "deterministic", "d": 2}}}
        result, out = run_cli(tmp_path, cfg, "transform", name=f"b{int(p*10)}.json")
        assert result.exit_code == 0
        lo, hi = json.loads((out / "transform.json").read_text())["defect_bounds"]
        assert lo <= defect <= hi
        assert hi - lo <= width


def test_transform_specific_value(tmp_path):
    cfg = {"spec": {"kind": "thinned", "p": 0.5, "base": {"kind": "deterministic", "d": 2}}}
    result, out = run_cli(tmp_path, cfg, "transform")
    assert result.exit_code == 0
    rows = (out / "transform.csv").read_text().splitlines()[1:]
    z_to_h = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    assert z_to_h["0.75"] == pytest.approx(0.25, abs=1e-12)


def test_transform_rejects_non_thinned(tmp_path):
    result, _ = run_cli(tmp_path, {"spec": {"kind": "deterministic", "d": 2}}, "transform")
    assert result.exit_code == 2


def test_cycles_report(tmp_path):
    result, out = run_cli(tmp_path, DET2_CFG, "cycles")
    assert result.exit_code == 0
    payload = json.loads((out / "cycles.json").read_text())
    assert payload["fixed_points"][0] == pytest.approx(GOLDEN, abs=1e-9)
    cyc = payload["cycles"][0]
    assert cyc["stable"] is True and cyc["degenerate"] is True
    assert cyc["mu2_plus"] == 1.0
    assert payload["resolution"] == 0.0  # H of a deterministic spec is exact


def test_cycles_exits_0_on_a_tiny_geometric_alpha(tmp_path):
    # f∘f is the identity for every geometric spec; at alpha = 1e-9 the scan
    # reports rounding-level cycles near 1, and the lesser-root solve of an
    # unstable one must not raise on them
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "geometric", "alpha": 1e-9}}))
    main(["--config", str(cfg), "--out", str(tmp_path / "out"), "cycles"], standalone_mode=False)
    payload = json.loads((tmp_path / "out" / "cycles.json").read_text())
    assert all(c["degenerate"] or 0.0 <= c["mu2_plus"] <= c["mu_plus"] for c in payload["cycles"])


def test_analyze_ends_the_endogenous_sequence_at_its_last_resolved_order(tmp_path):
    # float64 moment roots of det2 run out before order 32 (exactly mu1^n)
    result, out = run_cli(tmp_path, dict(DET2_CFG, K=32), "analyze")
    assert result.exit_code == 0
    endo = json.loads((out / "analysis.json").read_text())["moment_sequences"]["endogenous"]
    assert set(endo) == {"kind", "values"}
    assert 3 <= len(endo["values"]) <= 32


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "thinned", "base": {"kind": "deterministic", "d": 2}, "p": 0.499999999},
        {"kind": "thinned", "base": {"kind": "deterministic", "d": 2}, "p": 0.4999999971057339},
        {"kind": "geometric", "alpha": 1.9414919457438815e-14},
    ],
    ids=["thinned-1e-9", "thinned-2.9e-9", "geometric-1.9e-14"],
)
@pytest.mark.parametrize("command", ["analyze", "simulate", "iterate"])
def test_commands_exit_0_or_3_where_mu2_is_within_rounding_of_mu1(tmp_path, spec, command):
    # mu2's bracket holds no float root of its equation here
    cfg = tmp_path / "cfg.json"
    init = {"kind": "mean_matched_uniform", "mean": 0.75, "size": 1000}
    cfg.write_text(json.dumps({"spec": spec, "seed": 3, "depth": 4, "reps": 100, "steps": 2, "initial": init}))
    assert invoke(["--config", str(cfg), "--out", str(tmp_path / "out"), command]).exit_code in (0, 3)


@pytest.mark.parametrize("alpha", [1e-30, 1e-22])
def test_simulate_exits_3_on_a_family_past_the_node_cap(tmp_path, alpha):
    # rng.geometric reads 2**63 - 1 here, which once wrapped the int64 level sums and exited 1
    cfg = {"spec": {"kind": "geometric", "alpha": alpha}, "seed": 1, "depth": 4, "reps": 100}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 3
    assert "tree exceeded node cap 10000000 at depth 1" in result.output


@pytest.mark.parametrize("alpha", [1e-300, 9.9e-33])
@pytest.mark.parametrize("command, thinned", [("analyze", False), ("cycles", False), ("simulate", False),
                                              ("iterate", False), ("transform", True), ("analyze", True)])
def test_alpha_below_the_floor_exits_2(tmp_path, alpha, command, thinned):
    spec = {"kind": "geometric", "alpha": alpha}
    if thinned:
        spec = {"kind": "thinned", "p": 0.3, "base": spec}
    result, _ = run_cli(tmp_path, _iterate_cfg(POINT_MASS, spec=spec, depth=4, reps=100), command)
    assert result.exit_code == 2
    assert "ALPHA_FLOOR = 1e-32" in result.output


def test_alpha_at_the_floor_is_analyzed(tmp_path):
    result, out = run_cli(tmp_path, {"spec": {"kind": "geometric", "alpha": 1e-32}}, "analyze")
    assert result.exit_code == 0
    # mu1 = 1 / (1 + sqrt(alpha)) = 1 - 1e-16 + 1e-32, whose nearest float is 1 - 2**-53
    assert json.loads((out / "analysis.json").read_text())["fixed_point"]["mu1"] == 1.0 - 2.0**-53


def test_exit_code_on_invalid_spec(tmp_path):
    cfg = {"spec": {"kind": "finite", "pmf": {"0": 0.5, "2": 0.5}}}
    result, _ = run_cli(tmp_path, cfg, "analyze")
    assert result.exit_code == 2
    assert "mass at 0" in result.output


def test_exit_code_on_degenerate_analysis_spec(tmp_path):
    cfg = {"spec": {"kind": "finite", "pmf": {"1": 1.0}}}
    result, _ = run_cli(tmp_path, cfg, "analyze")
    assert result.exit_code == 2
    assert "P(2 <= N < infinity)" in result.output


def test_exit_code_on_missing_seed(tmp_path):
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "reps": 200, "depth": 4}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 2


def test_exit_code_on_zero_reps(tmp_path):
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "reps": 0, "depth": 4, "seed": 1}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 2


@pytest.mark.parametrize("field", ["depth", "seed"])
def test_exit_code_on_boolean_config_field(tmp_path, field):
    # JSON true is a Python bool, which isinstance(..., int) would accept as 1
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "reps": 200, "depth": 4, "seed": 1}
    cfg[field] = True
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 2
    assert field in result.output


@pytest.mark.parametrize(
    "command, field, value",
    [("analyze", "K", 0), ("analyze", "grid", 99), ("cycles", "grid", 99), ("iterate", "steps", 0)],
)
def test_exit_code_below_library_minimum(tmp_path, command, field, value):
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "seed": 1,
           "initial": {"kind": "point_mass", "value": 0.5, "size": 1000}, field: value}
    result, _ = run_cli(tmp_path, cfg, command)
    assert result.exit_code == 2
    assert field in result.output


def _iterate_cfg(initial, **extra):
    return {"spec": {"kind": "deterministic", "d": 2}, "seed": 1, "steps": 2, "initial": initial, **extra}


POINT_MASS = {"kind": "point_mass", "value": 0.5, "size": 1000}
# stands for an integer literal past int()'s 4300-digit limit, which json.dumps cannot write
PAST_DIGIT_LIMIT = "integer of 4400 digits"


@pytest.mark.parametrize(
    "command, cfg, field",
    [
        ("iterate", _iterate_cfg({"kind": "mean_matched_uniform", "mean": "abc", "size": 1000}), "initial.mean"),
        ("iterate", _iterate_cfg({"kind": "point_mass", "size": 1000}), "initial.value"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size="x")), "initial.size"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, value=[0.5])), "initial.value"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=1000.7)), "initial.size"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=True)), "initial.size"),
        ("iterate", _iterate_cfg({"kind": "bernoulli", "mean": 1.5, "size": 1000}), "initial.mean"),
        ("iterate", _iterate_cfg({"kind": "points_csv", "path": "points.txt"}), "initial.path"),
        ("iterate", _iterate_cfg(POINT_MASS, seed=-5), "seed"),
        ("analyze", {"spec": {"kind": "finite", "pmf": [1, 2]}}, "pmf"),
        ("analyze", {"spec": {"kind": "deterministic", "d": 2.7}}, "d"),
        ("analyze", {"spec": {"kind": "deterministic", "d": 2}, "out": 5}, "out"),
        ("simulate", dict(DET2_CFG, traces="no"), "traces"),
        ("analyze", {"spec": {"kind": "finite", "pmf": {"2": True}}}, "pmf"),
        ("analyze", {"spec": {"kind": "finite", "pmf": {"2": 0.5, "3": math.nan}, "infinity_mass": 0.5}}, "pmf"),
        ("analyze", {"spec": {"kind": "finite", "pmf": {"2": 1.0}, "infinity_mass": math.nan}}, "infinity_mass"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=0)), "initial.size"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=10_000_001)), "initial.size"),
        # numbers too large for a float, and family sizes past 2**53
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=10**400)), "initial.size"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, value=10**400)), "initial.value"),
        ("analyze", {"spec": {"kind": "geometric", "alpha": 10**400}}, "alpha"),
        ("analyze", {"spec": {"kind": "finite", "pmf": {"2": 1.0}, "infinity_mass": 10**400}}, "infinity_mass"),
        ("analyze", {"spec": {"kind": "deterministic", "d": 10**400}}, "d"),
        ("simulate", dict(DET2_CFG, spec={"kind": "deterministic", "d": 10**400}), "d"),
        ("analyze", {"spec": {"kind": "deterministic", "d": 10**18}}, "d"),
        ("simulate", dict(DET2_CFG, spec={"kind": "deterministic", "d": 2**63}), "d"),
        ("simulate", dict(DET2_CFG, spec={"kind": "finite", "pmf": {"2": 0.5, str(2**63): 0.5}}), "pmf"),
        ("iterate", _iterate_cfg(POINT_MASS, spec={"kind": "finite", "pmf": {"2": 0.5, str(2**63): 0.5}}), "pmf"),
        ("simulate", dict(DET2_CFG, spec={"kind": "finite", "pmf": {"2": 0.5, str(2**63 - 1): 0.5}}), "pmf"),
        ("simulate", dict(DET2_CFG, depth=PAST_DIGIT_LIMIT), "depth"),
        ("simulate", dict(DET2_CFG, seed=PAST_DIGIT_LIMIT), "seed"),
        ("iterate", _iterate_cfg(dict(POINT_MASS, size=PAST_DIGIT_LIMIT)), "initial.size"),
        ("analyze", {"spec": {"kind": "deterministic", "d": PAST_DIGIT_LIMIT}}, "d"),
        ("analyze", {"spec": {"kind": "geometric", "alpha": PAST_DIGIT_LIMIT}}, "alpha"),
        ("analyze", {"spec": {"kind": "finite", "pmf": {"2": PAST_DIGIT_LIMIT}}}, "pmf"),
    ],
)
def test_malformed_config_exits_2_naming_field(tmp_path, monkeypatch, command, cfg, field):
    # each of these once ended in a traceback or ran with a value silently changed
    monkeypatch.chdir(tmp_path)
    Path("points.txt").write_text("0.5\nnan\n")
    Path("cfg.json").write_text(json.dumps(cfg).replace(json.dumps(PAST_DIGIT_LIMIT), "1" + "0" * 4400))
    argv = ["--config", "cfg.json", command] if "out" in cfg else ["--config", "cfg.json", "--out", "out", command]
    result = invoke(argv)
    assert result.exit_code == 2
    assert f"'{field}'" in result.output
    assert not Path("out").exists()


def test_config_nested_too_deep_exits_2(tmp_path):
    # json.loads raises RecursionError on nesting this deep
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"spec": ' + "[" * 100_000 + "]" * 100_000 + "}")
    result = invoke(["--config", str(cfg), "--out", str(tmp_path / "out"), "analyze"])
    assert result.exit_code == 2
    assert "config is not valid JSON" in result.output


def _thinned_chain(levels: int) -> dict:
    spec = {"kind": "deterministic", "d": 2}
    for _ in range(levels):
        spec = {"kind": "thinned", "p": 0.6, "base": spec}
    return spec


@pytest.mark.parametrize("levels", [5, 700])
@pytest.mark.parametrize("command", ["analyze", "simulate", "transform"])
def test_thinning_past_the_depth_limit_exits_2(tmp_path, command, levels):
    # 700 levels once overflowed the stack of the recursive evaluation
    result, out = run_cli(tmp_path, dict(DET2_CFG, spec=_thinned_chain(levels)), command)
    assert result.exit_code == 2
    assert "at most MAX_THINNING_DEPTH = 4 levels" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_out_at_a_file_exits_2_naming_the_path(tmp_path, monkeypatch, command, where):
    # a file at the out path or above it is found before the command runs
    def never(pgf):
        raise AssertionError("the command ran before its out path was checked")

    monkeypatch.setattr(analysis, "build_fixed_point_report", never)
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" if where == "file" else tmp_path / "taken" / "sub"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DET2_CFG))
    result = invoke(["--config", str(cfg), "--out", str(out), command])
    assert result.exit_code == 2
    assert f"output directory {str(out)!r}" in result.output


def test_transform_of_a_unit_base_chain_whose_flat_p_rounds_to_one_is_the_identity(tmp_path):
    # N = 1 with probability 1, so H(z) = z and the defect is 0
    unit = {"kind": "finite", "pmf": {"1": 1.0}}
    spec = {"kind": "thinned", "p": 1.0 - 2.0**-53, "base": {"kind": "thinned", "p": 1.0 - 2.0**-53, "base": unit}}
    result, out = run_cli(tmp_path, dict(DET2_CFG, spec=spec), "transform")
    assert result.exit_code == 0
    rows = (out / "transform.csv").read_text().splitlines()[1:]
    assert len(rows) == 101
    for row in rows:
        z, h = row.split(",")[:2]
        assert float(h) == float(z)
    assert json.loads((out / "transform.json").read_text())["defect"] == 0.0


@pytest.mark.parametrize("spec", [{"kind": "deterministic", "d": 2**53},
                                  {"kind": "finite", "pmf": {"2": 0.5, str(2**53): 0.5}}])
@pytest.mark.parametrize("command, code", [("analyze", 0), ("cycles", 0), ("simulate", 3)])
def test_family_size_2_53_is_inside_the_caps(tmp_path, spec, command, code):
    result, _ = run_cli(tmp_path, dict(DET2_CFG, spec=spec), command)
    assert result.exit_code == code


@pytest.mark.parametrize("size, children", [(100, 100 * 2**53), (10_000_000, 10_000_000 * 2**53)])
def test_iterate_exits_3_past_the_child_draw_bound(tmp_path, size, children):
    # at size 1e7 the children overflow an int64 sum
    cfg = {"spec": {"kind": "deterministic", "d": 2**53}, "seed": 1, "steps": 1,
           "initial": {"kind": "point_mass", "value": 0.5, "size": size}}
    result, _ = run_cli(tmp_path, cfg, "iterate")
    assert result.exit_code == 3
    assert f"needs {children} child draws" in result.output


def test_iterate_thinned_finite_base_ends_cleanly(tmp_path):
    # supercritical pruning (mean 0.9 * 2.5): most families are infinite
    spec = {"kind": "thinned", "p": 0.9, "base": {"kind": "finite", "pmf": {"2": 0.5, "3": 0.5}}}
    cfg = {"spec": spec, "seed": 1, "steps": 1, "initial": {"kind": "point_mass", "value": 0.5, "size": 10_000}}
    result, _ = run_cli(tmp_path, cfg, "iterate")
    assert result.exit_code in (0, 3)


# a parameter near one of the ends of (0, 1) or near 1/2: 10^-e off, with e up to 15, or 1/2 itself
NEAR = st.tuples(st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([-1.0, 1.0]), st.floats(1.0, 15.0)).map(
    lambda t: min(max(t[0] + t[1] * 10.0 ** -t[2], 1e-15), 1.0 - 1e-15)
) | st.just(0.5)


@st.composite
def base_specs(draw):
    kind = draw(st.sampled_from(["deterministic", "geometric", "finite"]))
    if kind == "deterministic":
        return {"kind": kind, "d": draw(st.integers(2, 5) | st.integers(2, MAX_FAMILY_SIZE))}
    if kind == "geometric":  # alpha log-uniform on [ALPHA_FLOOR, 1)
        return {"kind": kind, "alpha": max(ALPHA_FLOOR, 10.0 ** draw(st.floats(math.log10(ALPHA_FLOOR), -1e-3)))}
    keys = draw(st.lists(st.integers(1, 8) | st.integers(1, MAX_FAMILY_SIZE), min_size=1, max_size=4, unique=True))
    raw = [draw(st.floats(0.05, 1.0)) for _ in keys]
    raw_inf = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
    total = sum(raw) + raw_inf
    weights = [w / total for w in raw]
    # masses may sum to 1 +- 9e-13, inside the validator's 1e-12
    weights[0] = max(0.0, weights[0] + draw(st.sampled_from([0.0, 9e-13, -9e-13])))
    return {"kind": kind, "pmf": {str(k): w for k, w in zip(keys, weights)}, "infinity_mass": raw_inf / total}


@st.composite
def cli_specs(draw):
    spec = draw(base_specs())
    for _ in range(draw(st.integers(0, 2))):
        spec = {"kind": "thinned", "p": draw(NEAR), "base": spec}
    return spec


@settings(max_examples=25, deadline=None)
@given(cli_specs())
def test_the_analysis_commands_exit_0_2_or_3_on_any_spec(spec):
    # a traceback exits 1; transform exits 2 on a spec that is not thinned
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"spec": spec}))
        for command in ("analyze", "cycles", "transform"):
            result = invoke(["--config", str(cfg), "--out", tmp, command])
            assert result.exit_code in (0, 2, 3), (command, result.output)


def test_exit_code_on_resource_limit(tmp_path):
    cfg = {"spec": {"kind": "geometric", "alpha": 0.25}, "reps": 200, "depth": 12,
           "seed": 3, "node_cap": 10_000}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 3


def test_simulate_exits_3_before_drawing_a_level_past_the_limit(tmp_path, monkeypatch):
    # about 200 * 4**d nodes at level d, far below the node cap; the limit
    # counts the sizes the levels above store, not only the next level
    monkeypatch.setattr(simulate, "MAX_FOREST_DRAWS", 1000)
    cfg = {"spec": {"kind": "geometric", "alpha": 0.25}, "reps": 200, "depth": 6, "seed": 3}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 3
    found = re.search(
        r"level (\d+) of a batch of 200 trees has (\d+) nodes and the levels above it store (\d+) family sizes",
        result.output,
    )
    d, n, stored = (int(g) for g in found.groups())
    assert n <= 1000 < stored + n and d >= 1
    assert f"more than the limit 1000 together; the sizes alone would need {8 * (stored + n)} bytes" in result.output


def test_simulate_deterministic_forest_does_not_grow_with_nodes(tmp_path, address_space_gib):
    # one batch of 2048 trees with 2**20 leaves each: per-node level arrays would need 16 GiB
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "depth": 20, "reps": 2048, "seed": 4}
    result, out = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 0
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["mc_moments"]["mean_C"] == pytest.approx(payload["analytic"]["mu1"], abs=1e-15)


def test_simulate_deterministic_node_cap_exits_3(tmp_path, address_space_gib):
    cfg = {"spec": {"kind": "deterministic", "d": 2}, "depth": 30, "seed": 4, "node_cap": 100_000_000}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 3
    assert "node cap 100000000" in result.output


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(DET2_CFG))
        out = tmp_path / f"det_{sub}"
        res = invoke(["--config", str(cfg), "--out", str(out), "simulate"])
        assert res.exit_code == 0
        outputs.append((out / "simulate.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_override_changes_hash(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(DET2_CFG))
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    assert invoke(["--config", str(cfg), "--out", str(out1), "analyze"]).exit_code == 0
    assert invoke(["--config", str(cfg), "--seed", "77", "--out", str(out2), "analyze"]).exit_code == 0
    h1 = json.loads((out1 / "analysis.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "analysis.json").read_text())["config_hash"]
    assert h1 != h2


def test_config_hash_is_the_sha256_of_the_canonical_config():
    # the builtin _sha256 gives hashlib's digest, so every report's config_hash stays as it was
    config = {"spec": {"kind": "deterministic", "d": 2}, "seed": 7, "out": "anywhere"}
    canon = b'{"seed":7,"spec":{"d":2,"kind":"deterministic"}}'
    assert cli._config_hash(config) == hashlib.sha256(canon).hexdigest()


def test_missing_config_is_usage_error(tmp_path):
    result = invoke(["analyze"])
    assert result.exit_code == 2


USAGE_ERRORS = {
    "no-argument": [],
    "no-command": ["--config", "cfg.json"],
    "unknown-command": ["--config", "cfg.json", "analyse"],
    "seed-not-an-int": ["--config", "cfg.json", "--seed", "abc", "analyze"],
    "option-after-command": ["--config", "cfg.json", "analyze", "--seed", "1"],
    "config-without-path": ["--config"],
    "abbreviated-option": ["--conf", "cfg.json", "analyze"],
    "seed-without-value": ["--config", "cfg.json", "--seed"],
    "two-commands": ["--config", "cfg.json", "analyze", "cycles"],
    "unknown-option": ["--config", "cfg.json", "--verbose", "analyze"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(DET2_CFG))
    result = invoke(argv)
    assert result.exit_code == 2
    assert result.output.startswith("usage: rde-lab")
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def test_help_exits_0_and_lists_the_commands(capsys):
    assert invoke(["--help"]).exit_code == 0
    listing = capsys.readouterr().out
    for name, (body, _) in cli.COMMANDS.items():
        assert re.search(rf"^ +{name} +{body.__doc__.split()[0]}", listing, re.M)
    assert list(cli.COMMANDS) == ["analyze", "simulate", "iterate", "transform", "cycles"]


@pytest.mark.parametrize("argv, made", [
    (["--config=cfg.json", "--seed=7", "analyze"], ["analysis.json"]),
    (["-h"], []),
    (["analyze", "-h"], []),
])
def test_options_with_equals_signs_and_help_exit_0(tmp_path, monkeypatch, capsys, argv, made):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps(DET2_CFG))
    result = invoke(argv)
    assert result.exit_code == 0 and result.output == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", *made])
    if made:  # the seed after its equals sign overrides the config's
        assert json.loads(Path(made[0]).read_text())["config_hash"] == cli._config_hash(DET2_CFG | {"seed": 7})
    else:
        assert capsys.readouterr().out.startswith("usage: rde-lab")


def test_main_returns_0_in_process_and_exits_0_standalone(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(DET2_CFG))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "a"), "cycles"], standalone_mode=False) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--out", str(tmp_path / "b"), "cycles"])
    assert exc.value.code == 0
    assert (tmp_path / "a" / "cycles.json").read_bytes() == (tmp_path / "b" / "cycles.json").read_bytes()


def test_an_analysis_run_loads_neither_click_nor_hashlib(tmp_path):
    # the config digest comes from the builtin _sha256, so no OpenSSL; a
    # subprocess, as pytest and hypothesis import hashlib in this one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": THINNED_03}))
    # and the package loads a submodule on first use, so the analysis
    # commands never import the tree, sampling or distributional layers;
    # they evaluate H on floats, so numpy stays unloaded too
    code = (
        "import sys\n"
        "from rde_lab.cli import main\n"
        "for command in ('analyze', 'cycles', 'transform'):\n"
        f"    main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, command], standalone_mode=False)\n"
        "unused = {'click', 'hashlib', '_hashlib', 'numpy', 'rde_lab.simulate', 'rde_lab.distiter',\n"
        "          'rde_lab.sizes', 'rde_lab.streams', 'dataclasses', 'inspect', 'argparse', 'gettext',\n"
        "          'locale', 'rde_lab.cli_sampling'}\n"
        "print(sorted(unused & set(sys.modules)))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    for name in ("analysis.json", "cycles.json", "transform.json"):
        assert (tmp_path / "out" / name).exists()


def test_a_simulate_run_loads_neither_dataclasses_nor_argparse(tmp_path):
    # records are NamedTuples and the grammar is parsed by hand, so neither
    # module is imported on the sampling path either; numpy brings inspect
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"kind": "deterministic", "d": 2}, "depth": 2, "reps": 100, "seed": 1}))
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['rde-lab', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, 'simulate']\n"
        "try:\n"
        "    runpy.run_module('rde_lab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sorted({'dataclasses', 'argparse'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
    assert (tmp_path / "out" / "simulate.json").exists()


def test_the_package_binds_its_public_names_on_first_use():
    import rde_lab

    names: dict = {}
    exec("from rde_lab import *", names)
    assert set(rde_lab.__all__) <= names.keys()
    assert names["apply_T"] is rde_lab.distiter.apply_T and names["Pgf"] is rde_lab.pgf.Pgf
    with pytest.raises(AttributeError, match="no_such_name"):
        rde_lab.no_such_name
