import json
import math
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import rde_lab.analysis as analysis
from rde_lab.cli import main

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def run_cli(tmp_path, config: dict, command: str, name: str = "cfg.json", env=None):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(config))
    out = tmp_path / f"out_{command}_{name}"
    runner = CliRunner()
    result = runner.invoke(
        main, ["--config", str(cfg), "--out", str(out), command], env=env, catch_exceptions=False
    )
    return result, out


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
    assert lines[0] == "k,m1,m2,r,E,kolmogorov"
    assert len(lines) == cfg["steps"] + 2
    last_m1 = float(lines[-1].split(",")[1])
    assert min(last_m1, 1.0 - last_m1) < 0.05


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


@pytest.mark.parametrize("field", ["depth", "seed", "tol"])
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
    ],
)
def test_malformed_config_exits_2_naming_field(tmp_path, monkeypatch, command, cfg, field):
    # each of these once ended in a traceback or ran with a value silently changed
    monkeypatch.chdir(tmp_path)
    Path("points.txt").write_text("0.5\nnan\n")
    Path("cfg.json").write_text(json.dumps(cfg))
    argv = ["--config", "cfg.json", command] if "out" in cfg else ["--config", "cfg.json", "--out", "out", command]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2
    assert f"'{field}'" in result.output
    assert not Path("out").exists()


def test_exit_code_on_resource_limit(tmp_path):
    cfg = {"spec": {"kind": "geometric", "alpha": 0.25}, "reps": 200, "depth": 12,
           "seed": 3, "node_cap": 10_000}
    result, _ = run_cli(tmp_path, cfg, "simulate")
    assert result.exit_code == 3


def test_byte_identical_reruns(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(DET2_CFG))
        out = tmp_path / f"det_{sub}"
        runner = CliRunner()
        res = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "simulate"])
        assert res.exit_code == 0
        outputs.append((out / "simulate.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_thread_env_var_does_not_change_results(tmp_path):
    blobs = []
    for threads in ("1", "4"):
        cfg = tmp_path / f"t{threads}.json"
        cfg.write_text(json.dumps(dict(DET2_CFG, reps=6000)))
        out = tmp_path / f"thr_{threads}"
        runner = CliRunner()
        res = runner.invoke(
            main, ["--config", str(cfg), "--out", str(out), "simulate"],
            env={"RDE_LAB_THREADS": threads},
        )
        assert res.exit_code == 0
        blobs.append((out / "simulate.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_seed_override_changes_hash(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(DET2_CFG))
    runner = CliRunner()
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    assert runner.invoke(main, ["--config", str(cfg), "--out", str(out1), "analyze"]).exit_code == 0
    assert runner.invoke(main, ["--config", str(cfg), "--seed", "77", "--out", str(out2), "analyze"]).exit_code == 0
    h1 = json.loads((out1 / "analysis.json").read_text())["config_hash"]
    h2 = json.loads((out2 / "analysis.json").read_text())["config_hash"]
    assert h1 != h2


def test_missing_config_is_usage_error(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["analyze"])
    assert result.exit_code == 2
