"""Self-tests of the benchmark's own parts: oracles, span arithmetic and the
classification that feeds ``failed``.  Run with ``python -m pytest perfbench``."""

import math
import sys

import pytest

import oracle
import run as bench
import tracing
from workloads import BINARY, Run, make_runs

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def thinned(p, base=BINARY):
    return oracle.Family({"kind": "thinned", "p": p, "base": base})


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def test_golden_ratio_for_binary_tree():
    det2 = oracle.Family(BINARY)
    assert oracle.mu1(det2) == pytest.approx(GOLDEN, abs=1e-15)
    assert oracle.endogeny_class(det2) == "NonEndogenous"  # H'(mu1) = 2 mu1 > 1
    # C is constant on a deterministic tree, so E[C_n^2] = mu1^2 at every depth
    assert oracle.exact_m2(det2, 12) == pytest.approx(GOLDEN**2, abs=1e-14)


def test_thinned_binary_closed_form():
    assert thinned(0.6).H(1.0) == pytest.approx(4.0 / 9.0, abs=1e-15)
    half = thinned(0.5)
    assert oracle.mu1(half) == pytest.approx(0.75, abs=1e-14)
    assert half.dH(0.75) == pytest.approx(1.0, abs=1e-12)
    assert oracle.endogeny_class(half) == "Endogenous"  # critical counts as endogenous
    assert oracle.endogeny_class(thinned(0.3)) == "NonEndogenous"


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
def test_newton_from_below_matches_closed_forms(p):
    det2 = oracle.Family(BINARY)
    geo = oracle.Family({"kind": "geometric", "alpha": 0.3})
    for z in (0.0, 0.1, 0.5, 0.9, 1.0):
        for base, fam in ((det2, thinned(p)), (geo, thinned(p, {"kind": "geometric", "alpha": 0.3}))):
            # a double root (binary p = 1/2 or geometric p = alpha, at z = 1) resolves to sqrt(eps)
            tol = 1e-7 if fam.slope_margin(z) < oracle.DOUBLE_ROOT_SLOPE else 1e-13
            assert oracle.least_fixed_point(base.H, base.dH, p, z) == pytest.approx(fam.H(z), abs=tol)


def test_ternary_threshold_agrees_with_slope_at_mu1():
    # the ternary family's H comes from Newton; H'(mu1) crosses 1 at p_e
    def slope(p):
        fam = thinned(p, {"kind": "deterministic", "d": 3})
        return fam.dH(oracle.mu1(fam)) - 1.0

    assert slope(oracle.TERNARY_THRESHOLD - 1e-3) > 0.0 > slope(oracle.TERNARY_THRESHOLD + 1e-3)


def test_two_cycle_scan():
    scan = oracle.two_cycles(thinned(0.3))
    assert not scan["neutral_continuum"]
    assert scan["fixed_points"] == [pytest.approx(oracle.mu1(thinned(0.3)), abs=1e-12)]
    assert scan["cycles"] == [(pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))]
    # f(f(t)) = t exactly when H(z) = 2 - z - 2 sqrt(1 - z)
    assert oracle.two_cycles(thinned(0.5)) == {"neutral_continuum": True, "fixed_points": [], "cycles": []}


def test_initial_moments_of_cli_samples():
    m1, m2, _ = oracle.initial_moments({"kind": "mean_matched_uniform", "mean": 0.25, "size": 4})
    pts = [(i + 0.5) / 8 for i in range(4)]  # midpoints of [0, 0.5]
    assert (m1, m2) == (pytest.approx(sum(pts) / 4, abs=1e-15), pytest.approx(sum(x * x for x in pts) / 4, abs=1e-15))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def span(name, start, end, parent, **work):
    return tracing.Span(name, start, end, parent, 1, work)


def test_self_times_of_a_hand_built_tree():
    spans = [
        span("cli.cycles", 0, 100, None),
        span("analysis.find_two_cycles", 10, 40, 0),
        span("pgf.eval", 20, 30, 1, points=1),
        span("pgf.eval", 30, 35, 1, points=3),
        span("analysis.iterated_mu2_plus", 50, 90, 0),
        span("pgf.eval", 60, 61, 4, points=1),
    ]
    assert tracing.self_times(spans) == [30, 15, 10, 5, 39, 1]
    m = tracing.layer_metrics(spans)
    assert m["pgf.eval.calls"] == 3 and m["pgf.eval.points"] == 5
    assert m["analysis.evals_per_scan"] == 2.0
    assert m["analysis.find_two_cycles.s"] == pytest.approx(30e-9)
    assert m["analysis.find_two_cycles.self_s"] == pytest.approx(15e-9)
    assert m["cli.self_s"] == pytest.approx(30e-9)
    assert m["pgf.eval.us_per_point"] == pytest.approx(16e-9 / 5 * 1e6)
    assert set(m) | {"trace.overhead_frac"} == set(tracing.PER_LAYER_UNITS)


def test_simulate_nodes_count_only_draws_under_estimators():
    spans = [
        span("cli.simulate", 0, 100, None),
        span("analysis.solve_mu1", 1, 5, 0),
        span("simulate.mc_moments", 10, 50, 0),
        span("pgf.sample", 11, 20, 2, draws=7),
        span("simulate.endogeny_diagnostic", 50, 90, 0),
        span("pgf.sample", 51, 60, 4, draws=5),
        span("pgf.sample", 95, 96, 0, draws=100),
    ]
    m = tracing.layer_metrics(spans)
    assert m["simulate.nodes"] == 12 and m["pgf.sample.draws"] == 112
    assert m["simulate.self_s"] == pytest.approx((31 + 31) * 1e-9)


def test_wrappers_record_spans_and_restore():
    sys.path.insert(0, str(bench.SRC))
    from rde_lab.pgf import Deterministic, Pgf

    original = Pgf.__dict__["eval"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        Pgf(Deterministic(2)).eval([0.1, 0.2, 0.3])
        assert tracer.spans == []  # disabled: calls pass straight through
        tracer.enabled = True
        assert Pgf(Deterministic(2)).eval(0.5) == 0.25
    finally:
        restore()
    assert Pgf.__dict__["eval"] is original
    assert [(s.name, s.work) for s in tracer.spans] == [("pgf.eval", {"points": 1})]


# ---------------------------------------------------------------------------
# Failure classification
# ---------------------------------------------------------------------------

RUN = Run("x", "transform", {"spec": {"kind": "thinned", "p": 0.3, "base": BINARY}})
KNOWN = Run("y", "cycles", {"spec": {"kind": "thinned", "p": 0.5, "base": BINARY}}, known_defect="tracked")


def test_exit_code_and_missing_output_fail(tmp_path):
    assert bench.classify(RUN, 1, tmp_path) == ["exit code 1"]
    assert bench.classify(RUN, 3, tmp_path) == ["exit code 3"]
    assert bench.classify(RUN, 0, tmp_path)[0].startswith("unreadable output")


def test_oracle_mismatch_fails(tmp_path):
    rows = "\n".join(f"{i / 100},{0.5},1.0,0.0" for i in range(101))
    (tmp_path / "transform.csv").write_text("z,H,H_prime,residual\n" + rows + "\n")
    (tmp_path / "transform.json").write_text('{"defect": 0.0}')
    problems = bench.classify(RUN, 0, tmp_path)
    assert any(p.startswith("H(0.0)") for p in problems)


def outcome(run, code, problems=()):
    return bench.Outcome(run, code, list(problems), 1.0)


def test_known_defects_count_as_failed_but_not_unexpected():
    cases = [outcome(RUN, 0), outcome(KNOWN, 1), outcome(KNOWN, 0)]
    assert [o.failed for o in cases] == [False, True, False]
    line = bench.report_line(cases, {"wall_s": 1.5}, {"wall_s": "s"})
    assert line == '{"correct": true, "attempted": 3, "failed": 1, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}'
    cases.append(outcome(RUN, 0, ["mu1: off"]))
    assert cases[-1].unexpected
    assert '"correct": false' in bench.report_line(cases, {"wall_s": 1.5}, {"wall_s": "s"})


def test_workloads_depend_on_the_seed_only_through_cli_seeds():
    a, b = make_runs("tree-mc", 1), make_runs("tree-mc", 2)
    strip = lambda runs: [dict(r.config, seed=None) for r in runs]
    assert strip(a) == strip(b) and a != b
    assert make_runs("law-iterate", 5) == make_runs("law-iterate", 5)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    assert bench.main(["--workload", "tree-mc", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_paired_passes_give_identical_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path)
    cli = bench.import_cli()
    runs = [Run("t", "transform", {"spec": {"kind": "thinned", "p": 0.3, "base": BINARY}})]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        passes = [bench.paired_pass(cli, runs, tracer, flip) for flip in (False, True)]
    finally:
        restore()
    for plain, traced, spans in passes:
        assert not any(o.failed for o in plain + traced)
        assert spans[0].name == "cli.transform" and all(s.parent is None or s.parent < i for i, s in enumerate(spans))
    first, second = (tracing.layer_metrics(spans) for _, _, spans in passes)
    assert first["pgf.eval.calls"] == second["pgf.eval.calls"] > 0
    assert first["cli.report_bytes"] == second["cli.report_bytes"] > 0
