import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rde_lab.analysis as analysis
from rde_lab.analysis import (
    CRITICAL_TOL,
    CycleScan,
    Endogeny,
    MomentKind,
    basin_of_mean,
    build_fixed_point_report,
    classify_endogeny,
    find_two_cycles,
    iterated_mu2_plus,
    make_two_cycle,
    moment_sequence,
    perron_rho,
    solve_mu1,
    solve_mu2,
    solve_mu_star,
    stability_product,
)
from rde_lab.errors import FeasibilityError, SpecValidationError
from rde_lab.pgf import Deterministic, FinitePmf, Geometric, Pgf, Thinned

from oracles import completely_monotone_violation

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DET2 = Pgf(Deterministic(2))
GEO = Pgf(Geometric(0.25))
FIN = Pgf(FinitePmf({2: 0.5}, infinity_mass=0.5))
TH05 = Pgf(Thinned(Deterministic(2), 0.5))


# ------------------------------------------------------------- scalar solves

def test_solve_mu1_examples():
    assert solve_mu1(DET2) == pytest.approx(GOLDEN, abs=1e-10)
    assert solve_mu1(FIN) == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-10)
    assert solve_mu1(TH05) == pytest.approx(0.75, abs=1e-8)
    # defining identity H(mu1) + mu1 = 1 rather than any printed closed form
    mu1 = solve_mu1(GEO)
    assert GEO.eval(mu1) + mu1 == pytest.approx(1.0, abs=1e-10)


def test_solve_mu_star_examples():
    assert solve_mu_star(DET2) == pytest.approx(0.5, abs=1e-10)
    assert solve_mu_star(FIN) == 1.0
    assert solve_mu_star(GEO) == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_solve_mu2_examples():
    def mu2(pgf):
        fp = build_fixed_point_report(pgf)
        return solve_mu2(pgf, fp.mu1, fp.mu_star, fp.endogeny)

    assert mu2(DET2) == pytest.approx(GOLDEN * GOLDEN, abs=1e-10)
    assert mu2(FIN) == pytest.approx(solve_mu1(FIN), abs=1e-12)
    assert mu2(GEO) == pytest.approx(solve_mu1(GEO), abs=1e-12)


def test_classify_endogeny_examples():
    cls, crit = classify_endogeny(DET2)
    assert cls is Endogeny.NON_ENDOGENOUS and not crit
    assert DET2.deriv(solve_mu1(DET2)) == pytest.approx(1.236068, abs=1e-6)
    cls, crit = classify_endogeny(FIN)
    assert cls is Endogeny.ENDOGENOUS and not crit
    cls, crit = classify_endogeny(TH05)
    assert cls is Endogeny.ENDOGENOUS and crit
    cls, crit = classify_endogeny(GEO)
    assert cls is Endogeny.ENDOGENOUS and crit


def test_fixed_point_report_solves_mu1_once(monkeypatch):
    calls = 0
    real_solve = analysis.solve_mu1

    def counting_solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_mu1", counting_solve)
    for pgf in (DET2, TH05):
        calls = 0
        rep = build_fixed_point_report(pgf)
        assert calls == 1
        assert (rep.endogeny, rep.critical) == classify_endogeny(pgf)


def test_fixed_point_report_fields_and_json():
    rep = build_fixed_point_report(DET2)
    blob = asdict(rep)
    assert set(blob) == {"mu1", "mu_star", "h_prime_mu1", "mu2", "endogeny", "critical"}
    assert blob["endogeny"] == "NonEndogenous"
    assert 0.5 < rep.mu1 < 1.0
    assert rep.mu2 <= rep.mu_star <= 1.0


def test_serialized_field_names_match_type_definitions():
    seq = moment_sequence(DET2, build_fixed_point_report(DET2), MomentKind.DISCRETE, 2)
    assert set(asdict(seq)) == {"kind", "values"}
    cyc = make_two_cycle(DET2, 1.0, 0.0)
    assert set(asdict(cyc)) == {"mu_plus", "mu_minus", "stability_product", "stable"}


# ---------------------------------------------------------- moment sequences

def test_moment_sequences_golden_ratio():
    fp = build_fixed_point_report(DET2)
    disc = moment_sequence(DET2, fp, MomentKind.DISCRETE, 4)
    assert disc.values[0] == 1.0
    assert all(v == pytest.approx(GOLDEN, abs=1e-10) for v in disc.values[1:])
    endo = moment_sequence(DET2, fp, MomentKind.ENDOGENOUS, 8)
    for n, v in enumerate(endo.values):
        assert v == pytest.approx(GOLDEN ** n, abs=1e-8)


def test_moment_sequence_residuals_and_inequalities():
    for pgf in (DET2, FIN, Pgf(FinitePmf({1: 0.2, 3: 0.6}, infinity_mass=0.2))):
        seq = moment_sequence(pgf, build_fixed_point_report(pgf), MomentKind.ENDOGENOUS, 8)
        m = seq.values
        assert m[0] == 1.0
        for n in range(2, 9):
            rhs = sum(math.comb(n, k) * (-1) ** k * m[k] for k in range(n))
            resid = pgf.eval(m[n]) - (-1.0) ** n * m[n] - rhs
            assert abs(resid) < 1e-11
        for n in range(8):
            assert m[n + 1] <= m[n] + 1e-9
            if n >= 1:
                assert m[n] ** (1.0 + 1.0 / n) <= m[n + 1] + 1e-9
        assert completely_monotone_violation(m) < 1e-9


def test_moment_sequence_feasibility_error_names_order():
    # heavy unit mass with far atoms drives the bracket shut at high order
    spec = FinitePmf({1: 0.7020269881904789, 14: 0.015066173556674499,
                      15: 0.04785503551743686, 23: 0.2350518027354099})
    pgf = Pgf(spec)
    fp = build_fixed_point_report(pgf)
    with pytest.raises(FeasibilityError) as err:
        moment_sequence(pgf, fp, MomentKind.ENDOGENOUS, 20)
    assert err.value.n >= 2


def test_moment_sequence_requires_convexity():
    with pytest.raises(SpecValidationError):
        pgf = Pgf(FinitePmf({1: 1.0}))
        moment_sequence(pgf, build_fixed_point_report(pgf), MomentKind.DISCRETE, 4)


# ----------------------------------------------------------------- 2-cycles

def test_two_cycles_binary():
    scan = find_two_cycles(DET2, 1001)
    assert not scan.neutral_continuum
    assert len(scan.fixed_points) == 1
    assert scan.fixed_points[0] == pytest.approx(GOLDEN, abs=1e-10)
    assert len(scan.cycles) == 1
    cyc = scan.cycles[0]
    assert (cyc.mu_plus, cyc.mu_minus) == (pytest.approx(1.0, abs=1e-10), pytest.approx(0.0, abs=1e-10))
    assert cyc.stable and cyc.stability_product < 1e-5


def test_two_cycles_pair_identities():
    scan = find_two_cycles(DET2, 501)
    f = lambda t: 1.0 - DET2.eval(t)
    for cyc in scan.cycles:
        assert f(cyc.mu_plus) == pytest.approx(cyc.mu_minus, abs=1e-10)
        assert f(cyc.mu_minus) == pytest.approx(cyc.mu_plus, abs=1e-10)


def test_two_cycles_neutral_geometric():
    for alpha in (0.1, 0.25, 0.5):
        scan = find_two_cycles(Pgf(Geometric(alpha)), 1001)
        assert scan.neutral_continuum


def test_two_cycles_contraction_case():
    scan = find_two_cycles(FIN, 1001)
    assert not scan.neutral_continuum
    assert len(scan.cycles) == 0
    assert scan.fixed_points[0] == pytest.approx(math.sqrt(3.0) - 1.0, abs=1e-9)


def test_two_cycles_thinned_critical():
    scan = find_two_cycles(TH05, 1001)
    assert scan.neutral_continuum
    assert scan.fixed_points == () and scan.cycles == ()
    assert 1e-9 < scan.resolution < 1e-6
    assert find_two_cycles(DET2, 1001).resolution == 0.0


@pytest.mark.parametrize(
    "spec, bound",
    [(Thinned(Deterministic(2), 0.3), 600),
     (Thinned(Deterministic(3), 0.4), 150),
     (Thinned(Geometric(0.3), 0.4), 150)],
)
def test_cycle_scan_eval_budget(monkeypatch, spec, bound):
    # a deterministic stand-in for a time budget: one vector call per grid
    # and scalar calls only inside bisections (about 2100 calls per scan
    # when the grid was evaluated point by point)
    calls = 0
    real_eval = Pgf.eval

    def counting_eval(self, s):
        nonlocal calls
        calls += 1
        return real_eval(self, s)

    monkeypatch.setattr(Pgf, "eval", counting_eval)
    find_two_cycles(Pgf(spec), 1001)
    assert calls <= bound


def test_iterated_map_monotone_audit():
    for pgf in (DET2, FIN, GEO):
        ts = np.linspace(0.0, 1.0, 1001)
        f2 = 1.0 - pgf.eval(1.0 - pgf.eval(ts))
        assert np.all(np.diff(f2) >= -1e-12)


def test_iterated_stability_examples():
    cyc01 = make_two_cycle(DET2, 1.0, 0.0)
    assert cyc01.stable
    assert cyc01.stability_product < 1e-5
    # geometric pairs are exactly neutral
    prod = stability_product(GEO, 0.2, 16.0 / 17.0)
    assert prod == pytest.approx(1.0, abs=1e-9)
    # degenerate pair reduces to the fixed-point criterion
    mu1 = solve_mu1(DET2)
    deg = make_two_cycle(DET2, mu1, mu1)
    assert deg.stability_product == pytest.approx(DET2.deriv(mu1) ** 2, abs=1e-9)
    assert not deg.stable


def test_iterated_mu2_plus_cases():
    mu1 = solve_mu1(DET2)
    deg = make_two_cycle(DET2, mu1, mu1)
    got = iterated_mu2_plus(DET2, deg)
    assert got.value == pytest.approx(build_fixed_point_report(DET2).mu2, abs=1e-9)
    assert not got.degenerate
    cyc01 = make_two_cycle(DET2, 1.0, 0.0)
    got01 = iterated_mu2_plus(DET2, cyc01)
    assert got01.value == 1.0 and got01.degenerate
    pair = make_two_cycle(GEO, 0.2, 16.0 / 17.0)
    got_pair = iterated_mu2_plus(GEO, pair)
    assert got_pair.value == pytest.approx(0.2, abs=1e-12)  # stable: constant sequence


# -------------------------------------------------------------------- perron

def test_perron_examples():
    rep = perron_rho(DET2, 2)
    assert rep.rho == pytest.approx(GOLDEN, abs=1e-10)
    assert rep.n_star == 2
    assert rep.d_rho == pytest.approx(2.0 * GOLDEN, abs=1e-10)
    rep1 = perron_rho(GEO, 1)
    assert (rep1.rho, rep1.n_star, rep1.d_rho) == (pytest.approx(1.0), 1, pytest.approx(1.0))
    # bounded spec: truncation above the bound keeps N* at the bound
    rep5 = perron_rho(DET2, 5)
    assert rep5.n_star == 2 and rep5.d_rho == pytest.approx(2.0 * GOLDEN, abs=1e-10)


def test_perron_internal_consistency():
    for pgf, n in ((DET2, 2), (GEO, 4), (GEO, 9), (FIN, 3), (TH05, 4)):
        rep = perron_rho(pgf, n)
        assert rep.d_rho == pytest.approx(rep.rho * rep.n_star, abs=1e-12)
        trunc = pgf.truncated(n)
        assert rep.d_rho == pytest.approx(trunc.deriv(solve_mu1(trunc)), abs=1e-12)


def test_truncation_mu1_monotone_to_limit():
    mus = [solve_mu1(GEO.truncated(n)) for n in range(1, 21)]
    assert mus[0] == pytest.approx(0.5, abs=1e-12)
    # root of 0.75 x^2 + 1.25 x - 1 = 0
    quad = (-1.25 + math.sqrt(1.25 ** 2 + 3.0)) / 1.5
    assert mus[1] == pytest.approx(quad, abs=1e-9)
    mu1 = solve_mu1(GEO)
    for a, b in zip(mus, mus[1:]):
        assert a <= b + 1e-12
    assert all(m <= mu1 + 1e-12 for m in mus)
    assert solve_mu1(GEO.truncated(40)) == pytest.approx(2.0 / 3.0, abs=1e-6)


# ------------------------------------------------------------ basin of mean

def test_basin_of_mean_examples():
    mu1 = solve_mu1(DET2)
    assert basin_of_mean(DET2, mu1, mu1).kind == "ToMu1"
    res = basin_of_mean(DET2, mu1, 0.5)
    assert res.kind == "ToCycle"
    assert (res.mu_plus, res.mu_minus) == (pytest.approx(1.0, abs=1e-6), pytest.approx(0.0, abs=1e-6))
    assert basin_of_mean(FIN, solve_mu1(FIN), 0.2).kind == "ToMu1"
    assert basin_of_mean(GEO, solve_mu1(GEO), 0.3).kind == "Neutral"
    # f∘f = id exactly, and the neutral test respects H's sqrt(eps) bracket
    assert basin_of_mean(TH05, solve_mu1(TH05), 0.3).kind == "Neutral"


# ------------------------------------------------------------ property tests

@st.composite
def analysis_specs(draw):
    support = draw(st.lists(st.integers(min_value=2, max_value=7), min_size=1, max_size=3, unique=True))
    w1 = draw(st.floats(min_value=0.0, max_value=1.5))
    ws = [draw(st.floats(min_value=0.1, max_value=1.0)) for _ in support]
    w_inf = draw(st.floats(min_value=0.0, max_value=0.8))
    total = w1 + sum(ws) + w_inf
    weights = {1: w1 / total} if w1 > 0 else {}
    weights.update({k: w / total for k, w in zip(support, ws)})
    return FinitePmf(weights, infinity_mass=w_inf / total)


@settings(max_examples=40, deadline=None)
@given(analysis_specs())
def test_random_specs_mean_equation(spec):
    pgf = Pgf(spec)
    mu1 = solve_mu1(pgf)
    assert abs(pgf.eval(mu1) + mu1 - 1.0) < 1e-10
    assert 0.5 < mu1 < 1.0


@settings(max_examples=40, deadline=None)
@given(analysis_specs())
def test_random_specs_mu2_ordering_and_classification(spec):
    pgf = Pgf(spec)
    mu1 = solve_mu1(pgf)
    mu_star = solve_mu_star(pgf)
    cls, _ = classify_endogeny(pgf)
    mu2 = solve_mu2(pgf, mu1, mu_star, cls)
    assert mu2 <= mu_star + 1e-12 <= 1.0 + 1e-12
    h1 = pgf.deriv(mu1)
    if cls is Endogeny.ENDOGENOUS:
        assert abs(mu2 - mu1) <= 1e-6
    elif h1 > 1.0 + 1e-4:
        assert mu2 < mu1 - 1e-9


@settings(max_examples=25, deadline=None)
@given(analysis_specs())
def test_random_specs_cycle_scan_sound(spec):
    pgf = Pgf(spec)
    scan = find_two_cycles(pgf, 301)
    if scan.neutral_continuum:
        return
    f = lambda t: 1.0 - pgf.eval(t)
    for p in scan.fixed_points:
        assert abs(f(p) - p) < 1e-8
    for cyc in scan.cycles:
        assert abs(f(cyc.mu_plus) - cyc.mu_minus) < 1e-10
        assert abs(f(cyc.mu_minus) - cyc.mu_plus) < 1e-10
