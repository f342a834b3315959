import math
from dataclasses import asdict, replace

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
    find_two_cycles,
    iterated_mu2_plus,
    make_two_cycle,
    moment_sequence,
    solve_mu1,
    solve_mu2,
    solve_mu_star,
    stability_product,
    unit_grid,
)
from rde_lab.errors import SpecValidationError
from rde_lab.pgf import Deterministic, FinitePmf, Geometric, Pgf, Thinned

from oracles import (
    completely_monotone_violation,
    decimal_iterated_mu2_plus,
    decimal_moment_sequence,
    decimal_pmf,
    decimal_thinned_binary,
    mean_orbit_limit,
)

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


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6])
def test_solve_mu_star_thinned_binary_closed_form(p):
    # H'(z) = q / sqrt(1 - 4pqz) is 1 at z = (1 + q) / (4q); at p = 1/2, H'(1) = +inf
    q = 1.0 - p
    pgf = Pgf(Thinned(Deterministic(2), p))
    if p == 0.5:
        assert pgf.deriv_or_inf(1.0) == math.inf
    assert solve_mu_star(pgf) == pytest.approx((1.0 + q) / (4.0 * q), abs=1e-9)


def test_solve_mu2_examples():
    def mu2(pgf):
        fp = build_fixed_point_report(pgf)
        return solve_mu2(pgf, fp.mu1, fp.mu_star, fp.endogeny)

    assert mu2(DET2) == pytest.approx(GOLDEN * GOLDEN, abs=1e-10)
    assert mu2(FIN) == pytest.approx(solve_mu1(FIN), abs=1e-12)
    assert mu2(GEO) == pytest.approx(solve_mu1(GEO), abs=1e-12)


def test_classify_endogeny_examples():
    rep = build_fixed_point_report(DET2)
    assert rep.endogeny is Endogeny.NON_ENDOGENOUS and not rep.critical
    assert DET2.deriv(solve_mu1(DET2)) == pytest.approx(1.236068, abs=1e-6)
    rep = build_fixed_point_report(FIN)
    assert rep.endogeny is Endogeny.ENDOGENOUS and not rep.critical
    rep = build_fixed_point_report(TH05)
    assert rep.endogeny is Endogeny.ENDOGENOUS and rep.critical
    rep = build_fixed_point_report(GEO)
    assert rep.endogeny is Endogeny.ENDOGENOUS and rep.critical


def test_fixed_point_report_solves_mu1_once(monkeypatch):
    calls = 0
    real_solve = analysis.solve_mu1

    def counting_solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(analysis, "solve_mu1", counting_solve)
    for pgf, expected in ((DET2, (Endogeny.NON_ENDOGENOUS, False)), (TH05, (Endogeny.ENDOGENOUS, True))):
        calls = 0
        rep = build_fixed_point_report(pgf)
        assert calls == 1
        assert (rep.endogeny, rep.critical) == expected


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


def test_moment_sequence_reads_mu2_from_the_report():
    # m_2 is the report's mu2, not a second solve of the same equation
    fp = build_fixed_point_report(DET2)
    fp = replace(fp, mu2=fp.mu2 + 1e-6)
    assert moment_sequence(DET2, fp, MomentKind.ENDOGENOUS, 2).values[2] == fp.mu2


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
    # an endogenous spec (H'(mu1) = 0.703): C = S is {0,1}-valued, so every
    # moment is mu1, up to the K = 64 cap
    spec = FinitePmf({1: 0.7020269881904789, 14: 0.015066173556674499,
                      15: 0.04785503551743686, 23: 0.2350518027354099})
    pgf = Pgf(spec)
    fp = build_fixed_point_report(pgf)
    assert fp.endogeny is Endogeny.ENDOGENOUS
    for K in (20, 64):
        assert moment_sequence(pgf, fp, MomentKind.ENDOGENOUS, K).values == (1.0,) + (fp.mu1,) * K


def test_moment_sequence_requires_convexity():
    with pytest.raises(SpecValidationError):
        pgf = Pgf(FinitePmf({1: 1.0}))
        moment_sequence(pgf, build_fixed_point_report(pgf), MomentKind.DISCRETE, 4)


def test_near_critical_moments_match_the_decimal_oracle():
    # thinned binary just below p = 1/2: H'(mu1) = 1 + 2e-6, so m_n and
    # m_{n-1} are close and each order's root sits near its bracket's end
    p = 0.499999
    pgf = Pgf(Thinned(Deterministic(2), p))
    got = moment_sequence(pgf, build_fixed_point_report(pgf), MomentKind.ENDOGENOUS, 8).values
    exact = decimal_moment_sequence(*decimal_thinned_binary(p), 8)
    assert max(abs(g - float(e)) for g, e in zip(got, exact)) < 1e-9


def test_moment_sequence_ends_at_its_last_resolved_order():
    # det2's float moment roots run out before order 64; a shorter K gives
    # the leading entries of the longer sequence
    fp = build_fixed_point_report(DET2)
    full = moment_sequence(DET2, fp, MomentKind.ENDOGENOUS, 64).values
    assert 3 < len(full) < 65
    for K in (1, 2, 5, len(full) - 1, 40):
        assert moment_sequence(DET2, fp, MomentKind.ENDOGENOUS, K).values == full[:K + 1]


@pytest.mark.parametrize("p", [0.499999999, 0.4999999971057339])
def test_mu2_within_rounding_of_mu1_matches_the_decimal_oracle(p):
    # mu1 - mu_star is about 1e-9, so phi = H(x) - x - (1 - 2 mu1) reads no
    # float value below 0 on [0, mu_star]: mu2 is the reflection of mu1
    # about the minimum
    fp = build_fixed_point_report(Pgf(Thinned(Deterministic(2), p)))
    assert fp.endogeny is Endogeny.NON_ENDOGENOUS
    assert abs(fp.mu2 - float(decimal_moment_sequence(*decimal_thinned_binary(p), 2)[2])) < 1e-14


def test_fixed_point_report_never_raises_near_the_endogeny_boundary():
    specs = [Thinned(Deterministic(2), 0.5 - 10.0**-k) for k in np.arange(3.0, 12.25, 0.5)]
    specs += [Geometric(float(alpha)) for alpha in np.logspace(-16, -1, 60)]
    for spec in specs:
        fp = build_fixed_point_report(Pgf(spec))
        assert fp.mu2 <= fp.mu1, spec


@pytest.mark.parametrize(
    "phi",
    [
        pytest.param(lambda x: (x - 0.5) ** 2 + 1e-3, id="convex-positive"),
        pytest.param(lambda x: 1.5 - x, id="decreasing-positive"),
        pytest.param(lambda x: x + 0.5, id="increasing-positive"),
        pytest.param(lambda x: x - 2.0, id="negative-ends"),
        pytest.param(lambda x: -((x - 0.5) ** 2) - 1.0, id="concave-negative"),
    ],
)
def test_least_root_returns_none_without_a_root(phi):
    assert analysis._least_root(phi, 0.0, 1.0) is None


@pytest.mark.parametrize(
    "phi, lo, root",
    [
        pytest.param(lambda x: x - 0.25, 0.25, 0.25, id="root-at-lo"),
        pytest.param(lambda x: 0.3 - x, 0.0, 0.3, id="opposite-ends"),
        pytest.param(lambda x: (x - 0.3) * (x - 0.7), 0.0, 0.3, id="convex-positive-ends"),
        pytest.param(lambda x: (x - 0.3) * (x - 1.0), 0.0, 0.3, id="convex-root-at-hi"),
    ],
)
def test_least_root_finds_the_least_root(phi, lo, root):
    assert analysis._least_root(phi, lo, 1.0) == pytest.approx(root, abs=1e-12)


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


def test_two_cycles_scan_runs_on_every_geometric_alpha():
    # 1 - (1 - alpha) s cancelled at s = 1, so H(1) rounded past 1 on about a third of these
    for alpha in np.geomspace(1e-6, 0.999, 400):
        h = Pgf(Geometric(float(alpha)))
        assert h.eval(1.0) == 1.0
        find_two_cycles(h)


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
    # a deterministic stand-in for a time budget: the float scan makes three
    # calls a grid point (H's bracket at t and the two outer brackets), and
    # the rest (bisections, partners) stays within bound
    calls = 0
    real_eval = Pgf.eval

    def counting_eval(self, s):
        nonlocal calls
        calls += 1
        return real_eval(self, s)

    monkeypatch.setattr(Pgf, "eval", counting_eval)
    find_two_cycles(Pgf(spec), 1001)
    assert calls <= 3 * 1001 + bound


@pytest.mark.parametrize(
    "spec, per_point",
    [(Deterministic(2), 2), (FinitePmf({k: 1.0 / 256 for k in range(1, 257)}), 2),
     (FinitePmf({1: 0.3, 2: 0.4, 3: 0.2}, 0.1), 2), (Geometric(0.3), 2), (Thinned(Deterministic(2), 0.3), 3)],
    ids=["det2", "uniform-256", "finite-inf", "geometric", "thinned-0.3"],
)
def test_the_scan_reuses_the_outer_bracket_of_an_exact_h(monkeypatch, spec, per_point):
    # an exact H has h_lo == h_hi, so one outer bracket serves both ends of a grid point's interval
    calls = 0
    real_bounds = Pgf.eval_bounds

    def counting_bounds(self, s):
        nonlocal calls
        calls += 1
        return real_bounds(self, s)

    monkeypatch.setattr(Pgf, "eval_bounds", counting_bounds)
    find_two_cycles(Pgf(spec), 1001)
    assert calls == per_point * 1001


@pytest.mark.parametrize("n", [100, 101, 1001, 4097, 100_000])
def test_the_unit_grid_is_linspace_bit_for_bit(n):
    grid = unit_grid(n)
    assert all(type(t) is float for t in grid)
    assert np.array(grid).tobytes() == np.linspace(0.0, 1.0, n).tobytes()


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
    assert got == pytest.approx(build_fixed_point_report(DET2).mu2, abs=1e-9)
    assert not deg.degenerate
    cyc01 = make_two_cycle(DET2, 1.0, 0.0)
    assert iterated_mu2_plus(DET2, cyc01) == 1.0 and cyc01.degenerate
    pair = make_two_cycle(GEO, 0.2, 16.0 / 17.0)
    got_pair = iterated_mu2_plus(GEO, pair)
    assert got_pair == pytest.approx(0.2, abs=1e-12)  # stable: constant sequence


def test_iterated_mu2_plus_on_an_unstable_interior_cycle():
    # the lesser root of H(1 - 2H(mu_plus) + H(t)) = 1 - 2mu_plus + t
    # against a 60-digit Decimal bisection of the same equation
    pmf = {1: 0.3085, 2: 0.5171, 9: 0.1744}
    pgf = Pgf(FinitePmf(pmf))
    [cyc] = [c for c in find_two_cycles(pgf).cycles if not c.stable]
    assert 0.0 < cyc.mu_minus < cyc.mu_plus < 1.0 and not cyc.degenerate
    exact = decimal_iterated_mu2_plus(*decimal_pmf(pmf), cyc.mu_plus)
    assert abs(iterated_mu2_plus(pgf, cyc) - float(exact)) < 1e-14
    assert float(exact) < cyc.mu_plus


# ---------------------------------------------------------------- truncation

def test_truncation_endogeny_examples():
    # min(n, N) is endogenous iff H_n'(mu1_n) <= 1, the report's h_prime_mu1
    assert build_fixed_point_report(DET2.truncated(2)).h_prime_mu1 == pytest.approx(2.0 * GOLDEN, abs=1e-10)
    # a bounded spec truncated above its bound is itself
    assert build_fixed_point_report(DET2.truncated(5)).h_prime_mu1 == pytest.approx(2.0 * GOLDEN, abs=1e-10)


def test_truncation_endogeny_is_h_prime_at_the_truncated_mu1():
    for pgf, n in ((DET2, 2), (GEO, 4), (GEO, 9), (FIN, 3), (TH05, 4)):
        trunc = pgf.truncated(n)
        got = build_fixed_point_report(trunc).h_prime_mu1
        assert got == pytest.approx(trunc.deriv(solve_mu1(trunc)), abs=1e-12)


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
    assert basin_of_mean(DET2, mu1).kind == "ToMu1"
    res = basin_of_mean(DET2, 0.5)
    assert res.kind == "ToCycle"
    assert (res.mu_plus, res.mu_minus) == (pytest.approx(1.0, abs=1e-6), pytest.approx(0.0, abs=1e-6))
    assert basin_of_mean(FIN, 0.2).kind == "ToMu1"
    assert basin_of_mean(GEO, 0.3).kind == "Neutral"
    # f∘f = id exactly, and the neutral test respects H's sqrt(eps) bracket
    assert basin_of_mean(TH05, 0.3).kind == "Neutral"
    with pytest.raises(ValueError):
        basin_of_mean(DET2, 1.5)


@pytest.mark.parametrize(
    "spec",
    [
        Deterministic(2),
        FinitePmf({2: 0.5}, infinity_mass=0.5),
        FinitePmf({2: 0.9}, infinity_mass=0.1),  # a stable interior cycle (0.986, 0.125)
        Thinned(Deterministic(2), 0.3),
        Thinned(Deterministic(2), 0.6),
        Thinned(Deterministic(3), 0.4),
    ],
    ids=["det2", "finite-inf", "finite-interior-cycle", "thinned-0.3", "thinned-0.6", "ternary-thinned-0.4"],
)
def test_basin_of_mean_matches_the_orbit(spec):
    pgf = Pgf(spec)
    mu1 = solve_mu1(pgf)
    f = lambda t: 1.0 - pgf.eval(t)
    cycles = find_two_cycles(pgf).cycles
    for m0 in (0.0, 1.0, mu1, 0.3, *(x for c in cycles for x in (c.mu_plus, c.mu_minus))):
        limit = mean_orbit_limit(pgf.eval, m0)
        res = basin_of_mean(pgf, m0)
        if abs(limit - mu1) < 1e-6:
            assert res.kind == "ToMu1", m0
        else:
            assert res.kind == "ToCycle", m0
            want = (max(limit, f(limit)), min(limit, f(limit)))
            assert (res.mu_plus, res.mu_minus) == pytest.approx(want, abs=1e-6), m0


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
    cls = build_fixed_point_report(pgf).endogeny
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
