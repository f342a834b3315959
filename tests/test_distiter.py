import math

import numpy as np
import pytest

from rde_lab.analysis import build_fixed_point_report, solve_mu1
from rde_lab.distiter import (
    EmpiricalDist,
    apply_T,
    basin_test,
    bernoulli_two_point,
    is_two_point_concentrated,
    iterate_T,
    kolmogorov_distance,
    mean_matched_uniform,
    moment_recursions,
    point_mass,
)
from rde_lab.errors import SpecValidationError
from rde_lab.pgf import Deterministic, FinitePmf, Geometric, Pgf, sample_family_sizes
from rde_lab.streams import derive

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DET2 = Deterministic(2)
GEO = Geometric(0.25)
FIN = FinitePmf({2: 0.5}, infinity_mass=0.5)


# ------------------------------------------------------------ apply_T basics

def test_apply_point_masses_binary():
    out1 = apply_T(point_mass(1.0, 500), DET2, derive(0, 0))
    assert np.all(out1.points == 0.0)
    out0 = apply_T(point_mass(0.0, 500), DET2, derive(0, 1))
    assert np.all(out0.points == 1.0)


def test_apply_point_mass_at_mu1_binary_is_fixed():
    mu1 = solve_mu1(Pgf(DET2))
    out = apply_T(point_mass(mu1, 500), DET2, derive(1, 0))
    assert np.max(np.abs(out.points - mu1)) < 1e-12


def test_apply_infinite_families_pin_to_one():
    out = apply_T(point_mass(0.5, 40_000), FIN, derive(2, 0))
    frac_one = float((out.points == 1.0).mean())
    assert abs(frac_one - 0.5) < 3.0 * math.sqrt(0.25 / out.size)


def test_mean_transport_law():
    from rde_lab.pgf import Thinned

    rng = derive(3, 0)
    nu = EmpiricalDist(rng.random(50_000))
    for spec, sub in ((DET2, 1), (GEO, 2), (FIN, 3), (Thinned(DET2, 0.6), 4)):
        pgf = Pgf(spec)
        out = apply_T(nu, spec, derive(3, sub))
        predicted = 1.0 - pgf.eval(nu.mean())
        se = out.points.std(ddof=1) / math.sqrt(out.size)
        assert abs(out.mean() - predicted) < 4.0 * se


@pytest.mark.parametrize("spec", [Deterministic(3), FIN], ids=["det3", "finite-inf"])
def test_apply_matches_per_point_loop(spec):
    # replay apply_T's draws (family sizes, then child indices) from the same stream
    nu = EmpiricalDist(derive(5, 0).random(300))
    out = apply_T(nu, spec, derive(5, 1), out_size=400)
    rng = derive(5, 1)
    sizes = sample_family_sizes(spec, 400, rng)
    idx = iter(rng.integers(0, nu.size, int(sizes[sizes > 0].sum())))
    want = []
    for n in sizes:
        prod = 1.0
        for _ in range(n):  # empty for an infinite family (-1)
            prod *= nu.points[next(idx)]
        want.append(1.0 if n == -1 else 1.0 - prod)
    assert next(idx, None) is None
    assert out.points.tolist() == want


def test_apply_respects_out_size():
    nu = point_mass(0.4, 1_000)
    out = apply_T(nu, GEO, derive(3, 9), out_size=2_500)
    assert out.size == 2_500


def test_apply_preserves_two_point_laws():
    mu1 = solve_mu1(Pgf(DET2))
    nu = bernoulli_two_point(mu1, 50_000)
    cur = nu
    for k in range(10):
        cur = apply_T(cur, DET2, derive(4, k))
        assert set(np.unique(cur.points)) <= {0.0, 1.0}
        assert cur.second_moment() == cur.mean()
    assert abs(cur.mean() - mu1) < 0.05


def test_empirical_dist_validation():
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([0.2, 1.4]))
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([]))
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([0.5, math.nan]))


def test_initial_constructors():
    mu1 = solve_mu1(Pgf(DET2))
    uni = mean_matched_uniform(mu1, 10_000)
    assert uni.mean() == pytest.approx(mu1, abs=1e-12)
    assert not is_two_point_concentrated(uni)
    tp = bernoulli_two_point(mu1, 10_000)
    assert is_two_point_concentrated(tp)
    assert abs(tp.mean() - mu1) <= 0.5 / 10_000 + 1e-12
    for mean in (1.5, -0.5, math.nan):
        with pytest.raises(SpecValidationError):
            bernoulli_two_point(mean, 100)


# ---------------------------------------------------------- moment recursion

def test_moment_recursion_fixed_point_is_constant():
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    mu2 = build_fixed_point_report(pgf).mu2
    recs = moment_recursions(pgf, mu1, mu2, mu2, mu1, 25, mu2=mu2)
    for rec in recs:
        assert rec.m1 == pytest.approx(mu1, abs=1e-12)
        assert rec.m2 == pytest.approx(mu2, abs=1e-12)
        assert rec.r == pytest.approx(mu2, abs=1e-12)
        assert rec.E == pytest.approx(0.0, abs=1e-12)


def test_moment_recursion_m2_fixed_points_are_mu1_and_mu2():
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    mu2 = build_fixed_point_report(pgf).mu2
    step = lambda x: 1.0 - 2.0 * pgf.eval(mu1) + pgf.eval(x)
    assert step(mu1) == pytest.approx(mu1, abs=1e-12)
    assert step(mu2) == pytest.approx(mu2, abs=1e-12)


def test_moment_recursion_converges_to_endogenous_second_moment():
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    mu2 = build_fixed_point_report(pgf).mu2
    recs = moment_recursions(pgf, mu1, 0.45, 0.45, mu1, 100, mu2=mu2)
    assert recs[-1].m2 == pytest.approx(mu2, abs=1e-9)
    assert recs[-1].E == pytest.approx(0.0, abs=1e-8)


def test_moment_recursion_oscillates_from_wrong_mean():
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    recs = moment_recursions(pgf, 0.5, 0.25, 0.25, mu1, 40, mu2=build_fixed_point_report(pgf).mu2)
    tail = [rec.m1 for rec in recs[-6:]]
    assert all(min(v, 1.0 - v) < 0.01 for v in tail)
    assert any(v < 0.5 for v in tail) and any(v > 0.5 for v in tail)


def test_moment_recursion_discrepancy_stays_nonnegative():
    # E_k is a mean square whenever the seed triple is realizable
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    mu2 = build_fixed_point_report(pgf).mu2
    for m1 in np.linspace(0.05, 0.95, 7):
        for m2 in np.linspace(m1 * m1, m1, 5):
            for r0 in (mu1 * m1, math.sqrt(m2 * mu2)):
                recs = moment_recursions(pgf, float(m1), float(m2), float(min(r0, 1.0)), mu1, 40, mu2=mu2)
                assert min(rec.E for rec in recs) > -1e-9


def test_moment_recursion_validates_seeds():
    pgf = Pgf(DET2)
    with pytest.raises(ValueError):
        moment_recursions(pgf, 0.4, 0.6, 0.2, GOLDEN, 5, mu2=GOLDEN * GOLDEN)


# -------------------------------------------------------------- iteration MC

def test_iterate_records_and_kolmogorov():
    nu0 = point_mass(0.3, 5_000)
    target = point_mass(0.3, 5_000)
    recs = iterate_T(nu0, FIN, 5, derive(5, 0), target=target)
    assert len(recs) == 6
    assert recs[0].k == 0 and recs[0].kolmogorov_to_target == 0.0
    assert all(rec.m2 <= rec.m1 + 1e-12 for rec in recs)


def test_kolmogorov_distance_extremes():
    a = np.zeros(100)
    b = np.ones(100)
    assert kolmogorov_distance(a, a) == 0.0
    assert kolmogorov_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_iterate_matches_analytic_recursion_stable_spec():
    pgf = Pgf(FIN)
    mu1 = solve_mu1(pgf)
    nu0 = point_mass(0.2, 20_000)
    recs = iterate_T(nu0, FIN, 12, derive(6, 0))
    analytic = moment_recursions(pgf, 0.2, 0.04, mu1 * 0.2, mu1, 12, mu2=build_fixed_point_report(pgf).mu2)
    for emp, exact in zip(recs, analytic):
        se1 = max(emp.m1 * (1.0 - emp.m1), 1e-4) ** 0.5 / math.sqrt(20_000)
        assert abs(emp.m1 - exact.m1) < 4.0 * se1 + 1e-6
        assert abs(emp.m2 - exact.m2) < 4.0 * se1 + 1e-6


def test_iterate_matches_analytic_recursion_neutral_spec():
    pgf = Pgf(GEO)
    mu1 = solve_mu1(pgf)
    nu0 = point_mass(0.3, 50_000)
    recs = iterate_T(nu0, GEO, 6, derive(7, 0))
    analytic = moment_recursions(pgf, 0.3, 0.09, mu1 * 0.3, mu1, 6, mu2=build_fixed_point_report(pgf).mu2)
    for emp, exact in zip(recs, analytic):
        assert abs(emp.m1 - exact.m1) < 0.02
    # neutral family: the exact mean trajectory is 2-periodic
    assert analytic[2].m1 == pytest.approx(0.3, abs=1e-12)
    assert analytic[4].m1 == pytest.approx(0.3, abs=1e-12)


def test_iterate_one_step_transport_through_unstable_run():
    # per-step means follow the transported moments within 4 SE even though
    # the whole trajectory eventually escapes the repulsive fixed point
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    cur = mean_matched_uniform(mu1, 50_000)
    rng = derive(8, 0)
    for _ in range(20):
        pred_m1 = 1.0 - pgf.eval(cur.mean())
        pred_m2 = 1.0 - 2.0 * pgf.eval(cur.mean()) + pgf.eval(cur.second_moment())
        nxt = apply_T(cur, DET2, rng)
        se1 = nxt.points.std(ddof=1) / math.sqrt(nxt.size) + 1e-9
        se2 = (nxt.points ** 2).std(ddof=1) / math.sqrt(nxt.size) + 1e-9
        assert abs(nxt.mean() - pred_m1) < 4.0 * se1
        assert abs(nxt.second_moment() - pred_m2) < 4.0 * se2
        cur = nxt


# ------------------------------------------------------------------- basins

def test_basin_unstable_requires_exact_mean_and_spread():
    mu1 = solve_mu1(Pgf(DET2))
    rep = basin_test(mean_matched_uniform(mu1, 20_000), DET2, steps=10, seed=1)
    assert rep.analytic == "InBasin"
    rep2 = basin_test(point_mass(0.5, 20_000), DET2, steps=25, seed=2)
    assert rep2.analytic == "NotInBasin"
    assert rep2.empirical == "Oscillating"


def test_basin_excludes_two_point_law():
    mu1 = solve_mu1(Pgf(DET2))
    rep = basin_test(bernoulli_two_point(mu1, 20_000), DET2, steps=10, seed=3)
    assert rep.analytic == "NotInBasin"


def test_basin_boundary_band():
    mu1 = solve_mu1(Pgf(DET2))
    rep = basin_test(mean_matched_uniform(mu1 + 5e-6, 20_000), DET2, steps=5, tol=1e-6, seed=4)
    assert rep.analytic == "Boundary"


def test_basin_stable_uses_mean_map():
    rep = basin_test(point_mass(0.2, 20_000), FIN, steps=60, seed=5)
    assert rep.analytic == "InBasin"
    assert rep.empirical == "Converged"


def test_basin_neutral_family_is_mean_fixed_point_only():
    # every off-mean point of the geometric family is 2-periodic under f
    rep = basin_test(point_mass(0.3, 10_000), GEO, steps=6, seed=6)
    assert rep.analytic == "NotInBasin"
    mu1 = solve_mu1(Pgf(GEO))
    rep2 = basin_test(point_mass(mu1, 10_000), GEO, steps=6, seed=7)
    assert rep2.analytic == "InBasin"
