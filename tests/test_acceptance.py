"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances are pinned here and nowhere else."""

import math
import time

import numpy as np
import pytest

from rde_lab.analysis import (
    MomentKind,
    build_fixed_point_report,
    Endogeny,
    moment_map,
    moment_sequence,
    solve_mu1,
)
from rde_lab.distiter import (
    apply_T,
    basin_test,
    mean_matched_uniform,
    point_mass,
)
from rde_lab.pgf import Deterministic, FinitePmf, Geometric, Pgf, Thinned
from rde_lab.simulate import _sample_forest, endogeny_diagnostic, mc_moments
from rde_lab.streams import derive

from oracles import brute_force_root_probability, forest_tree, leaf_count, truncated

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DET2 = Deterministic(2)
GEO = Geometric(0.25)
STABLE = FinitePmf({2: 0.5}, infinity_mass=0.5)


class _Timer:
    def __init__(self, number: int, budget: float, label: str):
        self.number, self.budget, self.label = number, budget, label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number}: {status} — {self.label} ({dt:.2f}s)")
        if exc_type is None:
            assert dt < self.budget, f"criterion {self.number} exceeded {self.budget}s runtime ({dt:.2f}s)"
        return False


def test_criterion_1_golden_ratio_case():
    with _Timer(1, 1.0, "golden-ratio invariant mean and endogenous moments"):
        pgf = Pgf(DET2)
        mu1 = solve_mu1(pgf)
        assert abs(mu1 - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-10
        fp = build_fixed_point_report(pgf)
        mu2 = fp.mu2
        assert abs(mu2 - (3.0 - math.sqrt(5.0)) / 2.0) < 1e-10
        seq = moment_sequence(pgf, fp, MomentKind.ENDOGENOUS, 8)
        for n, value in enumerate(seq.values):
            assert abs(value - mu1 ** n) < 1e-8


def test_criterion_2_geometric_involution():
    with _Timer(2, 1.0, "geometric family: f∘f = id, defining identity, criticality"):
        ts = np.linspace(0.0, 1.0, 1001)
        for alpha in (0.1, 0.25, 0.5):
            pgf = Pgf(Geometric(alpha))
            f = lambda t: 1.0 - pgf.eval(t)
            assert float(np.max(np.abs(f(f(ts)) - ts))) < 1e-12
            mu1 = solve_mu1(pgf)
            assert abs(pgf.eval(mu1) + mu1 - 1.0) < 1e-10
            assert abs(pgf.deriv(mu1) - 1.0) < 1e-9


def test_criterion_3_noisy_binary_threshold():
    with _Timer(3, 1.0, "thinned binary tree: endogeny switches at p = 1/2"):
        for p in (0.30, 0.40, 0.49):
            cls = build_fixed_point_report(Pgf(Thinned(DET2, p))).endogeny
            assert cls is Endogeny.NON_ENDOGENOUS, f"p={p}"
        for p in (0.50, 0.55, 0.60):
            cls = build_fixed_point_report(Pgf(Thinned(DET2, p))).endogeny
            assert cls is Endogeny.ENDOGENOUS, f"p={p}"
        pgf_half = Pgf(Thinned(DET2, 0.5))
        mu1 = solve_mu1(pgf_half)
        assert abs(mu1 - 0.75) < 1e-8
        assert abs(pgf_half.deriv(mu1) - 1.0) < 1e-8
        # closed form: H(1) = 4/9 at p = 0.6, so the mass at infinity is 5/9
        pgf_heavy = Pgf(Thinned(DET2, 0.6))
        assert abs(pgf_heavy.eval(1.0) - 4.0 / 9.0) < 1e-10
        assert abs(pgf_heavy.defect() - 5.0 / 9.0) < 1e-10


def test_criterion_4_trinary_threshold():
    with _Timer(4, 5.0, "thinned trinary tree: endogeny boundary in p"):
        def criticality(p: float) -> float:
            pgf = Pgf(Thinned(Deterministic(3), p))
            return pgf.deriv(solve_mu1(pgf)) - 1.0

        lo, hi = 0.34, 0.45
        flo = criticality(lo)
        assert flo > 0.0 and criticality(hi) < 0.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if (criticality(mid) > 0.0) == (flo > 0.0):
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-8:
                break
        p_e = 0.5 * (lo + hi)
        target = (3.0 * math.sqrt(3.0) - 4.0) / (3.0 * math.sqrt(3.0) - 2.0)
        assert abs(p_e - target) < 1e-6


def test_criterion_5_brute_force_endogeny_oracle():
    with _Timer(5, 10.0, "exhaustive boundary enumeration reproduces C"):
        spec = FinitePmf({1: 0.3, 2: 0.4, 3: 0.2}, infinity_mass=0.1)
        mu1 = solve_mu1(Pgf(spec))
        # one batch: its forest is rebuilt from stream (505, 0), whose family
        # sizes are drawn before any uniform
        reps = 300
        c_roots = endogeny_diagnostic(spec, mu1, 3, reps, seed=505)[2]
        forest = _sample_forest(spec, 3, reps, derive(505, 0))
        trees = [(r, forest_tree(forest.fams, forest.rep_counts, r)) for r in range(reps)]
        small = [(r, tree) for r, tree in trees if 1 <= leaf_count(tree) <= 12][:50]
        assert len(small) == 50
        for r, tree in small:
            assert abs(c_roots[r] - brute_force_root_probability(tree, mu1)) < 1e-12


def test_criterion_6_monte_carlo_concordance():
    with _Timer(6, 60.0, "MC moments and endogeny diagnostics at depth 12"):
        pgf = Pgf(DET2)
        mu1 = solve_mu1(pgf)
        mu2 = build_fixed_point_report(pgf).mu2
        mc = mc_moments(DET2, mu1, 12, 100_000, seed=11)
        assert abs(mc.mean_C - mu1) <= 3.0 * mc.se_mean + 1e-9
        assert abs(mc.m2_C - mu2) <= 3.0 * mc.se_m2 + 1e-9
        diag = endogeny_diagnostic(DET2, mu1, 12, 100_000, seed=12)[1]
        gap = mu1 - mu2
        assert abs(gap - 0.236068) < 1e-6
        assert abs(diag.e_c_one_minus_c - gap) <= 3.0 * diag.se_e + 1e-9
        assert abs(diag.p_disagree - 2.0 * gap) <= 3.0 * diag.se_p
        stable_diag = endogeny_diagnostic(STABLE, solve_mu1(Pgf(STABLE)), 12, 150, seed=13)[1]
        assert abs(stable_diag.e_c_one_minus_c) <= 3.0 * stable_diag.se_e


def test_criterion_7_truncation_convergence():
    with _Timer(7, 60.0, "truncated family sizes: mean and m2 convergence"):
        pgf = Pgf(GEO)
        mus = [solve_mu1(truncated(pgf, n)) for n in range(1, 21)]
        assert abs(mus[0] - 0.5) < 1e-12
        quad_root = (-1.25 + math.sqrt(1.25 ** 2 + 3.0)) / 1.5
        assert abs(mus[1] - quad_root) < 1e-9
        assert abs(mus[1] - 0.59067) < 1e-5
        for a, b in zip(mus, mus[1:]):
            assert a <= b + 1e-12
        assert abs(solve_mu1(truncated(pgf, 40)) - 2.0 / 3.0) < 1e-6
        trunc16 = truncated(pgf, 16).spec
        mc_t = mc_moments(trunc16, solve_mu1(Pgf(trunc16)), 6, 2000, seed=71, node_cap=20_000_000)
        mc_u = mc_moments(GEO, solve_mu1(pgf), 6, 2000, seed=72, node_cap=20_000_000)
        combined = math.sqrt(mc_t.se_m2 ** 2 + mc_u.se_m2 ** 2)
        assert abs(mc_t.m2_C - mc_u.m2_C) <= 3.0 * combined


def test_criterion_8_basin_dichotomy():
    with _Timer(8, 120.0, "basin dichotomy: right-mean spread start, wrong mean, stable case"):
        pgf = Pgf(DET2)
        mu1 = solve_mu1(pgf)
        mu2 = build_fixed_point_report(pgf).mu2

        # (a) mean-mu1 non-discrete start: the moment recursion converges to
        # mu2 within 30 steps; the M = 1e5 empirical run follows the
        # transported moments step by step (4 SE) and approaches mu2.  The
        # sampled trajectory cannot *stay* at the repulsive fixed point: per
        # step resampling noise ~1/sqrt(M) is amplified by |f'(mu1)| > 1.
        nu0 = mean_matched_uniform(mu1, 100_000)
        analytic = (1.0, nu0.mean(), nu0.second_moment())
        for _ in range(30):
            analytic = moment_map(pgf, analytic)
        assert abs(analytic[2] - mu2) < 1e-4
        cur = nu0
        rng = derive(2024, 0)
        closest = math.inf
        for _ in range(30):
            pred_m1 = 1.0 - pgf.eval(cur.mean())
            pred_m2 = 1.0 - 2.0 * pgf.eval(cur.mean()) + pgf.eval(cur.second_moment())
            cur = apply_T(cur, DET2, rng)
            se1 = cur.points.std(ddof=1) / math.sqrt(cur.size) + 1e-9
            se2 = (cur.points ** 2).std(ddof=1) / math.sqrt(cur.size) + 1e-9
            assert abs(cur.mean() - pred_m1) < 4.0 * se1
            assert abs(cur.second_moment() - pred_m2) < 4.0 * se2
            closest = min(closest, abs(cur.second_moment() - mu2))
        assert closest < 4e-3

        # (b) wrong mean: the (0,1) two-cycle appears in m1 by step 30
        recs = basin_test(point_mass(0.5, 100_000), DET2, 30, seed=7).records
        tail = [rec.m1 for rec in recs[-6:]]
        assert all(min(v, 1.0 - v) < 0.02 for v in tail)
        assert any(v < 0.5 for v in tail) and any(v > 0.5 for v in tail)

        # (c) stable spec from mean 0.2: analytic recursion reaches mu1 by
        # step 60 within 1e-3; the MC trajectory agrees within 4 SE
        pgf_s = Pgf(STABLE)
        mu1_s = solve_mu1(pgf_s)
        analytic_s = (1.0, 0.2, 0.04)
        for _ in range(60):
            analytic_s = moment_map(pgf_s, analytic_s)
        assert abs(analytic_s[1] - mu1_s) < 1e-3
        emp = basin_test(point_mass(0.2, 100_000), STABLE, 60, seed=8).records
        se = emp[-1].m1 * (1 - emp[-1].m1)
        se = math.sqrt(max(se, 0.01)) / math.sqrt(100_000)
        assert abs(emp[-1].m1 - mu1_s) < 4.0 * se
