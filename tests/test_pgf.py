import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rde_lab.pgf as pgf_module
from rde_lab.errors import DomainError, SpecValidationError
from rde_lab.pgf import (
    INF_SENTINEL,
    Deterministic,
    FinitePmf,
    Geometric,
    Pgf,
    Thinned,
    require_analysis_assumptions,
    sample_family_sizes,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from rde_lab.streams import derive

from oracles import centered_fd, chi_square_ok, thinned_binary_closed_form, thinned_deterministic_pmf

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DET2 = Deterministic(2)
GEO = Geometric(0.25)
FIN = FinitePmf({2: 0.5}, infinity_mass=0.5)
TH05 = Thinned(DET2, 0.5)
TH06 = Thinned(DET2, 0.6)

ALL_SPECS = [DET2, Deterministic(3), GEO, Geometric(0.5), FIN,
             FinitePmf({1: 0.3, 2: 0.7}), TH05, TH06, Thinned(DET2, 0.4),
             Thinned(Deterministic(3), 0.45)]


# ---------------------------------------------------------------- validation

def test_validation_rejects_mass_at_zero():
    with pytest.raises(SpecValidationError):
        validate_spec(FinitePmf({0: 0.5, 2: 0.5}))


def test_validation_rejects_bad_total_mass():
    with pytest.raises(SpecValidationError):
        validate_spec(FinitePmf({1: 0.3, 2: 0.3}))


@pytest.mark.parametrize("spec", [Deterministic(1), Deterministic(0), Geometric(0.0),
                                  Geometric(1.0), Thinned(DET2, 0.0), Thinned(DET2, 1.0),
                                  Deterministic(2**53 + 1), Deterministic(10**400),
                                  FinitePmf({2: 0.5, 2**53 + 1: 0.5}), FinitePmf({2: 0.5, 2**63: 0.5}),
                                  Geometric(10**400), FinitePmf({2: 1.0}, infinity_mass=10**400),
                                  FinitePmf({2: 10**400}), Thinned(DET2, 10**400),
                                  Thinned(Deterministic(2**63), 0.5)])
def test_validation_rejects_bad_parameters(spec):
    with pytest.raises(SpecValidationError):
        validate_spec(spec)


def test_analysis_assumptions_reject_degenerate_support():
    with pytest.raises(SpecValidationError):
        require_analysis_assumptions(FinitePmf({1: 1.0}))
    require_analysis_assumptions(FIN)
    require_analysis_assumptions(TH05)


@pytest.mark.parametrize(
    "spec",
    [
        Thinned(FinitePmf({1: 1.0}), 0.5),
        Thinned(FinitePmf({1: 0.5}, infinity_mass=0.5), 0.3),
        Thinned(Thinned(FinitePmf({1: 1.0}), 0.5), 0.4),
    ],
    ids=["unit", "unit-or-infinite", "doubly-thinned-unit"],
)
def test_analysis_assumptions_reject_thinned_base_without_finite_k2(spec):
    # a base on {1, infinity} thins to N in {1, infinity}
    with pytest.raises(SpecValidationError, match=r"^P\(2 <= N < infinity\) > 0 is required"):
        require_analysis_assumptions(spec)


@pytest.mark.parametrize(
    "spec",
    [Thinned(FinitePmf({1: 1.0 - 1e-13, 2: 1e-13}), 0.5), Thinned(Thinned(DET2, 0.5), 0.5)],
    ids=["near-linear", "doubly-thinned-binary"],
)
def test_analysis_assumptions_accept_thinned_base_with_finite_k2(spec):
    # the root's k base children can all be cut, so P(N = k) > 0
    require_analysis_assumptions(spec)


# ---------------------------------------------------------------- evaluation

def test_eval_deterministic_square():
    pgf = Pgf(DET2)
    assert pgf.eval(0.618034) == pytest.approx(0.381966, abs=1e-6)
    assert pgf.eval(GOLDEN) == pytest.approx(1.0 - GOLDEN, abs=1e-15)


def test_eval_thinned_binary_matches_closed_form():
    # H(z) = (1 - 2pqz - sqrt(1 - 4pqz)) / (2 p^2); at p=1/2, z=3/4 it is 1/4
    pgf = Pgf(TH05)
    assert pgf.eval(0.75) == pytest.approx(0.25, abs=1e-12)
    zs = np.linspace(0.0, 1.0, 101)
    for p in (0.4, 0.5, 0.6):
        h = Pgf(Thinned(DET2, p)).eval(zs)
        # the double root at (p=1/2, z=1) is only resolvable to ~sqrt(eps)
        assert np.max(np.abs(h - thinned_binary_closed_form(p, zs))) < 5e-8


def test_eval_thinned_defective_at_supercritical_p():
    pgf = Pgf(TH06)
    assert pgf.eval(1.0) == pytest.approx(4.0 / 9.0, abs=1e-10)
    assert pgf.defect() == pytest.approx(5.0 / 9.0, abs=1e-10)


def test_defect_vanishes_when_pruning_subcritical():
    assert Pgf(Thinned(DET2, 0.4)).defect() < 1e-12
    assert Pgf(Thinned(DET2, 0.5)).defect() < 1e-6


def test_thinned_fixed_point_residual_on_grid():
    zs = np.linspace(0.0, 1.0, 101)
    for p in (0.3, 0.5, 0.6):
        spec = Thinned(DET2, p)
        h = Pgf(spec).eval(zs)
        resid = np.abs(h - Pgf(DET2).eval(p * h + (1.0 - p) * zs))
        assert resid.max() < 1e-12


@pytest.mark.parametrize("p", [0.4, 0.5, 0.6])
def test_thinned_bounds_bracket_closed_form(p):
    zs = np.linspace(0.0, 1.0, 101)
    pgf = Pgf(Thinned(DET2, p))
    lo, hi = pgf.eval_bounds(zs)
    exact = thinned_binary_closed_form(p, zs)
    assert np.array_equal(lo, pgf.eval(zs)) and np.all(hi >= lo)
    # 1e-15 covers roundoff in the closed form and in the last Newton step
    assert np.all(lo <= exact + 1e-15)
    assert np.all(exact <= hi + 1e-15)
    margin = 1.0 - p * Pgf(DET2).deriv(p * lo + (1.0 - p) * zs)
    assert np.all((hi - lo)[margin >= 1e-3] <= 1e-13)
    if p == 0.5:
        # the double root at z = 1 is resolvable only to about sqrt(eps)
        assert margin[-1] < 1e-3
        assert hi[-1] - lo[-1] <= 1e-7


@pytest.mark.parametrize("spec", [DET2, Deterministic(3), GEO, FIN, FinitePmf({1: 0.3, 2: 0.7})])
def test_exact_specs_have_point_bounds(spec):
    pgf = Pgf(spec)
    zs = np.linspace(0.0, 1.0, 101)
    lo, hi = pgf.eval_bounds(zs)
    assert np.array_equal(lo, pgf.eval(zs)) and np.array_equal(hi, lo)
    assert pgf.eval_bounds(0.3) == (pgf.eval(0.3), pgf.eval(0.3))


@pytest.mark.parametrize(
    "spec", [FinitePmf({1: 0.5, 2: 0.5000000000009}), Geometric(0.042780271335), Thinned(DET2, 0.45)]
)
def test_eval_and_bounds_stay_in_the_unit_interval(spec):
    # each of these evaluated H(1) above 1: mass 1 + 9e-13, cancellation, Newton roundoff
    zs = np.linspace(0.0, 1.0, 11)
    lo, hi = Pgf(spec).eval_bounds(zs)
    assert np.all(0.0 <= lo) and np.all(lo <= hi) and np.all(hi <= 1.0)
    assert np.array_equal(Pgf(spec).eval(zs), lo)


def test_thinned_bounds_scalar():
    lo, hi = Pgf(TH05).eval_bounds(1.0)
    assert isinstance(lo, float) and isinstance(hi, float)
    assert lo <= 1.0 == hi
    assert Pgf(TH05).eval_bounds(0.75)[0] == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_grid_shape_invariants(spec):
    pgf = Pgf(spec)
    zs = np.linspace(0.0, 1.0, 101)
    h = pgf.eval(zs)
    assert h[0] == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(h) >= -1e-12)
    assert np.all(np.diff(h, 2) >= -1e-9)
    assert h[-1] <= 1.0 + 1e-12


# ---------------------------------------------------------------- derivative

def test_deriv_examples():
    assert Pgf(DET2).deriv(0.618034) == pytest.approx(1.236068, abs=1e-6)
    assert Pgf(GEO).deriv(2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    # H'(0) = P(N = 1)
    assert Pgf(GEO).deriv(0.0) == pytest.approx(0.25, abs=1e-14)
    assert Pgf(FinitePmf({1: 0.3, 2: 0.7})).deriv(0.0) == pytest.approx(0.3, abs=1e-14)
    assert Pgf(TH05).deriv(0.0) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_deriv_matches_centered_difference(spec):
    pgf = Pgf(spec)
    for s in np.linspace(0.05, 0.9, 12):
        fd = centered_fd(pgf.eval, float(s))
        assert pgf.deriv(float(s)) == pytest.approx(fd, abs=1e-6)


def test_deriv_singularity_raises_domain_error():
    with pytest.raises(DomainError):
        Pgf(TH05).deriv(1.0)
    with pytest.raises(DomainError):
        Pgf(TH05).deriv(1.0 - 1e-13)


def test_deriv_or_inf_gives_inf_only_at_the_singularity():
    assert Pgf(TH05).deriv_or_inf(1.0) == math.inf
    assert Pgf(DET2).deriv_or_inf(0.5) == 1.0


@pytest.mark.parametrize("s", [1.5, -3.0, 0.5 + 0j], ids=["above-one", "negative", "complex"])
@pytest.mark.parametrize("method", ["deriv", "deriv_or_inf"])
def test_deriv_rejects_s_outside_the_unit_interval(method, s):
    with pytest.raises(DomainError):
        getattr(Pgf(DET2), method)(s)


def test_eval_rejects_complex_argument():
    with pytest.raises(DomainError):
        Pgf(TH05).eval(np.array([0.5j]))
    with pytest.raises(DomainError):
        Pgf(DET2).eval(0.5 + 0.0j)


FIN5 = FinitePmf({1: 0.2, 2: 0.3, 5: 0.4}, infinity_mass=0.1)
EXPLICIT_SPECS = [DET2, Deterministic(3), Deterministic(7), GEO, FIN5]
THINNED_SPECS = [Thinned(DET2, 0.3), Thinned(Deterministic(3), 0.4), Thinned(Geometric(0.3), 0.4),
                 Thinned(FIN5, 0.45), Thinned(Thinned(DET2, 0.6), 0.7), TH06, Thinned(DET2, 0.499999)]
FLOAT_POINTS = [0.0, 1.0, 1.0 - 1e-16, 5e-324, 1e-310, *np.linspace(0.0, 1.0, 41).tolist()]


@pytest.mark.parametrize("spec", EXPLICIT_SPECS + THINNED_SPECS + [TH05])
def test_a_float_and_a_one_element_array_agree(spec):
    # a float takes eval's and deriv_or_inf's float path, an array the array one
    pgf = Pgf(spec)
    for s in FLOAT_POINTS:
        h, d = pgf.eval(s), pgf.deriv_or_inf(s)
        assert type(h) is float and type(d) is float
        one = np.array([s])
        h_arr, d_arr = pgf.eval(one)[0], pgf.deriv_or_inf(one)[0]
        if spec in EXPLICIT_SPECS:
            assert abs(h - h_arr) <= 2 * math.ulp(h_arr) and abs(d - d_arr) <= 2 * math.ulp(d_arr)
        elif spec == TH05:
            lo, hi = pgf.eval_bounds(one)
            assert lo[0] - 1e-8 <= h <= hi[0] + 1e-8
        else:
            assert math.isclose(h, h_arr, rel_tol=1e-13) and math.isclose(d, d_arr, rel_tol=1e-13)


@pytest.mark.parametrize("s", [math.nan, -1e-14, 1.0 + 1e-14, 0.5 + 0j], ids=["nan", "below", "above", "complex"])
@pytest.mark.parametrize("method", ["eval", "deriv_or_inf"])
@pytest.mark.parametrize("spec", [DET2, TH05])
def test_nan_and_s_off_the_unit_interval_raise_on_both_paths(spec, method, s):
    for arg in (s, np.array([0.2, s])):
        with pytest.raises(DomainError):
            getattr(Pgf(spec), method)(arg)


def test_deriv_finite_at_one_when_not_singular():
    assert Pgf(TH06).deriv(1.0) == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert Pgf(Thinned(DET2, 0.4)).deriv(1.0) == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------- truncation

def test_truncate_examples():
    assert Pgf(GEO).truncated(1).spec == FinitePmf({1: 1.0}, 0.0)
    t3 = Pgf(DET2).truncated(3)
    assert t3.spec.weights == {2: 1.0}
    t2 = Pgf(FIN).truncated(2)
    assert t2.spec.weights == {2: 1.0}


def test_truncation_dominates_and_decreases():
    # convergence H_n -> H is uniform only on compacts of [0,1)
    zs = np.linspace(0.0, 0.9, 40)
    for spec in (GEO, FIN, TH06):
        pgf = Pgf(spec)
        h = pgf.eval(zs)
        prev = None
        for n in range(1, 11):
            hn = pgf.truncated(n).eval(zs)
            assert np.all(hn >= h - 1e-12)
            if prev is not None:
                assert np.all(hn <= prev + 1e-12)
            prev = hn
        assert np.max(np.abs(pgf.truncated(200).eval(zs) - h)) < 1e-6


def test_truncated_is_never_defective():
    for spec in (GEO, FIN, TH06):
        for n in (1, 2, 5):
            assert Pgf(spec).truncated(n).defect() == pytest.approx(0.0, abs=1e-12)


def test_thinned_pmf_prefix_oracle():
    # binary base, p = 0.4: P(N=2) = q^2, P(N=3) = 2pq * q^2
    p, q = 0.4, 0.6
    prefix, tail = Pgf(Thinned(DET2, p)).pmf_prefix(5)
    assert prefix[1] == pytest.approx(0.0, abs=1e-10)
    assert prefix[2] == pytest.approx(q * q, abs=1e-10)
    assert prefix[3] == pytest.approx(2 * p * q * q * q, abs=1e-10)
    assert tail == pytest.approx(1.0 - prefix.sum(), abs=1e-12)


@pytest.mark.parametrize("d, p", [(2, 0.3), (2, 0.5), (2, 0.6), (3, 0.4)])
def test_thinned_pmf_prefix_matches_total_progeny(d, p):
    prefix, tail = Pgf(Thinned(Deterministic(d), p)).pmf_prefix(1000)
    exact = thinned_deterministic_pmf(d, p, 1000)
    assert np.max(np.abs(prefix - exact)) <= 1e-14
    assert tail == pytest.approx(1.0 - exact.sum(), abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [Thinned(Geometric(0.3), 0.4), Thinned(TH06, 0.5), Thinned(FinitePmf({1: 0.2, 3: 0.5}, 0.3), 0.5)],
)
def test_thinned_pmf_prefix_series_matches_eval(spec):
    pgf = Pgf(spec)
    prefix, _ = pgf.pmf_prefix(1000)
    zs = np.array([0.2, 0.5, 0.8])
    series = np.array([np.sum(prefix * z ** np.arange(prefix.size)) for z in zs])
    assert np.max(np.abs(series - pgf.eval(zs))) <= 1e-14


def test_thinned_pmf_prefix_below_smallest_family():
    prefix, tail = Pgf(Thinned(Deterministic(3), 0.4)).pmf_prefix(3)
    assert not prefix.any() and tail == 1.0


# ---------------------------------------------------------------- JSON forms

def test_spec_json_round_trip():
    for spec in ALL_SPECS:
        blob = spec_to_json(spec)
        again = spec_from_json(json.loads(json.dumps(blob)))
        assert spec_to_json(again) == blob


def test_spec_json_examples():
    assert spec_from_json({"kind": "geometric", "alpha": 0.25}) == GEO
    assert spec_from_json({"kind": "deterministic", "d": 2}) == DET2
    thin = spec_from_json({"kind": "thinned", "p": 0.5, "base": {"kind": "deterministic", "d": 2}})
    assert thin == TH05
    fin = spec_from_json({"kind": "finite", "pmf": {"1": 0.3, "2": 0.7}, "infinity_mass": 0.0})
    assert fin.weights == {1: 0.3, 2: 0.7}


def test_spec_json_rejects_malformed():
    with pytest.raises(SpecValidationError):
        spec_from_json({"kind": "nope"})
    with pytest.raises(SpecValidationError):
        spec_from_json({"kind": "geometric"})


# ----------------------------------------------------------------- sampling

def test_sample_deterministic_is_constant():
    draws = sample_family_sizes(Deterministic(3), 1000, derive(0, 0))
    assert np.all(draws == 3)
    assert sample_family_sizes(Deterministic(3), 1, derive(0, 1)).tolist() == [3]


def test_sample_geometric_mean():
    draws = sample_family_sizes(GEO, 1_000_000, derive(1, 0))
    se = draws.std() / 1000.0
    assert abs(draws.mean() - 4.0) < 3.0 * se


def test_sample_finite_matches_weights():
    spec = FinitePmf({1: 0.2, 3: 0.5}, infinity_mass=0.3)
    draws = sample_family_sizes(spec, 1_000_000, derive(2, 0))
    for k, target in ((1, 0.2), (3, 0.5), (INF_SENTINEL, 0.3)):
        emp = float((draws == k).mean())
        se = math.sqrt(target * (1.0 - target) / draws.size)
        assert abs(emp - target) < 3.0 * se


def test_sample_thinned_infinity_probability(monkeypatch):
    # defect of the p=0.6 pruned binary tree is 5/9
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    draws = sample_family_sizes(TH06, 100_000, derive(3, 0))
    emp = float((draws == INF_SENTINEL).mean())
    target = 5.0 / 9.0
    se = math.sqrt(target * (1.0 - target) / draws.size)
    assert abs(emp - target) < 3.0 * se
    assert int(sample_family_sizes(TH06, 1, derive(3, 1))[0]) in {INF_SENTINEL} | set(range(2, 10_000))


def test_sample_thinned_pmf_matches_series_coefficients(monkeypatch):
    spec = Thinned(DET2, 0.4)
    prefix, _ = Pgf(spec).pmf_prefix(6)
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    draws = sample_family_sizes(spec, 200_000, derive(4, 0))
    for k in range(2, 6):
        target = prefix[k]
        emp = float((draws == k).mean())
        se = math.sqrt(max(target * (1.0 - target), 1e-12) / draws.size)
        assert abs(emp - target) < 3.0 * se


@pytest.mark.parametrize(
    "spec",
    [Thinned(FinitePmf({1: 0.2, 2: 0.5, 3: 0.3}), 0.4), Thinned(FinitePmf({2: 0.5}, infinity_mass=0.5), 0.3)],
    ids=["finite-base", "finite-inf-base"],
)
def test_sample_thinned_finite_base_matches_series_coefficients(monkeypatch, spec):
    prefix, _ = Pgf(spec).pmf_prefix(6)
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    draws = sample_family_sizes(spec, 200_000, derive(6, 0))
    for k, target in [(k, prefix[k]) for k in range(1, 6)] + [(INF_SENTINEL, Pgf(spec).defect())]:
        emp = float((draws == k).mean())
        se = math.sqrt(max(target * (1.0 - target), 1e-12) / draws.size)
        assert abs(emp - target) < 3.0 * se


@pytest.mark.parametrize(
    "spec",
    [FinitePmf({2: 0.5, 3: 0.5}), FinitePmf({1: 0.2, 3: 0.1, 4: 0.3}, infinity_mass=0.4),
     FinitePmf({k: 0.1 for k in range(1, 11)})],
    ids=["2-point", "4-point", "10-point"],
)
def test_finite_draws_match_rng_choice_in_both_branches(monkeypatch, spec):
    support, probs = pgf_module._support_and_probs(spec)
    want = derive(8, 0).choice(support, size=1_000_000, p=probs)
    for short_cdf in (pgf_module.SHORT_CDF, 0):  # counting thresholds where the cdf is short, then binary search
        monkeypatch.setattr(pgf_module, "SHORT_CDF", short_cdf)
        got = sample_family_sizes(spec, 1_000_000, derive(8, 0))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, p", [(2, 0.3), (3, 0.4)])
def test_thinned_table_draws_follow_the_total_progeny_law(d, p):
    spec = Thinned(Deterministic(d), p)
    assert pgf_module._inverse_cdf_table(spec) is not None
    draws = sample_family_sizes(spec, 200_000, derive(9, d))
    n = 64
    exact = thinned_deterministic_pmf(d, p, n)
    counts = np.bincount(draws, minlength=n)[:n].astype(float)
    # cells: each size below n, then the finite sizes >= n and the infinite family together
    counts[INF_SENTINEL] = draws.size - counts[1:].sum()
    exact[INF_SENTINEL] = 1.0 - exact[1:].sum()
    assert chi_square_ok(counts, exact)


def test_thinned_table_infinite_fraction_is_the_defect():
    spec = Thinned(Deterministic(3), 0.4)
    draws = sample_family_sizes(spec, 400_000, derive(10, 0))
    target = 1.0 - Pgf(spec).eval(1.0)
    se = math.sqrt(target * (1.0 - target) / draws.size)
    assert abs(float((draws == INF_SENTINEL).mean()) - target) < 3.0 * se


@pytest.mark.parametrize(
    "spec",
    [Thinned(DET2, 0.3), Thinned(DET2, 0.45), TH06, Thinned(Deterministic(3), 0.4),
     Thinned(FinitePmf({2: 0.5, 3: 0.5}), 0.9), Thinned(Thinned(DET2, 0.3), 0.5)],
)
def test_thinned_table_reaches_h1(spec):
    cdf, values = pgf_module._inverse_cdf_table(spec)
    lo, hi = Pgf(spec).eval_bounds(1.0)
    assert lo - cdf.size * np.finfo(float).eps <= cdf[-1] <= hi
    assert values.tolist() == list(range(cdf.size)) + [INF_SENTINEL]


def test_critical_thinned_draws_take_the_budgeted_fallback(monkeypatch):
    # the p = 1/2 tail decays like k^-1/2, so no table within the work cap reaches H(1) = 1
    assert pgf_module._inverse_cdf_table(TH05) is None
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    got = sample_family_sizes(TH05, 20_000, derive(11, 0))
    want = pgf_module._sample_thinned(TH05, 20_000, derive(11, 0))
    assert got.tobytes() == want.tobytes()


def test_geometric_base_table_stops_at_the_work_cap(monkeypatch):
    spec = Thinned(Geometric(0.3), 0.4)
    sizes = []
    real_prefix = Pgf.pmf_prefix

    def recording_prefix(self, n):
        sizes.append((self.spec, n))
        return real_prefix(self, n)

    monkeypatch.setattr(Pgf, "pmf_prefix", recording_prefix)
    assert pgf_module._thinned_cdf(spec) is None
    # the 256-entry table falls short of H(1); 512 entries would cost 512^2 * 511 > TABLE_WORK
    assert [n for s, n in sizes if s == spec] == [256]
    assert 512 * 512 * 511 > pgf_module.TABLE_WORK >= 256 * 256 * 255
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    assert sample_family_sizes(spec, 1000, derive(12, 0)).tobytes() == (
        pgf_module._sample_thinned(spec, 1000, derive(12, 0)).tobytes()
    )


@pytest.mark.parametrize(
    "spec",
    [TH06, Thinned(DET2, 0.4), Thinned(FinitePmf({1: 0.2, 2: 0.5, 3: 0.3}), 0.4),
     Thinned(FinitePmf({2: 0.5}, infinity_mass=0.5), 0.3), Thinned(FinitePmf({2: 0.5, 3: 0.5}), 0.9),
     Thinned(Geometric(0.3), 0.4)],
    ids=["binary-p0.6", "binary-p0.4", "finite-base", "finite-inf-base", "finite-base-p0.9", "geometric-base"],
)
def test_pruning_fallback_matches_series_coefficients(monkeypatch, spec):
    # the pruning process behind specs without a table, checked where the series is known
    prefix, _ = Pgf(spec).pmf_prefix(6)
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 10_000)
    draws = pgf_module._sample_thinned(spec, 100_000, derive(13, 0))
    for k, target in [(k, prefix[k]) for k in range(1, 6)] + [(INF_SENTINEL, Pgf(spec).defect())]:
        emp = float((draws == k).mean())
        se = math.sqrt(max(target * (1.0 - target), 1e-12) / draws.size)
        assert abs(emp - target) < 3.0 * se


def test_sample_family_sizes_at_least_one(monkeypatch):
    monkeypatch.setattr(pgf_module, "SAMPLE_BUDGET", 5_000)
    for spec in ALL_SPECS:
        draws = sample_family_sizes(spec, 2000, derive(5, 0))
        finite = draws[draws != INF_SENTINEL]
        assert np.all(finite >= 1)


# ------------------------------------------------------------ property tests

@st.composite
def finite_pmf_specs(draw):
    support = draw(st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=4, unique=True))
    w1 = draw(st.floats(min_value=0.0, max_value=2.0))
    ws = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in support]
    w_inf = draw(st.floats(min_value=0.0, max_value=1.0))
    total = w1 + sum(ws) + w_inf
    weights = {1: w1 / total} if w1 > 0 else {}
    weights.update({k: w / total for k, w in zip(support, ws)})
    return FinitePmf(weights, infinity_mass=w_inf / total)


@settings(max_examples=40, deadline=None)
@given(finite_pmf_specs())
def test_random_finite_specs_grid_invariants(spec):
    pgf = Pgf(spec)
    zs = np.linspace(0.0, 1.0, 101)
    h = pgf.eval(zs)
    assert h[0] == pytest.approx(0.0, abs=1e-14)
    assert np.all(np.diff(h) >= -1e-12)
    assert np.all(np.diff(h, 2) >= -1e-9)
    assert abs((1.0 - h[-1]) - spec.infinity_mass) < 1e-10
