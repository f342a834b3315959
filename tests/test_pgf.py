import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rde_lab.pgf as pgf_module
import rde_lab.sizes as sizes_module
from rde_lab.errors import DomainError, SpecValidationError
from rde_lab.pgf import (
    INF_SENTINEL,
    MAX_THINNING_DEPTH,
    Deterministic,
    FinitePmf,
    Geometric,
    Pgf,
    Thinned,
    require_analysis_assumptions,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from rde_lab.sizes import pmf_prefix, sample_family_sizes
from rde_lab.streams import derive

from oracles import centered_fd, chi_square_ok, thinned_binary_closed_form, thinned_deterministic_pmf, truncated

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


def test_thinning_nests_at_most_max_thinning_depth_levels():
    spec = DET2
    for _ in range(MAX_THINNING_DEPTH):
        spec = Thinned(spec, 0.6)
    validate_spec(spec)
    assert spec_from_json(spec_to_json(spec)) == spec
    with pytest.raises(SpecValidationError, match=r"at most MAX_THINNING_DEPTH = 4 levels"):
        validate_spec(Thinned(spec, 0.6))
    # far past the limit, neither the validator nor the JSON reader recurses down the chain
    deep, obj = DET2, spec_to_json(DET2)
    for _ in range(5000):
        deep, obj = Thinned(deep, 0.6), {"kind": "thinned", "p": 0.6, "base": obj}
    for check in (lambda: validate_spec(deep), lambda: Pgf(deep), lambda: spec_from_json(obj)):
        with pytest.raises(SpecValidationError, match=r"at most MAX_THINNING_DEPTH = 4 levels"):
            check()


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

def bounds_on(pgf, zs):
    """eval_bounds at each point of zs, as the arrays (lo, hi)."""
    lo, hi = zip(*(pgf.eval_bounds(z) for z in zs))
    return np.array(lo), np.array(hi)


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
    lo, hi = bounds_on(pgf, zs)
    exact = thinned_binary_closed_form(p, zs)
    assert np.array_equal(lo, pgf.eval(zs)) and np.all(hi >= lo)
    # 1e-15 covers roundoff in the closed form and in the last Newton step
    assert np.all(lo <= exact + 1e-15)
    assert np.all(exact <= hi + 1e-15)
    margin = 1.0 - p * np.array([Pgf(DET2).deriv(w) for w in p * lo + (1.0 - p) * zs])
    assert np.all((hi - lo)[margin >= 1e-3] <= 1e-13)
    if p == 0.5:
        # the double root at z = 1 is resolvable only to about sqrt(eps)
        assert margin[-1] < 1e-3
        assert hi[-1] - lo[-1] <= 1e-7


@pytest.mark.parametrize("spec", [DET2, Deterministic(3), GEO, FIN, FinitePmf({1: 0.3, 2: 0.7})])
def test_exact_specs_have_point_bounds(spec):
    pgf = Pgf(spec)
    zs = np.linspace(0.0, 1.0, 101)
    lo, hi = bounds_on(pgf, zs)
    assert np.array_equal(lo, pgf.eval(zs)) and np.array_equal(hi, lo)
    assert pgf.eval_bounds(0.3) == (pgf.eval(0.3), pgf.eval(0.3))


@pytest.mark.parametrize(
    "spec", [FinitePmf({1: 0.5, 2: 0.5000000000009}), Geometric(0.042780271335), Thinned(DET2, 0.45)]
)
def test_eval_and_bounds_stay_in_the_unit_interval(spec):
    # each of these evaluated H(1) above 1: mass 1 + 9e-13, cancellation, Newton roundoff
    zs = np.linspace(0.0, 1.0, 11)
    lo, hi = bounds_on(Pgf(spec), zs)
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
    # at a square-root singularity deriv reads +inf; a DomainError comes only
    # from s past it, off [0, 1]
    assert Pgf(TH05).deriv(1.0) == math.inf
    assert Pgf(TH05).deriv(1.0 - 1e-13) == math.inf
    for s in (1.0 + 1e-14, math.nan):
        with pytest.raises(DomainError):
            Pgf(TH05).deriv(s)


def test_deriv_or_inf_gives_inf_only_at_the_singularity():
    # deriv gives H'(s), or +inf only where H' blows up
    assert Pgf(TH05).deriv(1.0) == math.inf
    assert math.isfinite(Pgf(TH05).deriv(0.9))
    assert Pgf(DET2).deriv(0.5) == 1.0
    assert math.isfinite(Pgf(TH06).deriv(1.0))


# deriv at a spec with a finite slope, and at one whose slope is +inf at 1
# ("deriv_or_inf"): on both, bad input raises before any value is formed
SLOPE_CASES = [pytest.param(DET2, id="deriv"), pytest.param(TH05, id="deriv_or_inf")]


@pytest.mark.parametrize("s", [1.5, -3.0, 0.5 + 0j], ids=["above-one", "negative", "complex"])
@pytest.mark.parametrize("spec", SLOPE_CASES)
def test_deriv_rejects_s_outside_the_unit_interval(spec, s):
    with pytest.raises(DomainError):
        Pgf(spec).deriv(s)


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
    # eval maps an array over the float path, so each element has the float's bits
    pgf = Pgf(spec)
    floats = [pgf.eval(s) for s in FLOAT_POINTS]
    assert all(type(h) is float and type(pgf.deriv(s)) is float for s, h in zip(FLOAT_POINTS, floats))
    assert pgf.eval(np.array(FLOAT_POINTS)).tobytes() == np.array(floats).tobytes()
    for s, h in zip(FLOAT_POINTS, floats):
        assert pgf.eval(np.array([s])).tobytes() == np.array([h]).tobytes()
    for s in (0, 1):
        # an int takes the float path
        h, d, bounds = pgf.eval(s), pgf.deriv(s), pgf.eval_bounds(s)
        assert type(h) is float and type(d) is float and all(type(b) is float for b in bounds)
        assert (h, d, bounds) == (pgf.eval(float(s)), pgf.deriv(float(s)), pgf.eval_bounds(float(s)))


@pytest.mark.parametrize("s", [np.array(0.5), np.float32(0.5), np.float64(0.5)], ids=["0-d", "float32", "float64"])
@pytest.mark.parametrize("spec", [DET2, TH06])
def test_eval_of_a_numpy_scalar_is_a_float(spec, s):
    h = Pgf(spec).eval(s)
    assert type(h) is float and h == Pgf(spec).eval(0.5)


@pytest.mark.parametrize("s", [np.array([0.5]), [0.5], np.array([0.2, 0.4]), True],
                         ids=["one-element-array", "list", "array", "bool"])
@pytest.mark.parametrize("method, spec", [pytest.param("eval_bounds", TH05, id="eval_bounds"),
                                          *[pytest.param("deriv", *c.values, id=c.id) for c in SLOPE_CASES]])
def test_bounds_and_slopes_take_only_a_float_or_an_int(method, spec, s):
    with pytest.raises(DomainError):
        getattr(Pgf(spec), method)(s)


@pytest.mark.parametrize("s", [True, False, np.array([True])], ids=["true", "false", "bool-array"])
def test_eval_rejects_a_bool(s):
    with pytest.raises(DomainError):
        Pgf(DET2).eval(s)


@pytest.mark.parametrize("s", [math.nan, -1e-14, 1.0 + 1e-14, 0.5 + 0j], ids=["nan", "below", "above", "complex"])
@pytest.mark.parametrize("method", ["eval", "deriv", "eval_bounds"])
@pytest.mark.parametrize("spec", [DET2, TH05])
def test_nan_and_s_off_the_unit_interval_raise_on_both_paths(spec, method, s):
    # only eval takes an array, whose elements go through the float path;
    # eval_bounds and deriv reject any array, NaN and range aside
    for arg in (s, np.array([0.2, s])) if method == "eval" else (s,):
        with pytest.raises(DomainError):
            getattr(Pgf(spec), method)(arg)


@pytest.mark.parametrize("p", [1e-15, 1e-6, 0.3])
def test_a_critical_thinned_base_does_not_stop_the_newton_steps(p):
    # the base reads an infinite slope near 1, where its own Newton value is
    # within about sqrt(eps) of the double root; the steps there are plain
    # iterations, so H solves H = G(p H + q z) to that, where a stop would
    # leave the start 0 (at p = 1e-15, z = 1)
    pgf, base = Pgf(Thinned(TH05, p)), Pgf(TH05)
    for z in (1.0, 1.0 - 1e-13, 0.999):
        h = pgf.eval(z)
        assert abs(h - base.eval(p * h + (1.0 - p) * z)) <= 1e-7
        assert pgf.eval(np.array([z]))[0] == h


@pytest.mark.parametrize("method", ["eval", "deriv"])
def test_nested_thinning_solves_each_base_once_per_newton_step(monkeypatch, method):
    # a chain is solved as one flat thinning of its innermost base, so at
    # depth 4 it evaluates that base about as often as one level does (a
    # chain solved level by level took 185 evaluations here)
    chain = DET2
    for _ in range(4):
        chain = Thinned(chain, 0.6)
    calls, h = [0], pgf_module._h

    def counting_h(spec, s):
        assert not isinstance(spec, Thinned)
        calls[0] += 1
        return h(spec, s)

    monkeypatch.setattr(pgf_module, "_h", counting_h)
    for z in (0.3, 0.5, 1.0):
        counts = []
        for spec in (chain, Thinned(DET2, 0.6)):
            calls[0] = 0
            getattr(Pgf(spec), method)(z)
            counts.append(calls[0])
        assert 0 < counts[0] <= counts[1] + 2


# chains listed from the inside out, over bases of each kind
CHAIN_BASES = [DET2, Deterministic(3), Geometric(0.3), FinitePmf({2: 0.5, 3: 0.5})]
CHAINS = [(0.3, 0.6), (0.5, 1e-15), (0.9, 0.5), (0.4, 0.4, 0.4), (0.6, 0.7, 0.3),
          (0.3, 0.7, 0.6, 0.3), (0.2, 0.2, 0.2, 0.2)]


def nest(base, chain):
    for p in chain:
        base = Thinned(base, p)
    return base


def test_flat_thinning_multiplies_the_cut_probabilities():
    assert pgf_module.flat_thinning(Thinned(DET2, 0.3)) == (DET2, 0.3, 1.0 - 0.3)
    base, p, q = pgf_module.flat_thinning(nest(Geometric(0.3), (0.3, 0.6, 0.7)))
    assert base == Geometric(0.3)
    assert q == (1.0 - 0.7) * (1.0 - 0.6) * (1.0 - 0.3)
    assert p == pytest.approx(1.0 - 0.3 * 0.4 * 0.7, abs=1e-15)


@pytest.mark.parametrize("chain", CHAINS, ids=str)
@pytest.mark.parametrize("base", CHAIN_BASES, ids=["det2", "det3", "geometric0.3", "finite23"])
def test_a_chain_solves_its_own_nested_equation(base, chain):
    # H = H_inner(p H + q z) with H_inner the base one level in, and
    # H' = q H_inner'(w) / (1 - p H_inner'(w)) at w = p H + q z, within a few
    # ulps, and those of w's rounding times H_inner'(w); eval_bounds holds eval
    spec = nest(base, chain)
    pgf, inner = Pgf(spec), Pgf(spec.base)
    p, q = spec.p, 1.0 - spec.p
    eps = np.finfo(float).eps
    for z in np.linspace(0.0, 1.0, 101).tolist():
        h = pgf.eval(z)
        lo, hi = pgf.eval_bounds(z)
        assert lo <= h <= hi
        if base == DET2 and chain == (0.5, 1e-15) and z == 1.0:
            continue  # the double root, which floats resolve only to about sqrt(eps)
        w = p * h + q * z
        gp = inner.deriv(w)
        assert abs(h - inner.eval(w)) <= 4.0 * eps * (1.0 + gp)
        want = q * gp / (1.0 - p * gp)
        assert abs(pgf.deriv(z) - want) <= 16.0 * eps * want * (1.0 + gp)


def test_a_chain_whose_flat_p_rounds_to_one_evaluates():
    # q = 2**-106 survives as a product, where 1 - p = 0
    spec = nest(DET2, (1.0 - 2.0**-53, 1.0 - 2.0**-53))
    assert pgf_module.flat_thinning(spec) == (DET2, 1.0, 2.0**-106)
    pgf = Pgf(spec)
    # H(z) = (p H + q z)^2 has its least root at (q z)^2 up to a relative O(q)
    for z in (0.0, 0.5, 1.0):
        assert pgf.eval(z) == (2.0**-106 * z) ** 2
        assert pgf.deriv(z) == pytest.approx(2.0 * 2.0**-212 * z, rel=1e-15, abs=0.0)
        lo, hi = pgf.eval_bounds(z)
        assert lo == pgf.eval(z) <= hi <= 16.0 * np.finfo(float).eps  # the bracket's roundoff level


def test_deriv_finite_at_one_when_not_singular():
    assert Pgf(TH06).deriv(1.0) == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert Pgf(Thinned(DET2, 0.4)).deriv(1.0) == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------- truncation

def test_truncate_examples():
    assert truncated(Pgf(GEO), 1).spec == FinitePmf({1: 1.0}, 0.0)
    t3 = truncated(Pgf(DET2), 3)
    assert t3.spec.weights == {2: 1.0}
    t2 = truncated(Pgf(FIN), 2)
    assert t2.spec.weights == {2: 1.0}


def test_truncation_dominates_and_decreases():
    # convergence H_n -> H is uniform only on compacts of [0,1)
    zs = np.linspace(0.0, 0.9, 40)
    for spec in (GEO, FIN, TH06):
        pgf = Pgf(spec)
        h = pgf.eval(zs)
        prev = None
        for n in range(1, 11):
            hn = truncated(pgf, n).eval(zs)
            assert np.all(hn >= h - 1e-12)
            if prev is not None:
                assert np.all(hn <= prev + 1e-12)
            prev = hn
        assert np.max(np.abs(truncated(pgf, 200).eval(zs) - h)) < 1e-6


def test_truncated_is_never_defective():
    for spec in (GEO, FIN, TH06):
        for n in (1, 2, 5):
            assert truncated(Pgf(spec), n).defect() == pytest.approx(0.0, abs=1e-12)


def test_thinned_pmf_prefix_oracle():
    # binary base, p = 0.4: P(N=2) = q^2, P(N=3) = 2pq * q^2
    p, q = 0.4, 0.6
    prefix, tail = pmf_prefix(Thinned(DET2, p), 5)
    assert prefix[1] == pytest.approx(0.0, abs=1e-10)
    assert prefix[2] == pytest.approx(q * q, abs=1e-10)
    assert prefix[3] == pytest.approx(2 * p * q * q * q, abs=1e-10)
    assert tail == pytest.approx(1.0 - prefix.sum(), abs=1e-12)


@pytest.mark.parametrize("d, p", [(2, 0.3), (2, 0.5), (2, 0.6), (3, 0.4)])
def test_thinned_pmf_prefix_matches_total_progeny(d, p):
    prefix, tail = pmf_prefix(Thinned(Deterministic(d), p), 1000)
    exact = thinned_deterministic_pmf(d, p, 1000)
    assert np.max(np.abs(prefix - exact)) <= 1e-14
    assert tail == pytest.approx(1.0 - exact.sum(), abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [Thinned(Geometric(0.3), 0.4), Thinned(TH06, 0.5), Thinned(FinitePmf({1: 0.2, 3: 0.5}, 0.3), 0.5)],
)
def test_thinned_pmf_prefix_series_matches_eval(spec):
    pgf = Pgf(spec)
    prefix, _ = pmf_prefix(pgf.spec, 1000)
    zs = np.array([0.2, 0.5, 0.8])
    series = np.array([np.sum(prefix * z ** np.arange(prefix.size)) for z in zs])
    assert np.max(np.abs(series - pgf.eval(zs))) <= 1e-14


def test_thinned_pmf_prefix_below_smallest_family():
    prefix, tail = pmf_prefix(Thinned(Deterministic(3), 0.4), 3)
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
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
    draws = sample_family_sizes(TH06, 100_000, derive(3, 0))
    emp = float((draws == INF_SENTINEL).mean())
    target = 5.0 / 9.0
    se = math.sqrt(target * (1.0 - target) / draws.size)
    assert abs(emp - target) < 3.0 * se
    assert int(sample_family_sizes(TH06, 1, derive(3, 1))[0]) in {INF_SENTINEL} | set(range(2, 10_000))


def test_sample_thinned_pmf_matches_series_coefficients(monkeypatch):
    spec = Thinned(DET2, 0.4)
    prefix, _ = pmf_prefix(spec, 6)
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
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
    prefix, _ = pmf_prefix(spec, 6)
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
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
    support, probs = sizes_module._support_and_probs(spec)
    want = derive(8, 0).choice(support, size=1_000_000, p=probs)
    for short_cdf in (sizes_module.SHORT_CDF, 0):  # counting thresholds where the cdf is short, then binary search
        monkeypatch.setattr(sizes_module, "SHORT_CDF", short_cdf)
        got = sample_family_sizes(spec, 1_000_000, derive(8, 0))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, p", [(2, 0.3), (3, 0.4)])
def test_thinned_table_draws_follow_the_total_progeny_law(d, p):
    spec = Thinned(Deterministic(d), p)
    assert sizes_module._inverse_cdf_table(spec) is not None
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
    cdf, values = sizes_module._inverse_cdf_table(spec)
    lo, hi = Pgf(spec).eval_bounds(1.0)
    assert lo - cdf.size * np.finfo(float).eps <= cdf[-1] <= hi
    assert values.tolist() == list(range(cdf.size)) + [INF_SENTINEL]


def test_a_nested_spec_draws_from_the_table_of_its_flat_law():
    # thinning det3 by 0.3 and then by 0.2 cuts a line with q = 0.7 * 0.8; the
    # nested spec gets the one-level inverse-CDF table, where a pruning
    # sampler that drew the inner thinning node by node ran out of memory
    spec = Thinned(Thinned(Deterministic(3), 0.3), 0.2)
    assert sizes_module._inverse_cdf_table(spec) is not None
    draws = sample_family_sizes(spec, 200_000, derive(14, 0))
    n = 64
    exact = thinned_deterministic_pmf(3, 1.0 - 0.7 * 0.8, n)
    counts = np.bincount(draws, minlength=n)[:n].astype(float)
    counts[INF_SENTINEL] = draws.size - counts[1:].sum()
    exact[INF_SENTINEL] = 1.0 - exact[1:].sum()
    assert chi_square_ok(counts, exact)
    assert np.max(np.abs(pmf_prefix(spec, n)[0][1:] - exact[1:])) <= 1e-14


def test_a_unit_base_chain_whose_flat_p_rounds_to_one_keeps_its_table():
    # every line of a unit base is one child, so N = 1; the series divides by
    # 1 - p*g_1 = q, which the flat p, rounded to 1.0, would make 0
    spec = Thinned(Thinned(FinitePmf({1: 1.0}), 1.0 - 2.0**-53), 1.0 - 2.0**-53)
    probs, tail = pmf_prefix(spec, 4)
    assert probs.tolist() == [0.0, 1.0, 0.0, 0.0] and tail == 0.0
    assert sample_family_sizes(spec, 1000, derive(15, 0)).tolist() == [1] * 1000


def test_critical_thinned_draws_take_the_budgeted_fallback(monkeypatch):
    # the p = 1/2 tail decays like k^-1/2, so no table within the work cap reaches H(1) = 1
    assert sizes_module._inverse_cdf_table(TH05) is None
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
    got = sample_family_sizes(TH05, 20_000, derive(11, 0))
    want = sizes_module._sample_thinned(TH05, 20_000, derive(11, 0))
    assert got.tobytes() == want.tobytes()


def test_geometric_base_table_stops_at_the_work_cap(monkeypatch):
    spec = Thinned(Geometric(0.3), 0.4)
    sizes = []
    real_prefix = sizes_module._thinned_prefix

    def recording_prefix(g, p, q):
        sizes.append(g.size)
        return real_prefix(g, p, q)

    monkeypatch.setattr(sizes_module, "_thinned_prefix", recording_prefix)
    assert sizes_module._thinned_cdf(spec) is None
    # the 256-entry table falls short of H(1); 512 entries would cost 512^2 * 511 > TABLE_WORK
    assert sizes == [256]
    assert 512 * 512 * 511 > sizes_module.TABLE_WORK >= 256 * 256 * 255
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
    assert sample_family_sizes(spec, 1000, derive(12, 0)).tobytes() == (
        sizes_module._sample_thinned(spec, 1000, derive(12, 0)).tobytes()
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
    prefix, _ = pmf_prefix(spec, 6)
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 10_000)
    draws = sizes_module._sample_thinned(spec, 100_000, derive(13, 0))
    for k, target in [(k, prefix[k]) for k in range(1, 6)] + [(INF_SENTINEL, Pgf(spec).defect())]:
        emp = float((draws == k).mean())
        se = math.sqrt(max(target * (1.0 - target), 1e-12) / draws.size)
        assert abs(emp - target) < 3.0 * se


def test_sample_family_sizes_at_least_one(monkeypatch):
    monkeypatch.setattr(sizes_module, "SAMPLE_BUDGET", 5_000)
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
