import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rde_lab.distiter as distiter
import rde_lab.simulate as simulate
from rde_lab.analysis import (
    MomentKind,
    build_fixed_point_report,
    finite_depth_moments,
    moment_map,
    moment_sequence,
    solve_mu1,
)
from rde_lab.distiter import (
    EmpiricalDist,
    apply_T,
    basin_test,
    bernoulli_two_point,
    is_two_point_concentrated,
    mean_matched_uniform,
    point_mass,
)
from rde_lab.errors import DomainError, ResourceError, SpecValidationError
from rde_lab.pgf import ALPHA_FLOOR, INF_SENTINEL, Deterministic, FinitePmf, Geometric, Pgf, Thinned
from rde_lab.sizes import pmf_prefix, sample_family_sizes
from rde_lab.streams import derive

from oracles import chi_square_ok, conditional_root

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


def test_apply_bounds_the_child_draws(monkeypatch):
    monkeypatch.setattr(distiter, "MAX_CHILD_DRAWS", 1000)
    assert apply_T(point_mass(0.5, 500), DET2, derive(2, 0)).size == 500
    with pytest.raises(ResourceError, match="needs 1500 child draws"):
        apply_T(point_mass(0.5, 500), Deterministic(3), derive(2, 0))
    # children at 0 and 1 are counted, not drawn: a {0,1} sample draws none
    assert apply_T(bernoulli_two_point(0.6, 500), Deterministic(3), derive(2, 1)).size == 500
    # a family wider than a chunk draws its children from the whole sample
    with pytest.raises(ResourceError, match=r"needs [1-9]\d* child draws"):
        apply_T(bernoulli_two_point(0.6, 10), Geometric(ALPHA_FLOOR), derive(2, 2))


def _atoms_first(zeros, ones, interior, seed):
    """A sample of ``ones`` 1s, then ``zeros`` 0s, then ``interior`` points
    uniform on [0.5, 0.9], so that 1 - a product rounds to 1 only for
    families of 53 or more children."""
    return np.r_[np.ones(ones), np.zeros(zeros), 0.5 + 0.4 * derive(seed, 0).random(interior)]


def _counted(points, ones, zeros):
    """points, which begin with ``ones`` 1s and then ``zeros`` 0s, with those atoms held as counts."""
    assert np.all(points[:ones] == 1.0) and np.all(points[ones:ones + zeros] == 0.0)
    return EmpiricalDist._unchecked(points[ones + zeros:], ones, zeros)


@pytest.mark.parametrize("order", ["atoms-first", "shuffled", "zero-one"])
@pytest.mark.parametrize(
    "spec",
    [DET2, Deterministic(3), GEO, FIN, Thinned(DET2, 0.3)],
    ids=["det2", "det3", "geometric", "finite-inf", "thinned-table"],
)
def test_apply_one_step_laws_with_atoms(spec, order):
    # given the input sample, the output points are iid: 0 when every child
    # is 1, 1 when some child is 0 or the family is infinite, and
    # E[out^j] follows from H at the input's moments
    # atoms-first and zero-one hold their atoms as counts; shuffled holds every point in rest
    m = 40_000
    zeros, ones = (12_000, 16_000) if order != "zero-one" else (16_000, 24_000)
    points = _atoms_first(zeros, ones, m - zeros - ones, 11)
    if order == "shuffled":
        derive(11, 1).shuffle(points)
    nu = EmpiricalDist(points) if order == "shuffled" else _counted(points, ones, zeros)
    h = Pgf(spec).eval
    p0, p1 = float((points == 0.0).mean()), float((points == 1.0).mean())
    m1, m2 = float(points.mean()), float((points**2).mean())
    out = apply_T(nu, spec, derive(11, 2)).points
    for obs, want in [
        (out == 0.0, h(p1)),
        (out == 1.0, 1.0 - h(1.0 - p0)),
        (out, 1.0 - h(m1)),
        (out**2, 1.0 - 2.0 * h(m1) + h(m2)),
    ]:
        se = max(float(obs.std()), 1.0 / m) / math.sqrt(m)
        assert abs(float(obs.mean()) - want) < 4.0 * se


@pytest.mark.parametrize(
    "k, c, calls, zeros, ones, rest",
    [
        (1, 200_000, 1, 3, 4, 3),
        (5, 200_000, 1, 3, 4, 3),
        (5, 200_000, 1, 0, 6, 4),
        (4, 200_000, 1, 2, 0, 8),
        (60, 200_000, 1, 1, 59, 40),
        # at most k families without a 0 child: one binomial draw each
        (60, 50, 4000, 1, 59, 40),
    ],
    ids=["width1", "width5", "no-zeros", "no-ones", "width60", "width60-few-families"],
)
def test_atom_split_follows_the_binomial_law(k, c, calls, zeros, ones, rest):
    # cells: a 0 child, then j = 0..k children from the rest and the others 1
    rng = derive(12, k)
    cells = np.zeros(k + 2, dtype=np.int64)
    for _ in range(calls):
        veto, js, counts = distiter._atom_split(k, c, zeros, ones, rest, rng)
        assert veto + int(counts.sum()) == c
        cells[0] += veto
        np.add.at(cells, js + 1, counts)
    m = zeros + ones + rest
    p0, p1, pr = (Fraction(n, m) for n in (zeros, ones, rest))
    probs = [1 - (1 - p0) ** k] + [math.comb(k, j) * pr**j * p1 ** (k - j) for j in range(k + 1)]
    assert sum(probs) == 1
    assert chi_square_ok(cells, np.array([float(p) for p in probs]))


def test_apply_replays_an_atoms_first_input():
    # replay apply_T's draws: the count of each family size, then, in
    # ascending size, each size's split by distiter._atom_split, then the
    # child indices of each width class j >= 1 from the rest, in ascending j;
    # the output holds the 1s, then the 0s, then the width classes
    spec = FinitePmf({1: 0.3, 3: 0.4, 6: 0.1}, infinity_mass=0.2)
    pmf = {1: 0.3, 3: 0.4, 6: 0.1, INF_SENTINEL: 0.2}
    points = _atoms_first(80, 120, 200, 5)
    out = apply_T(_counted(points, 120, 80), spec, derive(5, 1))
    rng = derive(5, 1)
    tally = dict(zip(pmf, rng.multinomial(400, list(pmf.values())).tolist()))
    ones, widths = tally.pop(INF_SENTINEL), {}
    for k, c in sorted(tally.items()):
        veto, js, counts = distiter._atom_split(k, c, 80, 120, 200, rng)
        ones += veto
        for j, n in zip(js.tolist(), counts.tolist()):
            widths[j] = widths.get(j, 0) + n
    zeros = widths.pop(0)  # the families whose children are all 1
    rest = points[200:].tolist()
    want = [1.0] * ones + [0.0] * zeros
    for j, n in sorted(widths.items()):
        if n:
            idx = iter(rng.integers(0, len(rest), n * j).tolist())
            want += [1.0 - math.prod(rest[next(idx)] for _ in range(j)) for _ in range(n)]
    assert out.points.tolist() == want
    assert ones > 0 and zeros > 0


def test_apply_replays_wide_families_over_the_whole_sample(monkeypatch):
    # a family wider than a chunk is not split: it draws its child indices
    # over the whole sample, the 1s, then the 0s, then the rest, a chunk at
    # a time, which gives the indices of one draw; the families up to a
    # chunk are split and drawn from the rest as in the replay above
    monkeypatch.setattr(simulate, "CHUNK", 300)
    spec = FinitePmf({1: 0.3, 3: 0.3, 700: 0.2}, infinity_mass=0.2)
    pmf = {1: 0.3, 3: 0.3, 700: 0.2, INF_SENTINEL: 0.2}
    # one 0 among 400 points leaves a 700-child family a chance of 0.17 of no 0 child
    points = np.r_[np.ones(120), 0.0, derive(14, 0).random(279) ** 1e-3]
    out = apply_T(_counted(points, 120, 1), spec, derive(14, 1))
    rng = derive(14, 1)
    tally = dict(zip(pmf, rng.multinomial(400, list(pmf.values())).tolist()))
    ones, widths = tally.pop(INF_SENTINEL), {}
    for k, c in sorted(tally.items()):
        if k > 300:
            widths[k] = c
            continue
        veto, js, counts = distiter._atom_split(k, c, 1, 120, 279, rng)
        ones += veto
        for j, n in zip(js.tolist(), counts.tolist()):
            widths[j] = widths.get(j, 0) + n
    zeros = widths.pop(0)
    whole, rest = points.tolist(), points[121:].tolist()
    want = []
    for j, n in sorted(widths.items()):
        for _ in range(n):
            pool = rest if j <= 300 else whole
            idx = rng.integers(0, len(pool), j).tolist()
            want.append(1.0 - math.prod(pool[i] for i in idx))
    assert (out.ones, out.zeros) == (ones, zeros)
    assert out.rest.tolist() == want
    wide = want[-widths[700]:]
    assert any(w < 1.0 for w in wide) and any(w == 1.0 for w in wide)


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


@pytest.mark.parametrize(
    "spec, pmf, power",
    [
        (Deterministic(3), {3: 1.0}, 1.0),
        (FIN, {2: 0.5, INF_SENTINEL: 0.5}, 1.0),
        # points near 1, so that a product of 2**20 of them does not underflow
        (
            FinitePmf({1: 0.975, 2**20: 0.005}, infinity_mass=0.02),
            {1: 0.975, 2**20: 0.005, INF_SENTINEL: 0.02},
            2.0**-20,
        ),
    ],
    ids=["det3", "finite-inf", "sizes-1-2**20-inf"],
)
def test_apply_matches_per_point_loop(spec, pmf, power):
    # replay apply_T's draws: the count of each family size, one multinomial
    # over the sizes in ascending order with the infinite family last (one
    # class draws nothing), then the child indices of each size class in
    # ascending order, which is also the output's order
    points = derive(5, 0).random(400) ** power
    out = apply_T(EmpiricalDist(points), spec, derive(5, 1))
    rng = derive(5, 1)
    sizes = np.sort(np.repeat(list(pmf), rng.multinomial(400, list(pmf.values()))))
    idx = iter(rng.integers(0, points.size, int(sizes.sum())).tolist())
    points = points.tolist()
    want = []
    for n in sizes.tolist():  # the infinite families (INF_SENTINEL, 0) come first
        prod = 1.0
        for _ in range(n):
            prod *= points[next(idx)]
        want.append(1.0 if n == INF_SENTINEL else 1.0 - prod)
    assert next(idx, None) is None
    assert out.points.tolist() == want
    assert set(sizes.tolist()) == set(pmf)


@pytest.mark.parametrize(
    "spec, drawn, atoms",
    [
        (DET2, [], False),
        # the multinomial leaves 2 of the 3000 families past K = 28, and only they are drawn
        (GEO, [2], False),
        (FinitePmf({1: 0.4, 5: 0.2, 1000: 0.2}, infinity_mass=0.2), [], False),
        (Thinned(DET2, 0.3), [], False),
        (Thinned(DET2, 0.5), [300] * 10, False),
        # sizes 1 and 5 are split by their children at 0 and 1 at either chunk
        # size; a 70000-child family is wider than either, so it draws from the
        # whole sample at both
        (FinitePmf({1: 0.4, 5: 0.3, 70_000: 0.01}, infinity_mass=0.29), [], True),
    ],
    ids=["det2", "geometric", "sizes-1-5-1000-inf", "thinned-table", "thinned-pruning", "sizes-1-5-70000-inf-atoms"],
)
def test_apply_output_does_not_depend_on_chunk_size(monkeypatch, spec, drawn, atoms):
    # a family of 1000 is wider than a 300-child chunk, so its product runs
    # across chunks; points near 1 keep such a product from underflowing
    points = derive(6, 0).random(3000) ** 1e-3
    if atoms:
        points[:1203] = np.repeat([1.0, 0.0], [1200, 3])
    nu = _counted(points, 1200, 3) if atoms else EmpiricalDist(points)
    want = apply_T(nu, spec, derive(6, 1)).points
    monkeypatch.setattr(simulate, "CHUNK", 300)
    draws = []

    def sample_family_sizes_spy(spec, n, rng):
        draws.append(n)
        return sample_family_sizes(spec, n, rng)

    monkeypatch.setattr(distiter, "sample_family_sizes", sample_family_sizes_spy)
    got = apply_T(nu, spec, derive(6, 1)).points
    assert draws == drawn
    # where the 3000 sizes are drawn in ten chunks, by the pruning process,
    # the chunked draws are new draws from the same law
    if drawn != [300] * 10:
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    "spec, length",
    [
        (FIN, 4),
        (GEO, 64),
        # K is capped at the chunk, 64, where a share 0.98**64 = 0.27 of the families lies past it
        (Geometric(0.02), 256),
        (Thinned(DET2, 0.3), 256),
        # the mass past the table's end is the infinite family, 5/9 of it
        (Thinned(DET2, 0.6), 1024),
        (Thinned(DET2, 0.5), 512),
    ],
    ids=["finite-inf", "geometric", "geometric-tail", "thinned-table", "thinned-table-inf", "thinned-pruning"],
)
def test_family_size_tally_follows_the_size_law(monkeypatch, spec, length):
    monkeypatch.setattr(simulate, "CHUNK", 64)
    n = 20_000
    tally = distiter._family_size_tally(spec, n, derive(9, 0))
    assert sum(tally.values()) == n
    # cells: each size below length, then the finite sizes >= length and the
    # infinite family together, which also holds the rare draw that the
    # pruning budget calls infinite (ROADMAP D7)
    probs, tail = pmf_prefix(spec, length)
    probs[INF_SENTINEL] = tail
    counts = np.zeros(length)
    for k, c in tally.items():
        counts[k if k < length else INF_SENTINEL] += c
    assert chi_square_ok(counts, probs)


@st.composite
def tiny_mass_pmfs(draw):
    support = draw(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8, unique=True))
    masses = st.one_of(st.just(0.0), st.floats(min_value=-17.0, max_value=0.0).map(lambda e: 10.0**e))
    ws = [draw(masses) for _ in support]
    w_inf = draw(masses)
    total = sum(ws) + w_inf
    assume(total > 0.0)
    return FinitePmf({k: w / total for k, w in zip(support, ws)}, infinity_mass=w_inf / total)


@settings(max_examples=60, deadline=None)
@given(tiny_mass_pmfs(), st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=2**32))
def test_family_size_tally_counts_tiny_masses(spec, n, seed):
    tally = distiter._family_size_tally(spec, n, np.random.default_rng(seed))
    assert all(c >= 0 for c in tally.values())
    assert sum(tally.values()) == n


def test_apply_keeps_huge_geometric_sizes_exact():
    # rng.geometric(ALPHA_FLOOR) reads 2**63 - 1; K plus it must not wrap in int64
    with pytest.raises(ResourceError, match=r"needs [1-9]\d* child draws"):
        apply_T(point_mass(0.5, 10), Geometric(ALPHA_FLOOR), derive(10, 0))


def test_a_family_past_the_child_draw_limit_is_named():
    # the total of a saturated draw says nothing; the family and its draw do
    with pytest.raises(ResourceError, match=r"one family alone has \d+ children or more, as its "
                                            r"geometric draw saturated at 9223372036854775807$"):
        apply_T(point_mass(0.5, 1000), Geometric(ALPHA_FLOOR), derive(10, 0))
    with pytest.raises(ResourceError, match=r"one family alone has 9007199254740992 children$"):
        apply_T(point_mass(0.5, 10), Deterministic(2**53), derive(10, 0))


def test_deterministic_tally_draws_nothing():
    rng = derive(10, 1)
    state = rng.bit_generator.state
    assert distiter._family_size_tally(Deterministic(3), 1000, rng) == {3: 1000}
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "spec, atoms",
    [(DET2, None), (GEO, None), (FIN, None), (DET2, "some"), (GEO, "some"), (FIN, "some"), (GEO, "all")],
    ids=["det2", "geometric", "finite-inf", "det2-atoms", "geometric-atoms", "finite-inf-atoms", "geometric-zero-one"],
)
def test_apply_working_memory_is_the_output_and_a_chunk(spec, atoms):
    # at M = 1e6 an M-long array of family sizes, or any copy of it, is 8 MB;
    # so is a copy of the points that are not atoms; a {0,1} sample's image
    # has no rest, so its step allocates no sample at all
    points = derive(7, 0).random(1_000_000)
    nu = EmpiricalDist(points)
    if atoms == "some":
        points[:700_000] = np.repeat([1.0, 0.0], [400_000, 300_000])
        nu = _counted(points, 400_000, 300_000)
    elif atoms == "all":
        nu = bernoulli_two_point(0.3, 1_000_000)
    apply_T(nu, spec, derive(7, 1))  # builds the spec's cached tables
    tracemalloc.start()
    try:
        out = apply_T(nu, spec, derive(7, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.rest.nbytes + 2 * 2**20


def _peak_bytes(make):
    tracemalloc.start()
    try:
        make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_second_moment_holds_a_chunk_of_squares():
    # a sample-long array of squares would take 8 MB at M = 1e6
    nu = mean_matched_uniform(0.5, 10**6)
    assert _peak_bytes(nu.second_moment) < 2**20
    assert nu.second_moment() == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_start_samples_hold_their_atoms_as_counts():
    # a {0,1} start is two counts; any other start is one M-long array and
    # nothing beside it (8 MB at M = 1e6)
    m, mib = 10**6, 2**20
    assert _peak_bytes(lambda: bernoulli_two_point(0.3, m)) < mib
    assert _peak_bytes(lambda: point_mass(1.0, m)) < mib
    assert _peak_bytes(lambda: point_mass(0.2, m)) <= 8 * m + mib
    mu1 = solve_mu1(Pgf(DET2))
    assert _peak_bytes(lambda: mean_matched_uniform(mu1, m)) <= 8 * m + mib
    tp, one, zero = bernoulli_two_point(0.3, m), point_mass(1.0, m), point_mass(-1e-13, m)
    assert (tp.ones, tp.zeros, tp.rest.size) == (300_000, 700_000, 0)
    assert (one.ones, one.zeros, zero.ones, zero.zeros) == (m, 0, 0, m)


def test_moments_add_the_ones_to_the_rest():
    points = _atoms_first(300, 200, 500, 13)
    nu = EmpiricalDist._unchecked(points[500:], 200, 300)
    assert nu.size == 1000
    assert nu.mean() == pytest.approx(points.mean(), rel=1e-14)
    assert nu.second_moment() == pytest.approx((points**2).mean(), rel=1e-14)
    # a sample given as points holds all of them in rest, its atoms too
    whole = EmpiricalDist(points)
    assert (whole.ones, whole.zeros, whole.rest.size) == (0, 0, 1000)
    assert whole.mean() == float(points.mean())
    # with no leading atoms the moments are numpy's, bit for bit
    plain = EmpiricalDist(points[500:])
    assert plain.mean() == float(points[500:].mean())
    assert plain.second_moment() == float((points[500:] ** 2).mean())


def test_apply_preserves_two_point_laws():
    mu1 = solve_mu1(Pgf(DET2))
    nu = bernoulli_two_point(mu1, 50_000)
    cur = nu
    for k in range(10):
        cur = apply_T(cur, DET2, derive(4, k))
        assert set(np.unique(cur.points)) <= {0.0, 1.0}
        assert cur.second_moment() == cur.mean()
    assert abs(cur.mean() - mu1) < 0.05


def test_two_point_test_counts_interior_points_by_chunk(monkeypatch):
    monkeypatch.setattr(simulate, "CHUNK", 7)
    points = np.zeros(10_000)
    points[:5_000] = 1.0
    points[5_000:5_007] = [1e-10, 1.0 - 1e-10, 0.5, 0.3, 0.9, 1e-8, 1.0 - 1e-8]  # 5 interior points
    assert is_two_point_concentrated(EmpiricalDist(points))
    points[-6:] = 0.5  # 11 of 10000, past the fraction 1e-3
    assert not is_two_point_concentrated(EmpiricalDist(points))


def test_empirical_dist_validation():
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([0.2, 1.4]))
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([]))
    with pytest.raises(SpecValidationError):
        EmpiricalDist(np.array([0.5, math.nan]))


def test_empirical_dist_copies_only_a_sample_that_needs_clipping():
    # an in-range sample is checked by its min and max and kept as a view:
    # no mask and no clipped copy (8 MB each at M = 1e6)
    points = derive(8, 0).random(10**6)
    assert _peak_bytes(lambda: EmpiricalDist(points)) < 2**20
    assert np.shares_memory(EmpiricalDist(points).rest, points)
    points[3] = -1e-13
    nu = EmpiricalDist(points)
    assert nu.rest[3] == 0.0 and points[3] == -1e-13


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
    # each start holds its points at 0 and 1 as counts and the others in rest
    a = 2.0 * mu1 - 1.0
    none = np.empty(0)
    starts = [
        (bernoulli_two_point(mu1, 1000), 618, 382, none),
        (point_mass(0.2, 1000), 0, 0, np.full(1000, 0.2)),
        (point_mass(1.0 + 1e-13, 1000), 1000, 0, none),
        (point_mass(0.0, 1000), 0, 1000, none),
        (mean_matched_uniform(mu1, 1000), 0, 0, a + (1.0 - a) * (np.arange(1000) + 0.5) / 1000),
        (mean_matched_uniform(1.0, 1000), 1000, 0, none),
        (mean_matched_uniform(0.0, 1000), 0, 1000, none),
    ]
    for nu, ones, zeros, rest in starts:
        assert (nu.ones, nu.zeros) == (ones, zeros)
        assert nu.rest.tobytes() == rest.tobytes()
    for make in (bernoulli_two_point, point_mass, mean_matched_uniform):
        with pytest.raises(SpecValidationError):
            make(0.5, 0)
    for value in (1.5, -0.5, math.nan):
        with pytest.raises(SpecValidationError):
            point_mass(value, 10)


# ---------------------------------------------------------- moment recursion

def _moment_orbit(pgf, m0, steps):
    """The exact moments (m_0, m_1, m_2) after 0..steps applications of the map."""
    orbit = [np.array(m0, dtype=float)]
    for _ in range(steps):
        orbit.append(moment_map(pgf, orbit[-1]))
    return orbit


def test_moment_recursion_fixed_point_is_constant():
    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    mu2 = build_fixed_point_report(pgf).mu2
    for _, m1, m2 in _moment_orbit(pgf, (1.0, mu1, mu2), 25):
        assert m1 == pytest.approx(mu1, abs=1e-12)
        assert m2 == pytest.approx(mu2, abs=1e-12)


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
    assert _moment_orbit(pgf, (1.0, mu1, 0.45), 100)[-1][2] == pytest.approx(mu2, abs=1e-9)


def test_moment_recursion_oscillates_from_wrong_mean():
    pgf = Pgf(DET2)
    tail = [m[1] for m in _moment_orbit(pgf, (1.0, 0.5, 0.25), 40)[-6:]]
    assert all(min(v, 1.0 - v) < 0.01 for v in tail)
    assert any(v < 0.5 for v in tail) and any(v > 0.5 for v in tail)


def test_moment_map_rejects_a_moment_above_one():
    with pytest.raises(DomainError):
        moment_map(Pgf(DET2), (1.0, 0.5, 1.2))


def test_moment_map_makes_one_eval_call(monkeypatch):
    # H on m_1..m_K is one Pgf.eval call over an array, so the bench's
    # pgf.eval.calls and pgf.eval.points keep their meaning
    calls = []
    real_eval = Pgf.eval

    def counting_eval(self, s):
        calls.append(np.size(s))
        return real_eval(self, s)

    pgf = Pgf(DET2)
    mu1 = solve_mu1(pgf)
    monkeypatch.setattr(Pgf, "eval", counting_eval)
    moment_map(pgf, mu1 ** np.arange(9.0))
    assert calls == [8]


@pytest.mark.parametrize("d", [20, 3])
def test_finite_depth_second_moment_matches_pinned_recursion(d):
    # m2_k = 2 mu1 - 1 + H(m2_{k-1}) from m2_0 = mu1^2; a free m1 would
    # drift off the unstable mu1 by H'(mu1) per step and drag m2 with it
    pgf = Pgf(Deterministic(d))
    mu1 = solve_mu1(pgf)
    m2 = mu1 * mu1
    for _ in range(64):
        m2 = 2.0 * mu1 - 1.0 + pgf.eval(m2)
    m = finite_depth_moments(pgf, mu1, 64, 2)
    assert m[1] == mu1
    assert abs(m[2] - m2) < 1e-12


def _enumerate_trees(pmf, infinity_mass, depth):
    """Every tree of the given depth with its probability, as (prob, tree):
    a tree is None for the boundary, INF_SENTINEL for an infinite family and
    a tuple of subtrees for a finite one."""
    if depth == 0:
        return [(1.0, None)]
    out = [(infinity_mass, INF_SENTINEL)]
    subtrees = _enumerate_trees(pmf, infinity_mass, depth - 1)
    for k, w in pmf.items():
        for children in itertools.product(subtrees, repeat=k):
            out.append((w * math.prod(p for p, _ in children), tuple(t for _, t in children)))
    return out


@pytest.mark.parametrize("depth, count", [(1, 3), (2, 13), (3, 183)])
def test_finite_depth_moments_match_exact_tree_enumeration(depth, count):
    pmf, infinity_mass = {1: 0.5, 2: 0.3}, 0.2
    pgf = Pgf(FinitePmf(pmf, infinity_mass=infinity_mass))
    mu1 = solve_mu1(pgf)
    trees = _enumerate_trees(pmf, infinity_mass, depth)
    assert len(trees) == count
    assert math.fsum(p for p, _ in trees) == pytest.approx(1.0, abs=1e-14)
    roots = [(p, conditional_root(t, mu1)) for p, t in trees]
    exact = [math.fsum(p * c ** k for p, c in roots) for k in range(5)]
    assert np.max(np.abs(finite_depth_moments(pgf, mu1, depth, 4) - exact)) < 1e-14


@pytest.mark.parametrize(
    "spec, depth",
    [(Deterministic(2), 64), (Deterministic(3), 64), (Thinned(Deterministic(2), 0.3), 400)],
    ids=["det2", "det3", "thinned-binary-p0.3"],
)
def test_finite_depth_moments_confirm_the_root_selection_rule(spec, depth):
    # moment_sequence takes the root left of mu_star at each order; the
    # finite-depth moments converge to the law of C with no such choice
    pgf = Pgf(spec)
    fp = build_fixed_point_report(pgf)
    limit = moment_sequence(pgf, fp, MomentKind.ENDOGENOUS, 8).values
    assert np.max(np.abs(finite_depth_moments(pgf, fp.mu1, depth, 8) - limit)) < 1e-13


# -------------------------------------------------------------- iteration MC

def test_iterate_records():
    nu0 = point_mass(0.3, 5_000)
    recs = basin_test(nu0, FIN, 5, seed=5).records
    assert len(recs) == 6
    assert recs[0].k == 0
    assert all(rec.m2 <= rec.m1 + 1e-12 for rec in recs)


def test_iterate_matches_analytic_recursion_stable_spec():
    pgf = Pgf(FIN)
    mu1 = solve_mu1(pgf)
    nu0 = point_mass(0.2, 20_000)
    recs = basin_test(nu0, FIN, 12, seed=6).records
    for emp, (_, m1, m2) in zip(recs, _moment_orbit(pgf, (1.0, 0.2, 0.04), 12)):
        se1 = max(emp.m1 * (1.0 - emp.m1), 1e-4) ** 0.5 / math.sqrt(20_000)
        assert abs(emp.m1 - m1) < 4.0 * se1 + 1e-6
        assert abs(emp.m2 - m2) < 4.0 * se1 + 1e-6


def test_iterate_matches_analytic_recursion_neutral_spec():
    pgf = Pgf(GEO)
    mu1 = solve_mu1(pgf)
    nu0 = point_mass(0.3, 50_000)
    recs = basin_test(nu0, GEO, 6, seed=7).records
    analytic = _moment_orbit(pgf, (1.0, 0.3, 0.09), 6)
    for emp, exact in zip(recs, analytic):
        assert abs(emp.m1 - exact[1]) < 0.02
    # neutral family: the exact mean trajectory is 2-periodic
    assert analytic[2][1] == pytest.approx(0.3, abs=1e-12)
    assert analytic[4][1] == pytest.approx(0.3, abs=1e-12)


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
    rep = basin_test(mean_matched_uniform(mu1 + 5e-6, 20_000), DET2, steps=5, seed=4)
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


@pytest.mark.parametrize(
    "spec, m0",
    [(Thinned(Deterministic(3), 0.4), 0.3), (Thinned(Deterministic(2), 0.51), 0.2)],
    ids=["ternary-thinned-0.4", "thinned-0.51"],
)
def test_basin_slow_orbit_still_reaches_mu1(spec, m0):
    # H'(mu1) is 0.927 and 0.979: the mean orbit reaches mu1 only after
    # hundreds of steps, and no two-cycle lies inside (0, 1)
    assert basin_test(point_mass(m0, 10_000), spec, 1, seed=1).analytic == "InBasin"
