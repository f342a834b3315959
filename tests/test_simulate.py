import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rde_lab.simulate as simulate
from rde_lab.analysis import make_two_cycle, solve_mu1
from rde_lab.errors import ResourceError
from rde_lab.pgf import INF_SENTINEL, Deterministic, FinitePmf, Geometric, Pgf, Thinned
from rde_lab.simulate import (
    DEFAULT_BATCH,
    _pull_up,
    _sample_forest,
    endogeny_diagnostic,
    mc_moments,
    one_minus_prod,
)
from rde_lab.streams import derive

from oracles import brute_force_root_probability, conditional_root, forest_tree, leaf_count, root_value

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DET2 = Deterministic(2)
GEO = Geometric(0.25)
FIN = FinitePmf({2: 0.5}, infinity_mass=0.5)
MIXED = FinitePmf({1: 0.3, 2: 0.4, 3: 0.2}, infinity_mass=0.1)


# ----------------------------------------------------------------- sampling

def test_binary_tree_is_complete():
    forest = _sample_forest(DET2, 3, 1, derive(0, 0))
    assert [int(c[0]) for c in forest.rep_counts] == [1, 2, 4, 8]
    complete = None
    for _ in range(3):
        complete = (complete, complete)
    assert forest_tree(forest.fams, forest.rep_counts, 0) == complete


def test_geometric_expected_node_count():
    # 1 + 4 + 16 nodes in expectation at depth 2
    forest = _sample_forest(GEO, 2, 10_000, derive(1, 0))
    totals = sum(forest.rep_counts).astype(float)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    assert abs(totals.mean() - 21.0) < 3.0 * se


def test_half_infinite_root_split():
    forest = _sample_forest(FIN, 1, 20_000, derive(2, 0))
    fams = forest.fams[0]
    frac_inf = float((fams == INF_SENTINEL).mean())
    assert abs(frac_inf - 0.5) < 3.0 * math.sqrt(0.25 / fams.size)
    assert set(np.unique(fams)) <= {INF_SENTINEL, 2}


def test_family_sizes_count_the_stored_children():
    # each level's family sizes add up to the node count of the next level
    forest = _sample_forest(FIN, 6, 2000, derive(2, 1))
    for fams, below in zip(forest.fams, forest.rep_counts[1:]):
        assert fams.sum() == below.sum()


def test_node_cap_raises_resource_error():
    with pytest.raises(ResourceError):
        _sample_forest(GEO, 12, 1, derive(3, 0), node_cap=10_000)


# ------------------------------------------------------------ tree solutions

def test_conditional_fixed_point_consistency():
    mu1 = solve_mu1(Pgf(DET2))
    forest = _sample_forest(DET2, 1, 1, derive(4, 0))
    root = _pull_up(forest.fams, mu1)
    assert root == conditional_root(forest_tree(forest.fams, forest.rep_counts, 0), mu1)
    assert root == pytest.approx(1.0 - mu1 ** 2, abs=1e-15)
    assert root == pytest.approx(mu1, abs=1e-12)


def test_conditional_depth_zero_is_boundary_constant():
    mu1 = solve_mu1(Pgf(DET2))
    forest = _sample_forest(DET2, 0, 1, derive(4, 1))
    assert forest_tree(forest.fams, forest.rep_counts, 0) is None
    assert _pull_up(forest.fams, mu1) == mu1


def test_conditional_infinite_root_is_one():
    forest = _sample_forest(FinitePmf({2: 1e-9}, infinity_mass=1.0 - 1e-9), 2, 1, derive(5, 0))
    assert forest_tree(forest.fams, forest.rep_counts, 0) == INF_SENTINEL
    assert _pull_up(forest.fams, 0.7).tolist() == [1.0]


def test_discrete_all_ones_boundary_gives_zero_root():
    # a boundary of ones makes the root veto exactly
    forest = _sample_forest(DET2, 1, 1, derive(6, 0))
    assert _pull_up(forest.fams, np.ones(2)).tolist() == [0.0]


def test_discrete_zero_child_forces_parent_one():
    forest = _sample_forest(DET2, 1, 1, derive(7, 0))
    assert _pull_up(forest.fams, np.array([0.0, 1.0])).tolist() == [1.0]


def test_solution_values_stay_in_ranges():
    mu1 = solve_mu1(Pgf(MIXED))
    rng = derive(8, 0)
    forest = _sample_forest(MIXED, 3, 500, rng)
    cond = _pull_up(forest.fams, mu1)
    assert np.all((0.0 <= cond) & (cond <= 1.0))
    boundary = (rng.random(int(forest.rep_counts[-1].sum())) < mu1).astype(float)
    assert set(_pull_up(forest.fams, boundary).tolist()) <= {0.0, 1.0}


def test_interior_recursion_identity_exact():
    # the oracle applies 1 - prod(children) at every node of each tree
    mu1 = solve_mu1(Pgf(MIXED))
    for k in range(6):
        forest = _sample_forest(MIXED, 3, 50, derive(9, k))
        boundary = (derive(10, k).random(int(forest.rep_counts[-1].sum())) < mu1).astype(float)
        cond, disc = _pull_up(forest.fams, mu1), _pull_up(forest.fams, boundary)
        leaves = iter(boundary.tolist())
        for r in range(50):
            tree = forest_tree(forest.fams, forest.rep_counts, r)
            assert abs(cond[r] - conditional_root(tree, mu1)) < 1e-14
            assert disc[r] == root_value(tree, leaves)


def test_brute_force_oracle_small_trees():
    mu1 = solve_mu1(Pgf(MIXED))
    forest = _sample_forest(MIXED, 3, 100, derive(11, 0))
    roots = _pull_up(forest.fams, mu1)
    trees = [(r, forest_tree(forest.fams, forest.rep_counts, r)) for r in range(100)]
    small = [(r, tree) for r, tree in trees if 1 <= leaf_count(tree) <= 10][:15]
    assert len(small) == 15
    for r, tree in small:
        assert roots[r] == pytest.approx(brute_force_root_probability(tree, mu1), abs=1e-12)


def test_discrete_mean_invariance_binary_depth8():
    mu1 = solve_mu1(Pgf(DET2))
    rng = derive(12, 0)
    forest = _sample_forest(DET2, 8, 100_000, rng)
    boundary = (rng.random(int(forest.rep_counts[-1].sum())) < mu1).astype(float)
    roots = _pull_up(forest.fams, boundary)
    assert set(roots.tolist()) <= {0.0, 1.0}
    emp = float(roots.mean())
    se = math.sqrt(mu1 * (1.0 - mu1) / roots.size)
    assert abs(emp - mu1) < 3.0 * se


def _one_minus_prod_loop(values, sizes):
    out, pos = [], 0
    for n in sizes:
        if n == INF_SENTINEL:
            out.append(1.0)
            continue
        prod = 1.0
        for x in values[pos:pos + n]:
            prod *= float(x)
        out.append(1.0 - prod)
        pos += n
    assert pos == len(values)
    return out


@pytest.mark.parametrize(
    "sizes",
    [
        [1] * 16,
        [2] * 16,
        [3] * 16,
        [5] * 16,
        [2, INF_SENTINEL, 3, 1, INF_SENTINEL],
        [INF_SENTINEL, 3, INF_SENTINEL],
        [INF_SENTINEL, INF_SENTINEL],
        [],
    ],
    ids=["float-w1", "float-w2", "float-w3", "float-w5", "float-ragged", "float-ragged-inf-ends",
         "float-all-inf", "float-empty"],
)
def test_one_minus_prod_matches_loop(sizes):
    sizes = np.array(sizes, dtype=np.int64)
    values = derive(16, 0).random(int(sizes[sizes > 0].sum()))
    got = one_minus_prod(values, sizes, np.empty(sizes.size))
    assert got.dtype == float and got.shape == sizes.shape
    assert got.tolist() == _one_minus_prod_loop(values, sizes.tolist())


@pytest.mark.parametrize(
    "counts",
    [[0, 2, 3], [2, 0, 3], [2, 3, 0], [0, 0, 4, 0, 1, 0, 0], [1, 1, 1], [0, 0, 0], []],
    ids=["empty-first", "empty-middle", "empty-last", "empty-runs", "no-empty", "no-nodes", "no-segments"],
)
def test_segment_sums_match_loop(counts):
    counts = np.array(counts, dtype=np.int64)
    values = derive(17, 0).integers(1, 10**6, int(counts.sum()))
    want, start = [], 0
    for c in counts.tolist():
        want.append(sum(values[start:start + c].tolist()))
        start += c
    got = simulate._segment_sums(values, counts)
    assert got.dtype == np.int64 and got.tolist() == want


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 40) | st.sampled_from([64, 100, 1000]),
    families=st.integers(0, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_minus_prod_forms_agree(width, families, seed):
    # a product of width such values is about 1/e, far from underflow
    values = derive(seed, 0).random(width * families) ** (1.0 / width)
    want = one_minus_prod(values, width, np.empty(families)).tolist()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "STRIDED_MAX_WIDTH", 0)  # reduceat at every width
        assert one_minus_prod(values, width, np.empty(families)).tolist() == want
    assert one_minus_prod(values, np.full(families, width), np.empty(families)).tolist() == want


@pytest.mark.parametrize("d, depth, reps", [(2, 10, 5), (3, 6, 4), (9, 4, 3), (64, 3, 2)])
def test_width_forest_pulls_up_as_materialised_levels(d, depth, reps):
    # d = 9 and d = 64 go through reduceat past STRIDED_MAX_WIDTH; the powers multiply in order too
    spec = Deterministic(d)
    mu1 = solve_mu1(Pgf(spec))
    forest = _sample_forest(spec, depth, reps, derive(31, d))
    assert forest.fams == [d] * depth
    full = [np.full(int(n.sum()), d, dtype=np.int64) for n in forest.rep_counts[:-1]]
    leaves = int(forest.rep_counts[-1].sum())
    want = _pull_up(full, np.full(leaves, mu1))
    assert np.broadcast_to(_pull_up(forest.fams, mu1), reps).tolist() == want.tolist()
    boundary = derive(32, d).random(leaves) ** (1.0 / d)
    assert _pull_up(forest.fams, boundary).tolist() == _pull_up(full, boundary).tolist()


@pytest.mark.parametrize("d", [2, 3, 9, 64, 2**20 + 3])
def test_width_level_power_matches_the_materialised_table(d):
    # 2**20 + 3 spans several chunks and ends in a partial one
    for v in (GOLDEN, 1.0 - 1e-7, 0.3):
        table = 1.0 - np.cumprod(np.r_[1.0, np.full(d, v)])
        assert _pull_up([d], v) == table[d]


def test_sampled_level_powers_past_a_chunk_match_the_materialised_boundary(monkeypatch):
    # sizes below, at and past a 16-value chunk, repeated, out of order, and infinite; by 2000
    # factors the powers of 0.3 reach 0 and those of GOLDEN the least subnormal, where the walk stops
    monkeypatch.setattr(simulate, "CHUNK", 16)
    sizes = np.array([3, 40, INF_SENTINEL, 16, 17, 2017, 40, 1, 100, 33, INF_SENTINEL, 2000, 17], dtype=np.int64)
    for v in (GOLDEN, 1.0 - 1e-7, 0.3):
        want = _pull_up([sizes], np.full(int(sizes.sum()), v))
        assert _pull_up([sizes], v).tolist() == want.tolist()


@pytest.mark.parametrize("spec", [GEO, MIXED, Thinned(DET2, 0.3)], ids=["geometric", "finite", "thinned-table"])
def test_forest_does_not_depend_on_chunk_size(monkeypatch, spec):
    # levels past 64 nodes are drawn in several chunks, the last one partial
    want = _sample_forest(spec, 5, 40, derive(34, 0))
    monkeypatch.setattr(simulate, "CHUNK", 64)
    got = _sample_forest(spec, 5, 40, derive(34, 0))
    assert max(level.size for level in got.fams) > 64
    assert [level.tolist() for level in got.fams] == [level.tolist() for level in want.fams]


def test_deterministic_forest_holds_no_level_array(address_space_gib):
    rng = derive(33, 0)
    forest = _sample_forest(DET2, 20, 2048, rng)
    assert all(type(f) is int for f in forest.fams)
    assert forest.rep_counts[-1].tolist() == [2**20] * 2048
    assert rng.random() == derive(33, 0).random()  # nothing was drawn


def test_forest_matches_single_tree_recursion():
    mu1 = solve_mu1(Pgf(MIXED))
    forest = _sample_forest(MIXED, 4, 64, derive(14, 0))
    roots = _pull_up(forest.fams, np.full(int(forest.rep_counts[-1].sum()), mu1))
    for r in range(64):
        assert conditional_root(forest_tree(forest.fams, forest.rep_counts, r), mu1) == roots[r]


def test_depth_coupling_differences_shrink():
    # martingale convergence: E|C^(n+1) - C^n| decays in n on a fixed tree
    mu1 = solve_mu1(Pgf(FIN))
    forest = _sample_forest(FIN, 13, 10_000, derive(15, 0))
    means = []
    for n in range(2, 13):
        a = _pull_up(forest.fams[:n], np.full(int(forest.rep_counts[n].sum()), mu1))
        b = _pull_up(forest.fams[:n + 1], np.full(int(forest.rep_counts[n + 1].sum()), mu1))
        means.append(float(np.abs(a - b).mean()))
    for earlier, later in zip(means, means[1:]):
        assert later <= earlier * 1.02 + 1e-4
    assert means[-1] < 0.2 * means[0]


def test_conditional_boundary_depth_restriction():
    # the first two levels of a depth-5 forest, with the boundary at depth 2
    mu1 = solve_mu1(Pgf(FIN))
    forest = _sample_forest(FIN, 5, 40, derive(16, 0))
    roots = _pull_up(forest.fams[:2], mu1)
    for r in range(40):
        assert roots[r] == conditional_root(forest_tree(forest.fams[:2], forest.rep_counts, r), mu1)


# ---------------------------------------------------------------- MC reports

def test_mc_moments_depth_zero_exact():
    mu1 = solve_mu1(Pgf(DET2))
    mc = mc_moments(DET2, mu1, 0, 200, seed=17)
    assert mc.mean_C == pytest.approx(mu1, abs=1e-15)
    assert mc.se_mean == 0.0


def test_mc_moments_binary_is_deterministic():
    mu1 = solve_mu1(Pgf(DET2))
    mc = mc_moments(DET2, mu1, 8, 300, seed=18)
    assert mc.mean_C == pytest.approx(mu1, abs=1e-11)
    assert mc.m2_C == pytest.approx(mu1 ** 2, abs=1e-11)
    assert mc.se_mean < 1e-14


def test_mc_moments_rejects_tiny_reps():
    with pytest.raises(ValueError):
        mc_moments(DET2, solve_mu1(Pgf(DET2)), 2, 50, seed=1)


def test_mc_moments_deterministic_reruns():
    mu1 = solve_mu1(Pgf(FIN))
    a = mc_moments(FIN, mu1, 8, 500, seed=19)
    b = mc_moments(FIN, mu1, 8, 500, seed=19)
    assert a == b


def test_batch_results_depend_only_on_seed_and_batch_index():
    # batch i draws from derive(seed, i) alone, so a longer run extends a shorter one
    mu1 = solve_mu1(Pgf(MIXED))
    _, _, c_short, s_short = endogeny_diagnostic(MIXED, mu1, 4, DEFAULT_BATCH, seed=23)
    _, _, c_long, s_long = endogeny_diagnostic(MIXED, mu1, 4, DEFAULT_BATCH + 100, seed=23)
    assert c_long.size == DEFAULT_BATCH + 100
    assert np.array_equal(c_long[:DEFAULT_BATCH], c_short)
    assert np.array_equal(s_long[:DEFAULT_BATCH], s_short)


def test_mc_mean_unbiased_for_stable_spec():
    mu1 = solve_mu1(Pgf(FIN))
    mc = mc_moments(FIN, mu1, 10, 4000, seed=20)
    assert abs(mc.mean_C - mu1) < 3.0 * mc.se_mean


def test_endogeny_diagnostic_identity_between_statistics():
    # P(S != S' | tree) = 2 C (1 - C), so the two estimates must agree
    for spec, seed in ((DET2, 21), (FIN, 22)):
        diag = endogeny_diagnostic(spec, solve_mu1(Pgf(spec)), 8, 4000, seed=seed)[1]
        se = math.sqrt(diag.se_p ** 2 + 4.0 * diag.se_e ** 2)
        assert abs(diag.p_disagree - 2.0 * diag.e_c_one_minus_c) < 3.0 * se + 1e-12


def test_endogeny_diagnostic_binary_matches_golden_gap():
    diag = endogeny_diagnostic(DET2, solve_mu1(Pgf(DET2)), 8, 2000, seed=23)[1]
    gap = GOLDEN - GOLDEN ** 2
    assert diag.e_c_one_minus_c == pytest.approx(gap, abs=1e-11)
    assert abs(diag.p_disagree - 2.0 * gap) < 3.0 * diag.se_p


def test_iterated_conditional_boundary_one_forces_root_one():
    # the iterated solution C+ of a two-cycle is C at an even depth from the constant mu_plus
    cyc = make_two_cycle(Pgf(DET2), 1.0, 0.0)
    it = mc_moments(DET2, cyc.mu_plus, 6, 200, seed=25)
    assert it.mean_C == 1.0 and it.se_mean == 0.0


def test_iterated_conditional_neutral_pair_preserved():
    # f(0.2) = 16/17 and f(16/17) = 0.2 for the alpha=1/4 geometric family
    pair = make_two_cycle(Pgf(GEO), 0.2, 16.0 / 17.0)
    it = mc_moments(GEO, pair.mu_plus, 8, 400, seed=26, node_cap=50_000_000)
    assert abs(it.mean_C - 0.2) < 3.0 * it.se_mean


def test_thinned_spec_trees_sample_and_solve():
    spec = Thinned(DET2, 0.6)
    mu1 = solve_mu1(Pgf(spec))
    mc = mc_moments(spec, mu1, 4, 500, seed=27)
    assert abs(mc.mean_C - mu1) < 4.0 * mc.se_mean + 1e-3


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_forest_pass_matches_single_tree_recursion(depth):
    # one batch: its forest is rebuilt from stream (seed, 0), whose family
    # sizes are drawn before any uniform
    mu1 = solve_mu1(Pgf(MIXED))
    reps, seed = 300, 29
    _, _, c_roots, s_roots = endogeny_diagnostic(MIXED, mu1, depth, reps, seed)
    forest = _sample_forest(MIXED, depth, reps, derive(seed, 0))
    for r in range(reps):
        want = conditional_root(forest_tree(forest.fams, forest.rep_counts, r), mu1)
        assert abs(c_roots[r] - want) <= 1e-15
    assert set(s_roots.tolist()) <= {0.0, 1.0}


@pytest.mark.parametrize("depth", [0, 3])
def test_root_draws_follow_the_forest_on_the_batch_stream(depth):
    # one batch: after its family sizes, the stream gives reps uniforms for
    # S and then reps for S', each compared with the root's C
    mu1 = solve_mu1(Pgf(MIXED))
    reps, seed = 300, 30
    _, diag, c_roots, s_roots = endogeny_diagnostic(MIXED, mu1, depth, reps, seed)
    rng = derive(seed, 0)
    _sample_forest(MIXED, depth, reps, rng)
    u1, u2 = rng.random(reps), rng.random(reps)
    assert np.array_equal(s_roots, (u1 < c_roots).astype(float))
    assert diag.p_disagree == float(((u1 < c_roots) != (u2 < c_roots)).mean())


def test_diagnostic_matches_exact_finite_depth_recursion():
    # E[C(1-C)] at depth d equals mu1 - m2_d with m2 iterated from the
    # boundary constant: m2_0 = mu1^2, m2_{k+1} = 1 - 2 H(mu1) + H(m2_k)
    pgf = Pgf(FIN)
    mu1 = solve_mu1(pgf)
    depth = 12
    m2 = mu1 * mu1
    for _ in range(depth):
        m2 = 1.0 - 2.0 * pgf.eval(mu1) + pgf.eval(m2)
    exact_gap = mu1 - m2
    diag = endogeny_diagnostic(FIN, mu1, depth, 20_000, seed=28)[1]
    assert abs(diag.e_c_one_minus_c - exact_gap) < 3.0 * diag.se_e
    assert abs(diag.p_disagree - 2.0 * exact_gap) < 3.0 * diag.se_p
