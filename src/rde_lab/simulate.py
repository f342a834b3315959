"""Galton-Watson tree sampling and tree-indexed solutions.

Two tree-indexed solutions of X_u = 1 - prod_i X_{ui} are computed on
sampled trees of a fixed depth n:

* the discrete solution S: boundary nodes at depth n draw iid
  Bernoulli(mu1) values and the recursion is applied upward, so every
  S_u lies in {0,1};
* the conditional solution C: boundary nodes carry the constant mu1 and
  the same recursion yields C_u = P(S_u = 1 | tree) exactly.

Nodes with an infinite family are pinned to value 1 (an infinite product
of iid values with mean < 1 vanishes a.s.) and have no materialised
children.  The Monte Carlo estimators never build the depth-n boundary:
a depth-(n-1) node with finite family k has C = 1 - mu1^k, and its S is
Bernoulli(1 - mu1^k), as 1 - prod B_i over k iid Bernoulli(mu1) values
is 0 only when all are 1.  One pass over a forest yields C, S and an
independent resampling S' at every root.  Replicates are batched into
forests so the per-level product recursion runs as a handful of
vectorised passes; each batch owns an RNG stream derived from (seed,
batch index), which keeps reruns bit-identical and batches
embarrassingly parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .pgf import INF_SENTINEL, SAMPLE_BUDGET, OffspringSpec, sample_family_sizes, validate_spec
from .streams import derive

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_BATCH = 2048  # frozen: results depend on it, so it is not a tuning knob

SOLUTION_DISCRETE = "DiscreteS"
SOLUTION_CONDITIONAL = "ConditionalC"


def _thread_count() -> int:
    raw = os.environ.get("RDE_LAB_THREADS", "1")
    try:
        return max(1, min(64, int(raw)))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Forest representation (level arrays, BFS order, -1 marks infinite families)
# ---------------------------------------------------------------------------

@dataclass
class _Forest:
    """reps independent trees stored level-by-level in one array per level.

    ``fams[d]`` holds the family sizes of all depth-d nodes across the
    batch in BFS order; ``rep_counts[d]`` says how many depth-d nodes each
    replicate owns, which keeps per-replicate slices recoverable.
    """

    depth: int
    fams: list[np.ndarray]
    rep_counts: list[np.ndarray]  # len depth+1, each shape (reps,)


def _segment_sums(values: np.ndarray, seg_counts: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over consecutive segments of the given lengths.

    Cumsum-based so zero-length segments are handled (unlike reduceat).
    """
    cs = np.concatenate([[0], np.cumsum(values)])
    offs = np.concatenate([[0], np.cumsum(seg_counts)])
    return (cs[offs[1:]] - cs[offs[:-1]]).astype(np.int64)


def _sample_forest(
    spec: OffspringSpec,
    depth: int,
    reps: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = SAMPLE_BUDGET,
) -> _Forest:
    fams: list[np.ndarray] = []
    rep_counts: list[np.ndarray] = [np.ones(reps, dtype=np.int64)]
    totals = np.ones(reps, dtype=np.int64)
    for d in range(depth):
        count = int(rep_counts[d].sum())
        level = sample_family_sizes(spec, count, rng, budget)
        fams.append(level)
        if count and level.min() == level.max() and level[0] != INF_SENTINEL:
            # homogeneous level (e.g. a deterministic spec): no pass needed
            children = rep_counts[d] * int(level[0])
        else:
            finite_sizes = np.where(level == INF_SENTINEL, 0, level)
            children = _segment_sums(finite_sizes, rep_counts[d])
        rep_counts.append(children)
        totals += children
        if int(totals.max()) > node_cap:
            raise ResourceError(
                f"tree exceeded node cap {node_cap} at depth {d + 1}; "
                "reduce depth or the spec is supercritical"
            )
    return _Forest(depth=depth, fams=fams, rep_counts=rep_counts)


def one_minus_prod(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each parent, 1 - the product of its consecutive children.

    ``sizes[i]`` is the family size of parent i; the children of the
    parents are laid out back to back in ``values``.  An infinite family
    (INF_SENTINEL) consumes no values and gives 1.  Float values use
    (multiply, 1 - x); bool values use (logical_and, not), which is the
    same map on {0,1}.
    """
    if values.dtype == bool:
        reduce, complement = np.logical_and, np.logical_not
    else:
        reduce, complement = np.multiply, lambda x: 1.0 - x
    n = sizes.shape[0]
    if n > 0 and sizes.min() == sizes.max() and sizes[0] != INF_SENTINEL:
        w = int(sizes[0])
        if w == 1:
            return complement(values)
        if w == 2:
            return complement(reduce(values[0::2], values[1::2]))
        return complement(reduce.reduce(values.reshape(n, w), axis=1))
    finite = sizes != INF_SENTINEL
    out = np.ones(n, dtype=values.dtype)
    if finite.any():
        counts = np.where(finite, sizes, 0)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        out[finite] = complement(reduce.reduceat(values, starts[finite]))
    return out


def _pull_up(fams: list[np.ndarray], boundary: np.ndarray, keep_levels: bool = False):
    """Apply value(u) = 1 - prod(children) upward from boundary values.

    Bool boundaries give bool values throughout.  Returns root values, or
    the whole list of per-level value arrays when keep_levels is set.
    """
    levels = [boundary] if keep_levels else None
    v = boundary
    for sizes in reversed(fams):
        v = one_minus_prod(v, sizes)
        if keep_levels:
            levels.append(v)
    if keep_levels:
        levels.reverse()  # index by depth
        return levels
    return v


# ---------------------------------------------------------------------------
# Single-tree API
# ---------------------------------------------------------------------------

@dataclass
class SampledTree:
    """A depth-bounded family tree.

    Addresses are tuples of 1-based child indices, the root being ().
    """

    depth: int
    level_fams: list[np.ndarray]
    level_counts: list[int]

    @property
    def node_count(self) -> int:
        return int(sum(self.level_counts))

    def addresses(self) -> list[list[tuple[int, ...]]]:
        levels: list[list[tuple[int, ...]]] = [[()]]
        for d in range(self.depth):
            nxt: list[tuple[int, ...]] = []
            for addr, fam in zip(levels[d], self.level_fams[d]):
                if fam != INF_SENTINEL:
                    nxt.extend(addr + (i,) for i in range(1, int(fam) + 1))
            levels.append(nxt)
        return levels


@dataclass
class SolutionLayer:
    kind: str  # SOLUTION_DISCRETE | SOLUTION_CONDITIONAL
    values: dict[tuple[int, ...], float]


def sample_tree(
    spec: OffspringSpec,
    depth: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = SAMPLE_BUDGET,
) -> SampledTree:
    """Breadth-first sample to the given depth; infinite nodes are leaves."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    validate_spec(spec)
    forest = _sample_forest(spec, depth, 1, rng, node_cap=node_cap, budget=budget)
    counts = [int(c[0]) for c in forest.rep_counts]
    return SampledTree(depth=depth, level_fams=forest.fams, level_counts=counts)


def _layer_from_levels(tree: SampledTree, value_levels: list[np.ndarray], kind: str, boundary_depth: int) -> SolutionLayer:
    addr_levels = tree.addresses()
    values: dict[tuple[int, ...], float] = {}
    for d in range(boundary_depth + 1):
        for addr, val in zip(addr_levels[d], value_levels[d]):
            values[addr] = float(val)
    return SolutionLayer(kind=kind, values=values)


def conditional_solution(tree: SampledTree, mu1: float, boundary_depth: int | None = None) -> SolutionLayer:
    """C on the tree: boundary nodes at the given depth hold the constant mu1."""
    n = tree.depth if boundary_depth is None else boundary_depth
    if not 0 <= n <= tree.depth:
        raise ValueError("boundary_depth out of range")
    boundary = np.full(tree.level_counts[n], float(mu1))
    levels = _pull_up(tree.level_fams[:n], boundary, keep_levels=True)
    return _layer_from_levels(tree, levels, SOLUTION_CONDITIONAL, n)


def discrete_solution(tree: SampledTree, mu1: float, rng: np.random.Generator) -> SolutionLayer:
    """S on the tree: iid Bernoulli(mu1) boundary, {0,1} values throughout."""
    boundary = (rng.random(tree.level_counts[tree.depth]) < mu1).astype(float)
    levels = _pull_up(tree.level_fams, boundary, keep_levels=True)
    return _layer_from_levels(tree, levels, SOLUTION_DISCRETE, tree.depth)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McMoments:
    mean_c: float
    m2_c: float
    se_mean: float
    se_m2: float
    depth: int
    reps: int

    def to_json(self) -> dict:
        return {
            "mean_C": self.mean_c,
            "m2_C": self.m2_c,
            "se_mean": self.se_mean,
            "se_m2": self.se_m2,
            "depth": self.depth,
            "reps": self.reps,
        }


@dataclass(frozen=True)
class EndogenyDiagnostic:
    e_c_one_minus_c: float
    p_disagree: float
    se_e: float
    se_p: float
    depth: int
    reps: int


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0.0 for a single replicate)."""
    se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def _run_batches(worker, reps: int) -> list[np.ndarray]:
    """Each output of worker(batch index, batch size), concatenated over the
    batches in batch order, so it is independent of RDE_LAB_THREADS."""
    sizes = [min(DEFAULT_BATCH, reps - start) for start in range(0, reps, DEFAULT_BATCH)]
    threads = _thread_count()
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(len(sizes)), sizes))
    else:
        results = list(map(worker, range(len(sizes)), sizes))
    return [np.concatenate(outputs) for outputs in zip(*results)]


def _forest_pass(
    spec: OffspringSpec,
    b: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int,
    budget: int,
) -> list[np.ndarray]:
    """Root values of C, S and S' on one forest with boundary constant b.

    Family sizes are drawn first, then one uniform per depth-(n-1) node
    (per root at depth 0) for S and another for S'.
    """
    validate_spec(spec)

    def worker(index: int, size: int):
        rng = derive(seed, index)
        forest = _sample_forest(spec, depth, size, rng, node_cap=node_cap, budget=budget)
        if depth:
            # C at depth n-1 by family size k: 1 - b^k, the powers multiplied
            # out as a pull-up does, and an appended 1 that INF_SENTINEL (-1) indexes
            kmax = int(forest.fams[-1].max(initial=0))
            c = np.append(1.0 - np.cumprod(np.r_[1.0, np.full(kmax, b)]), 1.0)[forest.fams[-1]]
        else:
            c = np.full(size, b)
        above = forest.fams[:-1]
        s = _pull_up(above, rng.random(c.size) < c).astype(float)
        s2 = _pull_up(above, rng.random(c.size) < c).astype(float)
        return _pull_up(above, c), s, s2

    return _run_batches(worker, reps)


def _moments(c_roots: np.ndarray, depth: int) -> McMoments:
    mean_c, se_mean = _mean_se(c_roots)
    m2_c, se_m2 = _mean_se(c_roots ** 2)
    return McMoments(mean_c=mean_c, m2_c=m2_c, se_mean=se_mean, se_m2=se_m2, depth=depth, reps=c_roots.size)


def mc_moments(
    spec: OffspringSpec,
    mu1: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = SAMPLE_BUDGET,
) -> McMoments:
    """Sample mean and second moment of the conditional-solution root value,
    as ``endogeny_diagnostic`` returns them for the same arguments."""
    return endogeny_diagnostic(spec, mu1, depth, reps, seed, node_cap, budget)[0]


def endogeny_diagnostic(
    spec: OffspringSpec,
    mu1: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = SAMPLE_BUDGET,
) -> tuple[McMoments, EndogenyDiagnostic, np.ndarray, np.ndarray]:
    """Moments of C, E[C(1-C)] and P(S != S') from one forest.

    S and S' are two independent boundary resamplings on the same tree, so
    P(S != S' | tree) = 2 C (1 - C); both statistics vanish exactly when
    the discrete solution is endogenous.  Returns the moments, the
    diagnostic, and the root values of C and S per replicate.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    c_roots, s_roots, s2_roots = _forest_pass(spec, mu1, depth, reps, seed, node_cap, budget)
    e_c_one_minus_c, se_e = _mean_se(c_roots * (1.0 - c_roots))
    p_disagree, se_p = _mean_se((s_roots != s2_roots).astype(float))
    diag = EndogenyDiagnostic(
        e_c_one_minus_c=e_c_one_minus_c,
        p_disagree=p_disagree,
        se_e=se_e,
        se_p=se_p,
        depth=depth,
        reps=reps,
    )
    return _moments(c_roots, depth), diag, c_roots, s_roots


def iterated_conditional(
    spec: OffspringSpec,
    cycle,
    half_depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = SAMPLE_BUDGET,
) -> McMoments:
    """Moments of the iterated-recursion endogenous solution C+.

    Runs the conditional recursion with boundary constant mu_plus at even
    depth 2*half_depth, so the root estimates the C+ of the two-cycle.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    c_roots, _, _ = _forest_pass(spec, float(cycle.mu_plus), 2 * half_depth, reps, seed, node_cap, budget)
    return _moments(c_roots, 2 * half_depth)


def extract_tree(forest: _Forest, rep: int) -> SampledTree:
    """Slice one replicate's tree out of a forest (testing/diagnostics)."""
    fams = []
    counts = []
    for d in range(forest.depth + 1):
        cum = np.concatenate([[0], np.cumsum(forest.rep_counts[d])])
        counts.append(int(forest.rep_counts[d][rep]))
        if d < forest.depth:
            fams.append(forest.fams[d][cum[rep]:cum[rep + 1]])
    return SampledTree(depth=forest.depth, level_fams=fams, level_counts=counts)
