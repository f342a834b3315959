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
children.  Monte Carlo estimators batch replicates into forests so the
per-level product recursion runs as a handful of vectorised passes; each
batch owns an RNG stream derived from (seed, batch index), which keeps
reruns bit-identical and batches embarrassingly parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .pgf import INF_SENTINEL, INFINITY, OffspringSpec, sample_family_sizes, validate_spec
from .streams import derive

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_BATCH = 2048  # frozen: results depend on it, so it is not a tuning knob
DEFAULT_BUDGET = 1_000_000

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
    reps: int
    fams: list[np.ndarray]
    rep_counts: list[np.ndarray]  # len depth+1, each shape (reps,)

    def boundary_count(self) -> int:
        return int(self.rep_counts[self.depth].sum())


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
    budget: int = DEFAULT_BUDGET,
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
    return _Forest(depth=depth, reps=reps, fams=fams, rep_counts=rep_counts)


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
    ``nodes`` materialises the address -> family-size map (INFINITY for
    infinite families, and the unexpanded boundary nodes at depth ``depth``
    are present with no recorded family); it is intended for small trees,
    oracles and serialisation, not for the Monte Carlo paths.
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

    @property
    def nodes(self) -> dict[tuple[int, ...], float]:
        levels = self.addresses()
        out: dict[tuple[int, ...], float] = {}
        for d in range(self.depth):
            for addr, fam in zip(levels[d], self.level_fams[d]):
                out[addr] = INFINITY if fam == INF_SENTINEL else float(fam)
        for addr in levels[self.depth]:
            out.setdefault(addr, float("nan"))  # boundary: family never sampled
        return out


@dataclass
class SolutionLayer:
    kind: str  # SOLUTION_DISCRETE | SOLUTION_CONDITIONAL
    values: dict[tuple[int, ...], float]


def sample_tree(
    spec: OffspringSpec,
    depth: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = DEFAULT_BUDGET,
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


def root_value(layer: SolutionLayer) -> float:
    return layer.values[()]


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

    def to_json(self) -> dict:
        return {
            "e_c_one_minus_c": self.e_c_one_minus_c,
            "p_disagree": self.p_disagree,
            "se_e": self.se_e,
            "se_p": self.se_p,
            "depth": self.depth,
            "reps": self.reps,
        }


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0.0 for a single replicate)."""
    se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return float(x.mean()), se


def _run_batches(worker, reps: int, out_arrays: list[np.ndarray]) -> None:
    """Fill slices of out_arrays batch by batch, optionally with threads.

    Batch results land in preassigned slots, so the outcome is independent
    of scheduling order and of RDE_LAB_THREADS.
    """
    jobs = list(enumerate(range(0, reps, DEFAULT_BATCH)))
    threads = _thread_count()

    def run(job):
        index, start = job
        size = min(DEFAULT_BATCH, reps - start)
        results = worker(index, size)
        for arr, res in zip(out_arrays, results):
            arr[start:start + size] = res

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, jobs))
    else:
        for job in jobs:
            run(job)


def _conditional_moments(
    spec: OffspringSpec,
    depth: int,
    reps: int,
    seed: int,
    boundary_value: float,
    node_cap: int,
    budget: int,
) -> McMoments:
    """Moments of the root value of C with the given constant boundary."""
    roots = np.empty(reps)

    def worker(index: int, size: int):
        rng = derive(seed, index)
        forest = _sample_forest(spec, depth, size, rng, node_cap=node_cap, budget=budget)
        boundary = np.full(forest.boundary_count(), boundary_value)
        return (_pull_up(forest.fams, boundary),)

    _run_batches(worker, reps, [roots])
    mean_c, se_mean = _mean_se(roots)
    m2_c, se_m2 = _mean_se(roots ** 2)
    return McMoments(mean_c=mean_c, m2_c=m2_c, se_mean=se_mean, se_m2=se_m2, depth=depth, reps=reps)


def mc_moments(
    spec: OffspringSpec,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = DEFAULT_BUDGET,
) -> McMoments:
    """Sample mean and second moment of the conditional-solution root value."""
    if reps < 100:
        raise ValueError("reps must be >= 100")
    validate_spec(spec)
    from .analysis import solve_mu1  # deferred: avoids import cycle at module load
    from .pgf import Pgf

    mu1 = solve_mu1(Pgf(spec))
    return _conditional_moments(spec, depth, reps, seed, mu1, node_cap, budget)


def endogeny_diagnostic(
    spec: OffspringSpec,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = DEFAULT_BUDGET,
    keep_values: bool = False,
):
    """Estimate E[C(1-C)] and P(S != S') from per-replicate trees.

    S and S' are two independent boundary resamplings on the same tree, so
    P(S != S' | tree) = 2 C (1 - C); both statistics vanish exactly when
    the discrete solution is endogenous.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    validate_spec(spec)
    from .analysis import solve_mu1
    from .pgf import Pgf

    mu1 = solve_mu1(Pgf(spec))
    c_roots = np.empty(reps)
    s_roots = np.empty(reps)
    s2_roots = np.empty(reps)

    def worker(index: int, size: int):
        rng = derive(seed, index)
        forest = _sample_forest(spec, depth, size, rng, node_cap=node_cap, budget=budget)
        nb = forest.boundary_count()
        c = _pull_up(forest.fams, np.full(nb, mu1))
        s = _pull_up(forest.fams, rng.random(nb) < mu1).astype(float)
        s2 = _pull_up(forest.fams, rng.random(nb) < mu1).astype(float)
        return c, s, s2

    _run_batches(worker, reps, [c_roots, s_roots, s2_roots])
    e_c_one_minus_c, se_e = _mean_se(c_roots * (1.0 - c_roots))
    p_disagree, se_p = _mean_se((s_roots != s2_roots).astype(float))
    report = EndogenyDiagnostic(
        e_c_one_minus_c=e_c_one_minus_c,
        p_disagree=p_disagree,
        se_e=se_e,
        se_p=se_p,
        depth=depth,
        reps=reps,
    )
    if keep_values:
        return report, c_roots, s_roots
    return report


def iterated_conditional(
    spec: OffspringSpec,
    cycle,
    half_depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
    budget: int = DEFAULT_BUDGET,
) -> McMoments:
    """Moments of the iterated-recursion endogenous solution C+.

    Runs the conditional recursion with boundary constant mu_plus at even
    depth 2*half_depth, so the root estimates the C+ of the two-cycle.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    validate_spec(spec)
    return _conditional_moments(spec, 2 * half_depth, reps, seed, float(cycle.mu_plus), node_cap, budget)


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
