"""Galton-Watson forests and the root values of the tree-indexed solutions.

On a tree of depth n the conditional solution C of X_u = 1 - prod_i X_{ui}
holds the constant mu1 at the depth-n boundary, and the recursion applied
upward gives C_u = P(S_u = 1 | tree), S being the discrete solution whose
boundary is iid Bernoulli(mu1).  Given the tree, the root's S is
Bernoulli(C_root), so S and an independent resampling S' are drawn at the
root from one pull-up of C; no per-node S is built.

Nodes with an infinite family are pinned to value 1 (an infinite product
of iid values with mean < 1 vanishes a.s.) and have no materialised
children.  The depth-n boundary is never built: it is the one value mu1,
and a constant level is pulled up as one value through the table 1 - v^k
by family size k.  A Deterministic(d) level is stored as its width d, so
its forest holds no per-node array and C stays one value up to the root.
Replicates are batched into forests so the per-level product recursion
runs as a handful of vectorised passes; the batches run one after
another, so a run holds one batch's forest at a time, and each owns an
RNG stream derived from (seed, batch index), which keeps reruns
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceError
from .pgf import INF_SENTINEL, Deterministic, OffspringSpec, sample_family_sizes, validate_spec
from .streams import derive

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_BATCH = 2048  # frozen: results depend on it, so it is not a tuning knob
STRIDED_MAX_WIDTH = 8  # widest family multiplied as strided columns; a speed choice only
POWER_CHUNK = 2**16  # factors per cumprod when a width level raises one value to its width
MAX_FOREST_DRAWS = 2**27  # family sizes one batch's forest holds, as distiter.MAX_CHILD_DRAWS


# ---------------------------------------------------------------------------
# Forest representation (level arrays or widths, BFS order, stored-child counts)
# ---------------------------------------------------------------------------

@dataclass
class _Forest:
    """reps independent trees stored level-by-level in one entry per level.

    ``fams[d]`` holds the children each depth-d node stores (0 for an
    infinite family) across the batch in BFS order, or, for a
    Deterministic(d) spec, the int width d that every node of the level
    has; ``rep_counts[d]`` says how many depth-d nodes each replicate owns,
    which keeps per-replicate slices recoverable.
    """

    fams: list[np.ndarray | int]
    rep_counts: list[np.ndarray]  # len depth+1, each shape (reps,)


def _segment_sums(values: np.ndarray, seg_counts: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over consecutive segments of the given lengths.

    Cumsum-based so zero-length segments are handled (unlike reduceat);
    the running sums go straight into one buffer with a leading 0.
    """
    cs = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    offs = np.zeros(seg_counts.size + 1, dtype=np.int64)
    np.cumsum(seg_counts, out=offs[1:])
    return cs[offs[1:]] - cs[offs[:-1]]


def _sample_forest(
    spec: OffspringSpec,
    depth: int,
    reps: int,
    rng: np.random.Generator,
    node_cap: int = DEFAULT_NODE_CAP,
) -> _Forest:
    fams: list[np.ndarray | int] = []
    rep_counts: list[np.ndarray] = [np.ones(reps, dtype=np.int64)]
    totals = np.ones(reps, dtype=np.int64)
    stored = 0  # family sizes held by the sampled levels so far
    for d in range(depth):
        if isinstance(spec, Deterministic):
            # stored as its width, which draws nothing; a sampled level stays an
            # array, as one all INF_SENTINEL would lose its node count
            level = spec.d
            children = rep_counts[d] * level
        else:
            n = int(rep_counts[d].sum())
            if stored + n > MAX_FOREST_DRAWS:
                raise ResourceError(
                    f"level {d} of a batch of {reps} trees has {n} nodes and the levels above it store "
                    f"{stored} family sizes, more than the limit {MAX_FOREST_DRAWS} together; "
                    f"the sizes alone would need {8 * (stored + n)} bytes"
                )
            level = sample_family_sizes(spec, n, rng)
            stored += n
            children = _segment_sums(level, rep_counts[d])
        fams.append(level)
        rep_counts.append(children)
        totals += children
        if int(totals.max()) > node_cap:
            raise ResourceError(
                f"tree exceeded node cap {node_cap} at depth {d + 1}; "
                "reduce depth or the spec is supercritical"
            )
    return _Forest(fams=fams, rep_counts=rep_counts)


def one_minus_prod_uniform(values: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` 1 - the product of each family of ``width``
    consecutive children in ``values``, and return it.

    Narrow families multiply strided columns; wider ones reduce the rows of
    a (families, width) view.  Both multiply each family's children in
    order, so the two forms agree bit for bit.
    """
    if width <= STRIDED_MAX_WIDTH:
        np.copyto(out, values[0::width])
        for j in range(1, width):
            np.multiply(out, values[j::width], out=out)
    else:
        np.multiply.reduce(values.reshape(out.size, width), axis=1, out=out)
    return np.subtract(1.0, out, out=out)


def one_minus_prod(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each parent, 1 - the product of its consecutive children.

    ``sizes[i]`` is the number of children parent i stores; the children
    of the parents are laid out back to back in ``values``.  An infinite
    family (INF_SENTINEL, 0) stores none and gives 1.
    """
    n = sizes.shape[0]
    if n > 0 and sizes.min() == sizes.max() and sizes[0] != INF_SENTINEL:  # values[0::0] raises
        return one_minus_prod_uniform(values, int(sizes[0]), np.empty(n))
    finite = sizes != INF_SENTINEL
    out = np.ones(n)
    if finite.any():
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        out[finite] = 1.0 - np.multiply.reduceat(values, starts[finite])
    return out


def _ordered_power(v: float, d: int) -> float:
    """v^d multiplied left to right, as the kernels multiply d children, by
    cumprod a bounded chunk at a time: each chunk starts from the running
    product, so the multiplies, their order and the bits are those of one
    cumprod over all d factors."""
    carry = 1.0
    for start in range(0, d, POWER_CHUNK):
        carry = np.cumprod(np.r_[carry, np.full(min(POWER_CHUNK, d - start), v)])[-1]
    return float(carry)


def _pull_up(fams: list[np.ndarray | int], boundary: np.ndarray | float) -> np.ndarray | float:
    """Root values of value(u) = 1 - prod(children), applied upward from
    boundary values: one per boundary node, or one float for them all.

    A constant level v goes up as table[sizes], table[k] = 1 - v^k with the
    powers multiplied in order as the kernels multiply children, and 1 for
    an infinite family (INF_SENTINEL); over a width level it stays one value.
    """
    v = boundary
    for sizes in reversed(fams):
        if np.ndim(v) == 0 and isinstance(sizes, int):
            v = 1.0 - _ordered_power(v, sizes)
        elif np.ndim(v) == 0:
            table = 1.0 - np.cumprod(np.r_[1.0, np.full(int(np.max(sizes, initial=0)), v)])
            table[INF_SENTINEL] = 1.0
            v = table[sizes]
        elif isinstance(sizes, int):
            v = one_minus_prod_uniform(v, sizes, np.empty(v.size // sizes))
        else:
            v = one_minus_prod(v, sizes)
    return v


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McMoments:
    mean_C: float
    m2_C: float
    se_mean: float
    se_m2: float
    depth: int
    reps: int


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


def _batch_roots(
    spec: OffspringSpec, b: float, depth: int, size: int, rng: np.random.Generator, node_cap: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Root values of C, S and S' on one batch's forest; the forest is
    freed on return, before the next batch is sampled."""
    forest = _sample_forest(spec, depth, size, rng, node_cap=node_cap)
    # one value when every root has the same C: depth 0, or a deterministic spec
    c = np.broadcast_to(_pull_up(forest.fams, b), size)
    # given the tree, S and S' at the root are independent Bernoulli(C) draws
    s = (rng.random(size) < c).astype(float)
    s2 = (rng.random(size) < c).astype(float)
    return c, s, s2


def _forest_pass(
    spec: OffspringSpec,
    b: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int,
) -> list[np.ndarray]:
    """Root values of C, S and S' on one forest with boundary constant b.

    The batches run in order, batch i on stream derive(seed, i).  Family
    sizes are drawn first, then one uniform per root for S and another
    per root for S'.
    """
    validate_spec(spec)
    batches = [
        _batch_roots(spec, b, depth, min(DEFAULT_BATCH, reps - start), derive(seed, index), node_cap)
        for index, start in enumerate(range(0, reps, DEFAULT_BATCH))
    ]
    return [np.concatenate(roots) for roots in zip(*batches)]


def _moments(c_roots: np.ndarray, depth: int) -> McMoments:
    mean_C, se_mean = _mean_se(c_roots)
    m2_C, se_m2 = _mean_se(c_roots ** 2)
    return McMoments(mean_C=mean_C, m2_C=m2_C, se_mean=se_mean, se_m2=se_m2, depth=depth, reps=c_roots.size)


def mc_moments(
    spec: OffspringSpec,
    mu1: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> McMoments:
    """Sample mean and second moment of the conditional-solution root value,
    as ``endogeny_diagnostic`` returns them for the same arguments."""
    return endogeny_diagnostic(spec, mu1, depth, reps, seed, node_cap)[0]


def endogeny_diagnostic(
    spec: OffspringSpec,
    mu1: float,
    depth: int,
    reps: int,
    seed: int,
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[McMoments, EndogenyDiagnostic, np.ndarray, np.ndarray]:
    """Moments of C, E[C(1-C)] and P(S != S') from one forest.

    S and S' are two independent Bernoulli(C) draws at the root of the
    same tree, so P(S != S' | tree) = 2 C (1 - C); both statistics vanish
    exactly when the discrete solution is endogenous.  Returns the moments,
    the diagnostic, and the root values of C and S per replicate.
    """
    if reps < 100:
        raise ValueError("reps must be >= 100")
    c_roots, s_roots, s2_roots = _forest_pass(spec, mu1, depth, reps, seed, node_cap)
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
