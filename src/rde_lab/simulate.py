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
and a constant level v is pulled up as 1 - v^k by family size k.  A
Deterministic(d) level is stored as its width d, so its forest holds no
per-node array and C stays one value up to the root.  Other levels go
through one_minus_prod, the kernel apply_T shares.  Sampled levels are
drawn, and powers tabled, CHUNK values at a time.
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
from .pgf import INF_SENTINEL, Deterministic, OffspringSpec, validate_spec
from .sizes import sample_family_sizes
from .streams import derive

DEFAULT_NODE_CAP = 10_000_000
DEFAULT_BATCH = 2048  # frozen: results depend on it, so it is not a tuning knob
STRIDED_MAX_WIDTH = 8  # widest family multiplied as strided columns; a speed choice only
CHUNK = 2**16  # values one kernel, table or sampler call holds; outputs depend on it only where pgf prunes
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

    One reduceat over the starts of the non-empty segments, so nothing as
    long as ``values`` is built; an empty segment sums to 0.
    """
    sums = np.zeros(seg_counts.size, dtype=np.int64)
    if values.size:
        nonempty = seg_counts > 0
        starts = np.cumsum(seg_counts) - seg_counts
        sums[nonempty] = np.add.reduceat(values, starts[nonempty])
    return sums


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
            level = np.empty(n, dtype=np.int64)
            for start in range(0, n, CHUNK):
                level[start:start + CHUNK] = sample_family_sizes(spec, min(CHUNK, n - start), rng)
            stored += n
            children = _segment_sums(level, rep_counts[d])
        fams.append(level)
        rep_counts.append(children)
        totals += children
        # a family past the cap fails it alone, as does a size saturated at 2**63 - 1 that wrapped the sums
        if int(totals.max()) > node_cap or np.max(level, initial=0) > node_cap:
            raise ResourceError(
                f"tree exceeded node cap {node_cap} at depth {d + 1}; "
                "reduce depth or the spec is supercritical"
            )
    return _Forest(fams=fams, rep_counts=rep_counts)


def one_minus_prod(values: np.ndarray, sizes: np.ndarray | int, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` 1 - the product of each family's children, laid
    out back to back in ``values``, and return it.

    ``sizes`` is the int width that every family has, or one size per
    family, where an infinite family (INF_SENTINEL) stores none and gives 1.
    A width up to STRIDED_MAX_WIDTH multiplies strided columns; everything
    else goes through one reduceat.  Both multiply each family's children in
    order, so they agree bit for bit.
    """
    if np.ndim(sizes) == 0 and sizes <= STRIDED_MAX_WIDTH:
        np.copyto(out, values[0::sizes])
        for j in range(1, sizes):
            np.multiply(out, values[j::sizes], out=out)
        return np.subtract(1.0, out, out=out)
    sizes = np.broadcast_to(sizes, out.shape)
    finite = sizes != INF_SENTINEL
    starts = np.zeros(out.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    out.fill(1.0)
    out[finite] = 1.0 - np.multiply.reduceat(values, starts[finite])
    return out


def running_product(chunks, prod: float = 1.0) -> float:
    """``prod`` times the values of the arrays in ``chunks``, multiplied in
    order as one_minus_prod multiplies a family's children, a chunk at a time."""
    for chunk in chunks:
        prod = np.multiply.reduce(chunk, initial=prod)
    return prod


def _one_minus_powers(v: float, sizes: np.ndarray) -> np.ndarray:
    """1 - v^k for each family size k in ``sizes``, 1 for INF_SENTINEL, the
    powers multiplied in order as one_minus_prod multiplies k children.
    Sizes up to CHUNK read a table of v^0..v^CHUNK; one running product walks
    on through the distinct larger sizes, a chunk of factors at a time, until
    a power that one more factor leaves unchanged."""
    top = int(np.max(sizes, initial=0))
    factors = np.full(min(top, CHUNK), v)
    powers = np.cumprod(np.r_[1.0, factors])
    table = 1.0 - powers
    table[INF_SENTINEL] = 1.0
    out = table.take(sizes, mode="clip")
    if top > CHUNK:
        wide = sizes > CHUNK
        keys, where = np.unique(sizes[wide], return_inverse=True)
        prods, prod, reached = np.empty(keys.size), powers[-1], CHUNK
        for i, k in enumerate(keys.tolist()):
            if prod * v != prod:  # else every further power is prod: 0, or a subnormal stuck for v > 1/2
                prod = running_product((factors[:min(CHUNK, k - s)] for s in range(reached, k, CHUNK)), prod)
            prods[i], reached = prod, k
        out[wide] = 1.0 - prods[where]
    return out


def _pull_up(fams: list[np.ndarray | int], boundary: np.ndarray | float) -> np.ndarray | float:
    """Root values of value(u) = 1 - prod(children), applied upward from
    boundary values: one per boundary node, or one float for them all, which
    stays one float over a width level."""
    v = boundary
    for sizes in reversed(fams):
        if np.ndim(v) == 0 and isinstance(sizes, int):
            v = _one_minus_powers(v, np.array([sizes]))[0]
        elif np.ndim(v) == 0:
            v = _one_minus_powers(v, sizes)
        else:
            v = one_minus_prod(v, sizes, np.empty(v.size // sizes if isinstance(sizes, int) else sizes.size))
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
