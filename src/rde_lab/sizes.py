"""Family-size sampling: iid draws of N for the tree and law layers.

Finite and thinned family sizes are drawn by inverse CDF, one uniform per
family.  A thinned spec's table is the exact series ``Pgf.pmf_prefix``,
long enough to sum to H(1); the uniforms past it are the infinite family,
so no exploration decides it.  Where no table within ``TABLE_WORK`` sums
to H(1) (critical pruning, or a base of unbounded support), draws run the
pruning process instead, and only there a draw that explores more than
``SAMPLE_BUDGET`` nodes counts as infinite.

Only ``simulate`` and ``distiter`` import this module, so the analysis
commands, which evaluate H on floats, load neither it nor numpy.
"""

from __future__ import annotations

import json

import numpy as np

from .pgf import INF_SENTINEL, Deterministic, FinitePmf, Geometric, OffspringSpec, Pgf, Thinned, spec_to_json

# explored-node count after which a thinned family-size draw counts as infinite
SAMPLE_BUDGET = 1_000_000

# n^2 * J bound on the work of a thinned inverse-CDF table of n entries (see _thinned_cdf)
TABLE_WORK = 2**25

# longest cdf that a draw locates by counting thresholds instead of by binary search
SHORT_CDF = 8


def sample_family_sizes(spec: OffspringSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n iid draws of N as an int64 array of the children each family
    stores: an infinite family stores none and reads INF_SENTINEL (0).

    Deterministic and geometric specs are sampled directly.  Finite and
    thinned specs share one inverse-CDF sampler: one uniform per family,
    located in a cumulative table built once per process.  A finite spec's
    table is its normalised weights, and its draws are the ones
    ``rng.choice(support, p=probs)`` makes.  A thinned spec's table is the
    exact series ``Pgf.pmf_prefix(k)``, lengthened until its sum reaches
    H(1); a uniform past the table's end is the infinite family.

    A thinned table that stays short of H(1) within the work cap
    ``TABLE_WORK`` (critical pruning, whose tail decays like k^-1/2, or a
    base of unbounded support such as a geometric one) falls back to
    running the pruning process on the base tree: every child line survives
    with probability p and is cut (one count) with probability q.  Only
    there does ``SAMPLE_BUDGET`` apply: a draw whose explored-node count
    exceeds it is reported as infinite.  That inflates a huge finite family to
    infinity, which downstream value recursions treat the same way a truly
    infinite family behaves (node value ~ 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(spec, Deterministic):
        return np.full(n, spec.d, dtype=np.int64)
    if isinstance(spec, Geometric):
        return rng.geometric(spec.alpha, size=n).astype(np.int64, copy=False)
    table = _inverse_cdf_table(spec)
    if table is None:
        return _sample_thinned(spec, n, rng)
    cdf, values = table
    u = rng.random(n)
    if cdf.size <= SHORT_CDF:
        # the count of entries <= u is the index searchsorted(side="right") gives, in a few flat passes
        idx = np.zeros(n, dtype=np.intp)
        for c in cdf:
            idx += u >= c
    else:
        idx = cdf.searchsorted(u, side="right")
    return values[idx]


_TABLES: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}


def _inverse_cdf_table(spec: FinitePmf | Thinned) -> tuple[np.ndarray, np.ndarray] | None:
    """(cdf, values): a uniform u draws values[cdf.searchsorted(u, side="right")].
    None for a thinned spec whose table does not complete.  Cached by the
    spec's JSON, as a FinitePmf spec holds a dict and does not hash."""
    key = json.dumps(spec_to_json(spec))
    if key not in _TABLES:
        if isinstance(spec, FinitePmf):
            values, probs = _support_and_probs(spec)
            cdf = np.cumsum(probs)
            cdf /= cdf[-1]
            _TABLES[key] = cdf, values
        else:
            cdf = _thinned_cdf(spec)
            # the index is the size, and one past the table is the infinite family
            _TABLES[key] = None if cdf is None else (cdf, np.r_[np.arange(cdf.size), INF_SENTINEL])
    return _TABLES[key]


def _thinned_cdf(spec: Thinned) -> np.ndarray | None:
    """P(N <= k) for k < n, with n doubled from 256 until the last entry
    reaches H(1), the low end of its eval_bounds bracket, to within the
    cumsum's rounding, about n ulps; the finite mass left out is then at
    most the bracket's width plus that.  pmf_prefix(n) costs O(n^2 * J),
    J the base's largest size below n, so None once that passes TABLE_WORK."""
    eps = np.finfo(float).eps
    h1 = Pgf(spec).eval(1.0)
    n = 256
    while True:
        g, _ = Pgf(spec.base).pmf_prefix(n)
        if n * n * int(np.flatnonzero(g).max(initial=1)) > TABLE_WORK:
            return None
        cdf = np.cumsum(Pgf(spec).pmf_prefix(n)[0])
        if cdf[-1] >= h1 - n * eps:
            return cdf
        n *= 2


def _support_and_probs(spec: FinitePmf) -> tuple[np.ndarray, np.ndarray]:
    """The sizes with positive mass, ascending, then INF_SENTINEL if
    infinity has mass, as int64; and their probabilities, normalised."""
    support = [k for k, w in sorted(spec.weights.items()) if w > 0.0]
    probs = [spec.weights[k] for k in support]
    if spec.infinity_mass > 0.0:
        support.append(INF_SENTINEL)
        probs.append(spec.infinity_mass)
    probs = np.asarray(probs, dtype=float)
    return np.asarray(support, dtype=np.int64), probs / probs.sum()


def _sum_family_draws(
    base: OffspringSpec, counts: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of counts[i] iid base draws, infinite-draw flag), per entry.

    Deterministic, geometric and finite bases have closed forms for the
    sum, which keeps each pruning generation O(#samples) instead of
    O(#nodes).
    """
    if isinstance(base, Deterministic):
        return counts * base.d, np.zeros(counts.size, dtype=bool)
    if isinstance(base, Geometric):
        sums = counts.astype(np.int64).copy()
        pos = counts > 0
        if pos.any():
            # {1,2,...}-geometric sum = count + NegBinomial(count, alpha)
            sums[pos] += rng.negative_binomial(counts[pos], base.alpha)
        return sums, np.zeros(counts.size, dtype=bool)
    if isinstance(base, FinitePmf):
        # how many of the counts[i] draws take each size; INF_SENTINEL (0) adds nothing to the sum
        support, probs = _support_and_probs(base)
        tallies = rng.multinomial(counts, probs)
        return tallies @ support, tallies[:, support == INF_SENTINEL].any(axis=1)
    # a thinned base: one draw per node
    owners = np.repeat(np.arange(counts.size), counts)
    fams = sample_family_sizes(base, int(owners.size), rng)
    inf_mask = np.bincount(owners[fams == INF_SENTINEL], minlength=counts.size) > 0
    sums = np.bincount(owners, weights=fams.astype(float), minlength=counts.size).astype(np.int64)
    return sums, inf_mask


def _sample_thinned(spec: Thinned, n: int, rng: np.random.Generator) -> np.ndarray:
    deaths = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=np.int64)  # live (surviving) nodes awaiting expansion
    idx = np.arange(n)
    while idx.size:
        # total base children of this generation's live nodes, per sample
        children, blown = _sum_family_draws(spec.base, active, rng)
        # an infinite base family sheds infinitely many cut lines a.s.
        visited[idx] += children
        survivors = rng.binomial(children, spec.p)
        deaths[idx] += children - survivors
        blown = blown | (visited[idx] > SAMPLE_BUDGET)
        deaths[idx[blown]] = INF_SENTINEL
        going = (survivors > 0) & ~blown
        idx = idx[going]
        active = survivors[going]
    return deaths
