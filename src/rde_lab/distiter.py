"""Iteration of the distributional map on empirical samples.

One application of the map T sends a law nu on [0,1] to the law of
1 - prod_{i=1}^N x_i with the x_i iid from nu and N an independent family
size.  Distributions are carried as equally-weighted samples because the
map has no closed-form density action; pushing a sample through the map is
the faithful finite-M approximation.

The exact moments of T nu, and of the conditional solution at each depth,
are analysis.moment_map and analysis.finite_depth_moments.

A sample is held as a count of 1s, a count of 0s and a float array of the
rest (EmpiricalDist), so a law that the iteration drives onto {0,1}, as it
does in the endogenous class, costs two integers, not M floats.  Each point
of T nu is formed by simulate.one_minus_prod, the kernel of the tree
pull-up, or by its running_product for a family wider than a chunk.  The
M family sizes of a step enter only through how many families have each
size, and those counts are one Multinomial(M, pmf) draw, not M size
draws.  A child at 0 or 1 acts through its value alone (a 0 makes the
point 1, a 1 leaves the product as it is), so the counted 1s and 0s enter
a step as counts, and only the children from the rest are drawn by index.
The map counts the 1s and 0s of its image and writes only the rest.
basin_test runs the iteration and lets each sample go once its image is
drawn.
"""

from __future__ import annotations

from math import exp, fsum, log, log1p
from typing import NamedTuple

import numpy as np

from .errors import ResourceError, SpecValidationError
from .pgf import (
    INF_SENTINEL,
    Deterministic,
    Geometric,
    OffspringSpec,
    Pgf,
    validate_spec,
)
from . import analysis, simulate
from .sizes import _inverse_cdf_table, sample_family_sizes
from .streams import derive

DEFAULT_SAMPLE_SIZE = 100_000
BASIN_TOL = 1e-6  # a start whose mean lies this close to mu1 counts as having mean mu1
EMPIRICAL_BAND_FLOOR = 1e-3  # least half-width of the band that a converged trajectory ends in
MAX_CHILD_DRAWS = 2**27  # children one step of the map draws by index: it bounds the time; simulate.CHUNK the memory

# a sample counts as the two-point law only if essentially no interior mass
DELTA_INTERIOR_EPS = 1e-9
DELTA_INTERIOR_FRACTION = 1e-3


class EmpiricalDist:
    """Equally-weighted sample on [0,1], held as ``ones`` points at 1, then
    ``zeros`` points at 0, then the float array ``rest``.

    ``EmpiricalDist(points)`` checks and clips a 1-d sample and keeps all of
    it as ``rest``, the sample itself, or a clipped copy if a point lies
    outside [0,1].  A point of ``rest`` may itself be 0 or 1; the counts
    come from the library's own samples, which count their 1s and 0s as
    they are made.  ``points`` builds the whole layout as one array, for
    callers that want it; nothing in the library does.
    """

    __slots__ = ("ones", "zeros", "rest")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1:
            raise SpecValidationError("empirical distribution needs a 1-d sample")
        lo, hi = (pts.min(), pts.max()) if pts.size else (0.0, 1.0)
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):  # phrased so that NaN fails the test
            raise SpecValidationError("sample points must lie in [0,1]")
        # a new array only when a point needs clipping: the caller's is never written
        self._assign(np.clip(pts, 0.0, 1.0) if lo < 0.0 or hi > 1.0 else pts, 0, 0)

    def _assign(self, rest: np.ndarray, ones: int, zeros: int) -> None:
        if ones + zeros + rest.size < 1:
            raise SpecValidationError("empirical distribution needs M >= 1 points")
        self.ones, self.zeros, self.rest = ones, zeros, rest

    @classmethod
    def _unchecked(cls, rest: np.ndarray, ones: int = 0, zeros: int = 0) -> EmpiricalDist:
        """A sample built in the library, each point of ``rest`` already in
        [0,1]: its points are neither checked nor copied."""
        nu = object.__new__(cls)
        nu._assign(rest, ones, zeros)
        return nu

    @property
    def size(self) -> int:
        return self.ones + self.zeros + self.rest.size

    @property
    def points(self) -> np.ndarray:
        """The whole sample as a new array: the 1s, then the 0s, then ``rest``."""
        return np.concatenate((np.ones(self.ones), np.zeros(self.zeros), self.rest))

    def mean(self) -> float:
        return float((self.ones + self.rest.sum()) / self.size)

    def second_moment(self) -> float:
        # a chunk of squares at a time, not a sample-long array; fsum rounds the chunk sums' total once
        chunks = (self.rest[s:s + simulate.CHUNK] for s in range(0, self.rest.size, simulate.CHUNK))
        return float((self.ones + fsum(np.square(x).sum() for x in chunks)) / self.size)


def mean_matched_uniform(mean: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    """Deterministic uniform-quantile sample on [max(0,2m-1), min(1,2m)].

    The interval is centred so the sample mean equals ``mean`` to float
    precision without any random draws.  The quantiles are built in one
    array, in place; at mean 0 or 1 the interval is a point, and the sample
    is bernoulli_two_point's counts.
    """
    if not 0.0 <= mean <= 1.0:
        raise SpecValidationError("mean must lie in [0,1]")
    if mean in (0.0, 1.0):
        return bernoulli_two_point(mean, size)
    a, b = max(0.0, 2.0 * mean - 1.0), min(1.0, 2.0 * mean)
    pts = np.arange(size, dtype=float)
    pts += 0.5
    pts *= b - a
    pts /= size
    pts += a
    return EmpiricalDist._unchecked(np.clip(pts, 0.0, 1.0, out=pts))


def bernoulli_two_point(mean: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    """Deterministic {0,1} sample whose mean matches ``mean`` to 1/(2M): two counts, no array."""
    if not 0.0 <= mean <= 1.0:
        raise SpecValidationError("mean must lie in [0,1]")
    ones = int(round(mean * size))
    return EmpiricalDist._unchecked(np.empty(0), ones, size - ones)


def point_mass(value: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    """``size`` points at ``value``: a count at 0 or 1, else one array."""
    v = float(value)
    if not -1e-12 <= v <= 1.0 + 1e-12:  # phrased so that NaN fails the test
        raise SpecValidationError("sample points must lie in [0,1]")
    v = min(max(v, 0.0), 1.0)
    if v in (0.0, 1.0):
        return bernoulli_two_point(v, size)
    return EmpiricalDist._unchecked(np.full(size, v))


def is_two_point_concentrated(nu: EmpiricalDist) -> bool:
    rest = nu.rest
    chunks = (rest[s:s + simulate.CHUNK] for s in range(0, rest.size, simulate.CHUNK))
    interior = sum(int(np.count_nonzero(np.minimum(x, 1.0 - x) > DELTA_INTERIOR_EPS)) for x in chunks)
    return interior / nu.size <= DELTA_INTERIOR_FRACTION


class TrajectoryRecord(NamedTuple):
    k: int
    m1: float
    m2: float


def apply_T(nu: EmpiricalDist, spec: OffspringSpec, rng: np.random.Generator) -> EmpiricalDist:
    """Push the sample through one application of the map.

    Each of the nu.size output points is 1 - prod of N resampled input
    points; an infinite family yields the point 1 exactly.  The count c_k
    of each family size k is drawn first, as one multinomial (see
    _family_size_tally).  The input's counts of 1s and 0s enter as counts,
    and the children drawn by index come from nu.rest.  Where there are
    such counts, the c_k families of each size k up to simulate.CHUNK are
    split by _atom_split, in ascending k, into those with a 0 child, which
    give 1, those whose children are all 1, which give 0, and those with
    j >= 1 children from the rest, which join the width-j class.  A family
    wider than a chunk draws all its children by index from the whole
    sample, its 1s, then its 0s, then its rest, so no split is as long as
    it.  With no 0s or 1s counted nothing is split.

    The output counts its 1s (infinite and vetoed families) and its 0s,
    and only its rest, each width class in ascending order, is an array;
    the families of a class draw their child indices one family after
    another.  The order of the points carries no meaning, since the next
    step resamples them uniformly; a point of the rest that equals 0 or 1
    is drawn by index like any other.  Indices, and the sizes that are
    still drawn one per family, are drawn simulate.CHUNK at a time, which
    gives the values of one draw, so a step holds its input, its output's
    rest and scratch of a chunk's size.  Raises ResourceError when the
    step needs more than MAX_CHILD_DRAWS children drawn by index; it names
    a family wider than that, and a geometric draw that saturated.
    """
    validate_spec(spec)
    ones, zeros, rest, chunk = nu.ones, nu.zeros, nu.rest, simulate.CHUNK
    tally = _family_size_tally(spec, nu.size, rng)
    vetoed = tally.pop(INF_SENTINEL, 0)  # an infinite family gives 1, as a 0 child does
    widths: dict[int, int] = {}
    for k, c in sorted(tally.items()):
        if k > chunk or not ones + zeros:
            widths[k] = c
            continue
        veto, js, counts = _atom_split(k, c, zeros, ones, rest.size, rng)
        vetoed += veto
        for j, n in zip(js.tolist(), counts.tolist()):
            widths[j] = widths.get(j, 0) + n
    all_ones = widths.pop(0, 0)  # no child from the rest: 1 - the empty product
    children = sum(k * c for k, c in widths.items())
    if children > MAX_CHILD_DRAWS:
        widest, most = max(widths), np.iinfo(np.int64).max
        message = f"one step of the map needs {children} child draws, more than the limit {MAX_CHILD_DRAWS}"
        if widest > MAX_CHILD_DRAWS:
            message += f"; one family alone has {widest} children"
        if widest >= most:  # rng.geometric returns the int64 maximum for any larger draw
            message += f" or more, as its geometric draw saturated at {most}"
        raise ResourceError(message)
    out = np.empty(nu.size - vetoed - all_ones)
    end = 0
    for k, c in sorted(widths.items()):
        block = out[end:end + c]
        end += c
        if k <= chunk:
            step = chunk // k
            for f in range(0, c, step):
                part = block[f:f + step]
                simulate.one_minus_prod(_draw(rest, part.size * k, rng), k, part)
        else:
            # a family wider than a chunk: its product runs on across chunks, in order
            for f in range(c):
                draws = (_draw_whole(nu, min(chunk, k - s), rng) for s in range(0, k, chunk))
                block[f] = 1.0 - simulate.running_product(draws)
    # each point is 1 - a product of points in [0,1], so it lies in [0,1]
    return EmpiricalDist._unchecked(out, vetoed, all_ones)


def _atom_split(
    k: int, c: int, zeros: int, ones: int, rest: int, rng: np.random.Generator
) -> tuple[int, np.ndarray, np.ndarray]:
    """Split c families of k children, each child a 0, a 1 or a point of the
    rest with chances in proportion to zeros, ones and rest.

    Returns the count of families with a 0 child, and, for the others, the
    numbers j in 0..k of children from the rest that occur with their
    counts.  Together these are one Multinomial(c, .) draw, with chances
    1 - (1 - p0)^k and C(k, j) pr^j p1^(k-j), drawn as a binomial for the
    families with no 0 child, then a Binomial(k, pr / (p1 + pr)) j for each
    of them: one draw each where they are at most k, else one multinomial
    over j.  So the work is at most min(c, k) draws and no array is longer
    than a family.
    """
    keep = int(rng.binomial(c, ((ones + rest) / (zeros + ones + rest)) ** k))
    if not ones or not rest:  # every child that is not 0 is from the rest, or none is
        return c - keep, np.array([k if rest else 0]), np.array([keep])
    q = rest / (ones + rest)
    if keep <= k:
        counts = np.bincount(rng.binomial(k, q, keep), minlength=1)
        return c - keep, np.arange(counts.size), counts
    # the binomial(k, q) law, from log j! as a cumulative sum
    j = np.arange(k + 1)
    log_fact = np.r_[0.0, np.cumsum(np.log(j[1:]))]
    log_pmf = log_fact[k] - log_fact - log_fact[::-1] + j * log(q) + (k - j) * log1p(-q)
    pmf = np.exp(log_pmf - log_pmf.max())
    return c - keep, j, rng.multinomial(keep, pmf / pmf.sum())


def _family_size_tally(spec: OffspringSpec, n: int, rng: np.random.Generator) -> dict[int, int]:
    """Count of each family size among n iid draws of N, keyed by Python int.

    The counts are one Multinomial(n, pmf) draw over the classes that
    sample_family_sizes draws from.  Deterministic(d) gives
    {d: n} with no draw.  A table spec's classes are its table's values,
    each with the mass of the uniforms that draw it; the mass past the end
    of a thinned table is the infinite family.  Geometric(alpha) has the
    classes 1..K in closed form, K the least size whose tail (1-alpha)^K
    leaves fewer than one of the n families, at most simulate.CHUNK; a
    family past K is K + a Geometric(alpha) draw, as N is memoryless.  The
    draws that remain, a thinned spec without a table and the geometric
    tail, go through _drawn_tally.
    """
    if isinstance(spec, Deterministic):
        return {spec.d: n}
    if isinstance(spec, Geometric):
        log_tail = log1p(-spec.alpha)  # log P(N > k) = k * log_tail
        big_k = int(min(simulate.CHUNK - 1, log(n) / -log_tail)) + 1
        sizes = np.arange(1, big_k + 1)
        probs = np.append(spec.alpha * np.exp((sizes - 1) * log_tail), exp(big_k * log_tail))
        counts = rng.multinomial(n, probs)
        tally = _nonzero_counts(sizes, counts[:-1])
        # Python ints: a huge draw plus K must not wrap
        tally.update((big_k + k, c) for k, c in _drawn_tally(spec, int(counts[-1]), rng).items())
        return tally
    table = _inverse_cdf_table(spec)
    if table is None:
        return _drawn_tally(spec, n, rng)
    cdf, values = table
    # a uniform u draws values[i] for cdf[i-1] <= u < cdf[i], and values[cdf.size], if there is one, past cdf[-1]
    probs = np.diff(np.r_[0.0, np.minimum(cdf, 1.0), 1.0])[:values.size]
    # leaving out the empty classes keeps the multinomial's conditional probabilities off 0/0
    keep = np.flatnonzero(probs)
    return _nonzero_counts(values[keep], rng.multinomial(n, probs[keep]))


def _drawn_tally(spec: OffspringSpec, n: int, rng: np.random.Generator) -> dict[int, int]:
    """The counts of n family sizes drawn simulate.CHUNK at a time."""
    tally: dict[int, int] = {}
    for start in range(0, n, simulate.CHUNK):
        sizes = sample_family_sizes(spec, min(simulate.CHUNK, n - start), rng)
        classes, counts = np.unique(sizes, return_counts=True)
        for k, c in zip(classes.tolist(), counts.tolist()):
            tally[k] = tally.get(k, 0) + c
    return tally


def _nonzero_counts(classes: np.ndarray, counts: np.ndarray) -> dict[int, int]:
    drawn = counts > 0
    return dict(zip(classes[drawn].tolist(), counts[drawn].tolist()))


def _draw(points: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points resampled uniformly with replacement."""
    return points[rng.integers(0, points.size, n)]


def _draw_whole(nu: EmpiricalDist, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points resampled uniformly with replacement from the whole sample,
    its index running over the 1s, then the 0s, then the rest."""
    idx = rng.integers(0, nu.size, n)
    atoms = nu.ones + nu.zeros
    values = (idx < nu.ones).astype(float)
    in_rest = idx >= atoms
    values[in_rest] = nu.rest[idx[in_rest] - atoms]
    return values


class BasinTestReport(NamedTuple):
    analytic: str  # InBasin | NotInBasin | Boundary
    empirical: str  # Converged | Oscillating | Inconclusive
    records: tuple[TrajectoryRecord, ...]
    mu1: float
    mu2: float
    size: int  # M, the size of every sample on the trajectory


def basin_test(
    nu0: EmpiricalDist,
    spec: OffspringSpec,
    steps: int,
    seed: int = 0,
) -> BasinTestReport:
    """Analytic basin membership for the endogenous law, plus the observed
    empirical trajectory of ``steps`` applications of the map.

    Unstable case (H'(mu1) > 1): membership requires the exact mean mu1 and
    a sample that is not concentrated on {0,1}; means within [BASIN_TOL,
    10 BASIN_TOL] of mu1 are flagged Boundary since a finite sample cannot
    witness an exact mean.  Stable case: a mean within BASIN_TOL of mu1 is
    in the basin, and so is any other mean whose orbit under the mean map
    goes to mu1, as read off the two-cycle scan by analysis.basin_of_mean
    (with a neutral continuum, no other mean is).  The empirical verdict is
    reported separately and never overrides the analytic one.

    The trajectory runs on the stream derive(seed, 0) from its k = 0 record,
    ``nu0``.  The loop rebinds ``nu0`` to each image, so the start sample
    is let go like any other, and a step holds two samples.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pgf = Pgf(spec)
    fp = analysis.build_fixed_point_report(pgf)
    mu1, mu2 = fp.mu1, fp.mu2
    size = nu0.size
    mean0 = nu0.mean()
    if fp.endogeny is analysis.Endogeny.NON_ENDOGENOUS:
        if is_two_point_concentrated(nu0):
            verdict = "NotInBasin"
        elif abs(mean0 - mu1) < BASIN_TOL:
            verdict = "InBasin"
        elif abs(mean0 - mu1) <= 10.0 * BASIN_TOL:
            verdict = "Boundary"
        else:
            verdict = "NotInBasin"
    elif abs(mean0 - mu1) < BASIN_TOL or analysis.basin_of_mean(pgf, mean0).kind == "ToMu1":
        verdict = "InBasin"
    else:
        verdict = "NotInBasin"

    rng = derive(seed, 0)
    records = []
    for k in range(steps + 1):
        records.append(TrajectoryRecord(k=k, m1=nu0.mean(), m2=nu0.second_moment()))
        if k < steps:
            nu0 = apply_T(nu0, spec, rng)
    band = max(5.0 / np.sqrt(size), EMPIRICAL_BAND_FLOOR)
    last = records[-1]
    prev = records[-2]
    if abs(last.m1 - mu1) < band and abs(last.m2 - mu2) < band:
        empirical = "Converged"
    elif abs(last.m1 - prev.m1) > 0.5:
        empirical = "Oscillating"
    else:
        empirical = "Inconclusive"
    return BasinTestReport(
        analytic=verdict,
        empirical=empirical,
        records=tuple(records),
        mu1=mu1,
        mu2=mu2,
        size=size,
    )
