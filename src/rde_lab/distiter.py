"""Iteration of the distributional map on empirical samples.

One application of the map sends a law nu on [0,1] to the law of
1 - prod_{i=1}^N x_i with the x_i iid from nu and N an independent family
size.  Distributions are carried as equally-weighted samples because the
map has no closed-form density action; pushing a sample through the map is
the faithful finite-M approximation.

Moment bookkeeping runs alongside: with m1/m2 the first two moments and r
the cross moment against the conditional solution C, one application gives

    m1' = 1 - H(m1)
    m2' = 1 - 2 H(m1) + H(m2)
    r'  = 1 - H(mu1) - H(m1) + H(r)

and E = m2 - 2 r + mu2 tracks the L2 distance to C.  These recursions are
exact, so they double as an oracle for the empirical trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecValidationError
from .pgf import INF_SENTINEL, SAMPLE_BUDGET, OffspringSpec, Pgf, sample_family_sizes, validate_spec
from . import analysis
from .simulate import one_minus_prod
from .streams import derive

DEFAULT_SAMPLE_SIZE = 100_000
KOLMOGOROV_GRID = 1001
BASIN_TOL = 1e-6  # a start whose mean lies this close to mu1 counts as having mean mu1

# a sample counts as the two-point law only if essentially no interior mass
DELTA_INTERIOR_EPS = 1e-9
DELTA_INTERIOR_FRACTION = 1e-3


@dataclass(frozen=True)
class EmpiricalDist:
    """Equally-weighted sample on [0,1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 1:
            raise SpecValidationError("empirical distribution needs a 1-d sample with M >= 1")
        # phrased so that NaN fails the test
        if not np.all((pts >= -1e-12) & (pts <= 1.0 + 1e-12)):
            raise SpecValidationError("sample points must lie in [0,1]")
        object.__setattr__(self, "points", np.clip(pts, 0.0, 1.0))

    @property
    def size(self) -> int:
        return int(self.points.size)

    def mean(self) -> float:
        return float(self.points.mean())

    def second_moment(self) -> float:
        return float((self.points ** 2).mean())


def mean_matched_uniform(mean: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    """Deterministic uniform-quantile sample on [max(0,2m-1), min(1,2m)].

    The interval is centred so the sample mean equals ``mean`` to float
    precision without any random draws.
    """
    if not 0.0 <= mean <= 1.0:
        raise SpecValidationError("mean must lie in [0,1]")
    a, b = max(0.0, 2.0 * mean - 1.0), min(1.0, 2.0 * mean)
    pts = a + (b - a) * (np.arange(size) + 0.5) / size
    return EmpiricalDist(pts)


def bernoulli_two_point(mean: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    """Deterministic {0,1} sample whose mean matches ``mean`` to 1/(2M)."""
    if not 0.0 <= mean <= 1.0:
        raise SpecValidationError("mean must lie in [0,1]")
    ones = int(round(mean * size))
    pts = np.zeros(size)
    pts[:ones] = 1.0
    return EmpiricalDist(pts)


def point_mass(value: float, size: int = DEFAULT_SAMPLE_SIZE) -> EmpiricalDist:
    return EmpiricalDist(np.full(size, float(value)))


def is_two_point_concentrated(nu: EmpiricalDist) -> bool:
    interior = np.minimum(nu.points, 1.0 - nu.points) > DELTA_INTERIOR_EPS
    return float(interior.mean()) <= DELTA_INTERIOR_FRACTION


@dataclass(frozen=True)
class TrajectoryRecord:
    k: int
    m1: float
    m2: float
    r: float | None = None
    E: float | None = None
    kolmogorov_to_target: float | None = None


def kolmogorov_distance(a: np.ndarray, b: np.ndarray, grid: int = KOLMOGOROV_GRID) -> float:
    """Sup distance of the two empirical CDFs over a fixed [0,1] grid."""
    xs = np.linspace(0.0, 1.0, grid)
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    fa = np.searchsorted(a_sorted, xs, side="right") / a_sorted.size
    fb = np.searchsorted(b_sorted, xs, side="right") / b_sorted.size
    return float(np.max(np.abs(fa - fb)))


def apply_T(
    nu: EmpiricalDist,
    spec: OffspringSpec,
    rng: np.random.Generator,
    out_size: int | None = None,
    budget: int = SAMPLE_BUDGET,
) -> EmpiricalDist:
    """Push the sample through one application of the map.

    Each output point is 1 - prod of N resampled input points; an infinite
    family yields the point 1 exactly.
    """
    validate_spec(spec)
    m = nu.size if out_size is None else int(out_size)
    if m < 1:
        raise SpecValidationError("out_size must be >= 1")
    sizes = sample_family_sizes(spec, m, rng, budget)
    # INF_SENTINEL is -1: adding back one per infinite family counts the finite children
    total = int(sizes.sum() + (sizes == INF_SENTINEL).sum())
    draws = nu.points[rng.integers(0, nu.size, total)]
    return EmpiricalDist(one_minus_prod(draws, sizes))


def iterate_T(
    nu0: EmpiricalDist,
    spec: OffspringSpec,
    steps: int,
    rng: np.random.Generator,
    target: EmpiricalDist | None = None,
    out_size: int | None = None,
) -> list[TrajectoryRecord]:
    """Repeated application of the map, recording per-step moments.

    The k=0 record describes the initial sample; Kolmogorov distances to
    ``target`` are attached when a target sample is supplied.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    records = []
    nu = nu0
    for k in range(steps + 1):
        ks = kolmogorov_distance(nu.points, target.points) if target is not None else None
        records.append(TrajectoryRecord(k=k, m1=nu.mean(), m2=nu.second_moment(), kolmogorov_to_target=ks))
        if k < steps:
            nu = apply_T(nu, spec, rng, out_size=out_size)
    return records


def moment_recursions(
    pgf: Pgf,
    m1_0: float,
    m2_0: float,
    r_0: float,
    mu1: float,
    steps: int,
    mu2: float,
) -> list[TrajectoryRecord]:
    """Exact deterministic trajectory of (m1, m2, r) with E = m2 - 2r + mu2."""
    for name, v in (("m1_0", m1_0), ("m2_0", m2_0), ("r_0", r_0)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0,1]")
    if m2_0 > m1_0 + 1e-12:
        raise ValueError("m2_0 must not exceed m1_0")
    h_mu1 = pgf.eval(mu1)
    m1, m2, r = m1_0, m2_0, r_0
    records = [TrajectoryRecord(k=0, m1=m1, m2=m2, r=r, E=m2 - 2.0 * r + mu2)]
    for k in range(1, steps + 1):
        m2 = 1.0 - 2.0 * pgf.eval(m1) + pgf.eval(m2)
        r = 1.0 - h_mu1 - pgf.eval(m1) + pgf.eval(r)
        m1 = 1.0 - pgf.eval(m1)
        records.append(TrajectoryRecord(k=k, m1=m1, m2=m2, r=r, E=m2 - 2.0 * r + mu2))
    return records


@dataclass(frozen=True)
class BasinTestReport:
    analytic: str  # InBasin | NotInBasin | Boundary
    empirical: str  # Converged | Oscillating | Inconclusive
    records: tuple[TrajectoryRecord, ...]
    mu1: float
    mu2: float


def basin_test(
    nu0: EmpiricalDist,
    spec: OffspringSpec,
    steps: int,
    tol: float = BASIN_TOL,
    seed: int = 0,
) -> BasinTestReport:
    """Analytic basin membership for the endogenous law, plus the observed
    empirical trajectory.

    Unstable case (H'(mu1) > 1): membership requires the exact mean mu1 and
    a sample that is not concentrated on {0,1}; means within [tol, 10 tol]
    of mu1 are flagged Boundary since a finite sample cannot witness an
    exact mean.  Stable case: membership follows the basin of the mean map.
    The empirical verdict is reported separately and never overrides the
    analytic one.
    """
    pgf = Pgf(spec)
    fp = analysis.build_fixed_point_report(pgf)
    mu1, mu2 = fp.mu1, fp.mu2
    mean0 = nu0.mean()
    if fp.endogeny is analysis.Endogeny.NON_ENDOGENOUS:
        if is_two_point_concentrated(nu0):
            verdict = "NotInBasin"
        elif abs(mean0 - mu1) < tol:
            verdict = "InBasin"
        elif abs(mean0 - mu1) <= 10.0 * tol:
            verdict = "Boundary"
        else:
            verdict = "NotInBasin"
    else:
        mean_basin = analysis.basin_of_mean(pgf, mu1, mean0, max_iter=max(400, 4 * steps), tol=1e-9)
        if mean_basin.kind == "ToMu1":
            verdict = "InBasin"
        elif mean_basin.kind == "Neutral":
            # every off-mean point is 2-periodic, so the mean basin is {mu1}
            verdict = "InBasin" if abs(mean0 - mu1) < tol else "NotInBasin"
        else:
            verdict = "NotInBasin"

    records = iterate_T(nu0, spec, steps, derive(seed, 0))
    m = nu0.size
    band = max(5.0 / np.sqrt(m), 1e-3)
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
    )
