"""Deterministic-numeric analysis of the mean map and its fixed points.

Everything here is driven by three scalar functions of the offspring PGF H:

    K(x) = H(x) + x - 1        strictly increasing; its unique root mu1 in
                               (0,1) is the invariant mean, P(S=1) for the
                               two-point invariant law,
    g(x) = H(x) - x            strictly convex; its argmin mu_star separates
                               the two possible roots of g(x) = const,
    f(t) = 1 - H(t)            the mean map; iterating f transports the mean
                               of a distribution under one application of the
                               recursion X = 1 - prod X_i.

Classification: the tree-indexed discrete solution is endogenous iff
H'(mu1) <= 1 (the critical case H'(mu1) = 1 counts as endogenous).  When
H'(mu1) > 1 a second moment sequence appears, generated by picking the root
of the moment equation that lies left of mu_star at every order.

All scalar roots are bisected.  Each lesser root (the moments from mu2 on,
each cycle's mu2_plus) solves an equation convex or monotone on its bracket,
which _least_root bisects left of a golden-section probe at or below 0, so
no derivative-based solver is needed.  f∘f is increasing, so the one scan
of find_two_cycles also tells basin_of_mean where each orbit goes.

One application of the map T sends a law nu on [0,1] to the law of
1 - prod_{i=1}^N x_i with the x_i iid from nu.  Its moments m_j = E[x^j]
map exactly: E[(prod x_i)^j] = H(m_j) for j >= 1 (an infinite family gives
the product 0), so T nu has moments

    m_k' = sum_{j=0}^k C(k,j) (-1)^j H(m_j),   the j = 0 term being 1.

moment_map is this map.  The conditional solution at depth n has law
T^n delta_mu1, so iterating it from m_k = mu1^k gives its exact moments
(finite_depth_moments); they double as an oracle for the empirical
trajectories of distiter.  A fixed point of coordinate n, the lower
moments held, is the moment root of order n.
"""

from __future__ import annotations

import enum
from math import comb, sqrt
from typing import TYPE_CHECKING, NamedTuple

from .pgf import Pgf, require_analysis_assumptions

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-12
CRITICAL_TOL = 1e-9
NEUTRAL_SUP_TOL = 1e-9
ROOT_SEP = 1e-8  # roots of f∘f(t) - t this close are one root; a root this close to f(root) is fixed
SCAN_GRID = 1001
_ENDPOINT_FD_STEP = 1e-6


class Endogeny(str, enum.Enum):
    ENDOGENOUS = "Endogenous"
    NON_ENDOGENOUS = "NonEndogenous"


class MomentKind(str, enum.Enum):
    DISCRETE = "Discrete"
    ENDOGENOUS = "Endogenous"


class FixedPointReport(NamedTuple):
    mu1: float
    mu_star: float
    h_prime_mu1: float
    mu2: float
    endogeny: Endogeny
    critical: bool


class MomentSequence(NamedTuple):
    kind: MomentKind
    values: tuple[float, ...]


class TwoCycle(NamedTuple):
    mu_plus: float
    mu_minus: float
    stability_product: float
    stable: bool

    @property
    def degenerate(self) -> bool:  # mu_plus is 0 or 1, and C+ that constant
        return _at_endpoint(self.mu_plus)


class CycleScan(NamedTuple):
    """Result of scanning t -> f(f(t)) - t for fixed points and pairs."""

    fixed_points: tuple[float, ...]
    cycles: tuple[TwoCycle, ...]
    neutral_continuum: bool
    # largest width of the f∘f(t) - t interval over the grid (0 for exact H)
    resolution: float


def _bisect(fn, lo: float, hi: float, *, max_iter: int = 200) -> float:
    """Bisection for fn with fn(lo), fn(hi) of opposite (weak) sign."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"bisection bracket [{lo}, {hi}] does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo < 1e-16:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_mu1(pgf: Pgf) -> float:
    """Unique root of K(x) = H(x) + x - 1 in (0, 1]."""
    k = lambda x: pgf.eval(x) + x - 1.0
    if k(1.0) <= 0.0:
        return 1.0
    root = _bisect(k, 0.0, 1.0)
    if abs(k(root)) > DEFAULT_TOL:
        raise ArithmeticError(f"mean-equation residual {k(root)!r} exceeds {DEFAULT_TOL} at x={root!r}")
    return root


def solve_mu_star(pgf: Pgf) -> float:
    """Argmin of g(x) = H(x) - x on [0,1]: 1 if H'(1-) <= 1, else H'(x)=1.

    H' is increasing, and a square-root singularity at 1 reads +inf there,
    above 1, so one bisection on [0, 1] finds the crossing.
    """
    if pgf.deriv(1.0) <= 1.0:
        return 1.0
    return _bisect(lambda x: pgf.deriv(x) - 1.0, 0.0, 1.0)


def _least_root(phi, lo: float, hi: float) -> float | None:
    """Least root on [lo, hi] of phi, convex or monotone there, or None:
    lo if phi(lo) = 0, else a bisection of ends of opposite sign or, if both
    are positive, left of the first golden-section probe of the minimum
    that reads phi <= 0."""
    flo, fhi = phi(lo), phi(hi)
    if flo == 0.0:
        return lo
    if min(flo, fhi) < 0.0:  # a sign change, or no root below both ends
        return _bisect(phi, lo, hi) if max(flo, fhi) >= 0.0 else None
    c, a, b = (sqrt(5.0) - 1.0) / 2.0, lo, hi
    x1, x2 = b - c * (b - a), a + c * (b - a)
    f1, f2 = phi(x1), phi(x2)
    for _ in range(80):  # c**80 < 1e-16
        if min(f1, f2) <= 0.0:
            return _bisect(phi, lo, x1 if f1 <= 0.0 else x2)
        if f1 <= f2:  # the minimum is left of x2
            b, x2, f2, x1 = x2, x1, f1, x2 - c * (x2 - a)
            f1 = phi(x1)
        else:
            a, x1, f1, x2 = x1, x2, f2, x1 + c * (b - x1)
            f2 = phi(x2)
    return None


def _moment_root(pgf: Pgf, m: list[float], mu_star: float) -> float | None:
    """m_n for n = len(m): the least root of H(x) - (-1)^n x = sum_{k<n} C(n,k)
    (-1)^k m_k on [0, min(mu_star, m_{n-1})], or None if it holds no float root."""
    n = len(m)
    rhs = sum(comb(n, k) * (-1) ** k * m[k] for k in range(n))
    sign = -1.0 if n % 2 else 1.0
    return _least_root(lambda x: pgf.eval(x) - sign * x - rhs, 0.0, min(mu_star, m[-1]))


def solve_mu2(pgf: Pgf, mu1: float, mu_star: float, endogeny: Endogeny) -> float:
    """Second moment of the endogenous solution: mu1 in the endogenous
    class, else order 2 of the moment root.  Its phi(x) = H(x) - x -
    (1 - 2 mu1) is convex with its minimum at mu_star and its greater root
    at mu1, so a bracket with no float root means the two roots lie within
    rounding of each other: mu2 is then the reflection 2 mu_star - mu1,
    clamped into the bracket."""
    if endogeny is Endogeny.ENDOGENOUS:
        return mu1
    root = _moment_root(pgf, [1.0, mu1], mu_star)
    return min(max(2.0 * mu_star - mu1, 0.0), mu_star, mu1) if root is None else root


def moment_sequence(pgf: Pgf, fp: FixedPointReport, kind: MomentKind, K: int) -> MomentSequence:
    """Moments m_0..m_K of an invariant law, from the roots in ``fp``.

    Discrete: (1, mu1, mu1, ...), and so is Endogenous in the endogenous
    class, where C = S is {0,1}-valued.  Otherwise Endogenous: (1, mu1, mu2,
    ...), then m_n for each n >= 3 is the moment root of order n, as mu2 is
    of order 2.  The sequence ends before the first order with no float root.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if kind is MomentKind.DISCRETE or fp.endogeny is Endogeny.ENDOGENOUS:
        return MomentSequence(kind, (1.0,) + (fp.mu1,) * K)
    values = [1.0, fp.mu1, fp.mu2][:K + 1]
    while len(values) <= K and (m := _moment_root(pgf, values, fp.mu_star)) is not None:
        values.append(m)
    return MomentSequence(kind, tuple(values))


def moment_map(pgf: Pgf, m) -> np.ndarray:
    """Moments m_0..m_K of T nu from the moments m_0..m_K of nu.

    One Pgf.eval call over the array m_1..m_K and one signed-binomial
    product; a moment outside [0,1] raises DomainError through Pgf.eval.
    """
    import numpy as np

    m = np.asarray(m, dtype=float)
    k = range(m.size)
    signed_binomial = np.array([[comb(i, j) * (-1) ** j for j in k] for i in k], dtype=float)
    return signed_binomial @ np.concatenate(([1.0], pgf.eval(m[1:])))


def finite_depth_moments(pgf: Pgf, mu1: float, depth: int, K: int) -> np.ndarray:
    """E[C_n^k] for k = 0..K, n = depth: the moments of T^n delta_mu1.

    E[C_n] = mu1 exactly, so m_1 is reset to mu1 after each step; left
    free, its rounding would grow by H'(mu1) per step.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    import numpy as np

    m = mu1 ** np.arange(K + 1.0)
    for _ in range(depth):
        m = moment_map(pgf, m)
        m[1] = mu1
    return m


def _endpoint_deriv(pgf: Pgf, s: float) -> float:
    """One-sided difference quotient at an endpoint of [0,1]."""
    h = _ENDPOINT_FD_STEP
    if s <= h:
        return (pgf.eval(s + h) - pgf.eval(s)) / h
    return (pgf.eval(s) - pgf.eval(s - h)) / h


def _at_endpoint(s: float) -> bool:  # s is 0 or 1 up to 1e-12: H' is taken one-sided there
    return s < 1e-12 or s > 1.0 - 1e-12


def stability_product(pgf: Pgf, mu_plus: float, mu_minus: float) -> float:
    """H'(mu_plus) * H'(mu_minus) with one-sided differences at 0 and 1."""
    slope = lambda s: _endpoint_deriv(pgf, s) if _at_endpoint(s) else pgf.deriv(s)
    return slope(mu_plus) * slope(mu_minus)


def make_two_cycle(pgf: Pgf, mu_plus: float, mu_minus: float) -> TwoCycle:
    prod = stability_product(pgf, mu_plus, mu_minus)
    return TwoCycle(mu_plus=mu_plus, mu_minus=mu_minus, stability_product=prod, stable=prod <= 1.0)


def unit_grid(n: int) -> list[float]:
    """n evenly spaced floats from 0 to 1: i * (1 / (n - 1)), then 1.0, the
    points np.linspace(0.0, 1.0, n) gives, bit for bit."""
    step = 1.0 / (n - 1)
    return [i * step for i in range(n - 1)] + [1.0]


def find_two_cycles(pgf: Pgf, grid: int = SCAN_GRID) -> CycleScan:
    """All fixed points and two-cycles of the mean map f(t) = 1 - H(t).

    H is increasing and known only to its bracket [H_lo, H_hi], so at each
    point t of unit_grid(grid), d(t) = f(f(t)) - t lies in [lo, hi] =
    [1 - H_hi(1 - H_lo(t)) - t, 1 - H_lo(1 - H_hi(t)) - t], which a loop
    over floats evaluates; where H_lo(t) = H_hi(t), as for every exact H,
    one outer bracket gives both ends.  The roots of d are grid points whose
    interval contains 0 plus sign changes between intervals that exclude 0,
    bisected.  If every interval meets the open band |d| < NEUTRAL_SUP_TOL
    the scan returns the neutral-continuum marker instead (f∘f = id: every
    point is on a neutral two-cycle).
    """
    if grid < 100:
        raise ValueError("grid must be >= 100")
    require_analysis_assumptions(pgf.spec)
    f = lambda t: 1.0 - pgf.eval(t)
    d = lambda t: f(f(t)) - t
    bounds = pgf.eval_bounds
    ts = unit_grid(grid)
    lo, hi = [], []
    for t in ts:
        h_lo, h_hi = bounds(t)
        outer = bounds(1.0 - h_lo)
        lo.append(1.0 - outer[1] - t)
        hi.append(1.0 - (outer if h_hi == h_lo else bounds(1.0 - h_hi))[0] - t)
    resolution = max(b - a for a, b in zip(lo, hi))
    if all(a < NEUTRAL_SUP_TOL and b > -NEUTRAL_SUP_TOL for a, b in zip(lo, hi)):
        return CycleScan((), (), neutral_continuum=True, resolution=resolution)
    sign = [1 if a > 0.0 else -1 if b < 0.0 else 0 for a, b in zip(lo, hi)]
    roots = [t for t, s in zip(ts, sign) if s == 0]
    for i in range(grid - 1):
        if sign[i] * sign[i + 1] < 0:
            roots.append(_bisect(d, ts[i], ts[i + 1]))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > ROOT_SEP:
            deduped.append(r)
    fixed_points: list[float] = []
    cycles: list[TwoCycle] = []
    seen: set[tuple[float, float]] = set()
    for r in deduped:
        partner = f(r)
        if abs(partner - r) <= ROOT_SEP:
            fixed_points.append(r)
            continue
        key = (round(min(r, partner), 9), round(max(r, partner), 9))
        if key in seen:
            continue
        seen.add(key)
        cycles.append(make_two_cycle(pgf, max(r, partner), min(r, partner)))
    return CycleScan(tuple(fixed_points), tuple(cycles), neutral_continuum=False, resolution=resolution)


def iterated_mu2_plus(pgf: Pgf, cycle: TwoCycle) -> float:
    """Second moment of the endogenous solution of the once-iterated
    recursion with mean mu_plus: 0 or 1 on a degenerate cycle, mu_plus on a
    stable one, else the least root of the convex G(t) = H(1 - 2 H(mu_plus)
    + H(t)) - (1 - 2 mu_plus + t) on [t_lo, mu_plus], from where H's
    argument is >= 0 (mu_plus, itself a root, if none lies left of it)."""
    mu_plus = cycle.mu_plus
    if cycle.degenerate:
        return float(round(mu_plus))
    if cycle.stable:
        return mu_plus
    shift = 1.0 - 2.0 * pgf.eval(mu_plus)
    # H(0) = 0 and H(mu_plus) <= 1, so for shift < 0 the ends straddle t_lo
    t_lo = 0.0 if shift >= 0.0 else _least_root(lambda t: pgf.eval(t) + shift, 0.0, mu_plus)
    big_g = lambda t: pgf.eval(min(1.0, max(0.0, shift + pgf.eval(t)))) - (1.0 - 2.0 * mu_plus + t)
    root = _least_root(big_g, t_lo, mu_plus)
    return mu_plus if root is None else root


class MeanBasinResult(NamedTuple):
    kind: str  # ToMu1 | ToCycle | Neutral
    mu_plus: float | None = None
    mu_minus: float | None = None


def basin_of_mean(pgf: Pgf, m0: float) -> MeanBasinResult:
    """Where the orbit of m0 under the mean map f(t) = 1 - H(t) goes.

    Neutral when find_two_cycles finds a neutral continuum (the geometric
    family, the thinned binary tree at p = 1/2).  Otherwise the orbit of m0
    under the increasing map f∘f is monotone: it ends at the scan's root r
    of d(t) = f(f(t)) - t within ROOT_SEP of m0, else at the nearest root
    on the side d(m0) points to, which exists as d(0) >= 0 >= d(1).
    ToMu1 when r is the fixed point, else ToCycle on r's cycle.
    """
    if not (0.0 <= m0 <= 1.0):
        raise ValueError("m0 must lie in [0,1]")
    scan = find_two_cycles(pgf)
    if scan.neutral_continuum:
        return MeanBasinResult(kind="Neutral")
    # each root of d, with the cycle it belongs to (None for the fixed point)
    roots = dict.fromkeys(scan.fixed_points) | {x: c for c in scan.cycles for x in (c.mu_plus, c.mu_minus)}
    r = min(roots, key=lambda x: abs(x - m0))
    if abs(r - m0) > ROOT_SEP:
        f = lambda t: 1.0 - pgf.eval(t)
        up = f(f(m0)) > m0
        r = min((x for x in roots if (x > m0) == up), key=lambda x: abs(x - m0))
    cycle = roots[r]
    if cycle is None:
        return MeanBasinResult(kind="ToMu1")
    return MeanBasinResult(kind="ToCycle", mu_plus=cycle.mu_plus, mu_minus=cycle.mu_minus)


def build_fixed_point_report(pgf: Pgf) -> FixedPointReport:
    """Solve mu1, mu_star, H'(mu1), the endogeny class and mu2, each once.

    The one place these roots are solved: consumers take the report (or a
    root it holds) instead of solving again.  Endogenous iff
    H'(mu1) <= 1 + CRITICAL_TOL; critical iff |H'(mu1) - 1| <= CRITICAL_TOL.
    """
    require_analysis_assumptions(pgf.spec)
    mu1 = solve_mu1(pgf)
    mu_star = solve_mu_star(pgf)
    h1 = pgf.deriv(mu1)
    endo = Endogeny.ENDOGENOUS if h1 <= 1.0 + CRITICAL_TOL else Endogeny.NON_ENDOGENOUS
    critical = abs(h1 - 1.0) <= CRITICAL_TOL
    mu2 = solve_mu2(pgf, mu1, mu_star, endo)
    return FixedPointReport(
        mu1=mu1,
        mu_star=mu_star,
        h_prime_mu1=h1,
        mu2=mu2,
        endogeny=endo,
        critical=critical,
    )
