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

All scalar roots are found by bisection: the convexity/monotonicity facts
above guarantee the brackets, so no derivative-based solver is needed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .errors import FeasibilityError
from .pgf import Pgf, ess_sup, require_analysis_assumptions

DEFAULT_TOL = 1e-12
CRITICAL_TOL = 1e-9
NEUTRAL_SUP_TOL = 1e-9
SCAN_GRID = 1001
_ENDPOINT_FD_STEP = 1e-6


class Endogeny(str, enum.Enum):
    ENDOGENOUS = "Endogenous"
    NON_ENDOGENOUS = "NonEndogenous"


class MomentKind(str, enum.Enum):
    DISCRETE = "Discrete"
    ENDOGENOUS = "Endogenous"


@dataclass(frozen=True)
class FixedPointReport:
    mu1: float
    mu_star: float
    h_prime_mu1: float
    mu2: float
    endogeny: Endogeny
    critical: bool


@dataclass(frozen=True)
class MomentSequence:
    kind: MomentKind
    values: tuple[float, ...]


@dataclass(frozen=True)
class TwoCycle:
    mu_plus: float
    mu_minus: float
    stability_product: float
    stable: bool


@dataclass(frozen=True)
class CycleScan:
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


def solve_mu1(pgf: Pgf, tol: float = DEFAULT_TOL) -> float:
    """Unique root of K(x) = H(x) + x - 1 in (0, 1]."""
    k = lambda x: pgf.eval(x) + x - 1.0
    if k(1.0) <= 0.0:
        return 1.0
    root = _bisect(k, 0.0, 1.0)
    if abs(k(root)) > max(tol, 1e-13):
        raise ArithmeticError(f"mean-equation residual {k(root)!r} exceeds tol at x={root!r}")
    return root


def solve_mu_star(pgf: Pgf) -> float:
    """Argmin of g(x) = H(x) - x on [0,1]: 1 if H'(1-) <= 1, else H'(x)=1."""
    d1 = pgf.deriv_or_inf(1.0)
    if d1 <= 1.0:
        return 1.0
    hi = 1.0
    if not isfinite(d1):
        hi = 1.0 - 1e-9
        while pgf.deriv_or_inf(hi) <= 1.0:
            # singular slope at 1 means H' crosses 1 strictly inside
            hi = 0.5 * (1.0 + hi)
            if 1.0 - hi < 1e-15:
                return 1.0
    if pgf.deriv(0.0) >= 1.0:
        return 0.0
    return _bisect(lambda x: pgf.deriv(x) - 1.0, 0.0, hi)


def classify_endogeny(pgf: Pgf) -> tuple[Endogeny, bool]:
    """(class, critical flag) of the fixed-point report."""
    report = build_fixed_point_report(pgf)
    return report.endogeny, report.critical


def solve_mu2(pgf: Pgf, mu1: float, mu_star: float, endogeny: Endogeny) -> float:
    """Second moment of the endogenous solution: mu1 in the endogenous
    class, else the lesser root of g(x) = 1 - 2*mu1 on [0, mu_star]."""
    if endogeny is Endogeny.ENDOGENOUS:
        return mu1
    target = 1.0 - 2.0 * mu1
    g = lambda x: pgf.eval(x) - x - target
    # g decreases from g(0) = 2*mu1 - 1 > 0 to its minimum at mu_star < mu1
    return _bisect(g, 0.0, mu_star)


def moment_sequence(
    pgf: Pgf, fp: FixedPointReport, kind: MomentKind, K: int, tol: float = DEFAULT_TOL
) -> MomentSequence:
    """Moments m_0..m_K of an invariant law, from the roots in ``fp``.

    Discrete: (1, mu1, mu1, ...).  Endogenous: solve, for each n >= 2,
    H(m_n) - (-1)^n m_n = sum_{k<n} C(n,k) (-1)^k m_k for the root left of
    mu_star, bracketing in [0, min(mu_star, m_{n-1})].  Raises
    FeasibilityError naming the order at which no root exists.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if kind is MomentKind.DISCRETE:
        return MomentSequence(kind, (1.0,) + (fp.mu1,) * K)
    values = [1.0, fp.mu1]
    for n in range(2, K + 1):
        rhs = sum(comb(n, k) * (-1) ** k * values[k] for k in range(n))
        sign = -1.0 if n % 2 else 1.0  # H(m) - (-1)^n m
        phi = lambda x: pgf.eval(x) - sign * x - rhs
        hi = min(fp.mu_star, values[n - 1])
        lo_val, hi_val = phi(0.0), phi(hi)
        if abs(hi_val) <= tol:
            root = hi
        elif abs(lo_val) <= tol:
            root = 0.0
        elif lo_val * hi_val > 0.0:
            raise FeasibilityError(n)
        else:
            root = _bisect(phi, 0.0, hi)
        values.append(root)
    return MomentSequence(kind, tuple(values))


def _endpoint_deriv(pgf: Pgf, s: float) -> float:
    """One-sided difference quotient at an endpoint of [0,1]."""
    h = _ENDPOINT_FD_STEP
    if s <= h:
        return (pgf.eval(s + h) - pgf.eval(s)) / h
    return (pgf.eval(s) - pgf.eval(s - h)) / h


def _cycle_slope(pgf: Pgf, s: float) -> float:
    if s < 1e-12 or s > 1.0 - 1e-12:
        return _endpoint_deriv(pgf, s)
    return pgf.deriv(s)


def stability_product(pgf: Pgf, mu_plus: float, mu_minus: float) -> float:
    """H'(mu_plus) * H'(mu_minus) with one-sided differences at 0 and 1."""
    return _cycle_slope(pgf, mu_plus) * _cycle_slope(pgf, mu_minus)


def make_two_cycle(pgf: Pgf, mu_plus: float, mu_minus: float) -> TwoCycle:
    prod = stability_product(pgf, mu_plus, mu_minus)
    return TwoCycle(mu_plus=mu_plus, mu_minus=mu_minus, stability_product=prod, stable=prod <= 1.0)


def _ff_scan(pgf: Pgf, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """(ts, lo, hi, neutral) for d(t) = f(f(t)) - t on an even grid of [0,1].

    H is increasing and known only to its bracket [H_lo, H_hi], so
    lo = 1 - H_hi(1 - H_lo(t)) - t <= d(t) <= 1 - H_lo(1 - H_hi(t)) - t = hi.
    The scan is a neutral continuum (f∘f = id) when every interval meets
    the open band |d| < NEUTRAL_SUP_TOL.
    """
    ts = np.linspace(0.0, 1.0, grid)
    h_lo, h_hi = pgf.eval_bounds(ts)
    lo = 1.0 - pgf.eval_bounds(1.0 - h_lo)[1] - ts
    hi = 1.0 - pgf.eval_bounds(1.0 - h_hi)[0] - ts
    neutral = bool(np.all((lo < NEUTRAL_SUP_TOL) & (hi > -NEUTRAL_SUP_TOL)))
    return ts, lo, hi, neutral


def find_two_cycles(pgf: Pgf, grid: int = SCAN_GRID) -> CycleScan:
    """All fixed points and two-cycles of the mean map f(t) = 1 - H(t).

    f∘f is increasing, so roots of d(t) = f(f(t)) - t are grid points whose
    d-interval contains 0 plus sign changes between grid points whose
    intervals both exclude 0, bisected.  If every interval meets the
    NEUTRAL_SUP_TOL band the scan returns the neutral-continuum marker
    instead (every point then belongs to a neutral two-cycle).
    """
    if grid < 100:
        raise ValueError("grid must be >= 100")
    require_analysis_assumptions(pgf.spec)
    f = lambda t: 1.0 - pgf.eval(t)
    d = lambda t: f(f(t)) - t
    ts, lo, hi, neutral = _ff_scan(pgf, grid)
    resolution = float(np.max(hi - lo))
    if neutral:
        return CycleScan((), (), neutral_continuum=True, resolution=resolution)
    sign = np.where(lo > 0.0, 1, np.where(hi < 0.0, -1, 0))
    roots: list[float] = [float(t) for t in ts[sign == 0]]
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        roots.append(_bisect(d, float(ts[i]), float(ts[i + 1])))
    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-8:
            deduped.append(r)
    fixed_points: list[float] = []
    cycles: list[TwoCycle] = []
    seen: set[tuple[float, float]] = set()
    for r in deduped:
        partner = f(r)
        if abs(partner - r) <= 1e-8:
            fixed_points.append(r)
            continue
        key = (round(min(r, partner), 9), round(max(r, partner), 9))
        if key in seen:
            continue
        seen.add(key)
        cycles.append(make_two_cycle(pgf, max(r, partner), min(r, partner)))
    return CycleScan(tuple(fixed_points), tuple(cycles), neutral_continuum=False, resolution=resolution)


@dataclass(frozen=True)
class IteratedSecondMoment:
    value: float
    degenerate: bool


def iterated_mu2_plus(pgf: Pgf, cycle: TwoCycle) -> IteratedSecondMoment:
    """Second moment of the endogenous solution of the once-iterated
    recursion with mean mu_plus.

    Stable cycles carry the constant moment sequence (value mu_plus); for
    an unstable cycle the value is the lesser root of
    H(1 - 2 H(mu_plus) + H(t)) = 1 - 2 mu_plus + t.  Cycle members at 0 or
    1 are degenerate constants, flagged as such.
    """
    mu_plus = cycle.mu_plus
    if mu_plus <= 1e-12 or mu_plus >= 1.0 - 1e-12:
        return IteratedSecondMoment(value=float(round(mu_plus)), degenerate=True)
    if cycle.stable:
        return IteratedSecondMoment(value=mu_plus, degenerate=False)
    h_plus = pgf.eval(mu_plus)
    shift = 1.0 - 2.0 * h_plus

    def w(t: float) -> float:
        return shift + pgf.eval(t)

    def big_g(t: float) -> float:
        return pgf.eval(min(1.0, max(0.0, w(t)))) - (1.0 - 2.0 * mu_plus + t)

    # leftmost admissible t keeps the inner argument of H non-negative
    if shift >= 0.0:
        t_lo = 0.0
    else:
        t_lo = _bisect(lambda t: pgf.eval(t) + shift, 0.0, mu_plus)
    # big_g is convex with a root at mu_plus; the lesser root sits left of
    # the slope-zero point, located by bisecting the increasing slope proxy
    def slope(t: float) -> float:
        wt = min(1.0, max(0.0, w(t)))
        return pgf.deriv_or_inf(wt) * pgf.deriv_or_inf(t) - 1.0

    if slope(t_lo) >= 0.0 or big_g(t_lo) < 0.0:
        return IteratedSecondMoment(value=mu_plus, degenerate=False)
    t_min = _bisect(slope, t_lo, mu_plus)
    if big_g(t_min) > 0.0:
        return IteratedSecondMoment(value=mu_plus, degenerate=False)
    return IteratedSecondMoment(value=_bisect(big_g, t_lo, t_min), degenerate=False)


@dataclass(frozen=True)
class PerronReport:
    rho: float
    n_star: int
    d_rho: float


def perron_rho(pgf: Pgf, n: int) -> PerronReport:
    """Endogeny quantity for the truncated recursion min(n, N).

    Embedding the truncated tree in the N*-ary tree (N* = ess sup min(n,N))
    gives an antidiagonal 2x2 off-diagonal transition matrix whose
    Perron-Frobenius eigenvalue is rho = H_n'(mu1_n) / N*; the truncated
    solution is endogenous iff d_rho = N* rho = H_n'(mu1_n) <= 1.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    trunc = pgf.truncated(n)
    n_star = int(ess_sup(trunc.spec))
    mu1_n = solve_mu1(trunc)
    d_rho = trunc.deriv(mu1_n)
    return PerronReport(rho=d_rho / n_star, n_star=n_star, d_rho=d_rho)


@dataclass(frozen=True)
class MeanBasinResult:
    kind: str  # ToMu1 | ToCycle | Neutral | Inconclusive
    mu_plus: float | None = None
    mu_minus: float | None = None
    iterations: int = 0
    final: float | None = None


def basin_of_mean(pgf: Pgf, mu1: float, m0: float, max_iter: int = 400, tol: float = 1e-9) -> MeanBasinResult:
    """Classify the orbit of m0 under the mean map f(t) = 1 - H(t), whose
    fixed point is mu1.

    ToMu1 when the orbit lands within tol of mu1; ToCycle when the even and
    odd subsequences settle on distinct limits; Neutral when f∘f is the
    identity on the scan grid of find_two_cycles (the geometric-family
    involution, the thinned binary tree at p = 1/2); Inconclusive when
    max_iter passes without a verdict.
    """
    if not (0.0 <= m0 <= 1.0):
        raise ValueError("m0 must lie in [0,1]")
    f = lambda t: 1.0 - pgf.eval(t)
    if _ff_scan(pgf, SCAN_GRID)[3]:
        return MeanBasinResult(kind="Neutral", iterations=0, final=m0)
    history: list[float] = [m0]
    t = m0
    for k in range(1, max_iter + 1):
        t = f(t)
        history.append(t)
        if abs(t - mu1) < tol:
            return MeanBasinResult(kind="ToMu1", iterations=k, final=t)
        if k >= 4:
            even_gap = abs(history[-1] - history[-3])
            odd_gap = abs(history[-2] - history[-4])
            if even_gap < tol and odd_gap < tol and abs(history[-1] - history[-2]) > 10.0 * tol:
                a, b = history[-1], history[-2]
                return MeanBasinResult(
                    kind="ToCycle",
                    mu_plus=max(a, b),
                    mu_minus=min(a, b),
                    iterations=k,
                    final=t,
                )
    return MeanBasinResult(kind="Inconclusive", iterations=max_iter, final=t)


def build_fixed_point_report(pgf: Pgf, tol: float = DEFAULT_TOL) -> FixedPointReport:
    """Solve mu1, mu_star, H'(mu1), the endogeny class and mu2, each once.

    The one place these roots are solved: consumers take the report (or a
    root it holds) instead of solving again.  Endogenous iff
    H'(mu1) <= 1 + CRITICAL_TOL; critical iff |H'(mu1) - 1| <= CRITICAL_TOL.
    """
    require_analysis_assumptions(pgf.spec)
    mu1 = solve_mu1(pgf, tol)
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
