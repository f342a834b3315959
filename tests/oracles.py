"""Independent oracles used by the test suite.

These deliberately avoid the library's own fast paths: brute-force
enumeration for conditional probabilities, plain python product recursions,
finite differences for derivatives, and closed forms where one exists.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from rde_lab.pgf import INF_SENTINEL, Deterministic, FinitePmf, Geometric, OffspringSpec, Pgf
from rde_lab.sizes import pmf_prefix


def forest_tree(fams, rep_counts, rep: int):
    """Replicate ``rep`` of a forest (``_Forest.fams`` and ``rep_counts``)
    as a nested tree of python values.

    ``None`` is a boundary node, ``INF_SENTINEL`` an infinite family and a
    tuple of subtrees a finite family.  A level stored as an int width gives
    every node of the level that many children.
    """
    levels = []
    for sizes, counts in zip(fams, rep_counts):
        start, count = sum(int(c) for c in counts[:rep]), int(counts[rep])
        levels.append([sizes] * count if isinstance(sizes, int) else [int(f) for f in sizes[start:start + count]])
    below = [None] * int(rep_counts[len(fams)][rep])
    for level in reversed(levels):
        nodes, pos = [], 0
        for f in level:
            nodes.append(INF_SENTINEL if f == INF_SENTINEL else tuple(below[pos:pos + f]))
            pos += f  # an infinite family, INF_SENTINEL = 0, stores no children
        assert pos == len(below)
        below = nodes
    return below[0]


def leaf_count(tree) -> int:
    """The number of boundary nodes of a nested tree."""
    if tree is None:
        return 1
    if tree == INF_SENTINEL:
        return 0
    return sum(leaf_count(t) for t in tree)


def root_value(tree, boundary) -> float:
    """The root of value(u) = 1 - prod(children) on a nested tree, with an
    infinite family giving 1 and the boundary nodes taking the values of the
    iterator ``boundary`` from left to right."""
    if tree is None:
        return next(boundary)
    if tree == INF_SENTINEL:
        return 1.0
    return 1.0 - math.prod(root_value(t, boundary) for t in tree)


def conditional_root(tree, mu1: float) -> float:
    """C at the root of a nested tree: every boundary node holds mu1."""
    return root_value(tree, itertools.repeat(mu1))


def brute_force_root_probability(tree, mu1: float) -> float:
    """P(S_root = 1 | tree) by exhausting all Bernoulli(mu1) boundaries."""
    total = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=leaf_count(tree)):
        weight = math.prod(mu1 if b == 1.0 else 1.0 - mu1 for b in bits)
        total += weight * root_value(tree, iter(bits))
    return total


def truncated(pgf: Pgf, n: int) -> Pgf:
    """PGF of min(n, N): H_n(s) = sum_{k<n} P(N=k) s^k + P(N>=n) s^n, from
    the exact series ``pmf_prefix``.

    The result is non-defective and dominates H pointwise.
    """
    if n < 1:
        raise ValueError("truncation level must be >= 1")
    p, tail = pmf_prefix(pgf.spec, n)
    weights = {k: float(p[k]) for k in range(1, n) if p[k] > 0.0}
    weights[n] = weights.get(n, 0.0) + tail
    total = sum(weights.values())
    weights = {k: w / total for k, w in weights.items() if w > 0.0}
    return Pgf(FinitePmf(weights=weights, infinity_mass=0.0))


def float_h(spec: OffspringSpec, s: float) -> float:
    """H(s) of a spec that is not thinned, dispatched on the spec at each
    call: the float reference that ``Pgf``'s closures must equal bit for bit."""
    if isinstance(spec, Deterministic):
        return s ** spec.d
    if isinstance(spec, Geometric):
        # (1 - s) + alpha*s is 1 - (1 - alpha)*s without its cancellation at s = 1
        return spec.alpha * s / ((1.0 - s) + spec.alpha * s)
    assert isinstance(spec, FinitePmf)
    out = 0.0
    for k, w in spec.weights.items():
        if w != 0.0:
            out = out + w * s ** k
    return out


def float_h_prime(spec: OffspringSpec, s: float) -> float:
    """H'(s) of a spec that is not thinned, as ``float_h`` computes H."""
    if isinstance(spec, Deterministic):
        return spec.d * s ** (spec.d - 1)
    if isinstance(spec, Geometric):
        return spec.alpha / ((1.0 - s) + spec.alpha * s) ** 2
    assert isinstance(spec, FinitePmf)
    out = 0.0
    for k, w in spec.weights.items():
        if w != 0.0:
            out = out + (w * k) * s ** (k - 1)
    return out


def centered_fd(f, s: float, h: float = 1e-7) -> float:
    return (f(s + h) - f(s - h)) / (2.0 * h)


def completely_monotone_violation(values) -> float:
    """Largest violation of (-1)^k Delta^k m >= 0 over all computable orders."""
    row = np.asarray(values, dtype=float)
    worst = 0.0
    sign = -1.0  # sign of Delta^1 terms to test: (-1)^1 * Delta^1 >= 0
    while row.size > 1:
        row = np.diff(row)
        worst = max(worst, float(np.max(-sign * row)))
        sign = -sign
    return worst


def thinned_binary_closed_form(p: float, z):
    """Example closed form for the thinned binary tree: the PGF solving
    H = (pH + qz)^2, i.e. (1 - 2pqz - sqrt(1 - 4pqz)) / (2 p^2).

    Evaluated as 2 q^2 z^2 / (1 - 2pqz + sqrt(1 - 4pqz)), the same value
    without the cancellation in the numerator, so it is good to a few ulp."""
    z = np.asarray(z, dtype=float)
    q = 1.0 - p
    disc = np.sqrt(1.0 - 4.0 * p * q * z)
    out = 2.0 * q * q * z * z / (1.0 - 2.0 * p * q * z + disc)
    return float(out) if out.ndim == 0 else out


def thinned_deterministic_pmf(d: int, p: float, n: int) -> np.ndarray:
    """P(N = 0..n-1) for the d-ary base thinned with survival probability p.

    N = (d-1) T + 1 where T is the total progeny of a Bin(d, p) Galton-Watson
    tree, and P(T = t) = C(dt, t-1) p^(t-1) q^(dt-t+1) / t (Dwass, "The total
    progeny in a branching process", J. Appl. Probab. 1969).  Evaluated in
    log space through lgamma so that no factorial overflows."""
    q = 1.0 - p
    out = np.zeros(n)
    t = 1
    while (d - 1) * t + 1 < n:
        log_c = math.lgamma(d * t + 1) - math.lgamma(t) - math.lgamma(d * t - t + 2)
        out[(d - 1) * t + 1] = math.exp(log_c + (t - 1) * math.log(p) + (d * t - t + 1) * math.log(q)) / t
        t += 1
    return out


def chi_square_ok(counts: np.ndarray, probs: np.ndarray) -> bool:
    """No draws in cells of probability 0, and Pearson's statistic over the
    others below its 0.999 quantile (Wilson-Hilferty); cells expecting
    fewer than 5 draws are pooled into one."""
    n = counts.sum()
    if counts[probs == 0.0].any():
        return False
    big = probs * n >= 5.0
    small = ~big & (probs > 0.0)
    obs = np.r_[counts[big], counts[small].sum()] if small.any() else counts[big]
    exp = (np.r_[probs[big], probs[small].sum()] if small.any() else probs[big]) * n
    stat = float(((obs - exp) ** 2 / exp).sum())
    df = obs.size - 1
    return stat < df * (1.0 - 2.0 / (9.0 * df) + 3.09 * math.sqrt(2.0 / (9.0 * df))) ** 3


def mean_orbit_limit(h, m0: float, max_steps: int = 100_000) -> float:
    """Where the orbit of m0 under f∘f ends, f(t) = 1 - h(t) being the mean
    map: plain iteration until a step moves less than 1e-14.  f∘f is
    increasing, so the orbit is monotone and stops at a root of
    f(f(t)) = t; a start on a root, stable or not, stays there."""
    t = m0
    for _ in range(max_steps):
        nxt = 1.0 - h(1.0 - h(t))
        if abs(nxt - t) < 1e-14:
            return nxt
        t = nxt
    raise AssertionError(f"the orbit of {m0} still moves after {max_steps} steps")


DIGITS = 60  # working precision of the Decimal oracles


def decimal_bisect(fn, lo: Decimal, hi: Decimal, steps: int = 220) -> Decimal:
    """A root of fn on [lo, hi], whose ends fn gives opposite signs, by
    plain bisection; 220 halvings leave a bracket below 1e-66."""
    lo_positive = fn(lo) > 0
    assert (fn(hi) > 0) != lo_positive, "the ends do not straddle a root"
    for _ in range(steps):
        mid = (lo + hi) / 2
        if (fn(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def decimal_moment_sequence(h, dh, K: int) -> list[Decimal]:
    """m_0..m_K of the endogenous invariant law, to DIGITS digits, for a
    non-endogenous spec whose PGF and its derivative are given as Decimal
    functions: mu1 solves H(x) + x = 1, mu_star solves H'(x) = 1, and m_n
    is the root of H(x) - (-1)^n x = sum_{k<n} C(n,k) (-1)^k m_k on
    [0, min(mu_star, m_{n-1})], where the left side is monotone."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        one = Decimal(1)
        m = [one, decimal_bisect(lambda x: h(x) + x - 1, Decimal(0), one)]
        mu_star = decimal_bisect(lambda x: dh(x) - 1, Decimal(0), one)
        for n in range(2, K + 1):
            rhs = sum(math.comb(n, k) * (-1) ** k * m[k] for k in range(n))
            sign = (-1) ** n
            m.append(decimal_bisect(lambda x: h(x) - sign * x - rhs, Decimal(0), min(mu_star, m[-1])))
        return m


def decimal_thinned_binary(p: float):
    """H and H' of the thinned binary tree as Decimal functions:
    H(z) = y^2 with y = (1 - sqrt(1 - 4pqz)) / (2p), and y' = q / sqrt(1 - 4pqz)."""
    p = Decimal(p)
    q = 1 - p

    def h(z):
        return ((1 - (1 - 4 * p * q * z).sqrt()) / (2 * p)) ** 2

    def dh(z):
        s = (1 - 4 * p * q * z).sqrt()
        return 2 * (1 - s) / (2 * p) * q / s

    return h, dh


def decimal_pmf(pmf: dict[int, float]):
    """H and H' of a finite pmf as Decimal functions, with the pmf's float
    weights taken exactly."""
    w = {k: Decimal(v) for k, v in pmf.items()}
    return (lambda z: sum(c * z ** k for k, c in w.items()),
            lambda z: sum(k * c * z ** (k - 1) for k, c in w.items()))


def decimal_iterated_mu2_plus(h, dh, near: float) -> Decimal:
    """The lesser root t of G(t) = H(1 - 2H(mu_plus) + H(t)) - (1 - 2 mu_plus + t)
    for the two-cycle member mu_plus within 1e-9 of ``near``, to DIGITS digits.

    mu_plus is the root of f(f(t)) - t, f(t) = 1 - H(t), bisected from
    near -+ 1e-9.  G is convex with a root at mu_plus; its derivative
    H'(w(t)) H'(t) - 1, w(t) = 1 - 2H(mu_plus) + H(t), is bisected for the
    minimum, and G left of it for the root, on [t_lo, mu_plus] where
    t_lo keeps w(t) >= 0."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        f = lambda t: 1 - h(t)
        eps = Decimal("1e-9")
        mu_plus = decimal_bisect(lambda t: f(f(t)) - t, Decimal(near) - eps, Decimal(near) + eps)
        shift = 1 - 2 * h(mu_plus)
        w = lambda t: shift + h(t)
        t_lo = Decimal(0) if shift >= 0 else decimal_bisect(w, Decimal(0), mu_plus)
        t_min = decimal_bisect(lambda t: dh(w(t)) * dh(t) - 1, t_lo, mu_plus)
        return decimal_bisect(lambda t: h(w(t)) - (1 - 2 * mu_plus + t), t_lo, t_min)
