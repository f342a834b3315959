"""Independent oracles used by the test suite.

These deliberately avoid the library's own fast paths: brute-force
enumeration for conditional probabilities, plain python product recursions,
finite differences for derivatives, and closed forms where one exists.
"""

import itertools
import math

import numpy as np

from rde_lab.pgf import INF_SENTINEL


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
