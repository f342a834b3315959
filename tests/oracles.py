"""Independent oracles used by the test suite.

These deliberately avoid the library's own fast paths: brute-force
enumeration for conditional probabilities, plain python product recursions,
finite differences for derivatives, and closed forms where one exists.
"""

import itertools
import math

import numpy as np

from rde_lab.pgf import INF_SENTINEL


def brute_force_root_probability(tree, mu1: float) -> float:
    """P(S_root = 1 | tree) by exhausting all Bernoulli(mu1) boundaries."""
    levels = tree.addresses()
    leaves = levels[tree.depth]
    total = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=len(leaves)):
        weight = 1.0
        for b in bits:
            weight *= mu1 if b == 1.0 else (1.0 - mu1)
        vals = dict(zip(leaves, bits))
        for d in range(tree.depth - 1, -1, -1):
            for addr, fam in zip(levels[d], tree.level_fams[d]):
                if fam == INF_SENTINEL:
                    vals[addr] = 1.0
                else:
                    prod = 1.0
                    for i in range(1, int(fam) + 1):
                        prod *= vals[addr + (i,)]
                    vals[addr] = 1.0 - prod
        total += weight * vals[()]
    return total


def layer_recursion_violation(tree, layer) -> float:
    """Max node-wise violation of value(u) = 1 - prod(children),
    with infinite-family nodes required to carry value 1."""
    levels = tree.addresses()
    worst = 0.0
    for d in range(tree.depth):
        for addr, fam in zip(levels[d], tree.level_fams[d]):
            if addr not in layer.values:
                continue
            if fam == INF_SENTINEL:
                worst = max(worst, abs(layer.values[addr] - 1.0))
                continue
            children = [addr + (i,) for i in range(1, int(fam) + 1)]
            if any(c not in layer.values for c in children):
                continue  # below the boundary depth of a partial layer
            prod = math.prod(layer.values[c] for c in children)
            worst = max(worst, abs(layer.values[addr] - (1.0 - prod)))
    return worst


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
