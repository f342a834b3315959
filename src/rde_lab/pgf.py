"""Offspring distributions and their probability generating functions.

The whole library is driven by a family-size random variable N taking
values in {1, 2, ...} ∪ {∞} with generating function

    H(s) = E[s^N ; N < infinity],      s in [0, 1],

so H may be *defective*: 1 - H(1) = P(N = infinity).  Standing structural
assumptions (enforced where the downstream fixed-point theory needs them):
no mass at 0, and P(2 <= N < infinity) > 0, which makes H strictly convex.

Four parametric variants are supported:

* ``Deterministic(d)``       N == d, H(s) = s^d
* ``Geometric(alpha)``       P(N=k) = (1-alpha)^(k-1) * alpha on {1,2,...},
                             H(s) = alpha*s / (1 - (1-alpha)*s)
* ``FinitePmf``              explicit weights on {1..K} plus a mass at infinity
* ``Thinned(base, p)``       the family size produced by pruning a base tree:
                             each child line independently survives with
                             probability p and is cut (counted) with q = 1-p.
                             Its generating function is the least solution of
                             H(z) = G(p*H(z) + q*z) with G the base PGF.

The thinned evaluation is vectorised Newton from h = 0 on the convex
phi(h) = G(p*h + q*z) - h, which rises monotonically to the least root (the
correct fixed point) without overshooting.  At a double root (binary base,
p = 1/2, z = 1) floats resolve it only to about sqrt(eps); ``Pgf.eval_bounds``
returns a bracket around H, which the two-cycle scans use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, SpecValidationError

INFINITY = math.inf

# sentinel for an infinite family inside integer sample arrays
INF_SENTINEL = -1

_MASS_TOL = 1e-12

# explored-node count after which a thinned family-size draw counts as infinite
SAMPLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Deterministic:
    d: int


@dataclass(frozen=True)
class Geometric:
    alpha: float


@dataclass(frozen=True)
class FinitePmf:
    weights: Mapping[int, float]
    infinity_mass: float = 0.0


@dataclass(frozen=True)
class Thinned:
    base: "OffspringSpec"
    p: float


OffspringSpec = Union[Deterministic, Geometric, FinitePmf, Thinned]


def validate_spec(spec: OffspringSpec) -> None:
    """Structural validation: no mass at 0, total mass 1, sane parameters.

    Raises SpecValidationError with a message naming the violated assumption.
    """
    if isinstance(spec, Deterministic):
        if not isinstance(spec.d, int) or isinstance(spec.d, bool) or spec.d < 2:
            raise SpecValidationError(f"deterministic family size 'd' must be an integer >= 2, got {spec.d!r}")
    elif isinstance(spec, Geometric):
        if not (0.0 < spec.alpha < 1.0):
            raise SpecValidationError(f"geometric alpha must lie in (0,1), got {spec.alpha!r}")
    elif isinstance(spec, FinitePmf):
        total = float(spec.infinity_mass)
        if spec.infinity_mass < 0.0:
            raise SpecValidationError("infinity_mass must be >= 0")
        if not spec.weights and spec.infinity_mass == 0.0:
            raise SpecValidationError("finite pmf has no mass")
        for k, w in spec.weights.items():
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise SpecValidationError(f"finite pmf support must be integers >= 1 (mass at 0 is excluded), got key {k!r}")
            if w < 0.0:
                raise SpecValidationError(f"negative weight {w!r} at k={k}")
            total += float(w)
        if abs(total - 1.0) > _MASS_TOL:
            raise SpecValidationError(f"total mass must be 1 within {_MASS_TOL}, got {total!r}")
    elif isinstance(spec, Thinned):
        if not (0.0 < spec.p < 1.0):
            raise SpecValidationError(f"thinning survival probability p must lie in (0,1), got {spec.p!r}")
        validate_spec(spec.base)
    else:
        raise SpecValidationError(f"unknown offspring spec {spec!r}")


def require_analysis_assumptions(spec: OffspringSpec) -> None:
    """Check P(2 <= N < infinity) > 0, i.e. strict convexity of H.

    The fixed-point/endogeny theory needs it; sampling and the plain mean
    equation do not, so this gate is applied only by the operations that
    rely on convexity.
    """
    validate_spec(spec)
    if isinstance(spec, (Deterministic, Geometric)):
        return
    if isinstance(spec, FinitePmf):
        if not any(k >= 2 and w > 0.0 for k, w in spec.weights.items()):
            raise SpecValidationError("P(2 <= N < infinity) > 0 is required: finite pmf has no finite mass at k >= 2")
        return
    # Thinned: H is linear iff all finite mass sits on {1}.  Test the chord:
    # strict convexity on [0,1] is equivalent to H(1)/2 - H(0.5) > 0.
    pgf = Pgf(spec)
    gap = 0.5 * float(pgf.eval(1.0)) - float(pgf.eval(0.5))
    if gap <= 1e-9:
        raise SpecValidationError("P(2 <= N < infinity) > 0 is required: thinned spec is (numerically) linear")


def ess_sup(spec: OffspringSpec) -> float:
    """Essential supremum of N (may be INFINITY)."""
    if isinstance(spec, Deterministic):
        return float(spec.d)
    if isinstance(spec, Geometric):
        return INFINITY
    if isinstance(spec, FinitePmf):
        if spec.infinity_mass > 0.0:
            return INFINITY
        return float(max(k for k, w in spec.weights.items() if w > 0.0))
    # a thinned family can collect any number of cut lines
    return INFINITY


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def spec_to_json(spec: OffspringSpec) -> dict:
    if isinstance(spec, Deterministic):
        return {"kind": "deterministic", "d": spec.d}
    if isinstance(spec, Geometric):
        return {"kind": "geometric", "alpha": spec.alpha}
    if isinstance(spec, FinitePmf):
        return {
            "kind": "finite",
            "pmf": {str(k): float(w) for k, w in sorted(spec.weights.items())},
            "infinity_mass": float(spec.infinity_mass),
        }
    if isinstance(spec, Thinned):
        return {"kind": "thinned", "p": spec.p, "base": spec_to_json(spec.base)}
    raise SpecValidationError(f"unknown offspring spec {spec!r}")


def spec_from_json(obj: dict) -> OffspringSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecValidationError("offspring spec JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "deterministic":
            spec: OffspringSpec = Deterministic(d=obj["d"])
        elif kind == "geometric":
            spec = Geometric(alpha=obj["alpha"])
        elif kind == "finite":
            # JSON object keys are strings, so the support is parsed; the weights are not
            weights = {int(k): w for k, w in obj["pmf"].items()}
            spec = FinitePmf(weights=weights, infinity_mass=obj.get("infinity_mass", 0.0))
        elif kind == "thinned":
            spec = Thinned(base=spec_from_json(obj["base"]), p=obj["p"])
        else:
            raise SpecValidationError(f"unknown offspring spec kind {kind!r}")
        validate_spec(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError(f"malformed offspring spec JSON {obj}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Evaluation engines
# ---------------------------------------------------------------------------

def _eval_array(spec: OffspringSpec, s: np.ndarray) -> np.ndarray:
    if isinstance(spec, Deterministic):
        return s ** spec.d
    if isinstance(spec, Geometric):
        beta = 1.0 - spec.alpha
        return spec.alpha * s / (1.0 - beta * s)
    if isinstance(spec, FinitePmf):
        out = np.zeros_like(s)
        for k, w in spec.weights.items():
            if w != 0.0:
                out = out + w * s ** k
        return out
    assert isinstance(spec, Thinned)
    return _eval_thinned(spec, s)


def _eval_thinned(spec: Thinned, z: np.ndarray) -> np.ndarray:
    """Least fixed point of h -> G(p*h + q*z), elementwise over z."""
    p, q = spec.p, 1.0 - spec.p
    base = spec.base
    h = np.zeros_like(z)
    # Newton from h = 0: phi(h) = G(p*h + q*z) - h is convex with phi(0) >= 0,
    # so the iterates rise monotonically to the least root and never overshoot
    for _ in range(200):
        w = p * h + q * z
        excess = _eval_array(base, w) - h
        margin = 1.0 - p * _deriv_array(base, w)
        up = (excess > 0.0) & (margin > 0.0)
        h_new = np.where(up, h + excess / np.where(up, margin, 1.0), h)
        if not np.any(h_new > h):
            break
        h = h_new
    return h


def _deriv_array(spec: OffspringSpec, s: np.ndarray) -> np.ndarray:
    if isinstance(spec, Deterministic):
        return spec.d * s ** (spec.d - 1)
    if isinstance(spec, Geometric):
        beta = 1.0 - spec.alpha
        return spec.alpha / (1.0 - beta * s) ** 2
    if isinstance(spec, FinitePmf):
        out = np.zeros_like(s)
        for k, w in spec.weights.items():
            if w != 0.0:
                out = out + (w * k) * s ** (k - 1)
        return out
    assert isinstance(spec, Thinned)
    p, q = spec.p, 1.0 - spec.p
    h = _eval_thinned(spec, s)
    gp = _deriv_array(spec.base, p * h + q * s)
    denom = 1.0 - p * gp
    # the implicit-function formula degenerates at the square-root branch
    # point where p*G'(w) = 1; the fixed point itself is only resolvable to
    # ~sqrt(eps) there, so anything below 1e-6 is an infinite slope
    regular = denom >= 1e-6
    return np.where(regular, q * gp / np.where(regular, denom, 1.0), np.inf)


# ---------------------------------------------------------------------------
# The PGF wrapper
# ---------------------------------------------------------------------------

def _unit_interval(s, what: str) -> np.ndarray:
    """s as a float array clipped to [0,1]; DomainError for complex s or s outside it."""
    arr = np.asarray(s)
    if arr.dtype.kind == "c":
        raise DomainError(f"pgf {what} requires real s")
    arr = np.asarray(arr, dtype=float)
    if np.any(arr < -1e-15) or np.any(arr > 1.0 + 1e-15):
        raise DomainError(f"pgf {what} requires s in [0,1]")
    return np.clip(arr, 0.0, 1.0)


@dataclass(frozen=True)
class Pgf:
    """Evaluator for H(s), H'(s), the defect P(N = infinity) and truncations.

    Immutable after construction; safe to share across concurrent tasks.
    """

    spec: OffspringSpec

    def __post_init__(self):
        validate_spec(self.spec)

    def eval(self, s):
        """H(s) for scalar or array s in [0,1] (mass at infinity contributes 0)."""
        out = _eval_array(self.spec, _unit_interval(s, "evaluation"))
        return float(out) if np.ndim(s) == 0 else out

    def eval_bounds(self, s):
        """(lo, hi) with lo <= H(s) <= hi up to roundoff, for real s in [0,1].

        Exact for non-thinned specs (lo = hi = H(s)).  For a thinned spec lo
        is the Newton value and hi = lo + delta, with delta doubled from the
        roundoff level while |phi(lo + delta)| stays within it, where
        phi(h) = G(p*h + q*s) - h.  Past the root phi drops below the noise
        and at a tangency it rises above it; phi is convex, so either way the
        least root lies in [lo, hi].  hi is capped at max(lo, 1).
        """
        lo = self.eval(s)
        spec = self.spec
        if not isinstance(spec, Thinned):
            return lo, lo
        p, q = spec.p, 1.0 - spec.p
        z = _unit_interval(s, "evaluation")
        lo_arr = np.asarray(lo, dtype=float)
        noise = 8.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(lo_arr))
        cap = np.maximum(lo_arr, 1.0)  # lo can pass 1 by roundoff
        delta = noise
        while True:
            hi = np.minimum(lo_arr + delta, cap)
            phi = _eval_array(spec.base, p * hi + q * z) - hi
            grow = (np.abs(phi) <= noise) & (hi < cap)
            if not np.any(grow):
                break
            delta = np.where(grow, 2.0 * delta, delta)
        return (lo, float(hi)) if np.ndim(lo) == 0 else (lo, hi)

    def deriv(self, s):
        """H'(s); raises DomainError at a square-root-type singularity."""
        out = _deriv_array(self.spec, _unit_interval(s, "derivative"))
        if np.any(np.isinf(out)):
            raise DomainError(f"derivative at s={s} sits at a square-root-type singularity")
        return float(out) if np.ndim(s) == 0 else out

    def deriv_or_inf(self, s) -> float:
        """H'(s) with singularities reported as +inf instead of an exception."""
        try:
            v = self.deriv(s)
        except DomainError:
            return INFINITY
        return v

    def defect(self) -> float:
        """P(N = infinity) = 1 - H(1)."""
        return max(0.0, 1.0 - float(self.eval(1.0)))

    def pmf_prefix(self, n: int) -> tuple[np.ndarray, float]:
        """(P(N=0..n-1), P(N >= n) including the infinite mass).

        Parametric variants are read off directly.  Thinned ones are exact
        too: W = p*H + q*z solves W = q*z + p*G(W) with W_0 = 0, and [z^k] G(W)
        involves W_k only through g_1*W_k, so each order solves in closed form
        from non-negative lower-order terms.  G enters through its own
        pmf_prefix(n); the table pw[j, k] = [z^k] W^j stops at J, the largest
        k < n with g_k > 0, for O(n^2 * J) time.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        p = np.zeros(n)
        spec = self.spec
        if isinstance(spec, Deterministic):
            if spec.d < n:
                p[spec.d] = 1.0
                return p, 0.0
            return p, 1.0
        if isinstance(spec, Geometric):
            beta = 1.0 - spec.alpha
            for k in range(1, n):
                p[k] = spec.alpha * beta ** (k - 1)
            return p, beta ** (n - 1)
        if isinstance(spec, FinitePmf):
            tail = float(spec.infinity_mass)
            for k, w in spec.weights.items():
                if k < n:
                    p[k] = float(w)
                else:
                    tail += float(w)
            return p, tail
        assert isinstance(spec, Thinned)
        g, _ = Pgf(spec.base).pmf_prefix(n)
        big_j = int(np.flatnonzero(g).max(initial=1))  # >= 1 keeps W's own row
        q = 1.0 - spec.p
        pw = np.zeros((big_j + 1, n))
        for k in range(1, n):
            top = min(k, big_j)
            pw[2:top + 1, k] = pw[1:top, k - 1:0:-1] @ pw[1, 1:k]
            rest = g[2:top + 1] @ pw[2:top + 1, k]
            pw[1, k] = (spec.p * rest + q * (k == 1)) / (1.0 - spec.p * g[1])
            p[k] = g[1] * pw[1, k] + rest
        return p, max(0.0, 1.0 - float(p.sum()))

    def truncated(self, n: int) -> "Pgf":
        """PGF of min(n, N): H_n(s) = sum_{k<n} P(N=k) s^k + P(N>=n) s^n.

        The result is non-defective and dominates H pointwise.
        """
        if n < 1:
            raise ValueError("truncation level must be >= 1")
        p, tail = self.pmf_prefix(n)
        weights = {k: float(p[k]) for k in range(1, n) if p[k] > 0.0}
        weights[n] = weights.get(n, 0.0) + tail
        total = sum(weights.values())
        weights = {k: w / total for k, w in weights.items() if w > 0.0}
        return Pgf(FinitePmf(weights=weights, infinity_mass=0.0))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_family_sizes(
    spec: OffspringSpec,
    n: int,
    rng: np.random.Generator,
    budget: int = SAMPLE_BUDGET,
) -> np.ndarray:
    """n iid draws of N as an int64 array, with INF_SENTINEL marking infinity.

    Parametric variants use exact inverse-CDF sampling.  Thinned draws run
    the pruning process on the base tree: every child line survives with
    probability p and is cut (one count) with probability q; a draw whose
    explored-node count exceeds ``budget`` is reported as infinite.  The
    misclassification this can cause inflates a huge finite family to
    infinity, which downstream value recursions treat the same way a truly
    infinite family behaves (node value ~ 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(spec, Deterministic):
        return np.full(n, spec.d, dtype=np.int64)
    if isinstance(spec, Geometric):
        return rng.geometric(spec.alpha, size=n).astype(np.int64)
    if isinstance(spec, FinitePmf):
        support = [k for k, w in sorted(spec.weights.items()) if w > 0.0]
        probs = [spec.weights[k] for k in support]
        if spec.infinity_mass > 0.0:
            support.append(INF_SENTINEL)
            probs.append(spec.infinity_mass)
        probs = np.asarray(probs, dtype=float)
        probs = probs / probs.sum()
        return rng.choice(np.asarray(support, dtype=np.int64), size=n, p=probs)
    assert isinstance(spec, Thinned)
    return _sample_thinned(spec, n, rng, budget)


def _sum_family_draws(
    base: OffspringSpec, counts: np.ndarray, rng: np.random.Generator, budget: int
) -> tuple[np.ndarray, np.ndarray]:
    """(sum of counts[i] iid base draws, infinite-draw flag), per entry.

    Structured bases have closed forms for the sum, which keeps each
    pruning generation O(#samples) instead of O(#nodes).
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
    # generic fall-back: one draw per node
    owners = np.repeat(np.arange(counts.size), counts)
    fams = sample_family_sizes(base, int(owners.size), rng, budget)
    inf_mask = np.bincount(owners[fams == INF_SENTINEL], minlength=counts.size) > 0
    fams = np.where(fams == INF_SENTINEL, 0, fams)
    sums = np.bincount(owners, weights=fams.astype(float), minlength=counts.size).astype(np.int64)
    return sums, inf_mask


def _sample_thinned(spec: Thinned, n: int, rng: np.random.Generator, budget: int) -> np.ndarray:
    p, q = spec.p, 1.0 - spec.p
    out = np.zeros(n, dtype=np.int64)
    deaths = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=np.int64)  # live (surviving) nodes awaiting expansion
    idx = np.arange(n)
    while idx.size:
        # total base children of this generation's live nodes, per sample
        children, blown = _sum_family_draws(spec.base, active, rng, budget)
        # an infinite base family sheds infinitely many cut lines a.s.
        visited[idx] += children
        survivors = rng.binomial(children, p)
        deaths[idx] += children - survivors
        active = survivors
        blown = blown | (visited[idx] > budget)
        done = (active == 0) | blown
        if np.any(done):
            finished = idx[done]
            was_blown = blown[done]
            out[finished[was_blown]] = INF_SENTINEL
            out[finished[~was_blown]] = deaths[finished[~was_blown]]
            idx = idx[~done]
            active = active[~done]
    return out


def sample_family_size(spec: OffspringSpec, rng: np.random.Generator, budget: int = SAMPLE_BUDGET):
    """One draw of N; returns an int >= 1 or INFINITY."""
    v = int(sample_family_sizes(spec, 1, rng, budget)[0])
    return INFINITY if v == INF_SENTINEL else v
