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

Finite and thinned family sizes are drawn by inverse CDF, one uniform per
family.  A thinned spec's table is the exact series ``Pgf.pmf_prefix``,
long enough to sum to H(1); the uniforms past it are the infinite family,
so no exploration decides it.  Where no table within ``TABLE_WORK`` sums
to H(1) (critical pruning, or a base of unbounded support), draws run the
pruning process instead, and only there a draw that explores more than
``SAMPLE_BUDGET`` nodes counts as infinite.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DomainError, SpecValidationError

# an infinite family in integer sample arrays: it stores no children, and every finite N is >= 1
INF_SENTINEL = 0

_MASS_TOL = 1e-12

# largest finite family size: H's float64 powers s**k and the int64 level sums hold it exactly
MAX_FAMILY_SIZE = 2**53

# least geometric alpha: below about 6e-33 the float mu1 = 1 / (1 + sqrt(alpha)) is 1 and the mean equation fails
ALPHA_FLOOR = 1e-32

# explored-node count after which a thinned family-size draw counts as infinite
SAMPLE_BUDGET = 1_000_000

# n^2 * J bound on the work of a thinned inverse-CDF table of n entries (see _thinned_cdf)
TABLE_WORK = 2**25

# longest cdf that a draw locates by counting thresholds instead of by binary search
SHORT_CDF = 8


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


def _require_finite_real(field: str, v) -> None:
    # JSON true/false load as bool, a subclass of int; NaN compares false, so `w < 0` lets it pass;
    # an int past the float range compares exactly, where isfinite(v) raises OverflowError
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise SpecValidationError(f"{field} must be a finite real number, got {v!r}")


def validate_spec(spec: OffspringSpec) -> None:
    """Structural validation: no mass at 0, total mass 1, sane parameters.

    Raises SpecValidationError with a message naming the violated assumption.
    """
    if isinstance(spec, Deterministic):
        if not isinstance(spec.d, int) or isinstance(spec.d, bool) or not 2 <= spec.d <= MAX_FAMILY_SIZE:
            raise SpecValidationError(f"deterministic family size 'd' must be an integer in [2, 2**53], got {spec.d!r}")
    elif isinstance(spec, Geometric):
        _require_finite_real("geometric 'alpha'", spec.alpha)
        if not (ALPHA_FLOOR <= spec.alpha < 1.0):
            raise SpecValidationError(f"geometric alpha must lie in [ALPHA_FLOOR = {ALPHA_FLOOR}, 1), got {spec.alpha!r}")
    elif isinstance(spec, FinitePmf):
        _require_finite_real("'infinity_mass'", spec.infinity_mass)
        total = float(spec.infinity_mass)
        if spec.infinity_mass < 0.0:
            raise SpecValidationError("infinity_mass must be >= 0")
        if not spec.weights and spec.infinity_mass == 0.0:
            raise SpecValidationError("finite pmf has no mass")
        for k, w in spec.weights.items():
            if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_FAMILY_SIZE:
                raise SpecValidationError(f"'pmf' keys must be integers in [1, 2**53] (mass at 0 is excluded), got key {k!r}")
            _require_finite_real(f"'pmf' weight at k={k}", w)
            if w < 0.0:
                raise SpecValidationError(f"negative weight {w!r} at k={k}")
            total += float(w)
        if abs(total - 1.0) > _MASS_TOL:
            raise SpecValidationError(f"total mass must be 1 within {_MASS_TOL}, got {total!r}")
    elif isinstance(spec, Thinned):
        _require_finite_real("thinning 'p'", spec.p)
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
    # a thinned N takes a finite k >= 2 iff its base does (the root's k base
    # children can all be cut), and a base on {1, inf} gives N in {1, inf}
    base = spec
    while isinstance(base, Thinned):
        base = base.base
    if isinstance(base, FinitePmf) and not any(k >= 2 and w > 0.0 for k, w in base.weights.items()):
        what = "finite pmf" if base is spec else "base pmf of the thinned spec"
        raise SpecValidationError(f"P(2 <= N < infinity) > 0 is required: {what} has no finite mass at k >= 2")


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
        # (1 - s) + alpha*s is 1 - (1 - alpha)*s without its cancellation at s = 1
        return spec.alpha * s / ((1.0 - s) + spec.alpha * s)
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
        return spec.alpha / ((1.0 - s) + spec.alpha * s) ** 2
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
        """H(s) for scalar or array s in [0,1] (mass at infinity contributes 0),
        clipped to [0,1]: weights that sum to 1 within the validator's
        tolerance, or roundoff, could otherwise carry H past 1."""
        out = np.clip(_eval_array(self.spec, _unit_interval(s, "evaluation")), 0.0, 1.0)
        return float(out) if np.ndim(s) == 0 else out

    def eval_bounds(self, s):
        """(lo, hi) with lo <= H(s) <= hi up to roundoff, for real s in [0,1].

        Exact for non-thinned specs (lo = hi = H(s)).  For a thinned spec lo
        is the Newton value and hi = lo + delta, with delta doubled from the
        roundoff level while |phi(lo + delta)| stays within it, where
        phi(h) = G(p*h + q*s) - h.  Past the root phi drops below the noise
        and at a tangency it rises above it; phi is convex, so either way the
        least root lies in [lo, hi].  Both ends lie in [0,1], as eval's do.
        """
        lo = self.eval(s)
        spec = self.spec
        if not isinstance(spec, Thinned):
            return lo, lo
        p, q = spec.p, 1.0 - spec.p
        z = _unit_interval(s, "evaluation")
        lo_arr = np.asarray(lo, dtype=float)
        noise = 8.0 * np.finfo(float).eps
        delta = noise
        while True:
            hi = np.minimum(lo_arr + delta, 1.0)
            phi = _eval_array(spec.base, p * hi + q * z) - hi
            grow = (np.abs(phi) <= noise) & (hi < 1.0)
            if not np.any(grow):
                break
            delta = np.where(grow, 2.0 * delta, delta)
        return (lo, float(hi)) if np.ndim(lo) == 0 else (lo, hi)

    def deriv(self, s):
        """H'(s); raises DomainError at a square-root-type singularity."""
        out = self.deriv_or_inf(s)
        if np.any(np.isinf(out)):
            raise DomainError(f"derivative at s={s} sits at a square-root-type singularity")
        return out

    def deriv_or_inf(self, s):
        """H'(s), +inf at a square-root-type singularity; DomainError for
        complex s or s outside [0,1], as for deriv."""
        out = _deriv_array(self.spec, _unit_interval(s, "derivative"))
        return float(out) if np.ndim(s) == 0 else out

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

