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

The thinned evaluation is Newton from h = 0 on the convex
phi(h) = G(p*h + q*z) - h, which rises monotonically to the least root (the
correct fixed point) without overshooting; where a thinned base reads an
infinite slope, the step is the plain iteration h = G(w).  At a double root
(binary base, p = 1/2, z = 1) floats resolve it only to about sqrt(eps);
``Pgf.eval_bounds`` returns a bracket around H, which the two-cycle scans use.

H, H' and the bracket have one implementation, in plain float arithmetic:
``Pgf.eval_bounds``, ``Pgf.deriv`` and ``Pgf.deriv_or_inf`` take a float s
(a numpy float64 too) or an int in [0,1].  ``Pgf.eval`` also takes an array,
which it maps over the same float path element by element, so an element's
value is the float's bit for bit.  NaN, complex, bool and other non-real s,
and s outside [0,1], raise DomainError.  numpy is imported only by code that
builds an array, so the float path runs without it.  Family sizes are
sampled in ``rde_lab.sizes``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Union

from .errors import DomainError, SpecValidationError

if TYPE_CHECKING:
    import numpy as np

# an infinite family in integer sample arrays: it stores no children, and every finite N is >= 1
INF_SENTINEL = 0

_MASS_TOL = 1e-12

# largest finite family size: H's float64 powers s**k and the int64 level sums hold it exactly
MAX_FAMILY_SIZE = 2**53

# least geometric alpha: below about 6e-33 the float mu1 = 1 / (1 + sqrt(alpha)) is 1 and the mean equation fails
ALPHA_FLOOR = 1e-32


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
# Each takes a float s in [0,1] and computes in plain float arithmetic, with
# powers as ``**`` (libm's pow).

def _h(spec: OffspringSpec, s: float) -> float:
    if isinstance(spec, Deterministic):
        return s ** spec.d
    if isinstance(spec, Geometric):
        # (1 - s) + alpha*s is 1 - (1 - alpha)*s without its cancellation at s = 1
        return spec.alpha * s / ((1.0 - s) + spec.alpha * s)
    if isinstance(spec, FinitePmf):
        out = 0.0
        for k, w in spec.weights.items():
            if w != 0.0:
                out = out + w * s ** k
        return out
    assert isinstance(spec, Thinned)
    return _eval_thinned(spec, s)


def _eval_thinned(spec: Thinned, z: float) -> float:
    """Least fixed point of h -> G(p*h + q*z)."""
    p, q = spec.p, 1.0 - spec.p
    base = spec.base
    h = 0.0
    # Newton from h = 0: phi(h) = G(p*h + q*z) - h is convex with phi(0) >= 0,
    # so the iterates rise monotonically to the least root and never overshoot.
    # A thinned base reads an infinite slope near its own critical point, where
    # the step is the plain iteration h = G(w), which rises without overshooting too
    for _ in range(200):
        w = p * h + q * z
        excess = _h(base, w) - h
        margin = 1.0 - p * _h_prime(base, w)
        margin = 1.0 if margin == -math.inf else margin
        h_new = h + excess / margin if excess > 0.0 and margin > 0.0 else h
        if not h_new > h:
            break
        h = h_new
    return h


def _h_prime(spec: OffspringSpec, s: float) -> float:
    if isinstance(spec, Deterministic):
        return spec.d * s ** (spec.d - 1)
    if isinstance(spec, Geometric):
        return spec.alpha / ((1.0 - s) + spec.alpha * s) ** 2
    if isinstance(spec, FinitePmf):
        out = 0.0
        for k, w in spec.weights.items():
            if w != 0.0:
                out = out + (w * k) * s ** (k - 1)
        return out
    assert isinstance(spec, Thinned)
    p, q = spec.p, 1.0 - spec.p
    h = _eval_thinned(spec, s)
    gp = _h_prime(spec.base, p * h + q * s)
    denom = 1.0 - p * gp
    # the implicit-function formula degenerates at the square-root branch
    # point where p*G'(w) = 1; the fixed point itself is only resolvable to
    # ~sqrt(eps) there, so anything below 1e-6 is an infinite slope
    return q * gp / denom if denom >= 1e-6 else math.inf


# ---------------------------------------------------------------------------
# The PGF wrapper
# ---------------------------------------------------------------------------

def _unit_interval(s, what: str) -> float:
    """s as a float clipped to [0,1], for a float or an int (not a bool);
    DomainError for any other s and for s outside [0,1], NaN included."""
    if not isinstance(s, float) and (isinstance(s, bool) or not isinstance(s, int)):
        raise DomainError(f"pgf {what} requires a float or an int s, got {type(s).__name__}")
    if 0.0 <= s <= 1.0:
        return float(s)
    if not -1e-15 <= s <= 1.0 + 1e-15:
        raise DomainError(f"pgf {what} requires s in [0,1]")
    return 0.0 if s < 0.0 else 1.0


def _eval(spec: OffspringSpec, s) -> float:
    # H(s) clipped to [0,1]: weights that sum to 1 within the validator's
    # tolerance, or roundoff, could otherwise carry H past 1
    h = _h(spec, _unit_interval(s, "evaluation"))
    return 0.0 if h < 0.0 else 1.0 if h > 1.0 else float(h)


@dataclass(frozen=True)
class Pgf:
    """Evaluator for H(s), H'(s), the defect P(N = infinity) and truncations.

    Immutable after construction; safe to share across concurrent tasks.
    """

    spec: OffspringSpec

    def __post_init__(self):
        validate_spec(self.spec)

    def eval(self, s):
        """H(s) for s in [0,1], the mass at infinity contributing 0, clipped
        to [0,1].  A float or an int gives a float; any other s is read as a
        real array, each element evaluated as a float, and a 0-d one gives a
        float too."""
        if isinstance(s, float) or isinstance(s, int):
            return _eval(self.spec, s)
        import numpy as np

        arr = np.asarray(s)
        if arr.dtype.kind not in "fiu":
            raise DomainError(f"pgf evaluation requires real s, got dtype {arr.dtype}")
        out = [_eval(self.spec, x) for x in arr.astype(float).ravel().tolist()]
        return out[0] if arr.ndim == 0 else np.array(out, dtype=float).reshape(arr.shape)

    def eval_bounds(self, s) -> tuple[float, float]:
        """(lo, hi) with lo <= H(s) <= hi up to roundoff, for a float or an
        int s in [0,1].

        Exact for non-thinned specs (lo = hi = H(s)).  For a thinned spec lo
        is the Newton value and hi = lo + delta, with delta doubled from the
        roundoff level while |phi(lo + delta)| stays within it, where
        phi(h) = G(p*h + q*s) - h.  Past the root phi drops below the noise
        and at a tangency it rises above it; phi is convex, so either way the
        least root lies in [lo, hi].  Both ends lie in [0,1], as eval's do.
        """
        z = _unit_interval(s, "evaluation")
        lo = self.eval(z)
        spec = self.spec
        if not isinstance(spec, Thinned):
            return lo, lo
        p, q = spec.p, 1.0 - spec.p
        noise = 8.0 * sys.float_info.epsilon
        delta = noise
        while True:
            hi = min(lo + delta, 1.0)
            if not (abs(_h(spec.base, p * hi + q * z) - hi) <= noise and hi < 1.0):
                return lo, hi
            delta *= 2.0

    def deriv(self, s) -> float:
        """H'(s); raises DomainError at a square-root-type singularity."""
        out = self.deriv_or_inf(s)
        if out == math.inf:
            raise DomainError(f"derivative at s={s} sits at a square-root-type singularity")
        return out

    def deriv_or_inf(self, s) -> float:
        """H'(s) for a float or an int s in [0,1], +inf at a square-root-type
        singularity; DomainError for any other s, as for deriv."""
        return float(_h_prime(self.spec, _unit_interval(s, "derivative")))

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
        import numpy as np

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
