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

A thinned base composes: Thinned(Thinned(B, p1), p2) has the law of B
thinned once with cut probability q = q1*q2, and the flat equation's least
root is the nested H.  ``flat_thinning`` walks a chain (at most
MAX_THINNING_DEPTH levels) to that (base, p, q) once, carrying q as the
product, as 1 - p would round it away; every evaluation solves on a base
that is not thinned.  The thinned evaluation is Newton from h = 0 on the
convex phi(h) = G(p*h + q*z) - h, which rises monotonically to the least root
(the correct fixed point) without overshooting, and gives H'(z) with H(z).
At a double root (binary base, p = 1/2, z = 1) floats resolve it only to
about sqrt(eps), where ``Pgf.deriv`` reads +inf; ``Pgf.eval_bounds`` returns
a bracket around H, which the two-cycle scans use.

H, H' and the bracket have one implementation, in plain float arithmetic.
``Pgf.__init__`` dispatches on the spec once and builds them as closures, so
no evaluation tests the spec's kind, and a Pgf cannot be pickled.  Where a
chain's flat p rounds to 1.0, Newton's margin 1 - p*G' is formed from the
carried q.  ``Pgf.eval_bounds`` and ``Pgf.deriv`` take a float s (a numpy
float64 too) or an int in [0,1].  ``Pgf.eval`` also takes an array,
which it maps over the same float path element by element, so an element's
value is the float's bit for bit.  NaN, complex, bool and other non-real s,
and s outside [0,1], raise DomainError.  numpy is imported only by code that
builds an array, so the float path runs without it.  Family sizes are
sampled, and their exact series computed, in ``rde_lab.sizes``.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable, Mapping, NamedTuple, Union

from .errors import DomainError, SpecValidationError

# an infinite family in integer sample arrays: it stores no children, and every finite N is >= 1
INF_SENTINEL = 0

_MASS_TOL = 1e-12

# largest finite family size: H's float64 powers s**k and the int64 level sums hold it exactly
MAX_FAMILY_SIZE = 2**53

# least geometric alpha: below about 6e-33 the float mu1 = 1 / (1 + sqrt(alpha)) is 1 and the mean equation fails
ALPHA_FLOOR = 1e-32

# most levels of thinning: a chain evaluates as one level, but the validator and the JSON reader recurse once a level
MAX_THINNING_DEPTH = 4


class Deterministic(NamedTuple):
    d: int


class Geometric(NamedTuple):
    alpha: float


class FinitePmf(NamedTuple):  # unhashable, as it holds a dict
    weights: Mapping[int, float]
    infinity_mass: float = 0.0


class Thinned(NamedTuple):
    base: "OffspringSpec"
    p: float


OffspringSpec = Union[Deterministic, Geometric, FinitePmf, Thinned]


def _require_finite_real(field: str, v) -> None:
    # JSON true/false load as bool, a subclass of int; NaN compares false, so `w < 0` lets it pass;
    # an int past the float range compares exactly, where isfinite(v) raises OverflowError
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise SpecValidationError(f"{field} must be a finite real number, got {v!r}")


def _require_depth(depth: int) -> None:
    if depth > MAX_THINNING_DEPTH:
        raise SpecValidationError(f"thinning may nest at most MAX_THINNING_DEPTH = {MAX_THINNING_DEPTH} levels deep")


def validate_spec(spec: OffspringSpec, _depth: int = 1) -> None:
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
        _require_depth(_depth)  # before the recursion, which a deep spec would overflow
        validate_spec(spec.base, _depth + 1)
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
    base = flat_thinning(spec)[0] if isinstance(spec, Thinned) else spec
    if isinstance(base, FinitePmf) and not any(k >= 2 and w > 0.0 for k, w in base.weights.items()):
        what = "finite pmf" if base is spec else "base pmf of the thinned spec"
        raise SpecValidationError(f"P(2 <= N < infinity) > 0 is required: {what} has no finite mass at k >= 2")


def flat_thinning(spec: Thinned) -> tuple[OffspringSpec, float, float]:
    """(base, p, q): the chain ``spec``, walked from the outside in, as one
    thinning, with the same law, of a base that is not thinned.

    Thinning B with (p1, q1) and the result with (p2, q2) cuts a line with
    probability q = q2*q1, so p = p2 + q2*p1.  q is carried as that product,
    not as 1 - p: with every p_i near 1, p rounds to 1.0 while q still holds
    the cut probability, so no Thinned may be built from the flat p.  One
    level gives (spec.p, 1.0 - spec.p).
    """
    p, q = spec.p, 1.0 - spec.p
    base = spec.base
    while isinstance(base, Thinned):
        p, q = p + q * base.p, q * (1.0 - base.p)
        base = base.base
    return base, p, q


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


def spec_from_json(obj: dict, _depth: int = 1) -> OffspringSpec:
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
            _require_depth(_depth)
            spec = Thinned(base=spec_from_json(obj["base"], _depth + 1), p=obj["p"])
        else:
            raise SpecValidationError(f"unknown offspring spec kind {kind!r}")
        validate_spec(spec)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecValidationError(f"malformed offspring spec JSON {obj}: {exc}") from exc
    return spec


# ---------------------------------------------------------------------------
# Evaluation engines
# ---------------------------------------------------------------------------
# Pgf.__init__ builds them once per spec: closures of a float s in [0,1] in
# plain float arithmetic, with powers as ``**`` (libm's pow), so that no call
# dispatches on the spec.

def _power_sum(terms: list) -> Callable[[float], float]:
    """s -> the sum of c * s**k over the terms (k, c), added in their order."""
    def power_sum(s: float) -> float:
        out = 0.0
        for k, c in terms:
            out = out + c * s ** k
        return out
    return power_sum


def _evaluators(spec: OffspringSpec) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """(G, G') of a spec that is not thinned."""
    if isinstance(spec, Deterministic):
        d = spec.d
        return (lambda s: s ** d), (lambda s: d * s ** (d - 1))
    if isinstance(spec, Geometric):
        a = spec.alpha
        # (1 - s) + alpha*s is 1 - (1 - alpha)*s without its cancellation at s = 1
        return (lambda s: a * s / ((1.0 - s) + a * s)), (lambda s: a / ((1.0 - s) + a * s) ** 2)
    # a FinitePmf, the one kind left once validate_spec has passed
    terms = [(k, w) for k, w in spec.weights.items() if w != 0.0]
    return _power_sum(terms), _power_sum([(k - 1, w * k) for k, w in terms])


def _thinned(g, g_prime, p: float, q: float, z: float) -> tuple[float, float]:
    """(H(z), H'(z)) from one solve on the base's (G, G'): H(z) is the least
    fixed point h of h -> G(p*h + q*z), and H'(z) = q*G'(w) / (1 - p*G'(w))
    at w = p*h + q*z.  Where a chain's flat p rounds to 1.0, 1 - p*G' would
    lose q, so it is formed as (1 - G') + q*G', its value at p = 1 - q."""
    h = 0.0
    # Newton from h = 0: phi(h) = G(p*h + q*z) - h is convex with phi(0) >= 0,
    # so the iterates rise monotonically to the least root and never overshoot
    for _ in range(200):
        w = p * h + q * z
        gp = g_prime(w)
        excess = g(w) - h
        margin = 1.0 - p * gp if p < 1.0 else (1.0 - gp) + q * gp
        h_new = h + excess / margin if excess > 0.0 and margin > 0.0 else h
        if not h_new > h:
            break  # the step that leaves h where it is took G' at the final h
        h = h_new
    else:
        gp = g_prime(p * h + q * z)
        margin = 1.0 - p * gp if p < 1.0 else (1.0 - gp) + q * gp
    # the implicit-function formula degenerates at the square-root branch
    # point where p*G'(w) = 1; the fixed point itself is only resolvable to
    # ~sqrt(eps) there, so anything below 1e-6 is an infinite slope
    return h, (q * gp / margin if margin >= 1e-6 else math.inf)


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


class Pgf:
    """Evaluator for H(s), H'(s) and the defect P(N = infinity).

    Holds its validated spec and the closures ``__init__`` builds for it
    once: H, H' and, for a thinned spec, the bracket's
    phi(h, z) = G(p*h + q*z) - h on the flat (base, p, q).  Nothing rebinds
    them, so a Pgf is safe to share across concurrent tasks; it cannot be
    pickled, as its closures cannot.
    """

    __slots__ = ("spec", "_h", "_h_prime", "_phi")

    def __init__(self, spec: OffspringSpec):
        validate_spec(spec)
        self.spec = spec
        self._phi = None
        if isinstance(spec, Thinned):
            base, p, q = flat_thinning(spec)
            g, g_prime = _evaluators(base)
            self._h = lambda z: _thinned(g, g_prime, p, q, z)[0]
            self._h_prime = lambda z: _thinned(g, g_prime, p, q, z)[1]
            self._phi = lambda h, z: g(p * h + q * z) - h
        else:
            self._h, self._h_prime = _evaluators(spec)

    def _eval(self, s) -> float:
        # H(s) clipped to [0,1]: weights that sum to 1 within the validator's
        # tolerance, or roundoff, could otherwise carry H past 1
        h = self._h(_unit_interval(s, "evaluation"))
        return 0.0 if h < 0.0 else 1.0 if h > 1.0 else float(h)

    def eval(self, s):
        """H(s) for s in [0,1], the mass at infinity contributing 0, clipped
        to [0,1].  A float or an int gives a float; any other s is read as a
        real array, each element evaluated as a float, and a 0-d one gives a
        float too."""
        if isinstance(s, float) or isinstance(s, int):
            return self._eval(s)
        import numpy as np

        arr = np.asarray(s)
        if arr.dtype.kind not in "fiu":
            raise DomainError(f"pgf evaluation requires real s, got dtype {arr.dtype}")
        out = [self._eval(x) for x in arr.astype(float).ravel().tolist()]
        return out[0] if arr.ndim == 0 else np.array(out, dtype=float).reshape(arr.shape)

    def eval_bounds(self, s) -> tuple[float, float]:
        """(lo, hi) with lo <= H(s) <= hi up to roundoff, for a float or an
        int s in [0,1].

        Exact for non-thinned specs (lo = hi = H(s)).  For a thinned spec lo
        is the Newton value and hi = lo + delta, with delta doubled from the
        roundoff level while |phi(lo + delta)| stays within it, where
        phi(h) = G(p*h + q*s) - h on the flat (base, p, q).  Past the root phi
        drops below the noise and at a tangency it rises above it; phi is
        convex, so either way the least root lies in [lo, hi].  Both ends lie
        in [0,1], as eval's do.
        """
        z = _unit_interval(s, "evaluation")
        lo = self.eval(z)
        if self._phi is None:
            return lo, lo
        noise = 8.0 * sys.float_info.epsilon
        delta = noise
        while True:
            hi = min(lo + delta, 1.0)
            if not (abs(self._phi(hi, z)) <= noise and hi < 1.0):
                return lo, hi
            delta *= 2.0

    def deriv(self, s) -> float:
        """H'(s) for a float or an int s in [0,1], +inf at a square-root-type
        singularity; DomainError for any other s."""
        return float(self._h_prime(_unit_interval(s, "derivative")))

    def defect(self) -> float:
        """P(N = infinity) = 1 - H(1)."""
        return max(0.0, 1.0 - float(self.eval(1.0)))
