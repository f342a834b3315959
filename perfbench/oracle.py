"""Independent oracles for the rde-lab CLI reports.

Nothing here imports rde_lab or numpy: every reference value is recomputed
in plain Python floats from the JSON spec, with closed forms where one
exists and different algorithms from the library's where none does.

* PGFs: closed forms for the deterministic, geometric and finite families;
  for a thinned family H = G(pH + qz) the binary and geometric bases have
  closed forms, any other base is solved by Newton's method started at
  h = 0, which rises monotonically to the least root because
  h -> G(ph + qz) - h is convex with a non-negative value at 0.
* mu1 is the root of H(x) + x - 1 by bisection; the endogeny class is
  H'(mu1) <= 1 (the critical case counts as endogenous), except for the
  thinned ternary tree, whose threshold (3 sqrt 3 - 4) / (3 sqrt 3 - 2) is
  known in closed form.
* Two-cycles come from a grid scan of f(f(t)) - t with f(t) = 1 - H(t).
* Monte Carlo estimates are checked as z-scores against exact finite-depth
  moments, and the distributional map step by step against the exact
  conditional one-step moments.

Each ``check_*`` function returns a list of problems; an empty list means
the report agrees with its oracle.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TERNARY_THRESHOLD = (3.0 * math.sqrt(3.0) - 4.0) / (3.0 * math.sqrt(3.0) - 2.0)

MU1_TOL = 1e-9
CRITICAL_TOL = 1e-9
CYCLE_TOL = 1e-6
CYCLE_MAP_TOL = 1e-9
H_TOL = 1e-10
# where 1 - p G'(w) is this small the fixed point of h -> G(ph + qz) is
# (nearly) a double root, which floats resolve only to about sqrt(eps)
DOUBLE_ROOT_SLOPE = 1e-3
DOUBLE_ROOT_H_TOL = 2e-7
DERIV_REL_TOL = 1e-7
NEUTRAL_TOL = 1e-12
SCAN_GRID = 2001
Z_MAX = 5.0
# floor for estimates whose exact spread is zero (e.g. C on a deterministic tree)
ROUNDING = 1e-12
# a reported standard error may differ from the exact one by sampling noise only
SE_REL_TOL = 0.2


# ---------------------------------------------------------------------------
# Generating functions
# ---------------------------------------------------------------------------

class Family:
    """H, H' and, for thinned families, the slope margin 1 - p G'(w)."""

    def __init__(self, spec: dict):
        self.spec = spec
        kind = spec["kind"]
        if kind == "deterministic":
            d = int(spec["d"])
            self.H = lambda s: s ** d
            self.dH = lambda s: d * s ** (d - 1)
        elif kind == "geometric":
            a = float(spec["alpha"])
            self.H = lambda s: a * s / (1.0 - (1.0 - a) * s)
            self.dH = lambda s: a / (1.0 - (1.0 - a) * s) ** 2
        elif kind == "finite":
            pmf = {int(k): float(w) for k, w in spec["pmf"].items()}
            self.H = lambda s: sum(w * s ** k for k, w in pmf.items())
            self.dH = lambda s: sum(w * k * s ** (k - 1) for k, w in pmf.items())
        elif kind == "thinned":
            self._thinned(float(spec["p"]), spec["base"])
        else:
            raise ValueError(f"unknown spec kind {kind!r}")

    def _thinned(self, p: float, base_spec: dict) -> None:
        q = 1.0 - p
        base = Family(base_spec)
        self.base, self.p = base, p
        if base_spec["kind"] == "deterministic" and int(base_spec["d"]) == 2:
            # H = (1 - 2pqz - sqrt(1 - 4pqz)) / (2p^2), rationalised so
            # that small z keeps its digits
            self.H = lambda z: 2.0 * q * q * z * z / (1.0 - 2.0 * p * q * z + math.sqrt(max(0.0, 1.0 - 4.0 * p * q * z)))
        elif base_spec["kind"] == "geometric":
            a = float(base_spec["alpha"])
            b = 1.0 - a

            def quadratic(z: float) -> float:
                # least root of b p h^2 - (1 - a p - b q z) h + a q z = 0
                lin = 1.0 - a * p - b * q * z
                disc = max(0.0, lin * lin - 4.0 * b * p * a * q * z)
                return 2.0 * a * q * z / (lin + math.sqrt(disc)) if z > 0.0 else 0.0

            self.H = quadratic
        else:
            self.H = lambda z: least_fixed_point(base.H, base.dH, p, z)

        def deriv(z: float) -> float:
            g1 = base.dH(p * self.H(z) + q * z)
            margin = 1.0 - p * g1
            return q * g1 / margin if margin > 0.0 else math.inf

        self.dH = deriv

    def slope_margin(self, z: float) -> float:
        """1 - p G'(pH(z) + qz) for a thinned family, 1 otherwise."""
        if not hasattr(self, "base"):
            return 1.0
        return 1.0 - self.p * self.base.dH(self.p * self.H(z) + (1.0 - self.p) * z)

    def f(self, t: float) -> float:
        """The mean map f(t) = 1 - H(t)."""
        return 1.0 - self.H(min(1.0, max(0.0, t)))


def least_fixed_point(G, dG, p: float, z: float, max_iter: int = 400) -> float:
    """Least root of h = G(ph + qz) by Newton's method from h = 0."""
    q = 1.0 - p
    h = 0.0
    for _ in range(max_iter):
        w = p * h + q * z
        excess = G(w) - h
        margin = 1.0 - p * dG(w)
        if excess <= 0.0 or margin <= 0.0:
            break
        step = excess / margin
        h += step
        if step < 1e-17:
            break
    return h


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mu1(fam: Family) -> float:
    k = lambda x: fam.H(x) + x - 1.0
    if k(1.0) <= 0.0:
        return 1.0
    return bisect(k, 0.0, 1.0)


def endogeny_class(fam: Family) -> str:
    spec = fam.spec
    if spec["kind"] == "thinned" and spec["base"] == {"kind": "deterministic", "d": 3}:
        return "Endogenous" if float(spec["p"]) >= TERNARY_THRESHOLD else "NonEndogenous"
    return "Endogenous" if fam.dH(mu1(fam)) <= 1.0 + CRITICAL_TOL else "NonEndogenous"


def exact_m2(fam: Family, depth: int) -> float:
    """E[C_n^2] at depth n: m2_0 = mu1^2, m2_{k+1} = 1 - 2 H(mu1) + H(m2_k)."""
    m = mu1(fam)
    m2 = m * m
    for _ in range(depth):
        m2 = 1.0 - 2.0 * fam.H(m) + fam.H(m2)
    return m2


def two_cycles(fam: Family, grid: int = SCAN_GRID) -> dict:
    """Fixed points and two-cycles of f, or the neutral-continuum marker.

    Roots of f(f(t)) - t are grid points where it vanishes to NEUTRAL_TOL
    and bisected sign changes between grid points.
    """
    f = fam.f
    d = lambda t: f(f(t)) - t
    ts = [i / (grid - 1) for i in range(grid)]
    ds = [d(t) for t in ts]
    if max(abs(v) for v in ds) < NEUTRAL_TOL:
        return {"neutral_continuum": True, "fixed_points": [], "cycles": []}
    roots = [t for t, v in zip(ts, ds) if abs(v) <= NEUTRAL_TOL]
    for i in range(grid - 1):
        a, b = ds[i], ds[i + 1]
        if abs(a) > NEUTRAL_TOL and abs(b) > NEUTRAL_TOL and (a > 0.0) != (b > 0.0):
            roots.append(bisect(d, ts[i], ts[i + 1]))
    roots.sort()
    fixed: list[float] = []
    cycles: list[tuple[float, float]] = []
    for r in roots:
        partner = f(r)
        if abs(partner - r) <= CYCLE_TOL:
            if not fixed or r - fixed[-1] > CYCLE_TOL:
                fixed.append(r)
            continue
        pair = (max(r, partner), min(r, partner))
        if not any(abs(pair[0] - c[0]) <= CYCLE_TOL and abs(pair[1] - c[1]) <= CYCLE_TOL for c in cycles):
            cycles.append(pair)
    return {"neutral_continuum": False, "fixed_points": fixed, "cycles": cycles}


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

def _close(name: str, got, want: float, tol: float, problems: list[str]) -> None:
    if not isinstance(got, (int, float)) or not abs(float(got) - want) <= tol:
        problems.append(f"{name}: got {got!r}, want {want!r} within {tol}")


def _z(name: str, est: float, se: float, exact: float, problems: list[str]) -> None:
    diff = est - exact
    if abs(diff) > Z_MAX * se + ROUNDING:
        problems.append(f"{name}: estimate {est!r}, exact {exact!r}, standard error {se!r}")


def _se(name: str, got: float, exact: float, problems: list[str]) -> None:
    if exact > ROUNDING and abs(got / exact - 1.0) > SE_REL_TOL:
        problems.append(f"{name}: reported {got!r}, exact {exact!r}")


def _check_scan(fam: Family, scan: dict, problems: list[str]) -> None:
    want = two_cycles(fam)
    if bool(scan.get("neutral_continuum")) != want["neutral_continuum"]:
        problems.append(f"neutral_continuum: got {scan.get('neutral_continuum')!r}, want {want['neutral_continuum']}")
    got_fixed = scan.get("fixed_points", [])
    if len(got_fixed) != len(want["fixed_points"]) or any(
        abs(g - w) > CYCLE_TOL for g, w in zip(sorted(got_fixed), want["fixed_points"])
    ):
        problems.append(f"fixed_points: got {got_fixed}, want {want['fixed_points']}")
    got_cycles = scan.get("cycles", [])
    if len(got_cycles) != len(want["cycles"]):
        problems.append(f"two-cycles: got {len(got_cycles)}, want {len(want['cycles'])}")
    for cyc in got_cycles:
        hi, lo = cyc["mu_plus"], cyc["mu_minus"]
        if abs(fam.f(hi) - lo) > CYCLE_MAP_TOL or abs(fam.f(lo) - hi) > CYCLE_MAP_TOL:
            problems.append(f"cycle ({hi!r}, {lo!r}) is not a two-cycle of f")
        elif not any(abs(hi - w[0]) <= CYCLE_TOL and abs(lo - w[1]) <= CYCLE_TOL for w in want["cycles"]):
            problems.append(f"cycle ({hi!r}, {lo!r}) is not among the oracle's {want['cycles']}")


def check_analyze(config: dict, out: Path) -> list[str]:
    fam = Family(config["spec"])
    report = json.loads((out / "analysis.json").read_text())
    problems: list[str] = []
    fp = report["fixed_point"]
    _close("mu1", fp["mu1"], mu1(fam), MU1_TOL, problems)
    if fp["endogeny"] != endogeny_class(fam):
        problems.append(f"endogeny: got {fp['endogeny']!r}, want {endogeny_class(fam)!r}")
    _check_scan(fam, report["two_cycles"], problems)
    return problems


def check_cycles(config: dict, out: Path) -> list[str]:
    fam = Family(config["spec"])
    report = json.loads((out / "cycles.json").read_text())
    problems: list[str] = []
    _check_scan(fam, report, problems)
    return problems


def _h_tol(fam: Family, z: float) -> float:
    return DOUBLE_ROOT_H_TOL if fam.slope_margin(z) < DOUBLE_ROOT_SLOPE else H_TOL


def check_transform(config: dict, out: Path) -> list[str]:
    fam = Family(config["spec"])
    report = json.loads((out / "transform.json").read_text())
    with open(out / "transform.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems: list[str] = []
    if len(rows) != 101:
        problems.append(f"transform.csv: {len(rows)} rows, want 101")
    for i, row in enumerate(rows):
        z = float(row["z"])
        if abs(z - i / 100) > 1e-12:
            problems.append(f"row {i}: z = {z!r}")
            break
        _close(f"H({z})", float(row["H"]), fam.H(z), _h_tol(fam, z), problems)
        got_d = float(row["H_prime"])
        if fam.slope_margin(z) >= DOUBLE_ROOT_SLOPE:
            want_d = fam.dH(z)
            _close(f"H'({z})", got_d, want_d, DERIV_REL_TOL * max(1.0, abs(want_d)), problems)
    _close("defect", report["defect"], max(0.0, 1.0 - fam.H(1.0)), _h_tol(fam, 1.0), problems)
    return problems


def check_simulate(config: dict, out: Path) -> list[str]:
    fam = Family(config["spec"])
    report = json.loads((out / "simulate.json").read_text())
    depth, reps = int(config["depth"]), int(config["reps"])
    problems: list[str] = []
    m1 = mu1(fam)
    _close("analytic.mu1", report["analytic"]["mu1"], m1, MU1_TOL, problems)
    m2 = exact_m2(fam, depth)
    gap = m1 - m2
    mc, diag = report["mc_moments"], report["endogeny_diagnostic"]
    for block, name in ((mc, "mc_moments"), (diag, "endogeny_diagnostic")):
        if block["depth"] != depth or block["reps"] != reps:
            problems.append(f"{name}: depth/reps {block['depth']}/{block['reps']}, want {depth}/{reps}")
    _z("mean_C", mc["mean_C"], mc["se_mean"], m1, problems)
    _z("m2_C", mc["m2_C"], mc["se_m2"], m2, problems)
    _z("e_c_one_minus_c", diag["e_c_one_minus_c"], diag["se_e"], gap, problems)
    _z("p_disagree", diag["p_disagree"], diag["se_p"], 2.0 * gap, problems)
    _se("se_mean", mc["se_mean"], math.sqrt(max(0.0, m2 - m1 * m1) / reps), problems)
    _se("se_p", diag["se_p"], math.sqrt(2.0 * gap * (1.0 - 2.0 * gap) / reps), problems)
    if config.get("traces"):
        with open(out / "traces.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != reps:
            problems.append(f"traces.csv: {len(rows)} rows, want {reps}")
        if any(not 0.0 <= float(r["root_C"]) <= 1.0 or float(r["root_S"]) not in (0.0, 1.0) for r in rows):
            problems.append("traces.csv: root_C outside [0,1] or root_S outside {0,1}")
    return problems


def initial_moments(init: dict) -> tuple[float, float, int]:
    """(mean, second moment, size) of the CLI's initial sample."""
    size = int(init["size"])
    kind = init["kind"]
    if kind == "point_mass":
        v = float(init["value"])
        return v, v * v, size
    if kind == "bernoulli":
        m = round(float(init["mean"]) * size) / size
        return m, m, size
    if kind == "mean_matched_uniform":
        mean = float(init["mean"])
        a, b = max(0.0, 2.0 * mean - 1.0), min(1.0, 2.0 * mean)
        # midpoint grid on [a, b]: the continuous moment minus (b-a)^2 / (12 size^2)
        m2 = (a * a + a * b + b * b) / 3.0 - (b - a) ** 2 / (12.0 * size * size)
        return mean, m2, size
    raise ValueError(f"unsupported initial kind {kind!r}")


def check_iterate(config: dict, out: Path, expect_verdict: str | None = None) -> list[str]:
    """Each step against the exact conditional moments given the previous
    sample: E[m1'] = 1 - H(m1), E[m2'] = 1 - 2 H(m1) + H(m2), with the exact
    variance m2' - m1'^2 for the mean and the bound m2' (1 - m2') for m2."""
    fam = Family(config["spec"])
    verdict = json.loads((out / "verdict.json").read_text())
    with open(out / "trajectory.csv", newline="") as fh:
        rows = [(int(r["k"]), float(r["m1"]), float(r["m2"])) for r in csv.DictReader(fh)]
    steps = int(config["steps"])
    problems: list[str] = []
    if [r[0] for r in rows] != list(range(steps + 1)):
        return [f"trajectory.csv: steps {[r[0] for r in rows][:5]}..., want 0..{steps}"]
    m1_0, m2_0, size = initial_moments(config["initial"])
    _close("m1[0]", rows[0][1], m1_0, 1e-9, problems)
    _close("m2[0]", rows[0][2], m2_0, 1e-9, problems)
    for (_, m1, m2), (k, n1, n2) in zip(rows, rows[1:]):
        h1 = fam.H(m1)
        p1 = 1.0 - h1
        p2 = 1.0 - 2.0 * h1 + fam.H(m2)
        _z(f"m1[{k}]", n1, math.sqrt(max(0.0, p2 - p1 * p1) / size), p1, problems)
        _z(f"m2[{k}]", n2, math.sqrt(max(0.0, p2 * (1.0 - p2)) / size), p2, problems)
    _close("verdict.mu1", verdict["mu1"], mu1(fam), MU1_TOL, problems)
    if [verdict["final"]["m1"], verdict["final"]["m2"]] != [rows[-1][1], rows[-1][2]]:
        problems.append("verdict.final disagrees with the last trajectory row")
    if expect_verdict is not None and verdict["verdict"]["analytic"] != expect_verdict:
        problems.append(f"analytic verdict: got {verdict['verdict']['analytic']!r}, want {expect_verdict!r}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "cycles": check_cycles,
    "transform": check_transform,
    "simulate": check_simulate,
    "iterate": check_iterate,
}
