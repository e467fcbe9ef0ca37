"""Derivative-free minimization of the squeezing parameter.

At fixed atom number, cavity rates and ground-state splitting, the achievable
squeezing is minimized over three free variables: the drive ratio
r = |Omega_2 / Omega_1|, the two-photon detuning delta, and the laser
detuning Delta_1.  Because every entry of the moment generator is quadratic
in the drive amplitudes, the minimal xi^2 is independent of the overall drive
scale; |Omega_1| is therefore pinned per evaluation so that the cavity
adiabaticity ratio sits at a fixed small value inside the validity region.

Candidates violating the validity region (any ratio at or above
``WARN_THRESHOLD``, a "fail" verdict) are penalized (objective 1 + excess)
rather than rejected, which keeps the simplex away from meaningless regions
without hard walls.

The drive ratio is searched over real positive values only; a relative drive
phase merely rotates the phase of the pair coupling, which the squeezing
minimization absorbs into the optimal transverse angle, so it cannot change
the minimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .moments import PropagationError, evolve_squeezing
from .params import WARN_THRESHOLD, PhysicalParams, check_validity, kappa_prime

#: cavity adiabaticity ratio at which |Omega_1| is pinned
DRIVE_PIN_RATIO = 1e-3


@dataclass(frozen=True)
class OptimizationProblem:
    """Fixed system parameters, search box and optimizer settings."""

    n_atoms: int
    g_a: complex = 1.0
    g_b: complex = 1.0
    kappa: float = 0.0
    gamma_total: float = 0.0
    omega_ab: float = 1e5
    gamma_split: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    r_bounds: tuple[float, float] = (0.2, 30.0)
    delta_bounds: tuple[float, float] = (-4000.0, 4000.0)
    delta1_bounds: tuple[float, float] = (1e4, 3e6)
    restarts: int = 8
    max_evals: int = 150
    seed: int = 2024
    n_steps: int = 240
    fixed_delta: float | None = None

    def __post_init__(self):
        # a bad system parameter would otherwise fail at every candidate
        # point, where the objective turns it into a penalty
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be >= 1")
        for name in ("kappa", "gamma_total"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.g_a * self.g_b == 0:
            raise ValueError("g_a and g_b must be nonzero")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("r_bounds", "delta1_bounds"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must be positive and ordered")
        if not self.delta_bounds[0] <= self.delta_bounds[1]:
            raise ValueError("delta_bounds must be ordered")
        if min(self.gamma_split) < 0 or sum(self.gamma_split) <= 0:
            raise ValueError("gamma_split weights must be nonnegative with positive sum")
        for name, least in (("restarts", 1), ("max_evals", 1), ("n_steps", 2)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")

    @property
    def cooperativity(self) -> float:
        denom = self.kappa * self.gamma_total
        return math.inf if denom == 0 else self.n_atoms * abs(self.g_a * self.g_b) / denom

    def gammas(self) -> tuple[float, float, float]:
        total = sum(self.gamma_split)
        return tuple(self.gamma_total * s / total for s in self.gamma_split)

    def params_at(self, r: float, delta: float, delta_1: float,
                  omega_1: float | None = None) -> PhysicalParams:
        """Physical parameters at a candidate point, with |Omega_1| pinned."""
        g_a, g_b, g_o = self.gammas()
        base = PhysicalParams(
            n_atoms=self.n_atoms, g_a=self.g_a, g_b=self.g_b,
            omega_1=0.0, omega_2=0.0,
            delta_1=delta_1, omega_ab=self.omega_ab, delta=delta,
            kappa=self.kappa, gamma_a=g_a, gamma_b=g_b, gamma_o=g_o)
        if omega_1 is None:
            gt = base.gamma_total
            kp = kappa_prime(base)
            d1sq = delta_1 ** 2 + gt * gt / 4.0
            csq = delta ** 2 + kp * kp / 4.0
            omega_1 = 2.0 * math.sqrt(
                DRIVE_PIN_RATIO * d1sq * csq / (self.n_atoms * abs(self.g_b) ** 2))
        return base.with_drives(omega_1, r * omega_1)


@dataclass(frozen=True)
class RestartRecord:
    x0: tuple
    x_best: tuple
    f_best: float
    n_evals: int
    success: bool


@dataclass(frozen=True)
class OptimumReport:
    """Best point found, with enough context to reproduce it."""

    xi2_min: float
    r_opt: float
    delta_opt: float
    delta1_opt: float
    t_min: float
    omega_1: float
    n_evaluations: int
    restarts: tuple[RestartRecord, ...]
    validity_ratios: dict
    problem: OptimizationProblem

    def params(self) -> PhysicalParams:
        return self.problem.params_at(self.r_opt, self.delta_opt, self.delta1_opt,
                                      omega_1=self.omega_1)


class _Objective:
    """min_t xi^2(t) with validity penalties; counts evaluations.

    An evaluable trace always yields a value <= 1 (the grid includes t = 0
    where xi^2 = 1 exactly); validity penalties are strictly above 1 and
    outright numerical failures are heavily penalized, so the two regimes
    never mix.  A trace truncated by the physicality guard (the linearized
    moments leaving their domain, e.g. in emission-dominated corners) is
    scored by the minimum over its valid prefix.
    """

    PENALTY_FAILURE = 50.0

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.n_evals = 0

    def unpack(self, x: np.ndarray) -> tuple[float, float, float]:
        log_r, delta, log_d1 = x
        if self.problem.fixed_delta is not None:
            delta = self.problem.fixed_delta
        return math.exp(log_r), delta, math.exp(log_d1)

    def __call__(self, x: np.ndarray) -> float:
        self.n_evals += 1
        r, delta, d1 = self.unpack(x)
        try:
            params = self.problem.params_at(r, delta, d1)
            if params.omega_1 == 0 or params.omega_2 == 0:
                return 1.0     # no pair-transfer mechanism, trace stays at 1
            report = check_validity(params)
            excess = sum(max(0.0, ratio / WARN_THRESHOLD - 1.0)
                         for ratio in report.ratios().values())
            if excess > 0.0:
                return 1.0 + excess
            trace = evolve_squeezing(params, n_steps=self.problem.n_steps,
                                     max_extensions=5)
            return trace.min_xi2
        except (ValueError, PropagationError):
            return self.PENALTY_FAILURE


def _search_box(problem: OptimizationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the (log r, delta, log D1) search box."""
    lo = np.array([math.log(problem.r_bounds[0]), problem.delta_bounds[0],
                   math.log(problem.delta1_bounds[0])])
    hi = np.array([math.log(problem.r_bounds[1]), problem.delta_bounds[1],
                   math.log(problem.delta1_bounds[1])])
    return lo, hi


def _start_points(problem: OptimizationProblem) -> np.ndarray:
    """Deterministic low-discrepancy starts in the (log r, delta, log D1) box."""
    # imported here: scipy.stats would roughly double the package import time
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=3, scramble=True, seed=problem.seed)
    with warnings.catch_warnings():
        # restart counts need not be powers of two; balance is irrelevant here
        warnings.simplefilter("ignore", UserWarning)
        unit = sampler.random(problem.restarts)
    lo, hi = _search_box(problem)
    return lo + unit * (hi - lo)


def optimize(problem: OptimizationProblem) -> OptimumReport:
    """Multi-start Nelder-Mead minimization of the squeezing objective.

    Deterministic for a given problem (seeded Sobol restarts, fixed simplex
    options).  The reported minimum is re-evaluated with a fresh squeezing
    trace at the argmin, so it is reproducible to full precision.
    """
    # imported here, like qmc: scipy.optimize would add about a third to the
    # package import time, and scipy.stats loads it for the starts anyway
    from scipy.optimize import minimize

    objective = _Objective(problem)
    lo, hi = _search_box(problem)
    records = []
    best = None
    for x0 in _start_points(problem):
        before = objective.n_evals
        res = minimize(objective, x0, method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"maxfev": problem.max_evals, "xatol": 1e-4,
                                "fatol": 1e-7, "disp": False})
        rec = RestartRecord(x0=tuple(x0), x_best=tuple(res.x), f_best=float(res.fun),
                            n_evals=objective.n_evals - before,
                            success=bool(res.fun <= 1.0))
        records.append(rec)
        if best is None or res.fun < best[1]:
            best = (res.x, float(res.fun))

    x_best, f_best = best
    if f_best > 1.0:
        raise RuntimeError("optimization failed: no start reached the validity region")
    r, delta, d1 = objective.unpack(np.asarray(x_best))
    params = problem.params_at(r, delta, d1)
    report = check_validity(params)
    if params.omega_1 == 0 or params.omega_2 == 0:
        xi2_min, t_min = 1.0, 0.0
    else:
        trace = evolve_squeezing(params, n_steps=problem.n_steps, max_extensions=5)
        xi2_min, t_min = float(trace.min_xi2), float(trace.t_min)
    return OptimumReport(
        xi2_min=xi2_min,
        r_opt=float(r), delta_opt=float(delta), delta1_opt=float(d1),
        t_min=t_min,
        omega_1=float(abs(params.omega_1)),
        n_evaluations=objective.n_evals,
        restarts=tuple(records),
        validity_ratios=report.ratios(),
        problem=problem,
    )


# ---------------------------------------------------------------------------
# cooperativity sweep and the inverse-square-root scaling fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    cooperativity: float
    report: OptimumReport | None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    prefactor_fixed_slope: float
    free_slope: float
    free_intercept: float


def problem_for_cooperativity(template: OptimizationProblem, cooperativity: float,
                              kappa_over_gamma: float = 1.0) -> OptimizationProblem:
    """Set (kappa, Gamma) so that N |g_a g_b| / (kappa Gamma) hits the target."""
    if cooperativity <= 0:
        raise ValueError("cooperativity must be positive")
    if not (0 < kappa_over_gamma < math.inf):
        raise ValueError("kappa_over_gamma must be positive and finite")
    product = template.n_atoms * abs(template.g_a * template.g_b) / cooperativity
    kappa = math.sqrt(product * kappa_over_gamma)
    gamma = math.sqrt(product / kappa_over_gamma)
    return replace(template, kappa=kappa, gamma_total=gamma)


def scaling_sweep(cooperativities, template: OptimizationProblem,
                  kappa_over_gamma: float = 1.0) -> SweepResult:
    """Optimize per cooperativity and fit the scaling of the optimum.

    The primary fit fixes the log-log slope at -1/2 over points with
    cooperativity >= 1 and reports the prefactor; a free-slope least-squares
    fit is included as a diagnostic.  A point whose optimization fails
    numerically (``ValueError`` or ``RuntimeError``, which include
    ``PropagationError`` and ``LinAlgError``) is recorded with its error and
    the sweep continues; any other exception is a bug and propagates.
    """
    points = []
    for coop in cooperativities:
        if coop < 1e-1:
            points.append(SweepPoint(coop, None, "cooperativity below sweep range"))
            continue
        prob = problem_for_cooperativity(template, coop, kappa_over_gamma)
        try:
            points.append(SweepPoint(float(coop), optimize(prob)))
        except (ValueError, RuntimeError) as exc:   # numerical point failures
            points.append(SweepPoint(float(coop), None, str(exc)))

    fitted = [(p.cooperativity, p.report.xi2_min) for p in points
              if p.report is not None and p.cooperativity >= 1.0]
    if not fitted:
        raise RuntimeError("no successful sweep points with cooperativity >= 1")
    log_c = np.log([c for c, _ in fitted])
    log_x = np.log([x for _, x in fitted])
    prefactor = float(np.exp(np.mean(log_x + 0.5 * log_c)))
    if len(fitted) >= 2:
        slope, intercept = np.polyfit(log_c, log_x, 1)
    else:
        slope, intercept = -0.5, float(log_x[0] + 0.5 * log_c[0])
    return SweepResult(points=tuple(points), prefactor_fixed_slope=prefactor,
                       free_slope=float(slope), free_intercept=float(intercept))


# ---------------------------------------------------------------------------
# optimality of zero two-photon detuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaZeroReport:
    applicable: bool
    reason: str
    xi2_at_zero: float | None = None
    probes: tuple = ()                 # ((delta, xi2), ...)
    within: float | None = None        # xi2(0) / best - 1


def delta_zero_check(problem: OptimizationProblem) -> DeltaZeroReport:
    """Check that delta = 0 attains the minimum against a +/- kappa' probe set.

    Applicable only when the photon-exchange side conditions hold at the
    delta = 0 optimum: weak collective coupling sqrt(N) |Omega_1 g_b /
    Delta_1| <= 0.1 kappa and absorption dominating emission,
    |Omega_2 g_a| / (Delta_2^2 + Gamma^2/4) > |Omega_1 g_b| / (Delta_1^2 +
    Gamma^2/4).  When they fail the check is skipped with an explanation.
    """
    base = replace(problem, fixed_delta=0.0)
    opt0 = optimize(base)
    p0 = opt0.params()

    gt = p0.gamma_total
    weak_coupling = math.sqrt(p0.n_atoms) * abs(p0.omega_1 * p0.g_b / p0.delta_1)
    absorb = abs(p0.omega_2 * p0.g_a) / (p0.delta_2 ** 2 + gt * gt / 4.0)
    emit = abs(p0.omega_1 * p0.g_b) / (p0.delta_1 ** 2 + gt * gt / 4.0)
    if weak_coupling > 0.1 * p0.kappa:
        return DeltaZeroReport(False, "collective coupling not small against kappa: "
                               f"sqrt(N)|Omega_1 g_b/Delta_1| = {weak_coupling:.3g} "
                               f"vs kappa = {p0.kappa:.3g}")
    if not absorb > emit:
        return DeltaZeroReport(False, "photon absorption does not dominate emission "
                               f"({absorb:.3g} <= {emit:.3g})")

    kp = kappa_prime(p0)
    probes = []
    seed_offset = 1
    for factor in (-4.0, -1.0, -0.25, 0.25, 1.0, 4.0):
        delta_probe = factor * kp
        prob_p = replace(problem, fixed_delta=delta_probe, restarts=2,
                         seed=problem.seed + seed_offset)
        seed_offset += 1
        try:
            probes.append((delta_probe, optimize(prob_p).xi2_min))
        except RuntimeError:
            probes.append((delta_probe, math.inf))
    best = min([opt0.xi2_min] + [x for _, x in probes])
    within = opt0.xi2_min / best - 1.0
    return DeltaZeroReport(True, "side conditions satisfied",
                           xi2_at_zero=opt0.xi2_min, probes=tuple(probes),
                           within=float(within))
