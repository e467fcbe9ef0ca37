"""Derivative-free minimization of the squeezing parameter.

At fixed atom number, cavity rates and ground-state splitting, the achievable
squeezing is minimized over three free variables: the drive ratio
r = |Omega_2 / Omega_1|, the two-photon detuning delta, and the laser
detuning Delta_1.  Because every entry of the moment generator is quadratic
in the drive amplitudes, the minimal xi^2 is independent of the overall drive
scale; |Omega_1| is therefore pinned per evaluation so that the cavity
adiabaticity ratio sits at a fixed small value inside the validity region.

One rule, ``_evaluate``, scores every point, for the search and for the
reported optimum alike.  Candidates violating the validity region (any ratio
above ``WARN_THRESHOLD``) are penalized (objective 1 + excess) rather than
rejected, which keeps the simplex away from meaningless regions without hard
walls.  A ratio of exactly ``WARN_THRESHOLD`` has the "fail" verdict but zero
excess, so it is not penalized.  Only a point the model refuses
(``params.InfeasiblePoint``) or a non-finite trace (``PropagationError``)
scores the failure penalty ``_PENALTY_FAILURE``; any other error surfaces.

The drive ratio is searched over real positive values only; a relative drive
phase merely rotates the phase of the pair coupling, which the squeezing
minimization absorbs into the optimal transverse angle, so it cannot change
the minimum.

The search is a bounded Nelder-Mead simplex (``_nelder_mead``) from each of
a few seeded scrambled Sobol' starts (``_sobol``).  Both are written here in
plain Python and read the objective at exactly the points scipy's
``minimize(method="Nelder-Mead")`` and ``qmc.Sobol`` would, so the module
needs no scipy import and the objective receives Python floats.  The
restarts share no state: ``optimize`` maps one restart rule (``_restart``)
over the starts and reduces the records to the best one and the summed
evaluation count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .moments import PropagationError, evolve_squeezing
from .params import (WARN_THRESHOLD, InfeasiblePoint, PhysicalParams, _count, _finite,
                     _kappa_prime, _lorentzian, _nonnegative, _positive, _splitting,
                     check_validity, kappa_prime)

#: cavity adiabaticity ratio at which |Omega_1| is pinned
DRIVE_PIN_RATIO = 1e-3


@dataclass(frozen=True)
class OptimizationProblem:
    """Fixed system parameters, search box and optimizer settings.

    Its five counts (``_count``) are stored as ``int``; every other field is
    finite (``_finite``), ``fixed_delta`` where given.
    """

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
        for name, least in (("n_atoms", 1), ("restarts", 1), ("max_evals", 1),
                            ("n_steps", 2), ("seed", 0)):
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        for name in ("g_a", "g_b", "kappa", "gamma_total", "omega_ab", "gamma_split",
                     "r_bounds", "delta_bounds", "delta1_bounds"):
            _finite(getattr(self, name), name)
        if self.fixed_delta is not None:
            _finite(self.fixed_delta, "fixed_delta")
        for name in ("kappa", "gamma_total"):
            _nonnegative(getattr(self, name), name)
        if self.g_a * self.g_b == 0:
            raise ValueError("g_a and g_b must be nonzero")
        _splitting(self.omega_ab, "omega_ab")
        for name in ("r_bounds", "delta1_bounds"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must be positive and ordered")
        if not self.delta_bounds[0] <= self.delta_bounds[1]:
            raise ValueError("delta_bounds must be ordered")
        if len(self.gamma_split) != 3:
            raise ValueError(f"gamma_split needs exactly three weights, got "
                             f"{self.gamma_split!r}")
        if min(self.gamma_split) < 0 or sum(self.gamma_split) <= 0:
            raise ValueError("gamma_split weights must be nonnegative with positive sum")

    def gammas(self) -> tuple[float, float, float]:
        total = sum(self.gamma_split)
        return tuple(self.gamma_total * s / total for s in self.gamma_split)

    def params_at(self, r: float, delta: float, delta_1: float) -> PhysicalParams:
        """Physical parameters at a finite candidate point, with |Omega_1| pinned."""
        delta_1, delta = _finite(delta_1, "delta_1"), _finite(delta, "delta")
        g_a, g_b, g_o = self.gammas()
        gt = g_a + g_b + g_o    # in the order of PhysicalParams.gamma_total
        kp = _kappa_prime(self.kappa, self.n_atoms, gt, self.g_a, delta_1 + self.omega_ab)
        pin = DRIVE_PIN_RATIO * _lorentzian(delta_1, gt) * _lorentzian(delta, kp)
        omega_1 = 2.0 * math.sqrt(pin / (self.n_atoms * abs(self.g_b) ** 2))
        return PhysicalParams(n_atoms=self.n_atoms, g_a=self.g_a, g_b=self.g_b, omega_1=omega_1,
                              omega_2=r * omega_1, delta_1=delta_1, omega_ab=self.omega_ab,
                              delta=delta, kappa=self.kappa, gamma_a=g_a, gamma_b=g_b, gamma_o=g_o)


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
        return self.problem.params_at(self.r_opt, self.delta_opt, self.delta1_opt)


#: horizon doublings of every squeezing trace the optimizer reads
_MAX_EXTENSIONS = 5

#: score of a point the model refuses (``InfeasiblePoint``) or whose trace is
#: not finite (``PropagationError``)
_PENALTY_FAILURE = 50.0


def _evaluate(problem: OptimizationProblem, x) -> tuple:
    """The one evaluation rule of a search point x = (log r, delta, log Delta_1):
    ``(score, (r, delta, delta_1), params, report, t_min)``.

    The score is min_t xi^2(t) of the squeezing trace with up to
    ``_MAX_EXTENSIONS`` horizon doublings, over the valid prefix of a
    truncated trace: at most 1, as the grid starts at t = 0, and exactly 1
    (t_min 0) without a drive.  Outside the validity region it is 1 + excess
    (t_min ``None``), and at a point the model refuses ``_PENALTY_FAILURE``
    (params and report ``None``), so the three regimes never mix.
    """
    log_r, delta, log_d1 = x
    if problem.fixed_delta is not None:
        delta = problem.fixed_delta
    point = (math.exp(log_r), delta, math.exp(log_d1))
    try:
        params = problem.params_at(*point)
        report = check_validity(params)
        excess = sum(max(0.0, ratio / WARN_THRESHOLD - 1.0) for ratio in report.ratios().values())
        if excess > 0.0:
            return 1.0 + excess, point, params, report, None
        if params.omega_1 == 0 or params.omega_2 == 0:
            return 1.0, point, params, report, 0.0
        trace = evolve_squeezing(params, n_steps=problem.n_steps, max_extensions=_MAX_EXTENSIONS)
        return float(trace.min_xi2), point, params, report, float(trace.t_min)
    except (InfeasiblePoint, PropagationError):
        return _PENALTY_FAILURE, point, None, None, None


def _score(problem: OptimizationProblem, x) -> float:
    """The score of ``_evaluate``, which the search minimizes."""
    return _evaluate(problem, x)[0]


def _search_box(problem: OptimizationProblem) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the (log r, delta, log D1) search box."""
    lo = np.array([math.log(problem.r_bounds[0]), problem.delta_bounds[0],
                   math.log(problem.delta1_bounds[0])])
    hi = np.array([math.log(problem.r_bounds[1]), problem.delta_bounds[1],
                   math.log(problem.delta1_bounds[1])])
    return lo, hi


#: bits of a Sobol' coordinate, and the Joe-Kuo direction numbers of
#: dimensions 2 and 3 as (primitive polynomial, initial m_1, ..., m_s);
#: dimension 1 has all m_j = 1
_SOBOL_BITS = 30
_SOBOL_POLYNOMIALS = ((3, (1,)), (7, (1, 3)))


def _sobol(n: int, seed: int) -> list[list[float]]:
    """The first n points of the scrambled 3-d Sobol' sequence.

    scipy's ``qmc.Sobol(d=3, scramble=True, seed=seed).random(n)`` in plain
    integers, point for point: direction numbers from Joe & Kuo (SIAM J. Sci.
    Comput. 30, 2635, 2008), a linear matrix scramble and a digital shift
    drawn from ``np.random.default_rng(seed)`` in scipy's order, and points
    in Gray-code order.
    """
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = (rng.integers(2, size=(3, bits), dtype=np.uint32)
             @ 2 ** np.arange(bits, dtype=np.uint32)).tolist()
    ltm = np.tril(rng.integers(2, size=(3, bits, bits), dtype=np.uint32))
    ltm[:, range(bits), range(bits)] = 1
    # row p of each lower-triangular matrix as an integer, column 0 the top bit
    rows = (ltm.astype(np.int64) @ (1 << np.arange(bits - 1, -1, -1))).tolist()

    directions = [[1] * bits]
    for poly, initial in _SOBOL_POLYNOMIALS:
        degree = poly.bit_length() - 1
        m = list(initial)
        for j in range(degree, bits):
            new = m[j - degree]
            for k in range(degree):
                if poly >> (degree - 1 - k) & 1:
                    new ^= m[j - k - 1] << (k + 1)
            m.append(new)
        directions.append(m)
    scrambled = []
    for m, ltm_rows in zip(directions, rows):
        column = []
        for j, mj in enumerate(m):
            vj = mj << (bits - 1 - j)
            column.append(sum(((row & vj).bit_count() & 1) << (bits - 1 - p)
                              for p, row in enumerate(ltm_rows)))
        scrambled.append(column)

    scale = 1.0 / 2 ** bits
    quasi = shift
    points = [[q * scale for q in quasi]]
    for i in range(n - 1):
        zero_bit = (~i & (i + 1)).bit_length() - 1     # lowest zero bit of i
        quasi = [q ^ column[zero_bit] for q, column in zip(quasi, scrambled)]
        points.append([q * scale for q in quasi])
    return points


def _start_points(problem: OptimizationProblem) -> np.ndarray:
    """Deterministic low-discrepancy starts in the (log r, delta, log D1) box.

    The first ``restarts`` points of the seeded scrambled Sobol' sequence
    (``_sobol``), scaled into the box; restart counts need not be powers of two.
    """
    lo, hi = _search_box(problem)
    return lo + np.array(_sobol(problem.restarts, problem.seed)) * (hi - lo)


#: the Nelder-Mead stopping tolerances on the vertices and on their values
_XATOL = 1e-4
_FATOL = 1e-7


class _BudgetSpent(Exception):
    """The evaluation budget of a Nelder-Mead search is used up."""


def _nelder_mead(f, x0, lo, hi, max_evals: int):
    """Bounded Nelder-Mead minimization of ``f`` from x0: ``(x, fun, n_evals)``.

    scipy's ``minimize(f, x0, method="Nelder-Mead", bounds=zip(lo, hi),
    options={"maxfev": max_evals, "xatol": _XATOL, "fatol": _FATOL})`` (Nelder &
    Mead, Comput. J. 7, 308, 1965) in plain floats, iterate for iterate, so
    it reads ``f`` at the same points and returns the same result:

    * the initial simplex is x0 clipped into the box plus one vertex per
      coordinate k, scaled by 1.05 (0.00025 where it is 0), with coordinates
      above the box reflected at the upper bound and then clipped;
    * reflection, expansion, contraction and shrink coefficients are
      1, 2, 1/2 and 1/2, and every trial point is clipped into the box;
    * the search stops when all vertices lie within ``_XATOL`` of the best one
      and their values within ``_FATOL``, or at the call after the budget is
      spent, which may fall inside the initial simplex (unread vertices keep
      +inf) or inside a shrink;
    * wherever scipy orders the vertices, a stable sort with NaN last orders
      them, which is scipy's order under a stable ``np.argsort``.  Equal
      values are common here (the failure penalty, the 1.0 of no drive),
      and a stable order keeps the search independent of the CPU's sort
      kernel.

    ``fun`` is the minimum over the final simplex (NaN if any value is NaN).
    """
    def clip(x):
        # np.clip: NaN passes, and a coordinate equal to a bound takes the bound
        out = []
        for c, low, high in zip(x, lo, hi):
            if c == c:
                c = c if c > low else low
                c = c if c < high else high
            out.append(c)
        return out

    n_evals = 0

    def call(x):
        nonlocal n_evals
        if n_evals >= max_evals:
            raise _BudgetSpent
        n_evals += 1
        return f(x)

    x0 = clip(x0)
    sim = [x0]
    for k in range(len(x0)):
        vertex = list(x0)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    sim = [clip([2 * high - c if c > high else c for c, high in zip(vertex, hi)])
           for vertex in sim]
    fsim = [math.inf] * len(sim)

    def reorder():
        order = sorted(range(len(fsim)), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
        sim[:] = [sim[k] for k in order]
        fsim[:] = [fsim[k] for k in order]

    def trial(xbar, coef):
        # (1 + coef) xbar - coef x_worst: reflection 1, expansion 2,
        # outside contraction 1/2, inside contraction -1/2
        return clip([(1 + coef) * b - coef * w for b, w in zip(xbar, sim[-1])])

    try:
        for k, vertex in enumerate(sim):
            fsim[k] = call(vertex)
    except _BudgetSpent:
        pass
    # as in scipy, a ``break`` of the loop below leaves the simplex unsorted
    reorder()

    while n_evals < max_evals:
        best = sim[0]
        if (all(abs(c - b) <= _XATOL for vertex in sim[1:] for c, b in zip(vertex, best))
                and all(abs(fsim[0] - fk) <= _FATOL for fk in fsim[1:])):
            break
        xbar = list(best)
        for vertex in sim[1:-1]:
            xbar = [a + c for a, c in zip(xbar, vertex)]
        xbar = [a / len(x0) for a in xbar]
        try:
            xr = trial(xbar, 1)
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = trial(xbar, 2)
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = trial(xbar, 0.5)
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = trial(xbar, -0.5)
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, len(sim)):
                        sim[j] = clip([b + 0.5 * (c - b) for b, c in zip(best, sim[j])])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        reorder()
    return sim[0], float(np.min(fsim)), n_evals


def _restart(problem: OptimizationProblem, x0: list[float]) -> RestartRecord:
    """One ``_nelder_mead`` search of ``_score`` from the start x0."""
    lo, hi = (bound.tolist() for bound in _search_box(problem))
    x, fun, n_evals = _nelder_mead(functools.partial(_score, problem), x0, lo, hi,
                                   problem.max_evals)
    return RestartRecord(x0=tuple(x0), x_best=tuple(x), f_best=fun, n_evals=n_evals,
                         success=fun <= 1.0)


def optimize(problem: OptimizationProblem) -> OptimumReport:
    """Multi-start Nelder-Mead minimization of the squeezing objective.

    Deterministic for a given problem: one independent ``_restart`` (at most
    ``max_evals`` evaluations) from each of the ``restarts`` seeded Sobol'
    starts of ``_start_points``, and ``n_evaluations`` is their sum.  The
    reported minimum is ``_evaluate`` at the best vertex of the first restart
    with the least score, a fresh squeezing trace, so it is reproducible to
    full precision.
    """
    records = tuple(map(functools.partial(_restart, problem), _start_points(problem).tolist()))
    best = min(records, key=lambda rec: rec.f_best)    # by strict <: the first of the least
    if best.f_best > 1.0:
        raise RuntimeError("optimization failed: no start reached the validity region")
    xi2_min, (r, delta, d1), params, report, t_min = _evaluate(problem, best.x_best)
    return OptimumReport(
        xi2_min=xi2_min,
        r_opt=float(r), delta_opt=float(delta), delta1_opt=float(d1),
        t_min=t_min,
        omega_1=float(abs(params.omega_1)),
        n_evaluations=sum(rec.n_evals for rec in records),
        restarts=records,
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
    """Set (kappa, Gamma) so that N |g_a g_b| / (kappa Gamma) hits the target (``_positive``)."""
    cooperativity = _positive(cooperativity, "cooperativity")
    kappa_over_gamma = _positive(kappa_over_gamma, "kappa_over_gamma")
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

    weak_coupling = math.sqrt(p0.n_atoms) * abs(p0.omega_1 * p0.g_b / p0.delta_1)
    absorb = abs(p0.omega_2 * p0.g_a) / _lorentzian(p0.delta_2, p0.gamma_total)
    emit = abs(p0.omega_1 * p0.g_b) / _lorentzian(p0.delta_1, p0.gamma_total)
    if weak_coupling > 0.1 * p0.kappa:
        return DeltaZeroReport(False, "collective coupling not small against kappa: "
                               f"sqrt(N)|Omega_1 g_b/Delta_1| = {weak_coupling:.3g} "
                               f"vs kappa = {p0.kappa:.3g}")
    if not absorb > emit:
        return DeltaZeroReport(False, "photon absorption does not dominate emission "
                               f"({absorb:.3g} <= {emit:.3g})")

    kp = kappa_prime(p0)
    probes = []
    for seed_offset, factor in enumerate((-4.0, -1.0, -0.25, 0.25, 1.0, 4.0), start=1):
        delta_probe = factor * kp
        prob_p = replace(problem, fixed_delta=delta_probe, restarts=2,
                         seed=problem.seed + seed_offset)
        try:
            probes.append((delta_probe, optimize(prob_p).xi2_min))
        except RuntimeError:
            probes.append((delta_probe, math.inf))
    best = min([opt0.xi2_min] + [x for _, x in probes])
    within = opt0.xi2_min / best - 1.0
    return DeltaZeroReport(True, "side conditions satisfied",
                           xi2_at_zero=opt0.xi2_min, probes=tuple(probes),
                           within=float(within))
