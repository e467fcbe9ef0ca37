"""Closed dynamics of the second-order collective-spin moments.

After eliminating the excited state and the cavity mode, and linearizing
around the fully polarized state (J_z ~ N/2), the six expectation values

    v = (<J_z>, <N_a + N_b>, <J+J+>, <J-J->, <J+J->, <J-J+>)

obey d/dt v = M v with a constant complex 6x6 generator M.  This module
assembles M, propagates v, and evaluates the squeezing parameter

    xi^2 = N * min_theta <J_theta^2> / <J_z>^2

along the evolution.  For the transverse plane the minimum is available in
closed form: <J_theta^2> = (jpm + jmp)/4 + Re(jpp e^{-2 i theta})/2, so the
minimal variance is (jpm + jmp)/4 - |jpp|/2 at 2*theta = arg(jpp) + pi.
This module holds the one copy of that formula (``_xi2`` and ``_theta``);
the exact Dicke layer calls it too.  A negative minimal variance, which the
linearized dynamics can produce, is clamped to zero.  One domain rule
applies everywhere: xi^2 is undefined where |<J_z>| < 1e-12 N
(``_jz_undefined``).  ``squeezing_parameter`` raises ``ValueError`` there.
A trace (``evolve_squeezing``, ``dicke.ideal_trace``) ends before its first
undefined point after the initial one and is flagged truncated with a
reason that names <J_z>, just as it ends before its first unphysical point,
so an exported trace never holds an infinite xi^2.  The one-axis-twisting
scan scores undefined points +inf.

A squeezing trace diagonalizes M once, M = V diag(w) V^-1, and evaluates
v(t) = V e^{w t} V^-1 v(0) for all grid times at once, or steps with
expm(M dt) when V is ill-conditioned (M nearly defective).  The minimum is
refined by a sampled zoom: the bracket around the grid minimum is read at
65 equal spacings in one array call, narrowed to the two spacings around
the best reading until it is within 1e-3 of its first magnitude, and read
once more at the vertex of the parabola through the best reading and its
neighbours.  Each read propagates from the grid row v left of the minimum
by a Taylor series of exp(M s) v of the smallest degree K with
x^K / K! <= 1e-18, x = ||M||_1 times the bracket width; above x = 8 each
read is one stacked expm call.  ``propagate`` always uses expm.  expm is
scipy's, imported when it is first called (``expm``), so a trace with a
well-conditioned eigenbasis and every read at x <= 8 loads no scipy module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import PhysicalParams, _check_detunings, kappa_prime

#: component ordering of the moment vector
MOMENT_ORDER = ("jz", "nab", "jpp", "jmm", "jpm", "jmp")

#: tolerance factor for physicality checks (scaled by the atom number)
PHYSICALITY_TOL = 1e-8

#: largest ||V||_1 ||V^-1||_1 of the generator's eigenbasis that is trusted
_COND_LIMIT = 1e4

#: largest x = ||M||_1 w at which a Taylor table serves a bracket of width w
_TAYLOR_BOUND = 8.0

#: |<J_z>| below this fraction of N leaves the squeezing parameter undefined
_JZ_FLOOR = 1e-12

#: readings per refinement bracket, its ends included, and the bracket width,
#: relative to the first bracket's magnitude, at which the zoom stops
_ZOOM_POINTS = 65
_ZOOM_TOL = 1e-3


class PropagationError(RuntimeError):
    """Numerical failure during moment propagation (non-finite results)."""


@dataclass(frozen=True)
class MomentState:
    """The six collective-spin expectation values."""

    jz: complex
    nab: complex
    jpp: complex
    jmm: complex
    jpm: complex
    jmp: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.jz, self.nab, self.jpp, self.jmm, self.jpm, self.jmp],
                        dtype=complex)

    @classmethod
    def from_array(cls, v: np.ndarray) -> "MomentState":
        return cls(*(complex(x) for x in np.asarray(v, dtype=complex)))

    def commutator_residual(self) -> complex:
        """jpm - jmp - 2 jz; vanishes exactly for the initial state."""
        return self.jpm - self.jmp - 2.0 * self.jz


def _physicality_violation(moments: np.ndarray, n_atoms: int) -> np.ndarray:
    """Worst reality/conjugation miss of each moment vector (last axis), over N."""
    worst = np.maximum(np.abs(moments[..., [0, 1, 4, 5]].imag).max(axis=-1),
                       np.abs(moments[..., 3] - moments[..., 2].conj()))
    return worst / n_atoms


@dataclass(frozen=True)
class MomentGenerator:
    """Constant generator M of the linearized moment equations, d/dt v = M v."""

    m: np.ndarray

    def __post_init__(self):
        if self.m.shape != (6, 6):
            raise ValueError("moment generator must be 6x6")


def initial_state(n_atoms: int) -> MomentState:
    """Moments of the product state with every atom in |a> (stretched state)."""
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    n = float(n_atoms)
    return MomentState(jz=n / 2.0, nab=n, jpp=0.0, jmm=0.0, jpm=n, jmp=0.0)


def assemble_generator(params: PhysicalParams) -> MomentGenerator:
    """Build the 6x6 moment generator from the physical parameters.

    The row for <J-J-> is obtained from the <J+J+> row by complex conjugation
    with the jpp/jmm columns swapped; reality of the underlying expectation
    values forces that structure, so the row is built by symmetry.
    """
    _check_detunings(params)
    n = float(params.n_atoms)
    d1, d2, de = params.delta_1, params.delta_2, params.delta
    ga_, gb_, go = params.gamma_a, params.gamma_b, params.gamma_o
    gt = params.gamma_total
    kp = kappa_prime(params)
    big_d1 = d1 * d1 + gt * gt / 4.0
    big_d2 = d2 * d2 + gt * gt / 4.0
    dc = de * de + kp * kp / 4.0
    if dc == 0.0:
        raise ValueError("delta and kappa' both zero: cavity cannot be eliminated")

    w1 = abs(params.omega_1) ** 2 / 4.0
    w2 = abs(params.omega_2) ** 2 / 4.0
    s1 = w1 * abs(params.g_b) ** 2 / big_d1 ** 2
    s2 = w2 * abs(params.g_a) ** 2 / big_d2 ** 2
    x = params.omega_1 * np.conj(params.omega_2) * params.g_a * np.conj(params.g_b) / (
        4.0 * big_d1 * big_d2)
    xc = np.conj(x)

    m = np.zeros((6, 6), dtype=complex)

    # ---- d<J_z>/dt -------------------------------------------------------
    ca1 = (gb_ + go / 2.0) * w1 / big_d1    # multiplies <N_a>
    ca2 = (ga_ + go / 2.0) * w2 / big_d2    # multiplies <N_b>
    m[0, 0] += -ca1 - ca2                   # N_a = nab/2 + jz, N_b = nab/2 - jz
    m[0, 1] += (-ca1 + ca2) / 2.0

    real_part = -de * d1 * (gb_ + go / 2.0) + de * d2 * (ga_ + go / 2.0) \
        + kp * gt * (ga_ - gb_) / 4.0
    imag_part = 2.0 * de * d1 * d2 + kp * d1 * (ga_ + go / 2.0) / 2.0 \
        + kp * d2 * (gb_ + go / 2.0) / 2.0
    m[0, 4] += -s1 * (-de * d1 * (2.0 * gb_ + go) + kp * d1 * d1
                      + kp * gt * (ga_ - gb_) / 4.0) / dc
    m[0, 5] += -s2 * (de * d2 * (2.0 * ga_ + go) - kp * d2 * d2
                      + kp * gt * (ga_ - gb_) / 4.0) / dc
    m[0, 3] += -x * (real_part - 1j * imag_part) / dc
    m[0, 2] += -xc * (real_part + 1j * imag_part) / dc

    # ---- d<N_a + N_b>/dt -------------------------------------------------
    cb1 = go * w1 / big_d1
    cb2 = go * w2 / big_d2
    m[1, 0] += -cb1 + cb2
    m[1, 1] += -(cb1 + cb2) / 2.0
    m[1, 4] += go * s1 * (2.0 * de * d1 + kp * gt / 2.0) / dc
    m[1, 5] += go * s2 * (2.0 * de * d2 + kp * gt / 2.0) / dc
    m[1, 3] += go * x * (de * (d1 + d2) + kp * gt / 2.0 - 1j * (d1 - d2) * kp / 2.0) / dc
    m[1, 2] += go * xc * (de * (d1 + d2) + kp * gt / 2.0 + 1j * (d1 - d2) * kp / 2.0) / dc

    # ---- d<J+J+>/dt -------------------------------------------------------
    m[2, 2] += -gt * (w1 / big_d1 + w2 / big_d2)
    pref = -2j * n / dc
    m[2, 2] += pref * (s1 * big_d1 * (de + 0.5j * kp)
                       + s2 * (d2 + 0.5j * gt) ** 2 * (de - 0.5j * kp))
    m[2, 5] += pref * x * (d1 + 0.5j * gt) * (d2 - 0.5j * gt) * (de + 0.5j * kp)
    m[2, 4] += pref * x * (d1 + 0.5j * gt) * (d2 + 0.5j * gt) * (de - 0.5j * kp)

    # ---- d<J-J->/dt: conjugate of the jpp row with jpp/jmm swapped --------
    swap = (0, 1, 3, 2, 4, 5)
    for col in range(6):
        m[3, col] = np.conj(m[2, swap[col]])

    # ---- d<J+J->/dt and d<J-J+>/dt ----------------------------------------
    m[4, 0] += w1 * ga_ / big_d1 + w2 * (gt - ga_) / big_d2
    m[4, 1] += (w1 * ga_ / big_d1 + w2 * (ga_ + gt) / big_d2) / 2.0
    m[4, 4] += -gt * (w1 / big_d1 + w2 / big_d2)

    m[5, 0] += w1 * (gb_ - gt) / big_d1 - w2 * gb_ / big_d2
    m[5, 1] += (w1 * (gb_ + gt) / big_d1 + w2 * gb_ / big_d2) / 2.0
    m[5, 5] += -gt * (w1 / big_d1 + w2 / big_d2)

    # the shared cavity-mediated combination entering both rates
    pref_a = -n / dc
    a_jpm = s1 * (-kp) * big_d1
    a_jmp = s2 * (d2 * d2 * kp - 2.0 * d2 * de * gt - kp * gt * gt / 4.0)
    a_jmm = x * (2j * de * d1 * d2 - de * d2 * gt + 0.5j * d1 * gt * kp - kp * gt * gt / 4.0)
    a_jpp = xc * (-2j * de * d1 * d2 - de * d2 * gt - 0.5j * d1 * gt * kp - kp * gt * gt / 4.0)
    for row in (4, 5):
        m[row, 4] += pref_a * a_jpm
        m[row, 5] += pref_a * a_jmp
        m[row, 3] += pref_a * a_jmm
        m[row, 2] += pref_a * a_jpp

    return MomentGenerator(m=m)


def expm(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.expm`` of a matrix or a stack of them, imported here.

    Importing scipy.linalg takes longer than most commands' physics, so it
    is loaded on the first call: by ``propagate``, by an ill-conditioned
    grid in ``_moment_kernel`` or by a ``_taylor_probe`` read above x = 8.
    """
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def propagate(gen: MomentGenerator, v0: MomentState, t: float) -> MomentState:
    """exp(M t) applied to the moment vector (scaling-and-squaring Pade)."""
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    out = expm(gen.m * t) @ v0.as_array()
    if not np.all(np.isfinite(out.view(float))):
        raise PropagationError(f"non-finite moments after propagation to t={t}")
    return MomentState.from_array(out)


def _jz_undefined(moments: np.ndarray, n_atoms: int):
    """The domain rule: xi^2 is undefined where |<J_z>| < 1e-12 N.

    ``moments`` is one moment vector or stacked rows (last axis in
    ``MOMENT_ORDER``); the result is a bool or a mask over the rows.
    """
    return abs(moments.T[0].real) < _JZ_FLOOR * n_atoms


def _undefined_reason(t: float) -> str:
    """Truncation reason of a trace that reaches an undefined point at t."""
    return (f"<J_z> below {_JZ_FLOOR:g} N (squeezing parameter undefined) "
            f"at t={t:.6g}")


def _min_variance(m: np.ndarray):
    """Unclamped minimal transverse variance of ``m = moments.T``."""
    return (m[4].real + m[5].real) / 4.0 - abs(m[2]) / 2.0


def _xi2(moments: np.ndarray, n_atoms: int):
    """xi^2 of one moment vector or of stacked rows (last axis ``MOMENT_ORDER``).

    Arithmetic only, cheap enough for every refinement probe: the minimal
    variance is clamped at zero, and the domain rule (``_jz_undefined``) is
    left to the caller.  A 1-D vector gives a numpy scalar.
    """
    m = moments.T
    var = _min_variance(m)
    # (var + |var|)/2 is max(var, 0) exactly, for a scalar and an array alike,
    # and costs a fraction of np.maximum on the scalar of a refinement probe
    return n_atoms * ((var + abs(var)) / 2.0) / m[0].real ** 2


def _theta(moments: np.ndarray):
    """Optimal transverse angle (pi + arg jpp)/2 mod pi, shaped like ``_xi2``."""
    return np.mod((np.pi + np.angle(moments.T[2])) / 2.0, np.pi)


def squeezing_parameter(v: MomentState, n_atoms: int,
                        clamp_warning: bool = True) -> tuple[float, float]:
    """Squeezing parameter and optimal transverse angle for a moment vector.

    Returns ``(xi2, theta_min)`` with ``theta_min`` in [0, pi).  Raises
    ``ValueError`` where the domain rule leaves xi^2 undefined
    (|<J_z>| < 1e-12 N).  A slightly negative minimal variance produced by
    the linearized dynamics is clamped to zero with a warning rather than
    silently returned.
    """
    moments = v.as_array()
    if _jz_undefined(moments, n_atoms):
        raise ValueError("squeezing parameter undefined: <J_z> is (numerically) zero")
    var_min = _min_variance(moments)
    if var_min < 0.0 and clamp_warning:
        warnings.warn(
            f"minimal transverse variance {var_min:.3e} < 0 clamped to zero",
            RuntimeWarning, stacklevel=2)
    return float(_xi2(moments, n_atoms)), float(_theta(moments))


@dataclass(frozen=True)
class SqueezingTrace:
    """Time series of the squeezing parameter with its refined minimum."""

    times: np.ndarray
    xi2: np.ndarray
    theta_min: np.ndarray
    moments: np.ndarray           # shape (n, 6), ordering MOMENT_ORDER
    min_xi2: float
    t_min: float
    truncated: bool = False
    truncation_reason: str | None = None

    @property
    def commutator_residual(self) -> np.ndarray:
        return (self.moments[:, 4] - self.moments[:, 5] - 2.0 * self.moments[:, 0]).real


def default_t_max(params: PhysicalParams) -> float:
    """Heuristic horizon ~ 10 / (N chi_eff) covering the squeezing minimum.

    Raises ``ValueError`` where a laser detuning vanishes, or where there is
    no drive or no slow scale, so that an explicit ``t_max`` is needed.
    """
    _check_detunings(params)
    kp = kappa_prime(params)
    slow = max(abs(params.delta), kp / 2.0)
    num = abs(params.omega_1 * params.omega_2 * params.g_a * params.g_b)
    if num == 0.0 or slow == 0.0:
        raise ValueError("no drive (or no slow scale): supply t_max explicitly")
    chi_eff = num / (abs(params.delta_1 * params.delta_2) * slow)
    return 10.0 / (params.n_atoms * chi_eff)


def _refined_min(times: np.ndarray, xi2: np.ndarray, probe) -> tuple[float, float]:
    """Minimum ``(t_min, xi2_min)`` of a sampled xi^2 curve, refined off the grid.

    The grid argmin i is bracketed by its neighbours, lo = i - 1 and
    hi = i + 1 clipped to the grid, and ``probe(lo)``, the xi^2 function on
    [times[lo], times[hi]] that takes an array of times, is read there at
    ``_ZOOM_POINTS`` equally spaced times, the ends included, in one call.
    The bracket then narrows to the two spacings around the best reading, and
    the reads repeat until it is within ``_ZOOM_TOL`` of its first magnitude,
    which is free of the time unit.  One last read at the vertex of the
    parabola through the best reading and its two neighbours ends the search.
    NaN is never the best reading, and among equal best readings the middle
    one is taken, so a plateau flat to rounding gives its centre.  The grid
    value is kept when it is strictly lower, so the result never lies above
    the grid minimum.
    """
    i = int(np.argmin(xi2))
    t_min, xi2_min = float(times[i]), float(xi2[i])
    lo, hi = max(i - 1, 0), min(i + 1, len(times) - 1)
    if hi == lo:
        return t_min, xi2_min
    f = probe(lo)
    a, b = float(times[lo]), float(times[hi])
    stop = _ZOOM_TOL * max(abs(a), abs(b))
    while True:
        t = np.linspace(a, b, _ZOOM_POINTS)
        y = f(t)
        ties = np.flatnonzero(y == np.min(y, where=~np.isnan(y), initial=np.inf))
        if not len(ties):               # every reading NaN
            return t_min, xi2_min
        k = ties[len(ties) // 2]
        a, b = t[max(k - 1, 0)], t[min(k + 1, _ZOOM_POINTS - 1)]
        if b - a <= stop:
            break
    t_best, y_best = t[k], y[k]
    if 0 < k < _ZOOM_POINTS - 1:
        curvature = y[k - 1] - 2.0 * y_best + y[k + 1]
        if curvature > 0.0:
            vertex = t_best + 0.5 * (t[1] - t[0]) * (y[k - 1] - y[k + 1]) / curvature
            y_vertex = f(np.array([vertex]))[0]
            if y_vertex <= y_best:
                t_best, y_best = vertex, y_vertex
    if y_best <= xi2_min:
        t_min, xi2_min = float(t_best), float(y_best)
    return t_min, xi2_min


def _moment_kernel(m: np.ndarray, v0: np.ndarray, dt: float, n_steps: int):
    """Moments ``grid[k] = exp(M t_k) v0`` on the grid t_k = k dt, k < n_steps.

    The grid is V e^{w t} V^-1 v0 from one eigendecomposition M = V diag(w)
    V^-1 or, where ||V||_1 ||V^-1||_1 > ``_COND_LIMIT`` (M nearly defective),
    repeated multiplication with expm(M dt).  Overflow gives inf/nan.
    """
    try:
        w, vecs = np.linalg.eig(m)
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        cond = np.abs(vecs).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
    if cond <= _COND_LIMIT:
        times = np.arange(n_steps) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            grid = (np.exp(np.outer(times, w)) * (inv @ v0)) @ vecs.T
        grid[0] = v0
        return grid

    step = expm(m * dt)
    grid = np.empty((n_steps, 6), dtype=complex)
    grid[0] = v0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps):
            grid[k] = step @ grid[k - 1]
    return grid


def _taylor_probe(m: np.ndarray, v: np.ndarray, width: float):
    """The function s -> exp(M s) v for 0 <= s <= width, shaped s.shape + (6,).

    A truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488, 2011): one table T_k = M^k v / k!, k < K, with K the smallest
    degree at which x^K / K! <= 1e-18 for x = ||M||_1 width; a read at the
    times s is the single product (s^0, ..., s^{K-1}) @ T.  Above
    x = ``_TAYLOR_BOUND``, where cancellation between the terms costs
    accuracy, each read is one stacked expm call over the times s.
    """
    x = float(np.abs(m).sum(axis=0).max()) * width
    if not x <= _TAYLOR_BOUND:
        return lambda s: expm(m * np.asarray(s)[..., None, None]) @ v
    n_terms, term = 1, x            # term = x^K / K! for K = n_terms
    while term > 1e-18:
        n_terms += 1
        term *= x / n_terms
    table = np.empty((n_terms, len(v)), dtype=complex)
    table[0] = v
    for k in range(1, n_terms):
        np.dot(m, table[k - 1] / k, out=table[k])
    powers = np.arange(n_terms)
    return lambda s: (np.asarray(s)[..., None] ** powers) @ table


def evolve_squeezing(params: PhysicalParams, t_max: float | None = None,
                     n_steps: int = 400, max_extensions: int = 0) -> SqueezingTrace:
    """Evaluate xi^2 on a uniform time grid and refine its minimum.

    The moments on the whole grid come from one eigendecomposition of the
    generator, v(t) = V e^{Lambda t} V^-1 v0, with expm stepping as the
    fallback for an ill-conditioned eigenbasis (see ``_moment_kernel``).
    The grid minimum is refined by the shared sampled zoom
    (``_refined_min``) between the two neighbouring grid points, each read
    an array of times propagated from the left one by a truncated Taylor
    series (``_taylor_probe``); expm is called only to step an
    ill-conditioned grid, or once per read (stacked over its times) where
    ||M||_1 times the bracket width exceeds 8 (a long horizon over few steps).  The first bad grid point after t = 0 decides:
    a non-finite one raises ``PropagationError``; one that violates the
    physicality tolerances, or at which xi^2 is undefined (|<J_z>| < 1e-12 N),
    ends the trace before it, and the trace is flagged ``truncated`` with
    the reason.

    With ``max_extensions > 0`` the horizon is doubled (up to that many
    times) whenever the discrete minimum falls on the trailing edge of the
    grid, so interior minima beyond the default heuristic horizon are still
    found; a trace that keeps decreasing (as in dissipation-free runs) stops
    at the final extended horizon.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if t_max is None:
        t_max = default_t_max(params)
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    gen = assemble_generator(params)
    v0 = initial_state(params.n_atoms).as_array()
    dt = t_max / (n_steps - 1)
    moments = _moment_kernel(gen.m, v0, dt, n_steps)

    nonfinite = ~np.isfinite(moments.view(float)).all(axis=1)
    with np.errstate(invalid="ignore"):
        unphysical = _physicality_violation(moments, params.n_atoms) > PHYSICALITY_TOL
    bad = nonfinite | unphysical | _jz_undefined(moments, params.n_atoms)
    truncated = False
    reason = None
    n_kept = n_steps
    if bad[1:].any():
        k = 1 + int(np.argmax(bad[1:]))
        if nonfinite[k]:
            raise PropagationError(f"non-finite moments at t={k * dt}")
        # drop the offending point: the exported trace stays physical and finite
        truncated = True
        reason = (f"physicality tolerance exceeded at t={k * dt:.6g}" if unphysical[k]
                  else _undefined_reason(k * dt))
        n_kept = k

    moments = moments[:n_kept]
    times = np.arange(n_kept) * dt
    xi2 = _xi2(moments, params.n_atoms)
    theta = _theta(moments)

    i_min = int(np.argmin(xi2))
    if max_extensions > 0 and not truncated and i_min >= n_kept - 2:
        # re-entered through the module-level name, so a wrapper installed
        # on it sees every extension
        return evolve_squeezing(params, t_max=2.0 * t_max, n_steps=n_steps,
                                max_extensions=max_extensions - 1)

    def probe(lo: int):
        # the bracket ends two steps right of lo, or at the last grid point
        t_lo, t_hi = times[lo], times[min(lo + 2, n_kept - 1)]
        from_lo = _taylor_probe(gen.m, moments[lo], t_hi - t_lo)
        return lambda t: _xi2(from_lo(t - t_lo), params.n_atoms)

    t_min, min_xi2 = _refined_min(times, xi2, probe)
    return SqueezingTrace(times=times, xi2=xi2, theta_min=theta, moments=moments,
                          min_xi2=min_xi2, t_min=t_min,
                          truncated=truncated, truncation_reason=reason)


def _csv_rows(header: str, table):
    """Yield ``header``, then each row of ``table`` as one CSV line.

    Every cell is written with 17 significant digits, which round-trips a
    float64; the header's column count fixes the row width.
    """
    fmt = ",".join(["%.17g"] * (header.count(",") + 1))
    yield header
    for row in table:
        yield fmt % tuple(row)


def trace_csv_rows(trace: SqueezingTrace):
    """Yield the export header and formatted rows (17 significant digits)."""
    m = trace.moments.T
    table = np.column_stack((trace.times, trace.xi2, trace.theta_min, m[0].real,
                             m[1].real, m[2].real, m[2].imag, m[4].real, m[5].real,
                             trace.commutator_residual))
    return _csv_rows("t,xi2,theta_min,jz_re,nab_re,jpp_re,jpp_im,jpm_re,jmp_re,"
                     "commutator_residual", table.tolist())
