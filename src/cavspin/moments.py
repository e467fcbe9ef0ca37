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
One cut ends every xi^2 curve (``_squeezing_trace``): the moment trace
(``evolve_squeezing``), the exact trace (``dicke.ideal_trace``) and the
one-axis-twisting scan (``dicke.oat_min_squeezing``) end before their first
undefined or unphysical point and are flagged truncated with a reason that
names <J_z> or the physicality tolerance, so a curve never holds an
infinite xi^2; a non-finite point or a bad first point raises instead.

A squeezing trace evaluates v(t) = V e^{w t} V^-1 v(0) on its whole grid
from one eigendecomposition M = V diag(w) V^-1.  Every other exp(M s) v is
``_exp_action``, one Taylor table or the package's Taylor kernel: the grid
where V is ill-conditioned, each read of the refinement of the minimum
(``_refined_min``), ``propagate`` and the oracle's linear level.  This
module imports no scipy.

``trace_csv_rows`` exports a trace through ``_csv_table``, the one writer of
the CLI's CSV tables: each cell has the bytes of ``"%.17g"``, produced for
the whole table in array operations (``_digits17``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._taylor import _TAYLOR_BOUND, _taylor_pass, _taylor_terms
from .params import (InfeasiblePoint, PhysicalParams, _check_detunings, _count, _lorentzian,
                     _positive, _times, kappa_prime)

#: component ordering of the moment vector
MOMENT_ORDER = ("jz", "nab", "jpp", "jmm", "jpm", "jmp")

#: tolerance factor for physicality checks (scaled by the atom number)
PHYSICALITY_TOL = 1e-8

#: largest ||V||_1 ||V^-1||_1 of the generator's eigenbasis that is trusted
_COND_LIMIT = 1e4

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
    """Moments of the all-|a> product state; ``n_atoms`` is a count (``_count``)."""
    n = float(_count(n_atoms, "n_atoms"))
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
    big_d1, big_d2 = _lorentzian(d1, gt), _lorentzian(d2, gt)
    dc = _lorentzian(de, kp)
    if dc == 0.0:
        raise InfeasiblePoint("delta and kappa' both zero: cavity cannot be eliminated")

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


def propagate(gen: MomentGenerator, v0: MomentState, t: float) -> MomentState:
    """exp(M t) v0 by ``_exp_action``, for one time t (``_times``), at a cost
    linear in ||M||_1 t; a t beyond the kernel's block budget is a ``ValueError``."""
    t = float(_times(t, "t", single=True)[0])
    out = _exp_action(gen.m, v0.as_array(), t)(t)
    if not np.all(np.isfinite(out.view(float))):
        raise PropagationError(f"non-finite moments after propagation to t={t}")
    return MomentState.from_array(out)


def _jz_undefined(moments: np.ndarray, n_atoms: int):
    """The domain rule: xi^2 is undefined where |<J_z>| < 1e-12 N.

    ``moments`` is one moment vector or stacked rows (last axis in
    ``MOMENT_ORDER``); the result is a bool or a mask over the rows.
    """
    return abs(moments.T[0].real) < _JZ_FLOOR * n_atoms


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


def squeezing_parameter(v: MomentState, n_atoms: int) -> tuple[float, float]:
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
    if var_min < 0.0:
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


def _squeezing_trace(times: np.ndarray, moments: np.ndarray, n_atoms: int,
                     unphysical: np.ndarray | None = None) -> SqueezingTrace:
    """The xi^2 curve of moment rows at ``times``, cut by the one truncation rule.

    A row is bad where it is not finite, where ``unphysical`` is set, or
    where xi^2 is undefined (``_jz_undefined``); the first bad row decides.
    A non-finite one raises ``PropagationError``, a bad first row raises
    ``ValueError``, and any other ends the curve before it, flagged
    ``truncated`` with a reason that names the physicality tolerance (which
    wins a tie) or <J_z>.  The minimum is the grid minimum.
    """
    nonfinite = ~np.isfinite(moments.view(float)).all(axis=1)
    bad = nonfinite | _jz_undefined(moments, n_atoms)
    if unphysical is not None:
        bad |= unphysical
    truncated, reason = False, None
    if bad.any():
        k = int(np.argmax(bad))
        t = float(times[k])
        if nonfinite[k]:
            raise PropagationError(f"non-finite moments at t={t}")
        if k == 0:
            raise ValueError("squeezing parameter undefined at the earliest time: "
                             "<J_z> is (numerically) zero")
        truncated = True
        if unphysical is not None and unphysical[k]:
            reason = f"physicality tolerance exceeded at t={t:.6g}"
        else:
            reason = (f"<J_z> below {_JZ_FLOOR:g} N (squeezing parameter undefined) "
                      f"at t={t:.6g}")
        times, moments = times[:k], moments[:k]
    xi2 = _xi2(moments, n_atoms)
    i = int(np.argmin(xi2))
    return SqueezingTrace(times=times, xi2=xi2, theta_min=_theta(moments), moments=moments,
                          min_xi2=float(xi2[i]), t_min=float(times[i]),
                          truncated=truncated, truncation_reason=reason)


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
        raise InfeasiblePoint("no drive (or no slow scale): supply t_max explicitly")
    chi_eff = num / (abs(params.delta_1 * params.delta_2) * slow)
    return 10.0 / (params.n_atoms * chi_eff)


def _refined_min(times: np.ndarray, xi2: np.ndarray, probe) -> tuple[float, float]:
    """Minimum ``(t_min, xi2_min)`` of a sampled xi^2 curve, refined off the grid.

    The grid argmin i is bracketed by its neighbours lo = i - 1 and
    hi = i + 1, clipped to the grid; ``probe(lo)``, the xi^2 function of an
    array of times on [times[lo], times[hi]], is read at ``_ZOOM_POINTS``
    equal spacings, ends included, in one call.  The bracket narrows to the
    two spacings around the best reading until it is within ``_ZOOM_TOL`` of
    its first magnitude (free of the time unit); a last read at the vertex of
    the parabola through the best reading and its neighbours ends the search.
    NaN is never the best reading; of equal best readings the middle one is
    taken, so a plateau flat to rounding gives its centre.  The grid value is
    kept where strictly lower: the result never lies above the grid minimum.
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


def _moment_kernel(m: np.ndarray, v0: np.ndarray, times: np.ndarray):
    """Moments ``grid[k] = exp(M t_k) v0`` at the grid times t_k = k dt.

    The grid is V e^{w t} V^-1 v0 from one eigendecomposition M = V diag(w)
    V^-1 or, where ||V||_1 ||V^-1||_1 > ``_COND_LIMIT`` (M nearly defective),
    one read of ``_exp_action`` over the whole grid.  Overflow gives inf/nan.
    """
    try:
        w, vecs = np.linalg.eig(m)
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        cond = math.inf
    else:
        cond = np.abs(vecs).sum(axis=0).max() * np.abs(inv).sum(axis=0).max()
    if cond > _COND_LIMIT:
        return _exp_action(m, v0, times[-1])(times)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = (np.exp(np.outer(times, w)) * (inv @ v0)) @ vecs.T
    grid[0] = v0
    return grid


def _exp_action(m: np.ndarray, v: np.ndarray, width: float):
    """The function s -> exp(M s) v for 0 <= s <= width, shaped s.shape + (6,).

    Up to x = ||M||_1 width = ``_TAYLOR_BOUND`` one table T_k = M^k v / k!
    serves every read, as (s^0, ..., s^{K-1}) @ T.  A wider read, clamped to
    [0, width], is e^{mu s} times one ``_taylor_pass`` over M - mu, where
    mu = Re tr(M) / 6 takes a common decay out of the cancellation between
    the terms.  A non-finite x gives non-finite rows.
    """
    x = float(np.abs(m).sum(axis=0).max()) * width
    if not math.isfinite(x):
        return lambda s: np.full(np.shape(s) + v.shape, complex(math.nan, math.nan))
    if x <= _TAYLOR_BOUND:
        table = np.empty((_taylor_terms(x),) + v.shape, dtype=complex)
        table[0] = v
        for k in range(1, len(table)):
            np.dot(m, table[k - 1] / k, out=table[k])
        return lambda s: (np.asarray(s)[..., None] ** np.arange(len(table))) @ table
    mu = np.trace(m).real / len(m)
    shifted = m - mu * np.eye(len(m))

    def read(s):
        s = np.clip(np.asarray(s, dtype=float), 0.0, width)
        r = s.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.exp(mu * r)[:, None] * _taylor_pass(shifted, np.zeros(1), v, r)[0]
        return rows.reshape(s.shape + v.shape)

    return read


def evolve_squeezing(params: PhysicalParams, t_max: float | None = None,
                     n_steps: int = 400, max_extensions: int = 0) -> SqueezingTrace:
    """Evaluate xi^2 on a uniform time grid and refine its minimum.

    The grid comes from ``_moment_kernel``; the sampled zoom ``_refined_min``
    refines its minimum, reading by ``_exp_action`` from the left neighbour.
    The grid is cut by the one truncation rule (``_squeezing_trace``), with
    the physicality tolerance, before the horizon check and the refinement.

    With ``max_extensions > 0`` the horizon is doubled (up to that many
    times) whenever the discrete minimum falls on the trailing edge of the
    grid, so interior minima beyond the default heuristic horizon are still
    found; a trace that keeps decreasing (as in dissipation-free runs) stops
    at the final extended horizon.  ``t_max``, given or default, is
    ``_positive``; ``n_steps`` >= 2 and ``max_extensions`` >= 0 are ``_count``.
    """
    n_steps = _count(n_steps, "n_steps", least=2)
    max_extensions = _count(max_extensions, "max_extensions", least=0)
    t_max = _positive(default_t_max(params) if t_max is None else t_max, "t_max")
    gen = assemble_generator(params)
    times = np.arange(n_steps) * (t_max / (n_steps - 1))
    moments = _moment_kernel(gen.m, initial_state(params.n_atoms).as_array(), times)
    with np.errstate(invalid="ignore"):
        unphysical = _physicality_violation(moments, params.n_atoms) > PHYSICALITY_TOL
    # row 0 is the initial state, never bad, so a bad row truncates or raises
    # PropagationError and the exported trace stays physical and finite
    trace = _squeezing_trace(times, moments, params.n_atoms, unphysical)
    times, moments = trace.times, trace.moments

    if max_extensions > 0 and not trace.truncated and trace.t_min >= times[-2]:
        # the grid minimum is on the trailing edge; re-entered through the
        # module-level name, so a wrapper installed on it sees every extension
        return evolve_squeezing(params, t_max=2.0 * t_max, n_steps=n_steps,
                                max_extensions=max_extensions - 1)

    def probe(lo: int):
        # the bracket ends two steps right of lo, or at the last grid point
        t_lo, t_hi = times[lo], times[min(lo + 2, len(times) - 1)]
        from_lo = _exp_action(gen.m, moments[lo], t_hi - t_lo)
        return lambda t: _xi2(from_lo(t - t_lo), params.n_atoms)

    t_min, min_xi2 = _refined_min(times, trace.xi2, probe)
    return replace(trace, min_xi2=min_xi2, t_min=t_min)


def _g17(x: float) -> str:
    """One exported number: 17 significant digits, which round-trip a float64."""
    return "%.17g" % x


#: decimal exponents k of the double-double table 10^k = hi + lo: 16 - E for
#: every decimal exponent E of a magnitude in [1e-280, 1e280], plus one of margin
_POW10_MIN, _POW10_MAX = -265, 298

#: Veltkamp's splitting constant 2^27 + 1 for Dekker's exact product
_SPLIT = 134217729.0

#: exponents written by the tail table are -_EXP_RANGE ... _EXP_RANGE
_EXP_RANGE = 300

#: 8 bytes of a cell (ASCII, NUL where unused) as one little-endian integer,
#: byte j in bits 8j ... 8j + 7
_WORD = np.dtype("<u8")

#: the first 0 ... 4 digits (with their point bytes) of a four-digit word
_DIGIT_MASKS = np.array([0, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64)


@functools.cache
def _pow10():
    """10^k = hi + lo for k in [_POW10_MIN, _POW10_MAX], built on first use.

    Each part is rounded from exact integer arithmetic; hi also comes split
    in halves (hi_hi, hi_lo) for Dekker's product.
    """
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = num / den                               # correctly rounded
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi, lo = np.array(hi), np.array(lo)
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, lo


@functools.cache
def _cell_words():
    """The ``_WORD`` tables ``_csv_table`` spells cells with, built on first use.

    A cell is 6 words: the head (sign, the "0." and leading zeros of a small
    fixed-notation number, the first digit, a point byte), 4 words of the 16
    other digits as (digit, point byte) pairs, and the tail (exponent and
    separator).  ``quad`` holds the 4-digit words of 0 ... 9999, then the same
    with their trailing zeros cut; ``head`` is indexed by
    (sign * 5 + leading zeros) * 10 + first digit, ``tail`` by
    exponent code * 2 + (1 for a row's last cell), code 0 being no exponent.
    """
    v = np.arange(10000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    quad = np.zeros((2, 10000, 4, 2), np.uint8)
    quad[:, :, :, 0] = v // place % 10 + 48
    quad[1, :, :, 0][v % (10 * place) == 0] = 0

    head = np.zeros((2, 5, 10, 8), np.uint8)
    head[1, ..., 0] = ord("-")
    for zeros in range(1, 5):                       # "0.", "0.0", "0.00", "0.000"
        head[:, zeros, :, 1:2 + zeros] = ord("0")
        head[:, zeros, :, 2] = ord(".")
    head[..., 6] = np.arange(10) + 48

    exp = np.arange(-_EXP_RANGE, _EXP_RANGE + 1)[:, None]
    mag = np.abs(exp)
    tail = np.zeros((2 * _EXP_RANGE + 2, 2, 8), np.uint8)
    tail[1:, :, 0] = ord("e")
    tail[1:, :, 1] = np.where(exp < 0, ord("-"), ord("+"))
    tail[1:, :, 2] = np.where(mag >= 100, mag // 100 + 48, 0)
    tail[1:, :, 3] = mag // 10 % 10 + 48
    tail[1:, :, 4] = mag % 10 + 48
    tail[:, :, 5] = [ord(","), ord("\n")]
    return tuple(table.reshape(-1, 8).view(_WORD)[:, 0] for table in (quad, head, tail))


def _scaled(a: np.ndarray, e: np.ndarray):
    """a 10^(16 - e) as p + r: p = fl(a hi), r its exact error plus a lo."""
    hi, hi_hi, hi_lo, lo = _pow10()
    k = 16 - _POW10_MIN - e
    p = a * hi[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    r = ((a_hi * hi_hi[k] - p) + a_hi * hi_lo[k] + a_lo * hi_hi[k]) + a_lo * hi_lo[k]
    return p, r + a * lo[k]


def _digits17(x: np.ndarray):
    """The 17 significant digits ``d`` and decimal exponents ``e`` of x.

    |x| rounded to 17 digits is d 10^(e - 16), 10^16 <= d < 10^17, wherever
    the returned mask is set: 1e-280 <= |x| <= 1e280 and the rounding is
    certain.  s = |x| 10^(16 - e) is formed as p + r with a double-double
    power of ten and Dekker's exact product (Numer. Math. 18, 224, 1971): p
    is an integer and |p + r - s| < 1e-14, so d = p + round(r) unless
    |frac(r) - 1/2| < 1e-6, where an exact tie (which the C library rounds
    to even) cannot be told from a near one.
    """
    a = np.abs(x)
    certain = (a >= 1e-280) & (a <= 1e280)
    a[~certain] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, r = _scaled(a, e)
    # log10 can miss by one next to a power of ten, so e moves until
    # 1e16 <= p + r < 1e17; a comparison can err only within 1e-14 of either
    # end, where both exponents round to the same digits
    shift = ((p - 1e17) + r >= 0).astype(np.int64) - ((p - 1e16) + r < 0)
    moved = np.flatnonzero(shift)
    if len(moved):
        e[moved] += shift[moved]
        p[moved], r[moved] = _scaled(a[moved], e[moved])
    certain &= np.abs(r - np.floor(r) - 0.5) >= 1e-6
    d = p.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    return d, e + carry, certain


def _csv_table(header: str, table) -> list[str]:
    """The CSV lines of a float table: ``header``, then one line per row.

    Every cell has exactly the bytes of ``_g17(x)``, but the table is written
    in array operations.  ``_digits17`` gives each cell's 17 digits, a
    4-digit ASCII table spells them, C's %g rule picks fixed notation for
    decimal exponents -4 <= e < 17, trailing zeros of the fraction and a
    bare point are dropped, and each cell is laid out in 48 bytes whose NUL
    padding one ``bytearray.translate`` removes.  Zeros, nan, inf,
    magnitudes outside [1e-280, 1e280] and near-ties go through ``_g17``.
    The header's column count fixes the row width.
    """
    ncols = header.count(",") + 1
    x = np.asarray(table, dtype=float).reshape(-1)
    n = x.size
    if not n:
        return [header]
    quad, head, tail = _cell_words()
    d, e, certain = _digits17(x)

    # the first digit and four 4-digit chunks; a chunk after which every
    # chunk is 0 takes the table half with its trailing zeros cut
    top = d // 10 ** 16
    rest = d - top * 10 ** 16
    chunks = np.empty((n, 4), np.int32)
    for i in (3, 2, 1):
        q = rest // 10000
        chunks[:, i] = rest - q * 10000
        rest = q
    chunks[:, 0] = rest
    zero = chunks == 0
    chunks[:, 3] += 10000
    for i in (2, 1, 0):
        chunks[:, i] += np.int32(10000) * zero[:, i + 1]
        zero[:, i] &= zero[:, i + 1]

    # digit j of a cell sits at byte 6 + 2j, the point after it at 7 + 2j;
    # ``point`` is the digit the point follows (< 0: a "0.0..." head instead)
    fixed = (e >= -4) & (e < 17)
    point = np.where(fixed, e, 0)
    buffer = bytearray(48 * n)
    words = np.frombuffer(buffer, _WORD).reshape(n, 6)
    words[:, 0] = head[(np.signbit(x) * 5 + np.maximum(-point, 0)) * 10 + top]
    words[:, 1:5] = quad[chunks]
    last = np.zeros(n, bool)
    last.reshape(-1, ncols)[:, -1] = True
    words[:, 5] = tail[np.where(fixed, 0, e + _EXP_RANGE + 1) * 2 + last]
    flat = words.view(np.uint8).reshape(-1)
    at = np.arange(0, 48 * n, 48) + 2 * np.maximum(point, 0)
    # an integer part that ends in cut zeros gets them back
    whole = np.flatnonzero((point > 0) & (flat[at + 6] == 0))
    if len(whole):
        keep = np.clip(point[whole, None] - 4 * np.arange(4), 0, 4)
        words[whole, 1:5] = quad[chunks[whole] % 10000] & _DIGIT_MASKS[keep]
    # a point only where a digit follows it
    flat[at[(point >= 0) & (flat[at + 8] != 0)] + 7] = ord(".")

    cells = flat.reshape(n, 48)
    for i in np.flatnonzero(~certain):
        cell = _g17(x[i]).encode()
        cells[i] = 0
        cells[i, :len(cell)] = np.frombuffer(cell, np.uint8)
        cells[i, -1] = ord("\n") if last[i] else ord(",")
    body = buffer.translate(None, b"\0").decode("ascii")
    return [header] + body[:-1].split("\n")


def trace_csv_rows(trace: SqueezingTrace) -> list[str]:
    """The export header and one line per trace point (``_csv_table``)."""
    m = trace.moments.T
    table = np.column_stack((trace.times, trace.xi2, trace.theta_min, m[0].real,
                             m[1].real, m[2].real, m[2].imag, m[4].real, m[5].real,
                             trace.commutator_residual))
    return _csv_table("t,xi2,theta_min,jz_re,nab_re,jpp_re,jpp_im,jpm_re,jmp_re,"
                      "commutator_residual", table)
