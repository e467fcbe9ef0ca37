"""Exact dissipation-free evolution in the symmetric (J = N/2) Dicke subspace.

The effective ground-state Hamiltonian of the bichromatic scheme,

    H = c_pm J+J- + c_mp J-J+ + c_pp J+J+ + c_mm J-J-,

is permutation symmetric, so the (N+1)-dimensional symmetric subspace is
exact.  In the J_z ladder basis H couples m only to m and m +- 2, so the
ladder splits into an even-index and an odd-index parity sector, each a
Hermitian tridiagonal matrix.  A diagonal phase gauge makes each sector real
symmetric; its tridiagonal eigendecomposition then propagates any state to
any set of times, for every N up to ``MAX_ATOMS``.  With matched drives all
four coefficients are equal and H reduces to one-axis twisting, chi * J_x^2
with chi = 4 c; that special case additionally admits an exact product-state
solution for all six collective moments, used for the large-N twisting scans.
The tridiagonal eigensolver is scipy's ``eigh_tridiagonal`` with LAPACK's
MRRR driver ``stemr`` (Dhillon & Parlett, SIAM J. Matrix Anal. Appl. 25,
858 (2004)), imported when a propagator diagonalizes a sector.  MRRR needs
O(n) workspace beside the n x n eigenvectors; the divide-and-conquer driver
``stevd``, which ``'auto'`` picks in recent scipy releases, needs a second
n x n matrix, so a sector would cost twice its eigenvectors (401 MB instead
of 202 MB at N = 10^4).  The closed-form twisting moments need no scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .moments import (MomentState, SqueezingTrace, _refined_min, _squeezing_trace,
                      _xi2)
from .params import PhysicalParams, _check_detunings, _count, _finite, _times

logger = logging.getLogger(__name__)

MAX_ATOMS = 10_000


@dataclass(frozen=True)
class EffectiveCoeffs:
    """Coefficients of the four quadratic collective terms of the ideal Hamiltonian,
    each finite (``_finite``)."""

    c_pm: complex
    c_mp: complex
    c_pp: complex
    c_mm: complex

    def __post_init__(self):
        for name in ("c_pm", "c_mp", "c_pp", "c_mm"):
            _finite(getattr(self, name), name)
        if abs(self.c_mm - np.conj(self.c_pp)) > 1e-12 * max(1.0, abs(self.c_pp)):
            raise ValueError("c_mm must equal conj(c_pp) for a Hermitian Hamiltonian")
        for name in ("c_pm", "c_mp"):
            c = getattr(self, name)
            if abs(complex(c).imag) > 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"{name} must be real for a Hermitian Hamiltonian")


def effective_coeffs(params: PhysicalParams) -> EffectiveCoeffs:
    """Evaluate the ideal-limit Hamiltonian coefficients.

    Requires a nonzero cavity detuning (the ideal limit eliminates the cavity
    dispersively) and nonzero laser detunings.
    """
    if params.delta == 0.0:
        raise ValueError("ideal limit undefined at delta = 0 (cavity not dispersive)")
    _check_detunings(params)
    d1, d2, de = params.delta_1, params.delta_2, params.delta
    c_pm = abs(params.omega_1) ** 2 * abs(params.g_b) ** 2 / (4.0 * d1 * d1 * de)
    c_mp = abs(params.omega_2) ** 2 * abs(params.g_a) ** 2 / (4.0 * d2 * d2 * de)
    c_pp = np.conj(params.omega_1) * params.g_b * np.conj(params.g_a) * params.omega_2 / (
        4.0 * d1 * d2 * de)
    return EffectiveCoeffs(c_pm=c_pm, c_mp=c_mp, c_pp=complex(c_pp),
                           c_mm=complex(np.conj(c_pp)))


@dataclass(frozen=True)
class DickeState:
    """Amplitudes over |J=N/2, m> with m = -N/2 ... N/2 (index 0 is m = -N/2).

    ``n_atoms`` is a count (``_count``), stored as an ``int``.
    """

    n_atoms: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n_atoms", _count(self.n_atoms, "n_atoms"))
        if self.amplitudes.shape != (self.n_atoms + 1,):
            raise ValueError("amplitude vector must have length N + 1")
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state not normalized: ||amplitudes|| = {norm!r}")


def stretched_state(n_atoms: int) -> DickeState:
    """All atoms in |a>: the m = +N/2 ladder edge; ``n_atoms`` is a count (``_count``)."""
    n_atoms = _count(n_atoms, "n_atoms")
    amps = np.zeros(n_atoms + 1, dtype=complex)
    amps[-1] = 1.0
    return DickeState(n_atoms=n_atoms, amplitudes=amps)


def _ladder_up(j: float, m: np.ndarray) -> np.ndarray:
    """Matrix elements <m+1|J+|m> = sqrt(J(J+1) - m(m+1))."""
    return np.sqrt(np.maximum(j * (j + 1.0) - m * (m + 1.0), 0.0))


def _hamiltonian_bands(coeffs: EffectiveCoeffs, n_atoms: int):
    """Real diagonal and complex second off-diagonal of H in the ladder basis."""
    j = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - j
    jj = j * (j + 1.0)
    diag = coeffs.c_pm.real * (jj - m * (m - 1.0)) + coeffs.c_mp.real * (jj - m * (m + 1.0))
    up = _ladder_up(j, m)
    # <m+2| J+J+ |m> couples index i -> i+2
    off2_lower = coeffs.c_pp * up[:-2] * up[1:-1]
    return diag, off2_lower


def _times_real(z: np.ndarray, real: np.ndarray) -> np.ndarray:
    """``z @ real`` for complex ``z`` without a complex copy of ``real``."""
    return z.real @ real + 1j * (z.imag @ real)


class DickePropagator:
    """Reusable exact propagator for one Hamiltonian, one parity sector at a time.

    Each sector (ladder indices p, p+2, ...) is Hermitian tridiagonal with
    real diagonal d and complex off-diagonal e.  With the gauge G = diag(g),
    g_0 = 1 and g_{k+1} = g_k exp(i arg e_k), the sector is G S G* for the
    real symmetric S with off-diagonal |e|, and S = V diag(w) V^T.  A sector
    evolves as G V exp(-i w t) V^T G* a_0.  ``evolve_amplitudes`` decomposes
    each sector its amplitude vector populates, with the MRRR driver
    ``stemr`` of ``eigh_tridiagonal``, whose workspace is O(n) where divide
    and conquer's is a second n x n matrix; the stretched state populates
    only one sector.  ``n_atoms`` is a count (``_count``) up to ``MAX_ATOMS``.
    """

    def __init__(self, coeffs: EffectiveCoeffs, n_atoms: int):
        n_atoms = _count(n_atoms, "n_atoms")
        if n_atoms > MAX_ATOMS:
            raise ValueError(f"n_atoms = {n_atoms} exceeds the exact-evolution budget "
                             f"({MAX_ATOMS})")
        self.coeffs = coeffs
        self.n_atoms = n_atoms
        self._diag, self._off2 = _hamiltonian_bands(coeffs, n_atoms)

    def evolve_amplitudes(self, amps: np.ndarray, times) -> np.ndarray:
        """Amplitudes at each of ``times`` (``_times``, any order), shape (T, N+1)."""
        times = _times(times, "times")
        amps = np.asarray(amps, dtype=complex)
        if amps.shape != (self.n_atoms + 1,):
            raise ValueError("amplitude vector must have length N + 1")
        out = np.zeros((len(times), self.n_atoms + 1), dtype=complex)
        for parity in (0, 1):
            start = amps[parity::2]
            if not start.any():
                continue
            from scipy.linalg import eigh_tridiagonal
            off = self._off2[parity::2]
            gauge = np.exp(1j * np.concatenate(([0.0], np.cumsum(np.angle(off)))))
            # MRRR needs O(n) workspace; 'auto' may pick stevd, which adds an n x n one
            w, v = eigh_tridiagonal(self._diag[parity::2], np.abs(off),
                                    lapack_driver="stemr")
            proj = _times_real(gauge.conj() * start, v)          # V^T G* a_0
            phased = np.exp(-1j * np.outer(times, w)) * proj
            out[:, parity::2] = gauge * _times_real(phased, v.T)
        return out


def dicke_evolve(coeffs: EffectiveCoeffs, n_atoms: int, t: float) -> DickeState:
    """The all-|a> stretched state evolved to time t by the exact unitary.

    It always starts from the stretched state; evolve any other amplitude
    vector with :meth:`DickePropagator.evolve_amplitudes`.  ``t`` is one
    time (``_times``); atom numbers above the exact-propagation budget raise
    ``ValueError``.
    """
    prop = DickePropagator(coeffs, n_atoms)
    start = stretched_state(prop.n_atoms).amplitudes
    return DickeState(prop.n_atoms, prop.evolve_amplitudes(start, _times(t, "t", single=True))[0])


def _moment_array(amps: np.ndarray, n_atoms: int) -> np.ndarray:
    """The six collective moments of normalized amplitude rows.

    ``amps`` has shape (..., N+1) and the result (..., 6), in the moment
    ordering of ``cavspin.moments``, from exact ladder-operator matrix
    elements.
    """
    j = n_atoms / 2.0
    m = np.arange(n_atoms + 1) - j
    up = _ladder_up(j, m)
    up_amp = up[:-1] * amps[..., :-1]    # (J+ a)[i+1] = up[i] a[i]
    down_amp = up[:-1] * amps[..., 1:]   # (J- a)[i]   = up[i] a[i+1]
    w2 = up[:-2] * up[1:-1]              # <J+J+>: coherence between m and m+2
    out = np.empty(amps.shape[:-1] + (6,), dtype=complex)
    out[..., 0] = np.abs(amps) ** 2 @ m
    out[..., 1] = n_atoms
    out[..., 2] = np.sum(np.conj(amps[..., 2:]) * w2 * amps[..., :-2], axis=-1)
    out[..., 3] = np.sum(np.conj(amps[..., :-2]) * w2 * amps[..., 2:], axis=-1)
    out[..., 4] = np.sum(np.abs(down_amp) ** 2, axis=-1)    # <J+J-> = ||J- psi||^2
    out[..., 5] = np.sum(np.abs(up_amp) ** 2, axis=-1)      # <J-J+> = ||J+ psi||^2
    return out


def dicke_moments(state: DickeState) -> MomentState:
    """All six collective moments from exact ladder-operator matrix elements."""
    return MomentState.from_array(_moment_array(state.amplitudes, state.n_atoms))


# ---------------------------------------------------------------------------
# one-axis twisting: exact closed-form moments of exp(-i chi t Jx^2) |all a>
# ---------------------------------------------------------------------------

def oat_moments(n_atoms: int, chi_t) -> np.ndarray:
    """Exact moments under H = chi Jx^2 from the stretched state.

    Uses the closed product-state solution (each atom contributes independent
    cosine factors), valid for any N, a count (``_count``).  ``chi_t`` may be
    an array; the result has shape (len(chi_t), 6) in the standard moment
    ordering.
    """
    n = _count(n_atoms, "n_atoms")
    mu = np.atleast_1d(np.asarray(chi_t, dtype=float))
    pair = n * (n - 1.0)
    if n < 2:
        jz, a_term, b_term = 0.5 * n * np.ones_like(mu), np.zeros_like(mu), np.zeros_like(mu)
    else:
        # cos^(n-2) mu and 1 - cos^(n-2) 2mu: a power of a base near 1 taken
        # directly is off by about n ulps (1e-12 relative at N = 10^4), so
        # where sin^2 mu < 1/4 they go through log cos mu = log1p(-sin^2 mu)/2
        # and log cos 2mu = log1p(-2 sin^2 mu), within a few ulps times
        # |n log cos| (Higham, Accuracy and Stability of Numerical Algorithms,
        # 2nd ed., 1.14); elsewhere cos^n mu < 0.87^n, and the plain powers
        # keep their signs
        sin, cos = np.sin(mu), np.cos(mu)
        sin2 = sin * sin
        near = sin2 < 0.25
        sin2 = np.minimum(sin2, 0.25)
        power = np.exp((n - 2) * 0.5 * np.log1p(-sin2))
        a_term = -np.expm1((n - 2) * np.log1p(-2.0 * sin2))
        if not near.all():
            power = np.where(near, power, cos ** (n - 2))
            a_term = np.where(near, a_term, 1.0 - np.cos(2.0 * mu) ** (n - 2))
        jz = 0.5 * n * power * cos
        b_term = sin * power
    jx2 = 0.25 * n * np.ones_like(mu)
    jy2 = 0.25 * n + pair * a_term / 8.0
    cross = -0.5 * pair * b_term            # <JxJy + JyJx>
    jpp = jx2 - jy2 + 1j * cross
    perp = jx2 + jy2
    out = np.empty((len(mu), 6), dtype=complex)
    out[:, 0] = jz
    out[:, 1] = float(n)
    out[:, 2] = jpp
    out[:, 3] = np.conj(jpp)
    out[:, 4] = perp + jz
    out[:, 5] = perp - jz
    return out


def oat_min_squeezing(n_atoms: int) -> tuple[float, float]:
    """Minimal squeezing parameter of one-axis twisting at unit rate.

    Scans chi*t logarithmically around the N**(-2/3) scaling guess, cuts the
    scanned curve by the truncation rule of the moment traces
    (``cavspin.moments._squeezing_trace``), which ends it before its first
    time at which xi^2 is undefined (|<J_z>| < 1e-12 N), and refines the
    grid minimum with the sampled zoom that ``evolve_squeezing`` uses
    (``cavspin.moments._refined_min``) between its two neighbours, each read
    one array call of the closed-form twisting moments.  ``n_atoms`` is a
    count (``_count``) in [2, ``MAX_ATOMS``].  Returns ``(xi2_min, t_min)``.
    """
    n_atoms = _count(n_atoms, "n_atoms", least=2)
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"n_atoms must lie in [2, {MAX_ATOMS}]")
    guess = n_atoms ** (-2.0 / 3.0)
    grid = np.geomspace(guess / 30.0, min(30.0 * guess, 0.499 * math.pi), 220)
    trace = _squeezing_trace(grid, oat_moments(n_atoms, grid), n_atoms)

    def probe(lo: int):
        return lambda t: _xi2(oat_moments(n_atoms, t), n_atoms)

    t_min, xi2_min = _refined_min(trace.times, trace.xi2, probe)
    logger.info("one-axis twisting N=%d: xi2_min=%.6g at chi*t=%.6g "
                "(xi2_min * N^(2/3) = %.4g)",
                n_atoms, xi2_min, t_min, xi2_min * n_atoms ** (2.0 / 3.0))
    return xi2_min, t_min


def ideal_trace(coeffs: EffectiveCoeffs, n_atoms: int, times) -> SqueezingTrace:
    """Exact-evolution squeezing trace in the moment-trace export format.

    The moment traces' truncation rule (``cavspin.moments._squeezing_trace``)
    cuts it: the trace ends before the first time after the earliest one at
    which xi^2 is undefined (|<J_z>| < 1e-12 N) and is flagged ``truncated``
    with a reason that names <J_z>, so its xi2 column stays finite.  ``times``
    (``_times``) is sorted; an undefined earliest time raises ``ValueError``.
    """
    times = np.sort(_times(times, "times"), kind="stable")
    prop = DickePropagator(coeffs, n_atoms)
    amps = prop.evolve_amplitudes(stretched_state(prop.n_atoms).amplitudes, times)
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    return _squeezing_trace(times, _moment_array(amps, prop.n_atoms), prop.n_atoms)
