"""Brute-force open-system oracles for small atom numbers.

Two reference models validate the adiabatic-elimination chain behind the
moment equations:

* the *full* model: three- or four-level atoms coupled to a quantized cavity
  mode, written in a rotating frame in which both classical drives are
  static and the two cavity cross-couplings oscillate at +/- omega_ab;
* the *intermediate* model: ground states + cavity after eliminating the
  excited state, with the six composite relaxation operators, made fully
  static by shifting the cavity frame by the two-photon detuning.

One fixed-step RK4 kernel, ``_rk4``, propagates both, in three ways:
a dissipative model steps its density matrix through the Lindblad master
equation (``integrate_master``), whose right-hand side is one sparse CSR
superoperator on vec(rho) built once per call; a dissipation-free periodic
model steps the identity over one drive period in a single pass, keeping the
partial propagators at the output remainders, and composes them with powers
of the period propagator; a dissipation-free static model needs no stepping
and is propagated exactly with ``eigh``.  ``validate_elimination`` compares
the two models, level by level, against the linearized moment equations.
scipy is imported where it is called: ``scipy.sparse`` when a dissipative
model builds its superoperator, and ``scipy.linalg`` through
``moments.expm`` for the moment equations.

Frame bookkeeping: the full model rotates |b> at twice the ground-state
splitting while the intermediate model (and hence the moment equations)
rotates it once, so the pair coherence <J+J+> of the full model must be
re-phased by exp(-2 i omega_ab t) before the levels can be compared.
Diagonal observables (J_z, populations, photon number) are frame invariant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .moments import (MOMENT_ORDER, MomentState, PropagationError, assemble_generator,
                      expm, initial_state)
from .params import PhysicalParams, check_validity, kappa_prime, stark_shifts

DIM_BUDGET = 1024


class ModelError(ValueError):
    """A requested oracle model cannot be built (budget, frame, or level issues)."""


class IntegrationError(RuntimeError):
    """Master-equation integration violated its tolerances."""


@dataclass(frozen=True)
class HilbertSpec:
    """Size of the brute-force Hilbert space: small-N atoms plus a truncated mode."""

    n_atoms: int
    atom_levels: int = 3
    cavity_cutoff: int = 2

    def __post_init__(self):
        if not 1 <= self.n_atoms <= 3:
            raise ModelError("brute-force oracle supports 1 to 3 atoms")
        if self.atom_levels not in (3, 4):
            raise ModelError("atom_levels must be 3 (a,b,e) or 4 (a,b,e,o)")
        if self.cavity_cutoff < 1:
            raise ModelError("cavity_cutoff must be >= 1")
        if self.dim > DIM_BUDGET:
            raise ModelError(f"Hilbert dimension {self.dim} exceeds budget {DIM_BUDGET}")

    @property
    def dim(self) -> int:
        return self.atom_levels ** self.n_atoms * (self.cavity_cutoff + 1)


class Basis:
    """Dense operator algebra on (atom levels)^n_atoms x Fock(cutoff)."""

    def __init__(self, n_atoms: int, levels: tuple[str, ...], cavity_cutoff: int):
        self.n_atoms = n_atoms
        self.levels = levels
        self.cavity_cutoff = cavity_cutoff
        self.n_levels = len(levels)
        self.dim = self.n_levels ** n_atoms * (cavity_cutoff + 1)
        self._index = {lvl: i for i, lvl in enumerate(levels)}
        self._cavity_eye = np.eye(cavity_cutoff + 1, dtype=complex)
        self._atom_eye = np.eye(self.n_levels, dtype=complex)
        self._collective_ops: dict[str, np.ndarray] | None = None

    def transition(self, upper: str, lower: str) -> np.ndarray:
        """Single-atom |upper><lower| on the atomic level space."""
        op = np.zeros((self.n_levels, self.n_levels), dtype=complex)
        op[self._index[upper], self._index[lower]] = 1.0
        return op

    def atom_op(self, k: int, op: np.ndarray) -> np.ndarray:
        """Embed a single-atom operator for atom k (cavity identity appended)."""
        full = np.array([[1.0 + 0j]])
        for j in range(self.n_atoms):
            full = np.kron(full, op if j == k else self._atom_eye)
        return np.kron(full, self._cavity_eye)

    def collective(self, upper: str, lower: str) -> np.ndarray:
        op = self.transition(upper, lower)
        return sum(self.atom_op(k, op) for k in range(self.n_atoms))

    def annihilator(self) -> np.ndarray:
        n = self.cavity_cutoff
        c = np.diag(np.sqrt(np.arange(1, n + 1, dtype=float)), k=1).astype(complex)
        full = np.eye(self.n_levels ** self.n_atoms, dtype=complex)
        return np.kron(full, c)

    def vacuum_all_a(self) -> np.ndarray:
        """State vector with every atom in |a> and the cavity empty."""
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0        # level 'a' is index 0 in every layout, Fock 0 likewise
        return psi

    def collective_ops(self) -> dict[str, np.ndarray]:
        """The moment and photon-number operators, built on the first call only."""
        if self._collective_ops is None:
            jp = self.collective("a", "b")
            jm = jp.conj().T
            na = self.collective("a", "a")
            nb = self.collective("b", "b")
            c = self.annihilator()
            self._collective_ops = {
                "jz": 0.5 * (na - nb),
                "nab": na + nb,
                "jpp": jp @ jp,
                "jmm": jm @ jm,
                "jpm": jp @ jm,
                "jmp": jm @ jp,
                "photons": c.conj().T @ c,
            }
        return self._collective_ops


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix with physicality validation helpers."""

    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pure(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        return cls(np.outer(psi, psi.conj()))

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries).min())

    def validate(self) -> tuple[float, float]:
        """Check finiteness, Hermiticity, trace and positivity, in that order.

        Returns ``(trace_drift, min_eigenvalue)``; any violation raises
        :class:`IntegrationError`.
        """
        if not np.isfinite(self.entries).all():
            raise IntegrationError("non-finite density matrix")
        h_err = float(np.abs(self.entries - self.entries.conj().T).max())
        if h_err > 1e-10:
            raise IntegrationError(f"density matrix not Hermitian: residual {h_err:.3e}")
        t_err = abs(self.trace() - 1.0)
        if t_err > 1e-8:
            raise IntegrationError(f"trace drift {t_err:.3e} exceeds 1.0e-08")
        lam = self.min_eigenvalue()
        if lam < -1e-8:
            raise IntegrationError(f"negative eigenvalue {lam:.3e} below -1.0e-08")
        return t_err, lam


@dataclass(frozen=True)
class Liouvillian:
    """Static + periodically oscillating Hamiltonian parts and jump operators."""

    basis: Basis
    hamiltonian_static: np.ndarray
    hamiltonian_oscillating: tuple = ()      # ((matrix, frequency), ...)
    jump_operators: tuple = ()
    frame: str = ""

    def __post_init__(self):
        h = self.hamiltonian_static
        scale = max(1.0, float(np.abs(h).max()))
        if float(np.abs(h - h.conj().T).max()) > 1e-12 * scale:
            raise ModelError("static Hamiltonian is not Hermitian")
        freqs = sorted(f for _, f in self.hamiltonian_oscillating)
        if any(abs(f + g) > 1e-12 * max(1.0, abs(f)) for f, g in zip(freqs, reversed(freqs))):
            raise ModelError("oscillating terms must come in conjugate-frequency pairs")

    @property
    def has_dissipation(self) -> bool:
        return len(self.jump_operators) > 0

    @property
    def max_frequency(self) -> float:
        return max((abs(f) for _, f in self.hamiltonian_oscillating), default=0.0)

    def hamiltonian_at(self, t: float) -> np.ndarray:
        h = self.hamiltonian_static
        if self.hamiltonian_oscillating:
            h = h.copy()
            for mat, freq in self.hamiltonian_oscillating:
                h += np.exp(1j * freq * t) * mat
        return h

    def norm_bound(self) -> float:
        """Cheap upper bound on the spectral norm of H(t)."""
        bound = float(np.linalg.norm(self.hamiltonian_static, np.inf))
        for mat, _ in self.hamiltonian_oscillating:
            bound += float(np.linalg.norm(mat, np.inf))
        return bound

    def rate_scale(self) -> float:
        """Fastest scale the integrator must resolve."""
        scale = max(self.max_frequency, self.norm_bound())
        for d in self.jump_operators:
            scale = max(scale, float(np.linalg.norm(d.conj().T @ d, np.inf)))
        return scale


def _check_model(params: PhysicalParams, spec: HilbertSpec) -> None:
    """Refuse parameters that neither brute-force model can represent.

    The full model's frame sets its cavity couplings oscillating at
    +/- omega_ab, and the elimination behind the intermediate model drops
    the terms that oscillate at omega_ab, so degenerate ground states
    (``omega_ab = 0``) are refused for both; decay into |o> needs the fourth
    level.  Both builders and the ``oracle`` settings reader call this check.
    """
    if params.omega_ab == 0.0:
        raise ModelError("omega_ab = 0: degenerate ground states break the frame choice")
    if params.gamma_o > 0.0 and spec.atom_levels == 3:
        raise ModelError("gamma_o > 0 requires atom_levels = 4 (state |o> populated)")


def _stark_shifts(params: PhysicalParams) -> tuple[float, float]:
    """``stark_shifts``, refused as a ``ModelError`` where it divides by zero.

    The intermediate model calls it before its own divisions by the same
    Delta_l^2 + Gamma^2/4.
    """
    try:
        return stark_shifts(params)
    except ValueError as exc:
        raise ModelError(str(exc)) from None


def build_full_model(params: PhysicalParams, spec: HilbertSpec,
                     compensate_stark: bool = False) -> Liouvillian:
    """Lab Hamiltonian in the rotating frame plus bare relaxation operators.

    Frame: |e> rotates at the first laser frequency, |b> at the laser
    difference frequency, the cavity at (laser 1 - ground splitting).  Both
    classical drives become static; the two cavity couplings oscillate at
    +/- omega_ab.

    ``compensate_stark`` adds the small |b> level shift that restores the
    two-photon pair resonance against the laser-induced AC-Stark shifts,
    i.e. the retuned laser frequencies the moment equations take for granted.
    """
    _check_model(params, spec)
    basis = Basis(spec.n_atoms, ("a", "b", "e", "o")[: spec.atom_levels],
                  spec.cavity_cutoff)

    c = basis.annihilator()
    num = c.conj().T @ c
    h = params.delta_1 * basis.collective("e", "e")
    h -= params.omega_ab * basis.collective("b", "b")
    h -= params.delta * num
    drive = 0.5 * params.omega_1 * basis.collective("e", "a") \
        + 0.5 * params.omega_2 * basis.collective("e", "b")
    h += drive + drive.conj().T
    if compensate_stark:
        s_a, s_b = _stark_shifts(params)
        h += (s_b - s_a) * basis.collective("b", "b")

    v_plus = params.g_a * (c @ basis.collective("e", "a")) \
        + np.conj(params.g_b) * (c.conj().T @ basis.collective("b", "e"))
    osc = ((v_plus, params.omega_ab), (v_plus.conj().T, -params.omega_ab))

    jumps = []
    for k in range(basis.n_atoms):
        for level, rate in (("a", params.gamma_a), ("b", params.gamma_b),
                            ("o", params.gamma_o)):
            if rate > 0.0:
                jumps.append(math.sqrt(rate) * basis.atom_op(
                    k, basis.transition(level, "e")))
    if params.kappa > 0.0:
        jumps.append(math.sqrt(params.kappa) * c)

    return Liouvillian(basis=basis, hamiltonian_static=h, hamiltonian_oscillating=osc,
                       jump_operators=tuple(jumps),
                       frame="drives static; cavity couplings at +/- omega_ab; "
                             "|b> rotated at 2*omega_ab")


def build_intermediate_model(params: PhysicalParams, spec: HilbertSpec,
                             compensate_stark: bool = False) -> Liouvillian:
    """Ground states + cavity after excited-state elimination, fully static.

    Contains the AC-Stark shifts (including the small cavity-dependent ones),
    the two Raman couplings, the cavity frame term -delta c^dag c that absorbs
    the residual two-photon oscillation, and the six composite relaxation
    operators per atom built from excitation channel l in {1, 2} and decay
    destination k in {a, b, o}.  ``compensate_stark`` applies the same |b>
    retuning as in :func:`build_full_model`.
    """
    _check_model(params, spec)
    basis = Basis(spec.n_atoms, ("a", "b", "o")[: spec.atom_levels - 1],
                  spec.cavity_cutoff)
    gt = params.gamma_total
    d1, d2 = params.delta_1, params.delta_2
    big_d1 = d1 * d1 + gt * gt / 4.0
    big_d2 = d2 * d2 + gt * gt / 4.0

    c = basis.annihilator()
    num = c.conj().T @ c
    proj_a = basis.collective("a", "a")
    proj_b = basis.collective("b", "b")

    s_a, s_b = _stark_shifts(params)
    h = -params.delta * num
    h -= s_a * proj_a
    h -= s_b * proj_b
    if compensate_stark:
        h += (s_b - s_a) * proj_b
    h -= (d2 * abs(params.g_a) ** 2 / big_d2) * (num @ proj_a)
    h -= (d1 * abs(params.g_b) ** 2 / big_d1) * (num @ proj_b)
    raman = -(d1 / big_d1) * 0.5 * params.omega_1 * np.conj(params.g_b) \
        * (basis.collective("b", "a") @ c.conj().T)
    raman += -(d2 / big_d2) * 0.5 * np.conj(params.omega_2) * params.g_a \
        * (basis.collective("b", "a") @ c)
    h += raman + raman.conj().T

    channels = (
        (params.omega_1, "a", params.g_b, "b", complex(d1, -gt / 2.0)),
        (params.omega_2, "b", params.g_a, "a", complex(d2, -gt / 2.0)),
    )
    jumps = []
    for k in range(basis.n_atoms):
        for dest, rate in (("a", params.gamma_a), ("b", params.gamma_b),
                           ("o", params.gamma_o)):
            if rate <= 0.0:
                continue
            for omega, src_laser, g, src_cav, denom in channels:
                op = 0.5 * omega * basis.atom_op(k, basis.transition(dest, src_laser))
                op += g * (basis.atom_op(k, basis.transition(dest, src_cav)) @ c)
                jumps.append((math.sqrt(rate) / denom) * op)
    if params.kappa > 0.0:
        jumps.append(math.sqrt(params.kappa) * c)

    return Liouvillian(basis=basis, hamiltonian_static=h,
                       jump_operators=tuple(jumps),
                       frame="excited state eliminated; cavity frame shifted by delta")


@dataclass(frozen=True)
class MasterResult:
    rho: DensityMatrix
    trace_drift: float
    min_eigenvalue: float
    steps: int
    dt: float


def recommended_dt(liou: Liouvillian, factor: float = 0.05) -> float:
    scale = liou.rate_scale()
    if scale == 0.0:
        return factor
    return factor / scale


def _step_count(span: float, dt: float) -> tuple[int, float]:
    """Equal steps of at most ``dt`` over ``span``: ``(n_steps, h)``, n_steps >= 1."""
    n_steps = max(1, math.ceil(span / dt))
    return n_steps, span / n_steps


def _rk4(rhs, y: np.ndarray, t0: float, h: float, n_steps: int,
         hermitian: bool = False) -> np.ndarray:
    """Classical RK4 for dy/dt = rhs(t, y): ``n_steps`` steps of size ``h`` from t0.

    ``hermitian`` re-Hermitizes a density matrix after every step.
    """
    time = t0
    for _ in range(n_steps):
        k1 = rhs(time, y)
        k2 = rhs(time + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(time + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(time + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if hermitian:
            y = 0.5 * (y + y.conj().T)
        time += h
    return y


def _lindblad_rhs(liou: Liouvillian):
    """Sparse right-hand side ``rhs(t, rho)`` of the Lindblad master equation.

    On row-major vec(rho), X rho Y is (X kron Y^T) vec(rho).  With
    G = 1/2 sum_D D^dag D, the static part is
    L0 = (-i H - G) x I + I x (i H - G)^T + sum_D D x D*, and each
    oscillating term V e^{i w t} adds -i (V x I - I x V^T).  The parts are
    stacked into one CSR matrix, so a call is one sparse product contracted
    with the phases (1, e^{i w_1 t}, ...).
    """
    from scipy import sparse
    dim = liou.basis.dim
    eye = sparse.identity(dim, dtype=complex, format="csr")
    h = liou.hamiltonian_static
    g = 0.5 * sum((d.conj().T @ d for d in liou.jump_operators),
                  np.zeros((dim, dim), dtype=complex))
    static = sparse.kron(sparse.csr_matrix(-1j * h - g), eye) \
        + sparse.kron(eye, sparse.csr_matrix((1j * h - g).T))
    for d in liou.jump_operators:
        d = sparse.csr_matrix(d, dtype=complex)
        static = static + sparse.kron(d, d.conj())
    parts = [static]
    for mat, _ in liou.hamiltonian_oscillating:
        v = sparse.csr_matrix(mat, dtype=complex)
        parts.append(-1j * (sparse.kron(v, eye) - sparse.kron(eye, v.T)))
    stacked = sparse.vstack(parts, format="csr")
    freqs = np.array([0.0] + [f for _, f in liou.hamiltonian_oscillating])

    def rhs(t: float, rho: np.ndarray) -> np.ndarray:
        blocks = (stacked @ rho.ravel()).reshape(len(freqs), dim * dim)
        return (np.exp(1j * freqs * t) @ blocks).reshape(dim, dim)

    return rhs


def integrate_master(liou: Liouvillian, rho0: DensityMatrix, t: float,
                     dt: float | None = None) -> MasterResult:
    """Fixed-step 4th-order integration of the master equation.

    The Liouvillian acts as one sparse superoperator on vec(rho), built once
    per call (:func:`_lindblad_rhs`).  ``t`` must be finite and nonnegative
    and ``dt`` finite and positive.  The step must resolve the fastest
    oscillation: dt * max(omega, ||H||) <= 0.05 is enforced.  The state is
    re-Hermitized after every step; the final state is checked by
    :meth:`DensityMatrix.validate`, whose trace drift and minimum eigenvalue
    are reported.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"integration time t must be finite and nonnegative, got {t}")
    if dt is None:
        dt = recommended_dt(liou)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step dt must be finite and positive, got {dt}")
    scale = liou.rate_scale()
    if dt * scale > 0.05 * (1.0 + 1e-12):
        raise ValueError(f"dt={dt} too coarse: dt * max(omega, ||H||) = {dt * scale:.3g} > 0.05")
    rho = rho0.entries.astype(complex).copy()
    if t == 0.0:
        result = DensityMatrix(rho)
        return MasterResult(result, *result.validate(), 0, dt)

    n_steps, h = _step_count(t, dt)
    rho = _rk4(_lindblad_rhs(liou), rho, 0.0, h, n_steps, hermitian=True)
    result = DensityMatrix(rho)
    drift, min_eig = result.validate()
    return MasterResult(result, drift, min_eig, n_steps, h)


def extract_moments(rho: DensityMatrix, basis: Basis) -> tuple[MomentState, float]:
    """Collective moments and mean photon number of a brute-force state."""
    ops = basis.collective_ops()
    r = rho.entries

    def ev(op: np.ndarray) -> complex:
        return complex(np.trace(op @ r))

    state = MomentState(jz=ev(ops["jz"]), nab=ev(ops["nab"]),
                        jpp=ev(ops["jpp"]), jmm=ev(ops["jmm"]),
                        jpm=ev(ops["jpm"]), jmp=ev(ops["jmp"]))
    return state, float(ev(ops["photons"]).real)


def _unitary_states(liou: Liouvillian, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """States of a dissipation-free model at every output time, as (T, dim).

    A static model is propagated exactly through its eigendecomposition.  A
    periodic H(t) steps the identity over one drive period once (RK4 on the
    Schroedinger equation is linear per step, so this gives the propagator)
    and keeps the partial propagator U(k h) at the last step boundary below
    each output's remainder t mod period.  An output is that partial times
    the composed whole periods, plus one short RK4 step up to the remainder.
    H(t) is built once per RK4 stage time, two builds per step.
    """
    if not liou.hamiltonian_oscillating:
        w, v = np.linalg.eigh(liou.hamiltonian_static)
        coeffs = v.conj().T @ psi0
        return np.array([v @ (np.exp(-1j * w * t) * coeffs) for t in times])

    # an RK4 step evaluates H at t, t + h/2 (twice) and t + h, and the next
    # step starts at t + h: keeping the last H(t) builds each one once
    hamiltonian = functools.lru_cache(maxsize=1)(liou.hamiltonian_at)

    def rhs(t: float, psi: np.ndarray) -> np.ndarray:
        return -1j * (hamiltonian(t) @ psi)

    period = 2.0 * math.pi / liou.max_frequency
    n_steps, h = _step_count(period, recommended_dt(liou, 0.005))
    splits = []
    for t in times:
        n_periods = int(t // period)
        remainder = t - n_periods * period
        splits.append((n_periods, remainder, int(remainder // h)))

    partial = {}
    u, done = np.eye(liou.basis.dim, dtype=complex), 0
    for k in sorted({k for _, _, k in splits} | {n_steps}):
        u = _rk4(rhs, u, done * h, h, k - done)
        partial[k], done = u, k
    u_period = partial[n_steps]

    states = []
    for t, (n_periods, remainder, k) in zip(times, splits):
        psi = partial[k] @ (np.linalg.matrix_power(u_period, n_periods) @ psi0)
        gap = remainder - k * h
        if gap > 1e-15 * max(t, 1.0):
            psi = _rk4(rhs, psi, k * h, gap, 1)
        states.append(psi)
    return np.array(states)


# ---------------------------------------------------------------------------
# three-way validation of the elimination chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Per-time, per-moment comparison of full, intermediate and linear levels."""

    times: np.ndarray
    moments: dict                     # level -> (T, 6) complex arrays
    photons: dict                     # level -> (T,) float arrays (full/intermediate)
    excited_population: np.ndarray    # full model only; zeros otherwise
    rel_dev_fi: dict                  # moment -> (T,) float arrays
    rel_dev_il: dict
    validity: object
    in_validity_regime: bool
    population_growth: bool
    metadata: dict = field(default_factory=dict)

    def max_dev(self, pair: str, moment: str) -> float:
        table = self.rel_dev_fi if pair == "fi" else self.rel_dev_il
        return float(np.max(table[moment]))

    def records(self) -> list[dict]:
        out = []
        for i, t in enumerate(self.times):
            for j, name in enumerate(MOMENT_ORDER):
                rec = {"t": float(t), "moment": name}
                for level in ("full", "intermediate", "linear"):
                    z = self.moments[level][i, j]
                    rec[level] = [float(z.real), float(z.imag)]
                rec["rel_dev_fi"] = float(self.rel_dev_fi[name][i])
                rec["rel_dev_il"] = float(self.rel_dev_il[name][i])
                out.append(rec)
        return out

    def to_json_dict(self) -> dict:
        metadata = {k: ([float(x) for x in v] if isinstance(v, np.ndarray) else v)
                    for k, v in self.metadata.items()}
        return {
            "metadata": metadata,
            "in_validity_regime": self.in_validity_regime,
            "population_growth": self.population_growth,
            "validity_ratios": self.validity.ratios(),
            "validity_verdicts": self.validity.verdicts,
            "mean_photons": {k: [float(x) for x in v] for k, v in self.photons.items()},
            "excited_population": [float(x) for x in self.excited_population],
            "max_rel_dev_fi": {k: float(np.max(v)) for k, v in self.rel_dev_fi.items()},
            "max_rel_dev_il": {k: float(np.max(v)) for k, v in self.rel_dev_il.items()},
            "records": self.records(),
        }


def photon_estimate(params: PhysicalParams, moments: np.ndarray) -> np.ndarray:
    """Eliminated-cavity photon number predicted from moment values.

    Evaluates |<c>^2|-type steady-state expression of the eliminated mode on
    a (T, 6) moment array; at t = 0 with all atoms in |a> this reduces to the
    cavity adiabaticity ratio.
    """
    gt = params.gamma_total
    amp_1 = 0.5 * params.omega_1 * np.conj(params.g_b) / complex(params.delta_1,
                                                                 -gt / 2.0)
    amp_2 = 0.5 * params.omega_2 * np.conj(params.g_a) / complex(params.delta_2,
                                                                 -gt / 2.0)
    kp = kappa_prime(params)
    dc = params.delta ** 2 + kp * kp / 4.0
    est = (abs(amp_1) ** 2 * moments[:, 4].real
           + abs(amp_2) ** 2 * moments[:, 5].real
           + 2.0 * np.real(np.conj(amp_1) * amp_2 * moments[:, 2])) / dc
    return np.maximum(est, 0.0)


def coherent_pair_transfer_time(params: PhysicalParams) -> float:
    """Time for full coherent transfer of the first atom pair, pi / (2 V).

    V is the ladder matrix element of the pair-creation term between the
    stretched state and its two-excitation partner.
    """
    from .dicke import effective_coeffs

    co = effective_coeffs(params)
    n = params.n_atoms
    element = abs(co.c_pp) * math.sqrt(n * max(2.0 * n - 2.0, 0.0))
    if element == 0.0:
        raise ValueError("no pair coupling: pair-transfer time undefined")
    return math.pi / (2.0 * element)


def _frame_aligned(moments: np.ndarray, times: np.ndarray, omega_ab: float) -> np.ndarray:
    """Re-phase <J+J+> / <J-J-> of the full model into the moment-equation frame."""
    out = moments.copy()
    phase = np.exp(-2j * omega_ab * times)
    out[:, 2] *= phase
    out[:, 3] *= np.conj(phase)
    return out


def _run_brute_force(liou: Liouvillian, times: np.ndarray,
                     dt: float | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    basis = liou.basis
    excited = basis.collective("e", "e") if "e" in basis.levels else None
    moments = np.empty((len(times), 6), dtype=complex)
    photons = np.empty(len(times))
    e_pop = np.zeros(len(times))

    def record(i: int, rho: DensityMatrix) -> None:
        state, ph = extract_moments(rho, basis)
        moments[i] = state.as_array()
        photons[i] = ph
        if excited is not None:
            e_pop[i] = float(np.trace(excited @ rho.entries).real)

    if not liou.has_dissipation:
        states = _unitary_states(liou, basis.vacuum_all_a(), times)
        for i, (t, psi) in enumerate(zip(times, states)):
            norm = np.linalg.norm(psi)
            if abs(norm - 1.0) > 1e-6:
                raise IntegrationError(f"unitarity loss {abs(norm - 1.0):.2e} at t={t}")
            record(i, DensityMatrix.from_pure(psi / norm))
        return moments, photons, e_pop
    rho = DensityMatrix.from_pure(basis.vacuum_all_a())
    prev_t = 0.0
    for i, t in enumerate(times):
        if t > prev_t:
            rho = integrate_master(liou, rho, float(t - prev_t), dt).rho
            prev_t = float(t)
        record(i, rho)
    return moments, photons, e_pop


def validate_elimination(params: PhysicalParams, spec: HilbertSpec, t_grid,
                         dt_full: float | None = None,
                         dt_intermediate: float | None = None,
                         compensate_stark: bool = True) -> ValidationReport:
    """Run the full model, intermediate model and moment equations side by side.

    The brute-force models are built with the AC-Stark pair resonance restored
    by default (``compensate_stark``), matching the retuned-laser convention
    under which the moment equations were derived.  Deviations are normalized
    by the per-moment scale max(sup |x|, sup |y|) over the grid, so a
    vanishing pair of trajectories deviates by exactly zero.  The report flags
    validity-regime exit and any growth of the total ground-state population
    predicted by the linear equations.
    """
    times = np.asarray(sorted(float(t) for t in t_grid))
    if len(times) == 0 or times[0] < 0.0:
        raise ValueError("t_grid must contain nonnegative times")

    validity = check_validity(params)
    # the moment generator refuses vanishing detunings before the builders
    # divide by them (the AC-Stark shifts at zero loss)
    gen = assemble_generator(params)
    full = build_full_model(params, spec, compensate_stark=compensate_stark)
    inter = build_intermediate_model(params, spec, compensate_stark=compensate_stark)

    m_full, ph_full, e_pop = _run_brute_force(full, times, dt_full)
    m_full = _frame_aligned(m_full, times, params.omega_ab)
    m_int, ph_int, _ = _run_brute_force(inter, times, dt_intermediate)

    # exp(M t) v0 at every output time in one stacked call
    m_lin = expm(gen.m * times[:, None, None]) @ initial_state(params.n_atoms).as_array()
    finite = np.isfinite(m_lin.view(float)).all(axis=1)
    if not finite.all():
        raise PropagationError("non-finite moments after propagation to "
                               f"t={times[finite.argmin()]}")

    rel_fi = {}
    rel_il = {}
    for j, name in enumerate(MOMENT_ORDER):
        sup_f = np.abs(m_full[:, j]).max()
        sup_i = np.abs(m_int[:, j]).max()
        sup_l = np.abs(m_lin[:, j]).max()
        den_fi = max(sup_f, sup_i) or 1.0
        den_il = max(sup_i, sup_l) or 1.0
        rel_fi[name] = np.abs(m_full[:, j] - m_int[:, j]) / den_fi
        rel_il[name] = np.abs(m_int[:, j] - m_lin[:, j]) / den_il

    nab_lin = m_lin[:, 1].real
    growth = bool(np.any(nab_lin > nab_lin[0] * (1.0 + 1e-9) + 1e-12))

    return ValidationReport(
        times=times,
        moments={"full": m_full, "intermediate": m_int, "linear": m_lin},
        photons={"full": ph_full, "intermediate": ph_int},
        excited_population=e_pop,
        rel_dev_fi=rel_fi,
        rel_dev_il=rel_il,
        validity=validity,
        in_validity_regime=validity.worst == "pass",
        population_growth=growth,
        metadata={
            "n_atoms": params.n_atoms,
            "atom_levels": spec.atom_levels,
            "cavity_cutoff": spec.cavity_cutoff,
            "frame_full": full.frame,
            "frame_intermediate": inter.frame,
            "photon_estimate": validity.ratio_cavity,
            "photon_estimate_trace": photon_estimate(params, m_int),
        },
    )
