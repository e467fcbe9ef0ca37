"""Brute-force open-system oracles for small atom numbers.

Two reference models validate the adiabatic-elimination chain behind the
moment equations:

* the *full* model: three- or four-level atoms coupled to a quantized cavity
  mode, written in a rotating frame in which both classical drives are
  static and the two cavity cross-couplings oscillate at +/- omega_ab;
* the *intermediate* model: ground states + cavity after eliminating the
  excited state, with the six composite relaxation operators, made fully
  static by shifting the cavity frame by the two-photon detuning.

Both models go through the package's one Taylor kernel,
``_taylor._taylor_pass``, on one clock from t = 0.  A dissipative model
makes one real pass over the output times (``integrate_master``), taking
the real Hermitian coordinates of its density matrix through the Lindblad
master equation on one real sparse CSR superoperator, in which each
conjugate pair of oscillating couplings is one cos and one sin part, so
every output is Hermitian by construction; a dissipation-free model makes
one complex pass with the identity over the output remainders
r = t mod T and T itself, and an output is U(r) U(T)^n, with T the drive
period of a periodic model and one kernel block of a static one.
``validate_elimination`` compares the two models, level by level, against
the linearized moment equations (``moments._exp_action``); the one scipy
import, ``scipy.sparse``, comes with a dissipative superoperator.

Both models are built on the tensor-product ``Basis`` and propagated in
exchange-orbit coordinates: with collective drives and cavity and one jump
set per atom, a start state symmetric under atom exchange stays symmetric.
The isometry onto the orbits of basis states (or of index pairs, for
vec(rho), there composed with the map onto real Hermitian coordinates) is
the identity where the start state or the model breaks the symmetry, and
the block width comes from the parts that are propagated.

Frame bookkeeping: the full model rotates |b> at twice the ground-state
splitting while the intermediate model (and hence the moment equations)
rotates it once, so the pair coherence <J+J+> of the full model must be
re-phased by exp(-2 i omega_ab t) before the levels can be compared.
Diagonal observables (J_z, populations, photon number) are frame invariant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._taylor import _TAYLOR_BOUND, _taylor_pass, _taylor_rate
from .moments import (MOMENT_ORDER, MomentState, PropagationError, _exp_action,
                      assemble_generator, initial_state)
from .params import (PhysicalParams, _count, _lorentzian, _positive, _times, check_validity,
                     kappa_prime, stark_shifts)

DIM_BUDGET = 1024


class ModelError(ValueError):
    """A requested oracle model cannot be built (budget, frame, or level issues)."""


class IntegrationError(RuntimeError):
    """Master-equation integration violated its tolerances."""


@dataclass(frozen=True)
class HilbertSpec:
    """Size of the brute-force Hilbert space: small-N atoms plus a truncated mode.

    Its three counts (``_count``) are stored as ``int``; every refusal is a ``ModelError``.
    """

    n_atoms: int
    atom_levels: int = 3
    cavity_cutoff: int = 2

    def __post_init__(self):
        try:
            for name in ("n_atoms", "atom_levels", "cavity_cutoff"):
                object.__setattr__(self, name, _count(getattr(self, name), name))
        except ValueError as exc:
            raise ModelError(str(exc)) from exc
        if self.n_atoms > 3:
            raise ModelError("brute-force oracle supports 1 to 3 atoms")
        if self.atom_levels not in (3, 4):
            raise ModelError("atom_levels must be 3 (a,b,e) or 4 (a,b,e,o)")
        if self.dim > DIM_BUDGET:
            raise ModelError(f"Hilbert dimension {self.dim} exceeds budget {DIM_BUDGET}")

    @property
    def dim(self) -> int:
        return self.atom_levels ** self.n_atoms * (self.cavity_cutoff + 1)


class Basis:
    """Dense operator algebra on (atom levels)^n_atoms x Fock(cutoff).

    Atom 0 is the most significant digit of a basis index, the photon number
    the least.  Everything the basis holds is built with it and never changes.
    """

    def __init__(self, n_atoms: int, levels: tuple[str, ...], cavity_cutoff: int):
        self.n_atoms = n_atoms
        self.levels = levels
        self.cavity_cutoff = cavity_cutoff
        self.n_levels = len(levels)
        self.dim = self.n_levels ** n_atoms * (cavity_cutoff + 1)
        self._index = {lvl: i for i, lvl in enumerate(levels)}
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
        shape = (self.n_levels,) * n_atoms + (cavity_cutoff + 1,)
        digits = np.unravel_index(np.arange(self.dim), shape)
        table = np.array([np.ravel_multi_index([digits[k] for k in order] + [digits[-1]],
                                               shape)
                          for order in itertools.permutations(range(n_atoms))])
        table.flags.writeable = False
        self._permutations = table

    def transition(self, upper: str, lower: str) -> np.ndarray:
        """Single-atom |upper><lower| on the atomic level space."""
        op = np.zeros((self.n_levels, self.n_levels), dtype=complex)
        op[self._index[upper], self._index[lower]] = 1.0
        return op

    def atom_op(self, k: int, op: np.ndarray) -> np.ndarray:
        """Embed a single-atom operator for atom k (identity on the rest and the cavity).

        One index scatter into a dim x dim zero array: atom k's level is the
        basis-index digit of weight s = dim / levels^(k+1), so op[p, q] lands
        at (i + p s, i + q s) for every index i whose digit k is 0.
        """
        s = self.dim // self.n_levels ** (k + 1)
        zero_digit = (np.arange(0, self.dim, self.n_levels * s)[:, None] + np.arange(s)).ravel()
        idx = zero_digit[:, None] + s * np.arange(self.n_levels)
        full = np.zeros((self.dim, self.dim), dtype=complex)
        full[idx[:, :, None], idx[:, None, :]] = op
        return full

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
        """The moment and photon-number operators, built with the basis."""
        return self._collective_ops

    def atom_permutations(self) -> np.ndarray:
        """Read-only (N!, dim) table: each state's index under each atom permutation.

        Row 0 is the identity; a column's minimum labels the state's exchange orbit.
        """
        return self._permutations


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


def _conjugate_pairs(oscillating) -> list[int]:
    """The index of one term of each adjoint pair (V, w), (V^dag, -w) in
    ``oscillating``, in order: the term with w > 0, or the first of a pair at
    w = 0.

    Each term is paired with a later one whose frequency is -w and whose
    matrix is V^dag, both to 1e-12 of scale, so H(t) is Hermitian at every t;
    a term left without a partner is a ``ModelError``.
    """
    unpaired, kept = list(range(len(oscillating))), []
    while unpaired:
        k = unpaired.pop(0)
        v, f = oscillating[k]
        adjoint, scale = v.conj().T, 1e-12 * max(1.0, float(np.abs(v).max()))
        for i, j in enumerate(unpaired):
            w, g = oscillating[j]
            if abs(f + g) <= 1e-12 * max(1.0, abs(f)) and np.abs(w - adjoint).max() <= scale:
                kept.append(j if g > f else k)
                del unpaired[i]
                break
        else:
            raise ModelError(f"oscillating term {k} at frequency {f:g} has no adjoint "
                             "partner at the opposite frequency")
    return sorted(kept)


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
        _conjugate_pairs(self.hamiltonian_oscillating)

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


def _check_model(params: PhysicalParams, spec: HilbertSpec) -> None:
    """Refuse parameters that neither brute-force model can represent.

    The full model's frame sets its cavity couplings oscillating at
    +/- omega_ab, and the elimination behind the intermediate model drops
    the terms that oscillate at omega_ab, so degenerate ground states
    (``omega_ab = 0``) are refused for both; decay into |o> needs the fourth
    level, and the models hold the parameters' atom number, which the moment
    equations they are compared with take.  Both builders and the ``oracle``
    settings reader call this check.
    """
    if spec.n_atoms != params.n_atoms:
        raise ModelError(f"HilbertSpec has {spec.n_atoms} atoms, the parameters {params.n_atoms}")
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
    big_d1, big_d2 = _lorentzian(d1, gt), _lorentzian(d2, gt)

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
    """rho at each output time (``states``) and the last (``rho``) of one pass."""

    rho: DensityMatrix
    trace_drift: float
    min_eigenvalue: float
    steps: int
    dt: float
    states: tuple


def _orbit_projection(labels: np.ndarray, start: np.ndarray, parts, transpose=None):
    """Isometry onto the orbits that ``labels`` mark, and ``parts`` projected onto it.

    ``labels[i]`` is the smallest index in the orbit of i.  Column k of the
    real isometry Q is the normalized indicator of the k-th orbit in label
    order, 1/sqrt(|orbit|) on each member, so every row holds one entry; it
    is a dense array.  With ``transpose``, the index of (j, i) for each index
    (i, j) of a row-major vec(rho), Q is composed with the map onto real
    Hermitian coordinates, a CSR matrix U: for an orbit o whose transposed
    orbit o' comes later, column o is (Q_o + Q_o') / sqrt 2 and column o' is
    i (Q_o - Q_o') / sqrt 2, and an orbit that is its own transpose keeps
    Q_o.  U has orthonormal columns, and a Hermitian rho has the real
    coordinates U^H vec(rho): sqrt 2 Re y_o, sqrt 2 Im y_o and y_o of its
    orbit coordinates y = Q^T vec(rho).  Returns ``(iso, [iso^H A iso for A
    in parts])`` where ``start`` lies in range(iso) and every part A maps
    that range into itself, each to a residual of 1e-12 of its own scale.
    Otherwise every orbit is a singleton: the isometry is the identity and
    the parts come back as given, or, with ``transpose``, are projected onto
    the Hermitian coordinates of the singletons.
    """
    rows = len(labels)

    def isometry(columns: np.ndarray):
        """The isometry of the orbits ``columns`` marks, and its adjoint."""
        sizes = np.bincount(columns)
        if transpose is None:
            iso = np.zeros((rows, len(sizes)))
            iso[np.arange(rows), columns] = 1.0 / np.sqrt(sizes[columns])
            return iso, iso.T
        from scipy.sparse import csr_matrix
        partner = columns[transpose]
        paired = columns != partner
        # sqrt 2 for the two rows of a pair of orbits, as (y + y*) / sqrt 2
        values = 1.0 / np.sqrt(np.where(paired, 2.0, 1.0) * sizes[columns])
        data = np.column_stack([values, np.where(columns < partner, 1j, -1j) * values])
        cols = np.column_stack([np.minimum(columns, partner), np.maximum(columns, partner)])
        kept = np.column_stack([np.ones(rows, dtype=bool), paired])
        iso = csr_matrix((data[kept], cols[kept], np.append(0, np.cumsum(kept.sum(axis=1)))),
                         shape=(rows, len(sizes)))
        return iso, iso.conj().T.tocsr()

    iso, adj = isometry((np.cumsum(labels == np.arange(rows)) - 1)[labels])
    projected = []
    for x in itertools.chain([start], (part @ iso for part in parts)):
        y = adj @ x
        if abs(x - iso @ y).max() > 1e-12 * abs(x).max():
            break
        projected.append(y)
    else:
        return iso, projected[1:]
    iso, adj = isometry(np.arange(rows))
    return iso, parts if transpose is None else [adj @ (part @ iso) for part in parts]


def _kron_sum(dim: int, terms):
    """The sum of sign * (A kron B) over ``terms`` (sign, A, B), A and B dense dim x dim,
    as one CSR matrix.

    One COO pass in numpy: a term's nonzero products a b (negated for sign
    -1) sit at row r_A dim + r_B and column c_A dim + c_B.  Entries at one
    place are summed from zero in term order, by ``np.unique`` and a
    sequential ``np.add.at``, and sums that cancel to exactly zero are dropped.
    """
    from scipy.sparse import csr_matrix
    size = dim * dim
    keys, values = [], []
    for sign, a, b in terms:
        (ra, ca), (rb, cb) = np.nonzero(a), np.nonzero(b)
        keys.append((ra[:, None] * dim + rb).ravel() * size + (ca[:, None] * dim + cb).ravel())
        products = (a[ra, ca][:, None] * b[rb, cb]).ravel()
        values.append(-products if sign < 0 else products)
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros(len(keys), dtype=complex)
    np.add.at(data, where, np.concatenate(values))
    kept = data != 0
    rows, cols = np.divmod(keys[kept], size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    return csr_matrix((data[kept], cols, indptr), shape=(size, size))


def _lindblad_generator(liou: Liouvillian, rho0: np.ndarray):
    """Sparse Lindblad generator in real Hermitian exchange-orbit coordinates.

    On row-major vec(rho), X rho Y is (X kron Y^T) vec(rho).  With
    G = 1/2 sum_D D^dag D, the static part is
    L0 = (-i H - G) x I + I x (i H - G)^T + sum_D D x D*, and each
    oscillating term V e^{i w t} adds -i (V x I - I x V^T).  Each part is
    one :func:`_kron_sum` of its terms in the order written here.  Of each
    adjoint pair of terms (:func:`_conjugate_pairs`) only the kept one is
    built.

    Index pairs (i, j) form orbits under permutations of the atoms in both
    indices, and the pairs (j, i) form the transposed orbit.  Their isometry
    U (:func:`_orbit_projection` with the transpose) takes the real
    coordinates u of a Hermitian rho to vec(rho) = U u; its orbits are
    singletons unless ``rho0`` and every part keep range(U).  The projected
    parts M_k = U^H L_k U carry the structure of a generator that maps
    Hermitian matrices to Hermitian ones: M_0 is real, and the dropped
    partner of a kept term is conj(M_k), so the pair adds
    2 Re(e^{i w t} M_k) = cos(w t) 2 Re M_k - sin(w t) 2 Im M_k.  Returns
    ``(stacked, freqs, U, parts)``: ``stacked`` is the real CSR matrix
    [Re M_0  2 Re M_1  -2 Im M_1 ...], its zeros dropped and its indices
    sorted, the generator of :func:`_taylor_pass` on u with the frequencies
    ``freqs`` (0, w_1, ...) of the kept terms, and ``parts`` the complex
    [M_0 M_1 ...].
    """
    from scipy import sparse
    dim = liou.basis.dim
    eye = np.eye(dim, dtype=complex)
    h = liou.hamiltonian_static
    g = 0.5 * sum((d.conj().T @ d for d in liou.jump_operators),
                  np.zeros((dim, dim), dtype=complex))
    jumps = [d.astype(complex, copy=False) for d in liou.jump_operators]
    parts = [_kron_sum(dim, [(1, -1j * h - g, eye), (1, eye, (1j * h - g).T)]
                       + [(1, d, d.conj()) for d in jumps])]
    osc = liou.hamiltonian_oscillating
    kept = [osc[k] for k in _conjugate_pairs(osc)]
    for mat, _ in kept:
        v = mat.astype(complex, copy=False)
        parts.append(-1j * _kron_sum(dim, [(1, v, eye), (-1, eye, v.T)]))
    pairs = functools.reduce(np.minimum, (np.add.outer(row * dim, row).ravel()
                                          for row in liou.basis.atom_permutations()))
    transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    q, parts = _orbit_projection(pairs, rho0.ravel(), parts, transpose)
    stacked = sparse.hstack([parts[0].real]
                            + [m for part in parts[1:] for m in (2.0 * part.real, -2.0 * part.imag)],
                            format="csr")
    stacked.eliminate_zeros()
    stacked.sort_indices()
    return stacked, np.array([0.0] + [f for _, f in kept]), q, parts


def integrate_master(liou: Liouvillian, rho0: DensityMatrix, t,
                     dt: float | None = None) -> MasterResult:
    """Integration of the master equation by the Taylor kernel.

    ``t`` is one end time or a non-decreasing sequence of output times
    (``_times``): the model's clock starts at rho0 at t = 0 and runs through
    every output, so oscillating couplings keep their phase; an output at
    t = 0 is rho0.  rho0 is checked by :meth:`DensityMatrix.validate`
    first, as real coordinates hold Hermitian matrices only.  One sparse
    superoperator (:func:`_lindblad_generator`) acts on the real
    exchange-orbit coordinates u = U^H vec(rho) (U maps them onto the orbits
    of index pairs where rho0 and the model are exchange symmetric).  One
    real :func:`_taylor_pass` takes u through the outputs in equal blocks,
    and every output U u is Hermitian by construction; a given ``dt`` caps
    the block width.  Each output after t = 0 is checked by
    :meth:`DensityMatrix.validate`; the result holds the worst trace drift
    and minimum eigenvalue over them (rho0's if there is none), the block
    count as ``steps`` and the block width as ``dt``.
    """
    times = _times(t, "t")
    if (np.diff(times) < 0.0).any():
        raise ValueError(f"t must be non-decreasing, got {t!r}")
    state = DensityMatrix(rho0.entries.astype(complex))  # astype copies rho0
    initial = state.validate()
    stacked, freqs, q, _ = _lindblad_generator(liou, state.entries)
    u = (q.conj().T @ state.entries.ravel()).real
    ys, blocks, h = _taylor_pass(stacked, freqs, u, times, dt)
    later = (times > 0.0).tolist()
    states = [DensityMatrix((q @ y).reshape(state.entries.shape)) if moved else state
              for y, moved in zip(ys, later)]
    checks = [s.validate() for s, moved in zip(states, later) if moved]
    drifts, eigs = zip(*checks or [initial])
    return MasterResult(states[-1], max(drifts), min(eigs), blocks, h, tuple(states))


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


def _unitary_states(liou: Liouvillian, psi0: np.ndarray, times: np.ndarray,
                    dt: float | None = None) -> np.ndarray:
    """States of a dissipation-free model at every output time, as (T, dim).

    The states are propagated in the coordinates P^T psi of the exchange
    orbits of the basis states, with every Hamiltonian part projected to
    P^T H P, and mapped back with P.  P (:func:`_orbit_projection`) is the
    identity, and the whole space is propagated, unless psi0 and every part
    keep range(P).  One :func:`_taylor_pass` takes the identity through the
    sorted remainders r = t mod T and T itself, so an output t = n T + r is
    U(r) U(T)^n psi0.  T is the drive period 2 pi / max |w| of a periodic
    model and one kernel block of a static one; a given ``dt`` caps the
    pass's block width, as in :func:`integrate_master`.
    """
    osc = liou.hamiltonian_oscillating
    p, parts = _orbit_projection(liou.basis.atom_permutations().min(axis=0), psi0,
                                 [liou.hamiltonian_static] + [mat for mat, _ in osc])
    stacked = -1j * np.hstack(parts)
    freqs = np.array([0.0] + [f for _, f in osc])
    if osc:
        period = 2.0 * math.pi / liou.max_frequency
    else:       # one block, as fl(fl(8 / r) r) <= 8
        period = _TAYLOR_BOUND / max(_taylor_rate(stacked, freqs), 1.0)
    n_periods = times // period
    remainders = times - n_periods * period
    stops = np.unique(np.append(remainders, period))
    u = dict(zip(stops.tolist(),
                 _taylor_pass(stacked, freqs, np.eye(p.shape[1], dtype=complex), stops, dt)[0]))
    phi0 = p.T @ psi0
    return np.array([u[r] @ (np.linalg.matrix_power(u[period], int(n)) @ phi0)
                     for n, r in zip(n_periods, remainders.tolist())]) @ p.T


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
    dc = _lorentzian(params.delta, kappa_prime(params))
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
    psi0 = basis.vacuum_all_a()
    if liou.has_dissipation:
        states = integrate_master(liou, DensityMatrix.from_pure(psi0), times, dt).states
    else:
        states = []
        for t, psi in zip(times, _unitary_states(liou, psi0, times, dt)):
            norm = np.linalg.norm(psi)
            if abs(norm - 1.0) > 1e-6:
                raise IntegrationError(f"unitarity loss {abs(norm - 1.0):.2e} at t={t}")
            states.append(DensityMatrix.from_pure(psi / norm))
    records = [extract_moments(rho, basis) for rho in states]
    moments = np.array([state.as_array() for state, _ in records])
    photons = np.array([ph for _, ph in records])
    if "e" not in basis.levels:
        return moments, photons, np.zeros(len(times))
    excited = basis.collective("e", "e")
    return moments, photons, np.array([np.trace(excited @ rho.entries).real for rho in states])


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
    predicted by the linear equations.  ``t_grid`` (``_times``) is sorted;
    ``dt_full`` and ``dt_intermediate``, where given, are positive numbers
    (``_positive``) checked before any model is built.
    """
    times = np.sort(_times(t_grid, "t_grid"), kind="stable")
    dt_full = None if dt_full is None else _positive(dt_full, "dt_full")
    dt_intermediate = (None if dt_intermediate is None
                       else _positive(dt_intermediate, "dt_intermediate"))

    validity = check_validity(params)
    # the moment generator refuses vanishing detunings before the builders
    # divide by them (the AC-Stark shifts at zero loss)
    gen = assemble_generator(params)
    full = build_full_model(params, spec, compensate_stark=compensate_stark)
    inter = build_intermediate_model(params, spec, compensate_stark=compensate_stark)

    m_full, ph_full, e_pop = _run_brute_force(full, times, dt_full)
    m_full = _frame_aligned(m_full, times, params.omega_ab)
    m_int, ph_int, _ = _run_brute_force(inter, times, dt_intermediate)

    m_lin = _exp_action(gen.m, initial_state(params.n_atoms).as_array(), times[-1])(times)
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
