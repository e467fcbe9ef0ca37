import functools
import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cavspin import _taylor, oracle
from cavspin.dicke import DickePropagator, effective_coeffs, stretched_state
from cavspin.moments import (MomentGenerator, PropagationError, assemble_generator,
                             initial_state, propagate)
from cavspin.oracle import (Basis, DensityMatrix, HilbertSpec, IntegrationError,
                            Liouvillian, ModelError, _lindblad_generator, _taylor_rate,
                            _unitary_states, build_full_model, build_intermediate_model,
                            coherent_pair_transfer_time, extract_moments,
                            integrate_master, photon_estimate, validate_elimination)
from cavspin.params import (PhysicalParams, check_validity, match_raman,
                            params_from_mapping, read_config, stark_shifts)


def n2_matched(omega1=4.0, dissipation=0.0):
    p = PhysicalParams(n_atoms=2, omega_1=omega1, omega_2=0.0,
                       delta_1=100.0, omega_ab=120.0, delta=1.0,
                       kappa=dissipation, gamma_a=dissipation / 3,
                       gamma_b=dissipation / 3, gamma_o=dissipation / 3)
    return p.with_drives(p.omega_1, match_raman(p))


def lossy_params(n_atoms, levels):
    """A lossy full-model parameter set; |o> decay only with the fourth level."""
    return PhysicalParams(n_atoms=n_atoms, omega_1=4.0, omega_2=5.0, delta_1=12.0,
                          omega_ab=9.0, delta=0.7, kappa=0.4, gamma_a=0.5,
                          gamma_b=0.3, gamma_o=0.2 if levels == 4 else 0.0)


def strobed_grid(params, horizon, n_points=9):
    period = 2.0 * math.pi / params.omega_ab
    stride = max(1, round(horizon / (n_points - 1) / period))
    return [k * stride * period for k in range(n_points)]


def bundled_oracle(name):
    """Parameters, Hilbert space and output times of a bundled oracle config."""
    config = read_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", name))
    p = params_from_mapping(config)
    spec = HilbertSpec(p.n_atoms, int(config["atom_levels"]), int(config["cavity_cutoff"]))
    return p, spec, np.linspace(0.0, float(config["t_final"]), int(config["n_times"]))


def hamiltonian_rate(liou):
    """``_taylor_rate`` of the model's Hamiltonian parts, the scale a reference step resolves."""
    osc = liou.hamiltonian_oscillating
    return _taylor_rate(np.hstack([liou.hamiltonian_static] + [mat for mat, _ in osc]),
                        np.array([0.0] + [f for _, f in osc]))


def dissipative_params():
    """The lossy two-atom parameters of ``configs/oracle_n2_dissipative.cfg``."""
    p = PhysicalParams(n_atoms=2, omega_1=1.2, omega_2=0.0, delta_1=30.0,
                       omega_ab=60.0, delta=0.5, kappa=0.5, gamma_a=0.1,
                       gamma_b=0.1, gamma_o=0.1)
    return p.with_drives(p.omega_1, match_raman(p))


@pytest.fixture(scope="module")
def dissipative_report():
    """Short dissipative three-way run, recording every master-equation call
    and every superoperator build.

    The benchmark's oracle check wraps ``cavspin.oracle.integrate_master`` the
    same way and fails a dissipative run that records no trace drift.
    """
    calls, builds = [], []

    def recording(*args, **kwargs):
        result = integrate_master(*args, **kwargs)
        calls.append(result)
        return result

    def counting(*args, **kwargs):
        builds.append(args[0])
        return build_rhs(*args, **kwargs)

    build_rhs = oracle._lindblad_generator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "integrate_master", recording)
        mp.setattr(oracle, "_lindblad_generator", counting)
        rep = validate_elimination(dissipative_params(), HilbertSpec(2, 4, 1),
                                   np.linspace(0.0, 6.0, 3))
    return rep, calls, builds


@pytest.fixture(scope="module")
def quarter_pair_report():
    p = n2_matched()
    horizon = coherent_pair_transfer_time(p) / 4.0
    rep = validate_elimination(p, HilbertSpec(2, 3, 2), strobed_grid(p, horizon))
    return p, rep


@pytest.fixture
def isometry_shapes(monkeypatch):
    """Shapes of the isometries the kernels take, in call order."""
    shapes = []
    project = oracle._orbit_projection

    def recording(*args, **kwargs):
        iso, parts = project(*args, **kwargs)
        shapes.append(iso.shape)
        return iso, parts

    monkeypatch.setattr(oracle, "_orbit_projection", recording)
    return shapes


@pytest.fixture
def kernel_passes(monkeypatch):
    """``(times, n_blocks, h)`` of every Taylor kernel pass, in call order."""
    passes = []
    kernel = oracle._taylor_pass

    def recording(stacked, freqs, y, times, *args):
        outputs, n_blocks, h = kernel(stacked, freqs, y, times, *args)
        passes.append((times.tolist(), n_blocks, h))
        return outputs, n_blocks, h

    monkeypatch.setattr(oracle, "_taylor_pass", recording)
    return passes


class TestHilbertSpec:
    def test_budget_boundary(self):
        assert HilbertSpec(3, 4, 15).dim == 1024
        with pytest.raises(ModelError):
            HilbertSpec(3, 4, 16)

    def test_atom_count_limits(self):
        with pytest.raises(ModelError):
            HilbertSpec(4, 3, 1)
        with pytest.raises(ModelError):
            HilbertSpec(0, 3, 1)

    def test_level_options(self):
        with pytest.raises(ModelError):
            HilbertSpec(1, 5, 1)

    @pytest.mark.parametrize("name,value", [
        ("n_atoms", 2.5), ("atom_levels", 3.5), ("cavity_cutoff", 1.5),
        ("cavity_cutoff", math.inf), ("n_atoms", math.nan)])
    def test_counts_must_be_integers(self, name, value):
        counts = {"n_atoms": 2, "atom_levels": 3, "cavity_cutoff": 1}
        with pytest.raises(ModelError, match=f"{name} must be an integer"):
            HilbertSpec(**{**counts, name: value})
        assert HilbertSpec(*map(np.int64, counts.values())).dim == 18
        # integral float counts are stored as ints, so the basis can be built
        spec = HilbertSpec(2.0, 3, 1)
        assert spec == HilbertSpec(2, 3, 1) and type(spec.dim) is int and spec.dim == 18
        p = PhysicalParams(n_atoms=2, delta_1=100.0, omega_ab=120.0, delta=1.0)
        assert validate_elimination(p, spec, [0.0, 1.0]).max_dev("fi", "jz") == 0.0


class TestFullModel:
    def test_frame_refusals(self):
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=0.0)
        with pytest.raises(ModelError):
            build_full_model(p, HilbertSpec(1, 3, 1))
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=2.0, gamma_o=0.3)
        with pytest.raises(ModelError):
            build_full_model(p, HilbertSpec(1, 3, 1))
        # the models must hold the atom number the moment equations take
        p = PhysicalParams(n_atoms=2, delta_1=5.0, omega_ab=2.0)
        for build in (build_full_model, build_intermediate_model):
            with pytest.raises(ModelError, match="HilbertSpec has 3 atoms"):
                build(p, HilbertSpec(3, 3, 1))

    def test_zero_detuning_refused_only_with_stark_compensation(self):
        p = PhysicalParams(n_atoms=1, omega_1=1.0, delta_1=0.0, omega_ab=2.0)
        build_full_model(p, HilbertSpec(1, 3, 1))
        with pytest.raises(ModelError, match="delta_1 = 0"):
            build_full_model(p, HilbertSpec(1, 3, 1), compensate_stark=True)

    def test_free_decay(self):
        p = PhysicalParams(n_atoms=1, g_a=0, g_b=0, delta_1=5.0, omega_ab=3.0,
                           gamma_a=0.4, gamma_b=0.3)
        liou = build_full_model(p, HilbertSpec(1, 3, 1))
        basis = liou.basis
        psi = np.zeros(basis.dim, dtype=complex)
        psi[2 * (1 + 1)] = 1.0                     # |e>, vacuum
        res = integrate_master(liou, DensityMatrix.from_pure(psi), 1.0 / 0.7)
        p_e = float(np.trace(basis.collective("e", "e") @ res.rho.entries).real)
        assert p_e == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert res.trace_drift < 1e-10

    def test_detuned_rabi(self):
        p = PhysicalParams(n_atoms=1, g_a=0, g_b=0, omega_1=2.0, delta_1=3.0,
                           omega_ab=7.0)
        liou = build_full_model(p, HilbertSpec(1, 3, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        t = 0.8
        res = integrate_master(liou, rho0, t)
        p_e = float(np.trace(liou.basis.collective("e", "e") @ res.rho.entries).real)
        rabi = math.hypot(3.0, 2.0)
        exact = (2.0 / rabi) ** 2 * math.sin(rabi * t / 2.0) ** 2
        assert p_e == pytest.approx(exact, abs=1e-6)

    def test_oscillating_terms_at_splitting_frequency(self):
        p = n2_matched()
        liou = build_full_model(p, HilbertSpec(2, 3, 2))
        freqs = sorted(f for _, f in liou.hamiltonian_oscillating)
        assert freqs == pytest.approx([-p.omega_ab, p.omega_ab])

    def test_trace_preserved_with_dissipation(self):
        p = n2_matched(dissipation=0.3)
        liou = build_full_model(p, HilbertSpec(2, 4, 2))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        res = integrate_master(liou, rho0, 2.0)
        assert res.trace_drift < 1e-8
        assert res.min_eigenvalue > -1e-8
        res.rho.validate()

    def test_static_part_hermitian_enforced(self):
        basis = Basis(1, ("a", "b", "e"), 1)
        bad = np.zeros((basis.dim, basis.dim), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ModelError):
            Liouvillian(basis=basis, hamiltonian_static=bad)


class TestIntermediateModel:
    def test_stark_diagonal_entries(self):
        p = PhysicalParams(n_atoms=1, omega_1=3.0, omega_2=5.0, delta_1=40.0,
                           omega_ab=20.0, delta=1.0, gamma_a=0.3, gamma_b=0.2,
                           gamma_o=0.1)
        liou = build_intermediate_model(p, HilbertSpec(1, 4, 1))
        gt = p.gamma_total
        h = liou.hamiltonian_static
        # |a, n=0> is index 0; |b, n=0> is index 2 (levels a,b,o x fock 0,1)
        s_a = p.delta_1 * abs(p.omega_1) ** 2 / (4 * (p.delta_1 ** 2 + gt ** 2 / 4))
        s_b = p.delta_2 * abs(p.omega_2) ** 2 / (4 * (p.delta_2 ** 2 + gt ** 2 / 4))
        assert h[0, 0] == pytest.approx(-s_a, rel=1e-12)
        assert h[2, 2] == pytest.approx(-s_b, rel=1e-12)
        # one cavity photon adds the frame shift and the cavity Stark term
        cav_a = p.delta_2 * abs(p.g_a) ** 2 / (p.delta_2 ** 2 + gt ** 2 / 4)
        assert h[1, 1] == pytest.approx(-s_a - p.delta - cav_a, rel=1e-12)

    def test_first_composite_jump_norm(self):
        p = PhysicalParams(n_atoms=1, omega_1=3.0, omega_2=5.0, delta_1=40.0,
                           omega_ab=20.0, delta=1.0, gamma_a=0.3, gamma_b=0.2,
                           gamma_o=0.1)
        n_max = 3
        liou = build_intermediate_model(p, HilbertSpec(1, 4, n_max))
        d_a1 = liou.jump_operators[0]
        gt = p.gamma_total
        expected = math.sqrt(p.gamma_a) * math.sqrt(
            abs(p.omega_1 / 2) ** 2 + abs(p.g_b) ** 2 * n_max) / math.sqrt(
            p.delta_1 ** 2 + gt ** 2 / 4)
        assert np.linalg.norm(d_a1, 2) == pytest.approx(expected, rel=1e-12)

    def test_jump_count(self):
        p = PhysicalParams(n_atoms=2, omega_1=1.0, omega_2=1.0, delta_1=40.0,
                           omega_ab=20.0, delta=1.0, kappa=0.1, gamma_a=0.3,
                           gamma_b=0.2, gamma_o=0.1)
        liou = build_intermediate_model(p, HilbertSpec(2, 4, 1))
        # six composite operators per atom plus the cavity jump
        assert len(liou.jump_operators) == 2 * 6 + 1

    def test_raman_two_level_oscillation(self):
        # Omega_2 = 0 isolates |a,0> <-> |b,1>; compare with the exact
        # two-level formula including the Stark-shifted detuning
        p = PhysicalParams(n_atoms=1, omega_1=6.0, omega_2=0.0, delta_1=50.0,
                           omega_ab=30.0, delta=0.8)
        liou = build_intermediate_model(p, HilbertSpec(1, 3, 1))
        basis = liou.basis
        rho0 = DensityMatrix.from_pure(basis.vacuum_all_a())
        v = -(p.delta_1 / p.delta_1 ** 2) * p.omega_1 * 1.0 / 2.0
        s_a, _ = stark_shifts(p)
        e_b1 = -p.delta - p.delta_1 * abs(p.g_b) ** 2 / p.delta_1 ** 2
        half_det = (-s_a - e_b1) / 2.0
        rabi = math.hypot(half_det, v)
        for t in (0.5, 2.0):
            res = integrate_master(liou, rho0, t)
            p_b = float(np.trace(basis.collective("b", "b") @ res.rho.entries).real)
            exact = (v / rabi) ** 2 * math.sin(rabi * t) ** 2
            assert p_b == pytest.approx(exact, abs=1e-7)
            purity = float(np.trace(res.rho.entries @ res.rho.entries).real)
            assert purity == pytest.approx(1.0, abs=1e-9)

    def test_gamma_o_needs_extra_level(self):
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=2.0, gamma_o=0.3)
        with pytest.raises(ModelError):
            build_intermediate_model(p, HilbertSpec(1, 3, 1))

    def test_degenerate_ground_states_refused(self):
        # the elimination drops the terms oscillating at omega_ab, as the full
        # model's frame needs omega_ab != 0
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=0.0)
        with pytest.raises(ModelError, match="omega_ab = 0"):
            build_intermediate_model(p, HilbertSpec(1, 3, 1))

    @pytest.mark.parametrize("delta_1, name", [(0.0, "delta_1"), (-2.0, "delta_2")])
    def test_zero_detuning_refused(self, delta_1, name):
        # no loss: Delta_l^2 + Gamma^2/4 vanishes with the detuning
        p = PhysicalParams(n_atoms=1, omega_1=1.0, delta_1=delta_1, omega_ab=2.0)
        with pytest.raises(ModelError, match=f"{name} = 0"):
            build_intermediate_model(p, HilbertSpec(1, 3, 1))


class TestIntegrateMaster:
    def test_zero_liouvillian(self):
        basis = Basis(1, ("a", "b", "e"), 1)
        liou = Liouvillian(basis=basis,
                           hamiltonian_static=np.zeros((basis.dim,) * 2, complex))
        rho0 = DensityMatrix.from_pure(basis.vacuum_all_a())
        res = integrate_master(liou, rho0, 3.0, dt=0.05)
        assert np.array_equal(res.rho.entries, rho0.entries)

    def test_time_zero_reports_the_initial_check(self):
        basis = Basis(1, ("a", "b", "e"), 1)
        liou = Liouvillian(basis=basis,
                           hamiltonian_static=np.zeros((basis.dim,) * 2, complex))
        rho0 = DensityMatrix.from_pure(basis.vacuum_all_a())
        res = integrate_master(liou, rho0, 0.0, dt=0.05)
        assert res.steps == 0
        assert np.array_equal(res.rho.entries, rho0.entries)
        assert (res.trace_drift, res.min_eigenvalue) == rho0.validate()

    @pytest.mark.parametrize("kind,match", [("trace2", "trace drift"),
                                            ("nan", "non-finite")])
    def test_time_zero_rejects_a_bad_initial_state(self, kind, match):
        basis = Basis(1, ("a", "b", "e"), 1)
        liou = Liouvillian(basis=basis,
                           hamiltonian_static=np.zeros((basis.dim,) * 2, complex))
        pure = DensityMatrix.from_pure(basis.vacuum_all_a()).entries
        entries = 2.0 * pure if kind == "trace2" else np.full_like(pure, np.nan)
        with pytest.raises(IntegrationError, match=match):
            integrate_master(liou, DensityMatrix(entries), 0.0, dt=0.05)

    def test_non_hermitian_start_refused_before_the_pass(self, monkeypatch):
        # real coordinates hold Hermitian matrices only
        liou = build_full_model(lossy_params(1, 3), HilbertSpec(1, 3, 1))
        entries = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
        entries[0, 1] = 1e-3
        monkeypatch.setattr(oracle, "_lindblad_generator", None)
        with pytest.raises(IntegrationError, match="not Hermitian"):
            integrate_master(liou, DensityMatrix(entries), 0.5)

    def test_exponential_decay(self):
        basis = Basis(1, ("a", "b", "e"), 1)
        rate = 0.9
        jump = math.sqrt(rate) * basis.atom_op(0, basis.transition("a", "e"))
        liou = Liouvillian(basis=basis,
                           hamiltonian_static=np.zeros((basis.dim,) * 2, complex),
                           jump_operators=(jump,))
        psi = np.zeros(basis.dim, complex)
        psi[4] = 1.0                                 # |e>, vacuum
        res = integrate_master(liou, DensityMatrix.from_pure(psi), 1.0 / rate)
        p_e = float(res.rho.entries[4, 4].real)
        assert p_e == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_block_width_convergence(self, monkeypatch):
        # blocks of x = ||L|| h <= 8 agree with blocks of x <= 0.5 to 1e-12 of scale
        p = PhysicalParams(n_atoms=1, omega_1=4.0, omega_2=5.0, delta_1=12.0,
                           omega_ab=9.0, delta=0.7, kappa=0.4, gamma_a=0.5,
                           gamma_b=0.3, gamma_o=0.2)
        liou = build_full_model(p, HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        coarse = integrate_master(liou, rho0, 0.8)
        monkeypatch.setattr(_taylor, "_TAYLOR_BOUND", 0.5)
        fine = integrate_master(liou, rho0, 0.8)
        assert fine.steps > 10 * coarse.steps > 10
        scale = np.abs(fine.rho.entries).max()
        assert np.abs(coarse.rho.entries - fine.rho.entries).max() <= 1e-12 * scale

    @pytest.mark.parametrize("name,value", [
        ("dt", -1.0), ("dt", 0.0), ("dt", math.nan), ("dt", math.inf),
        ("t", -1.0), ("t", math.nan), ("t", math.inf),
        pytest.param("t", [0.5, 0.2], id="t-decreasing"),
        pytest.param("t", [0.0, math.nan], id="t-nan-sequence"),
        pytest.param("t", [-0.1, 0.5], id="t-negative-sequence"),
        pytest.param("t", [], id="t-empty")])
    def test_bad_time_or_step_refused(self, name, value, monkeypatch):
        liou = build_full_model(lossy_params(1, 4), HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        args = {"t": 0.8, "dt": 0.01}
        args[name] = value
        monkeypatch.setattr(_taylor, "_taylor_terms", None)   # refused before any block
        with pytest.raises(ValueError, match=rf"^{name} must "):
            integrate_master(liou, rho0, **args)

    def test_runaway_step_refused_before_any_block(self, monkeypatch):
        # dt = 1e-12 over t = 0.8 would be 8e11 blocks, over the kernel's budget
        liou = build_full_model(lossy_params(1, 4), HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        monkeypatch.setattr(_taylor, "_taylor_terms", None)   # refused before any block
        with pytest.raises(ValueError, match=rf"needs {math.ceil(0.8 / 1e-12)} blocks"):
            integrate_master(liou, rho0, 0.8, dt=1e-12)

    def test_zero_start_grid_matches_scalar_time(self):
        liou = build_full_model(lossy_params(1, 4), HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        scalar = integrate_master(liou, rho0, 0.8)
        grid = integrate_master(liou, rho0, [0.0, 0.8])
        assert np.array_equal(grid.states[0].entries, rho0.entries)
        assert np.array_equal(grid.rho.entries, scalar.rho.entries)
        assert grid.rho is grid.states[-1]
        assert (grid.trace_drift, grid.min_eigenvalue, grid.steps, grid.dt) \
            == (scalar.trace_drift, scalar.min_eigenvalue, scalar.steps, scalar.dt)

    def test_density_matrix_validation(self):
        bad = DensityMatrix(np.array([[0.5, 0.2], [0.3, 0.5]], dtype=complex))
        with pytest.raises(IntegrationError):
            bad.validate()
        unnorm = DensityMatrix(np.array([[0.7, 0], [0, 0.5]], dtype=complex))
        with pytest.raises(IntegrationError):
            unnorm.validate()
        nan = DensityMatrix(np.full((2, 2), np.nan, dtype=complex))
        with pytest.raises(IntegrationError, match="non-finite"):
            nan.validate()


def dense_lindblad_rhs(liou):
    """Dense commutator / anticommutator / jump-sum right-hand side (reference)."""
    jumps = [d.astype(complex) for d in liou.jump_operators]
    jump_dags = [d.conj().T for d in jumps]
    anti = 0.5 * sum((dd @ d for d, dd in zip(jumps, jump_dags)),
                     np.zeros((liou.basis.dim,) * 2, dtype=complex))

    def rhs(t, r):
        h = liou.hamiltonian_at(t)
        out = -1j * (h @ r - r @ h)
        if jumps:
            out -= anti @ r + r @ anti
            for d, dd in zip(jumps, jump_dags):
                out += d @ r @ dd
        return out

    return rhs


def lossy_model(kind, n_atoms, levels, cutoff):
    spec = HilbertSpec(n_atoms, levels, cutoff)
    if kind == "intermediate":
        return build_intermediate_model(lossy_params(n_atoms, levels), spec)
    if kind == "frame-shifted":
        p = n2_matched(omega1=8.0, dissipation=0.4)
        return cavity_frame_shifted(p, build_full_model(p, spec))
    return build_full_model(lossy_params(n_atoms, levels), spec)


def fold_weights(freqs, t):
    """The weights of the real generator's blocks at time t: 1, then cos and sin of each w_k t."""
    return np.append(1.0, np.column_stack([np.cos(freqs[1:] * t), np.sin(freqs[1:] * t)]))


class TestSparseLindblad:
    @pytest.mark.parametrize("kind,n_atoms,levels,cutoff", [
        ("full", 1, 3, 1), ("full", 1, 4, 2), ("full", 2, 3, 2), ("full", 2, 4, 1),
        ("intermediate", 2, 4, 1), ("frame-shifted", 2, 4, 1)])
    def test_matches_dense_rhs(self, kind, n_atoms, levels, cutoff):
        liou = lossy_model(kind, n_atoms, levels, cutoff)
        assert liou.has_dissipation
        dense_rhs = dense_lindblad_rhs(liou)
        rng = np.random.default_rng(7)
        dim = liou.basis.dim
        perms = liou.basis.atom_permutations()
        for t in (0.0, 0.37, 2.1, 11.3):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            # a random rho takes the identity isometry, its permutation
            # average the exchange orbits (for more than one atom)
            averaged = np.mean([rho[np.ix_(r, r)] for r in perms], axis=0)
            for state, reduced in ((rho, False), (averaged, n_atoms > 1)):
                stacked, freqs, q, _ = _lindblad_generator(liou, state)
                assert (q.shape[1] < dim * dim) == reduced
                ref = dense_rhs(t, state)
                # [L_0 C_1 S_1 ...] applied to (u, cos(w_1 t) u, sin(w_1 t) u, ...)
                u = (q.conj().T @ state.ravel()).real
                out = q @ (stacked @ np.kron(fold_weights(freqs, t), u))
                assert np.abs(out.reshape(dim, dim) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_integration_matches_dense_stepping(self):
        liou = build_full_model(n2_matched(dissipation=0.3), HilbertSpec(2, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        assert assert_master_limit(liou, rho0, np.array([0.05, 0.1])).steps > 1


def kron_chain_atom_op(basis, k, op):
    """``op`` on atom k by a kron chain over the atoms and the cavity (reference)."""
    full = np.array([[1.0 + 0j]])
    for j in range(basis.n_atoms):
        full = np.kron(full, op if j == k else np.eye(basis.n_levels, dtype=complex))
    return np.kron(full, np.eye(basis.cavity_cutoff + 1, dtype=complex))


def scipy_kron_generator(liou, rho0):
    """``_lindblad_generator`` with its parts built by ``scipy.sparse.kron`` and a
    chain of sparse sums, every oscillating term's included (reference).

    Returns the real generator folded from the static part and the terms at
    w > 0, the isometry, and the projected parts of every term."""
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
    pairs = functools.reduce(np.minimum, (np.add.outer(row * dim, row).ravel()
                                          for row in liou.basis.atom_permutations()))
    transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    q, parts = oracle._orbit_projection(pairs, rho0.ravel(), parts, transpose)
    positive = [part for part, (_, w) in zip(parts[1:], liou.hamiltonian_oscillating) if w > 0]
    stacked = sparse.hstack([parts[0].real] + [m for part in positive
                                               for m in (2.0 * part.real, -2.0 * part.imag)],
                            format="csr")
    stacked.eliminate_zeros()
    stacked.sort_indices()
    return stacked, q, parts


def assert_same_bits(a, b):
    """Equal shapes and equal bytes, for arrays and (index-sorted) CSR matrices."""
    if not isinstance(a, np.ndarray):
        assert a.has_sorted_indices
        a, b = a.sorted_indices(), b.sorted_indices()
        assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
        a, b = a.data, b.data
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


ASSEMBLY_MODELS = [
    ("full", 1, 3, 1), ("full", 1, 4, 2), ("full", 2, 3, 2), ("full", 2, 4, 1),
    ("intermediate", 2, 4, 1), ("frame-shifted", 2, 4, 1), ("full", 3, 3, 1),
    ("intermediate", 3, 4, 1), ("unitary", 2, 3, 1)]


def assembly_model(kind, n_atoms, levels, cutoff):
    if kind == "unitary":       # no jump operators: two static terms
        return build_full_model(n2_matched(), HilbertSpec(n_atoms, levels, cutoff))
    return lossy_model(kind, n_atoms, levels, cutoff)


class TestAssembly:
    """The one-pass COO generator and the index-built atom operators, bit for bit
    against the scipy.sparse.kron generator and the kron-chain embedding."""

    @pytest.mark.parametrize("kind,n_atoms,levels,cutoff", ASSEMBLY_MODELS)
    def test_generator_matches_sparse_kron(self, kind, n_atoms, levels, cutoff):
        liou = assembly_model(kind, n_atoms, levels, cutoff)
        perms = liou.basis.atom_permutations()
        rho = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
        x = np.random.default_rng(3).normal(size=rho.shape)
        # the exchange orbits, and the identity isometry of a non-symmetric start
        for rho0 in (rho, rho + 1e-3 * (x + x.T)):
            stacked, freqs, q, parts = _lindblad_generator(liou, rho0)
            ref_stacked, ref_q, ref_parts = scipy_kron_generator(liou, rho0)
            assert (q.shape[0] == q.shape[1]) == (rho0 is not rho or len(perms) == 1)
            assert_same_bits(q, ref_q)
            assert_same_bits(stacked, ref_stacked)
            osc = liou.hamiltonian_oscillating
            assert freqs.tolist() == [0.0] + [w for _, w in osc if w > 0]
            kept = [part for part, (_, w) in zip(ref_parts[1:], osc) if w > 0]
            for part, ref in zip(parts, ref_parts[:1] + kept):
                assert_same_bits(part.sorted_indices(), ref.sorted_indices())

    @pytest.mark.parametrize("kind,n_atoms,levels,cutoff", ASSEMBLY_MODELS)
    def test_parts_in_real_coordinates(self, kind, n_atoms, levels, cutoff):
        # in the real coordinates the static part is real and the part of
        # each term at -w is the conjugate of its partner's at w, which the
        # fold leaves out
        liou = assembly_model(kind, n_atoms, levels, cutoff)
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
        _, _, parts = scipy_kron_generator(liou, rho0)
        scale = max(abs(part).max() for part in parts)
        assert abs(parts[0].imag).max() <= 1e-15 * scale
        osc = liou.hamiltonian_oscillating
        for k, (mat, w) in enumerate(osc):
            partner = next(j for j, (other, v) in enumerate(osc)
                           if v == -w and np.array_equal(other, mat.conj().T))
            assert abs(parts[1 + partner] - parts[1 + k].conj()).max() <= 1e-15 * scale

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    @pytest.mark.parametrize("levels", [("a", "b", "e"), ("a", "b", "e", "o")])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_atom_ops_match_kron_chain(self, n_atoms, levels, cutoff):
        basis = Basis(n_atoms, levels, cutoff)
        for upper, lower in itertools.product(levels, repeat=2):
            op = basis.transition(upper, lower)
            chain = [kron_chain_atom_op(basis, k, op) for k in range(n_atoms)]
            for k in range(n_atoms):
                assert_same_bits(basis.atom_op(k, op), chain[k])
            assert_same_bits(basis.collective(upper, lower), sum(chain))


def complex_pass(liou, rho0, times, dt=None):
    """vec(rho) at ``times`` by the complex kernel on the complex parts of
    ``_lindblad_generator``, with the part of each kept term's partner at -w
    taken as the conjugate of the term's (reference)."""
    from scipy import sparse
    _, freqs, q, parts = _lindblad_generator(liou, rho0)
    stacked = sparse.hstack([parts[0]] + [m for part in parts[1:] for m in (part, part.conj())],
                            format="csr")
    omegas = np.append(0.0, np.column_stack([freqs[1:], -freqs[1:]]))
    return _taylor._taylor_pass(stacked, omegas, q.conj().T @ rho0.ravel(), times, dt)[0] @ q.T


class TestRealCoordinates:
    """The master equation in real Hermitian coordinates: one real pass."""

    @pytest.mark.parametrize("kind,n_atoms,levels,cutoff", ASSEMBLY_MODELS)
    def test_real_pass_matches_the_complex_pass(self, kind, n_atoms, levels, cutoff):
        liou = assembly_model(kind, n_atoms, levels, cutoff)
        rho = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
        x = np.random.default_rng(5).normal(size=rho.shape)
        mixed = 0.999 * rho + 1e-3 * (x @ x.T) / np.trace(x @ x.T)
        times = np.linspace(0.0, 0.3, 4)
        # the exchange orbits, the identity isometry of a non-symmetric start,
        # and a block width capped by dt
        for rho0, dt in ((rho, None), (mixed, None), (rho, 0.01)):
            res = integrate_master(liou, DensityMatrix(rho0), times, dt)
            out = np.array([s.entries.ravel() for s in res.states])
            ref = complex_pass(liou, rho0, times, dt)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
            assert dt is None or res.dt <= dt
            for state in res.states:
                assert np.array_equal(state.entries, state.entries.conj().T)

    def test_every_output_exactly_hermitian(self):
        # the seed-0 benchmark's kind of run: rounding left the complex pass
        # off Hermitian by about 3e-19
        p, spec = dissipative_params(), HilbertSpec(2, 4, 1)
        for build in (build_full_model, build_intermediate_model):
            liou = build(p, spec, compensate_stark=True)
            rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
            res = integrate_master(liou, rho0, np.linspace(0.0, 0.5, 3))
            for state in res.states:
                assert np.array_equal(state.entries, state.entries.conj().T)

    def test_non_adjoint_pair_refused(self):
        liou = build_full_model(lossy_params(1, 4), HilbertSpec(1, 4, 1))
        (v, w), _ = liou.hamiltonian_oscillating
        with pytest.raises(ModelError, match="no adjoint partner"):
            replace(liou, hamiltonian_oscillating=((v, w), (2.0 * v.conj().T, -w)))
        with pytest.raises(ModelError, match="no adjoint partner"):
            replace(liou, hamiltonian_oscillating=((v, w), (v.conj().T, w)))
        with pytest.raises(ModelError, match="no adjoint partner"):
            replace(liou, hamiltonian_oscillating=((v, w),))
        # a pair in either order is accepted, and one at w = 0 is static
        swapped = replace(liou, hamiltonian_oscillating=((v.conj().T, -w), (v, w)))
        assert _lindblad_generator(swapped, np.eye(4 * 2))[1].tolist() == [0.0, w]
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        still = replace(liou, hamiltonian_oscillating=((v, 0.0), (v.conj().T, 0.0)))
        static = replace(liou, hamiltonian_static=liou.hamiltonian_static + v + v.conj().T,
                         hamiltonian_oscillating=())
        a, b = (integrate_master(m, rho0, 0.3).rho.entries for m in (still, static))
        assert np.abs(a - b).max() <= 1e-12


class TestUnitaryStates:
    def test_periodic_model_matches_plain_stepping(self):
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        psi0 = liou.basis.vacuum_all_a()
        assert_unitary_limit(liou, psi0, np.array([0.0, 2.5, 7.25]) * period)

    def test_period_edge_cases_match_plain_stepping(self, kernel_passes):
        p = PhysicalParams(n_atoms=1, omega_1=2.0, omega_2=3.0, delta_1=12.0,
                           omega_ab=6.5, delta=0.7)
        liou = build_full_model(p, HilbertSpec(1, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        psi0 = liou.basis.vacuum_all_a()
        _unitary_states(liou, psi0, np.array([period]))
        [(_, n_blocks, h)] = kernel_passes
        assert n_blocks > 1
        # 6 periods leave a remainder that rounds up past the period itself
        assert int(6.0 * period // period) == 5
        assert 6.0 * period - 5.0 * period > period
        times = np.array(sorted([
            1.0 * period, 2.0 * period,                   # exact multiples
            2.0 * period + 0.3 * h,                       # inside the first block
            period + 1.2 * h, period + 1.7 * h,           # two outputs in one block
            np.nextafter(3.0 * period, 0.0), 6.0 * period,  # round to whole periods
        ]))
        assert_unitary_limit(liou, psi0, times)

    def test_one_kernel_pass(self, kernel_passes):
        # a periodic model passes once over the remainders and the period
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        times = np.array([0.0, 0.4, 2.5, 7.25, 12.0]) * period
        _unitary_states(liou, liou.basis.vacuum_all_a(), times)
        remainders = set((times - times // period * period).tolist())
        [(stops, n_blocks, h)] = kernel_passes
        assert stops == sorted(remainders | {period})
        assert n_blocks * h == pytest.approx(period)
        # a static model passes once over one block, the period of its powers
        static = build_intermediate_model(n2_matched(), HilbertSpec(2, 3, 1))
        _unitary_states(static, static.basis.vacuum_all_a(), np.array([0.0, 40.0]))
        [(stops, n_blocks, h)] = kernel_passes[1:]
        assert n_blocks == 1 and stops[-1] == h < 40.0

    def test_static_model_matches_expm(self, isometry_shapes):
        liou = build_intermediate_model(n2_matched(), HilbertSpec(2, 3, 1))
        assert not liou.hamiltonian_oscillating and not liou.has_dissipation
        psi0 = liou.basis.vacuum_all_a()
        times = np.array([0.0, 0.7, 3.1, 40.0])
        states = _unitary_states(liou, psi0, times)
        assert isometry_shapes == [(8, 6)]         # propagated on the exchange orbits
        for t, psi in zip(times, states):
            ref = expm(-1j * liou.hamiltonian_static * t) @ psi0
            assert np.abs(psi - ref).max() <= 1e-10

    def test_block_width_convergence(self, monkeypatch, kernel_passes):
        # oracle_n2.cfg's outputs are U(r) U(T)^n psi0 with n up to about 9360,
        # so the powers carry the rounding of U(T): blocks of x = ||L|| h <= 8
        # agree with blocks of x <= 0.5 to 1e-10 of each moment's scale on the
        # full model and to 1e-12 on the static intermediate one
        p, spec, times = bundled_oracle("oracle_n2.cfg")
        models = [build(p, spec, compensate_stark=True)
                  for build in (build_full_model, build_intermediate_model)]
        coarse = [oracle._run_brute_force(liou, times, None)[0] for liou in models]
        monkeypatch.setattr(_taylor, "_TAYLOR_BOUND", 0.5)
        fine = [oracle._run_brute_force(liou, times, None)[0] for liou in models]
        widths = [h for _, _, h in kernel_passes]
        assert all(wide > 10.0 * narrow for wide, narrow in zip(widths[:2], widths[2:]))
        for a, b, bound in zip(coarse, fine, (1e-10, 1e-12)):
            scale = np.abs(b).max(axis=0)
            assert (np.abs(a - b).max(axis=0) <= bound * scale).all()


#: the full and intermediate models of both bundled oracle configs
BUNDLED_MODELS = [pytest.param(name, build, id=f"{name[:-4]}-{build.__name__.split('_')[1]}")
                  for name in ("oracle_n2.cfg", "oracle_n2_dissipative.cfg")
                  for build in (build_full_model, build_intermediate_model)]


def bundled_model(name, build):
    p, spec, times = bundled_oracle(name)
    return build(p, spec, compensate_stark=True), times


def oracle_states(liou, times, dt=None):
    """The states of a model's oracle run, and its ``MasterResult`` numbers if dissipative."""
    psi0 = liou.basis.vacuum_all_a()
    if not liou.has_dissipation:
        return list(_unitary_states(liou, psi0, times, dt)), ()
    res = integrate_master(liou, DensityMatrix.from_pure(psi0), times, dt)
    return ([s.entries for s in res.states],
            (res.trace_drift, res.min_eigenvalue, res.steps, res.dt))


class TestStepCap:
    """A given dt caps the kernel's block width, on dissipative and unitary models alike."""

    @pytest.mark.parametrize("name,build", BUNDLED_MODELS)
    def test_wide_step_changes_nothing(self, name, build, kernel_passes):
        liou, times = bundled_model(name, build)
        states, numbers = oracle_states(liou, times)
        [(stops, n_blocks, h)] = kernel_passes
        for dt in (h, stops[-1]):
            capped, capped_numbers = oracle_states(liou, times, dt)
            assert kernel_passes[-1][1:] == (n_blocks, h)
            assert capped_numbers == numbers
            assert all(np.array_equal(a, b) for a, b in zip(capped, states))

    @pytest.mark.parametrize("name,build", BUNDLED_MODELS)
    def test_narrow_step_adds_blocks(self, name, build, kernel_passes):
        liou, times = bundled_model(name, build)
        free = oracle._run_brute_force(liou, times, None)[0]
        [(stops, _, h)] = kernel_passes
        dt = h / 2.5
        capped = oracle._run_brute_force(liou, times, dt)[0]
        assert kernel_passes[-1][1] == math.ceil(stops[-1] / dt)
        assert (np.abs(capped - free).max(axis=0) <= 1e-10 * np.abs(free).max(axis=0)).all()

    @pytest.mark.parametrize("name,build", BUNDLED_MODELS)
    def test_bad_step_refused(self, name, build):
        liou, times = bundled_model(name, build)
        for dt in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                oracle._run_brute_force(liou, times, dt)
        key = "dt_full" if build is build_full_model else "dt_intermediate"
        with pytest.raises(ValueError, match=f"^{key} must be finite and positive, got -1.0$"):
            validate_elimination(*bundled_oracle(name), **{key: -1.0})


def plain_rk4(rhs, y, t0, h, n_steps):
    """Textbook RK4 in the full space: the reference of the orbit-coordinate kernels."""
    for k in range(n_steps):
        t = t0 + k * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def rk4_stepping(rhs, y0, times, h):
    """The function k -> plain RK4 states at sorted ``times`` from y0 at t = 0.

    The clock runs through every output; each gap takes k times the fewest
    equal steps of at most ``h``, so doubling k halves every step.
    """
    def stepped(k):
        states, y, start = [], y0, 0.0
        for end in times:
            n_steps = k * math.ceil((end - start) / h)
            if n_steps:
                y = plain_rk4(rhs, y, start, (end - start) / n_steps, n_steps)
            states.append(y)
            start = end
        return np.array(states)
    return stepped


def assert_rk4_limit(value, stepped):
    """``value`` is the limit of ``stepped`` (:func:`rk4_stepping`) as its steps shrink.

    The gaps at k = 1, 2, 4 shrink 16x per halving (each ratio within 16 +- 1):
    fourth-order error with value as its limit, which puts value within a
    fourteenth of the k = 4 gap of that limit.  The k = 4 gap is below 1e-7
    of scale, so the ratios are not read off rounding.
    """
    gaps = [np.abs(value - stepped(k)).max() for k in (1, 2, 4)]
    assert 15.0 <= gaps[0] / gaps[1] <= 17.0 and 15.0 <= gaps[1] / gaps[2] <= 17.0, gaps
    assert 1e-13 < gaps[2] / np.abs(value).max() <= 1e-7, gaps


def assert_unitary_limit(liou, psi0, times):
    """``_unitary_states`` at ``times`` is the limit of plain full-space RK4."""
    def schroedinger(t, psi):
        return -1j * (liou.hamiltonian_at(t) @ psi)

    assert_rk4_limit(_unitary_states(liou, psi0, times),
                     rk4_stepping(schroedinger, psi0, times, 0.25 / hamiltonian_rate(liou)))


def assert_master_limit(liou, rho0, times):
    """``integrate_master`` at ``times`` is the limit of plain full-space RK4; its result."""
    res = integrate_master(liou, rho0, times)
    assert_rk4_limit(np.array([s.entries for s in res.states]),
                     rk4_stepping(dense_lindblad_rhs(liou), rho0.entries, times,
                                  0.25 / hamiltonian_rate(liou)))
    return res


def product_state(basis, levels):
    """|levels[0] levels[1] ..., 0> as a state vector."""
    index = 0
    for level in levels:
        index = index * basis.n_levels + basis.levels.index(level)
    psi = np.zeros(basis.dim, complex)
    psi[index * (basis.cavity_cutoff + 1)] = 1.0
    return psi


class TestExchangeOrbits:
    """Exchange-orbit coordinates against the limit of plain full-space RK4."""

    @staticmethod
    def assert_short_master_limit(liou, rho0):
        """rho at t = 1.5 / ``hamiltonian_rate`` is the limit of plain full-space RK4."""
        assert_master_limit(liou, rho0, np.array([1.5 / hamiltonian_rate(liou)]))

    def test_orbit_counts(self, isometry_shapes):
        p, spec, _ = bundled_oracle("oracle_n2.cfg")
        for build in (build_full_model, build_intermediate_model):
            liou = build(p, spec, compensate_stark=True)
            _unitary_states(liou, liou.basis.vacuum_all_a(), np.array([0.0]))
        assert isometry_shapes == [(27, 18), (12, 9)]
        # the benchmark's dissipative op, and the four-level model at N = 3
        for n_atoms, full, reduced in ((2, 1024, 544), (3, 16384, 3264)):
            liou = build_full_model(lossy_params(n_atoms, 4), HilbertSpec(n_atoms, 4, 1))
            rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
            assert _lindblad_generator(liou, rho0)[2].shape == (full, reduced)

    @pytest.mark.parametrize("n_atoms,reduced", [(2, 12), (3, 20)])
    def test_periodic_unitary_matches_full_stepping(self, n_atoms, reduced,
                                                     isometry_shapes):
        liou = build_full_model(replace(n2_matched(), n_atoms=n_atoms),
                                HilbertSpec(n_atoms, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        psi0 = liou.basis.vacuum_all_a()
        assert_unitary_limit(liou, psi0, np.array([0.0, 0.6, 1.0, 2.3]) * period)
        assert isometry_shapes == [(liou.basis.dim, reduced)]

    @pytest.mark.parametrize("n_atoms,levels,reduced", [(2, 4, 544), (3, 3, 660)])
    def test_dissipative_full_matches_full_stepping(self, n_atoms, levels, reduced,
                                                     isometry_shapes):
        liou = build_full_model(lossy_params(n_atoms, levels),
                                HilbertSpec(n_atoms, levels, 1))
        self.assert_short_master_limit(liou, DensityMatrix.from_pure(liou.basis.vacuum_all_a()))
        assert isometry_shapes == [(liou.basis.dim ** 2, reduced)]

    def test_non_symmetric_start_takes_the_identity(self, isometry_shapes):
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        psi0 = product_state(liou.basis, "ea")
        assert_unitary_limit(
            liou, psi0, np.array([0.0, 0.6, 1.3]) * 2.0 * math.pi / liou.max_frequency)
        lossy = build_full_model(lossy_params(2, 4), HilbertSpec(2, 4, 1))
        self.assert_short_master_limit(
            lossy, DensityMatrix.from_pure(product_state(lossy.basis, "ea")))
        assert isometry_shapes == [(18, 18), (1024, 1024)]

    def test_jump_on_one_atom_takes_the_identity(self, isometry_shapes):
        full = build_full_model(lossy_params(2, 3), HilbertSpec(2, 3, 1))
        basis = full.basis
        jump = math.sqrt(0.5) * basis.atom_op(0, basis.transition("a", "e"))
        liou = replace(full, jump_operators=(jump,))
        self.assert_short_master_limit(liou, DensityMatrix.from_pure(basis.vacuum_all_a()))
        assert isometry_shapes == [(324, 324)]


def attribute_state(obj):
    """Every attribute of ``obj``, arrays by their bytes and dicts by their items."""
    def frozen(value):
        if isinstance(value, dict):
            return tuple((k, frozen(v)) for k, v in value.items())
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return value
    return {name: frozen(value) for name, value in vars(obj).items()}


class TestImmutability:
    def test_evolving_and_extracting_leave_every_attribute(self):
        prop = DickePropagator(effective_coeffs(n2_matched()), 6)
        before = attribute_state(prop)
        prop.evolve_amplitudes(stretched_state(6).amplitudes, [0.0, 0.3])
        assert attribute_state(prop) == before
        basis = Basis(2, ("a", "b", "e"), 1)
        before = attribute_state(basis)
        extract_moments(DensityMatrix.from_pure(basis.vacuum_all_a()), basis)
        assert attribute_state(basis) == before
        with pytest.raises(ValueError):
            basis.atom_permutations()[0, 0] = 1

    def test_kernels_leave_the_basis(self):
        lossy = build_full_model(lossy_params(2, 3), HilbertSpec(2, 3, 1))
        before = attribute_state(lossy.basis)
        integrate_master(lossy, DensityMatrix.from_pure(lossy.basis.vacuum_all_a()), 0.05)
        for liou in (replace(lossy, jump_operators=()),
                     replace(lossy, jump_operators=(), hamiltonian_oscillating=())):
            _unitary_states(liou, liou.basis.vacuum_all_a(), np.array([0.0, 0.3]))
        assert attribute_state(lossy.basis) == before


class TestExtractMoments:
    def test_initial_product_state(self):
        basis = Basis(3, ("a", "b", "e"), 2)
        state, photons = extract_moments(
            DensityMatrix.from_pure(basis.vacuum_all_a()), basis)
        assert state.as_array() == pytest.approx(initial_state(3).as_array())
        assert photons == 0.0

    def test_single_atom_superposition(self):
        basis = Basis(1, ("a", "b", "e"), 1)
        psi = np.zeros(basis.dim, complex)
        psi[0] = psi[2] = 1.0 / math.sqrt(2.0)     # (|a> + |b>) x |0>
        state, _ = extract_moments(DensityMatrix.from_pure(psi), basis)
        assert state.jz == pytest.approx(0.0)
        assert state.jpm == pytest.approx(0.5)
        assert state.jmp == pytest.approx(0.5)
        assert state.jpp == pytest.approx(0.0)

    def test_two_atom_product_state(self):
        basis = Basis(2, ("a", "b", "e"), 1)
        single = np.array([1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        vac = np.array([1.0, 0.0], dtype=complex)
        psi = np.kron(np.kron(single, single), vac)
        state, photons = extract_moments(DensityMatrix.from_pure(psi), basis)
        assert state.jz == pytest.approx(0.0)
        assert state.nab == pytest.approx(2.0)
        assert state.jpm == pytest.approx(1.5)
        assert state.jmp == pytest.approx(1.5)
        assert state.jpp == pytest.approx(0.5)
        assert photons == pytest.approx(0.0)

    def test_operators_built_once_per_basis(self):
        basis = Basis(2, ("a", "b", "e"), 1)
        ops = basis.collective_ops()
        assert basis.collective_ops() is ops
        jp = basis.collective("a", "b")
        assert np.array_equal(ops["jpm"], jp @ jp.conj().T)


def cavity_frame_shifted(p, base, lam=37.0):
    """``base`` with the cavity frame shifted by ``lam``: four oscillating terms."""
    basis = base.basis
    c = basis.annihilator()
    num = c.conj().T @ c
    v_c = p.g_a * (c @ basis.collective("e", "a"))
    v_cd = np.conj(p.g_b) * (c.conj().T @ basis.collective("b", "e"))
    return Liouvillian(
        basis=basis,
        hamiltonian_static=base.hamiltonian_static - lam * num,
        hamiltonian_oscillating=(
            (v_c, p.omega_ab - lam), (v_c.conj().T, -(p.omega_ab - lam)),
            (v_cd, p.omega_ab + lam), (v_cd.conj().T, -(p.omega_ab + lam))),
        jump_operators=base.jump_operators)


class TestFrameInvariance:
    def test_cavity_frame_shift_leaves_diagonals(self):
        p = n2_matched(omega1=8.0, dissipation=0.4)
        spec = HilbertSpec(2, 4, 1)
        base = build_full_model(p, spec)
        basis = base.basis
        shifted = cavity_frame_shifted(p, base)
        rho_a = DensityMatrix.from_pure(basis.vacuum_all_a())
        t = 0.9
        res_a = integrate_master(base, rho_a, t)
        res_b = integrate_master(shifted, rho_a, t)
        m_a, ph_a = extract_moments(res_a.rho, basis)
        m_b, ph_b = extract_moments(res_b.rho, basis)
        assert m_b.jz == pytest.approx(m_a.jz, abs=1e-8)
        assert m_b.nab == pytest.approx(m_a.nab, abs=1e-8)
        assert ph_b == pytest.approx(ph_a, abs=1e-8)


class TestValidateElimination:
    def test_zero_drive_is_exact(self):
        p = PhysicalParams(n_atoms=2, delta_1=100.0, omega_ab=120.0, delta=1.0)
        rep = validate_elimination(p, HilbertSpec(2, 3, 1), [0.0, 1.0, 2.0])
        for mom in ("jz", "nab", "jpp", "jpm", "jmp"):
            assert rep.max_dev("fi", mom) == 0.0
            assert rep.max_dev("il", mom) == 0.0

    def test_zero_detuning_refused_before_the_builds(self):
        # without loss, the AC-Stark shifts of the builders divide by delta_1
        p = replace(n2_matched(), delta_1=0.0)
        with pytest.raises(ValueError, match="delta_1 and delta_2 must be nonzero"):
            validate_elimination(p, HilbertSpec(2, 3, 1), [0.0, 1.0])

    def test_elimination_chain_in_validity_regime(self, quarter_pair_report):
        _, rep = quarter_pair_report
        assert rep.in_validity_regime
        assert not rep.population_growth
        assert rep.max_dev("fi", "jz") < 0.10
        assert rep.max_dev("fi", "jpp") < 0.10

    @pytest.mark.parametrize("omega1, worst", [(4.0, "pass"), (20.0, "warn")])
    def test_validity_regime_is_the_pass_verdict(self, omega1, worst):
        rep = validate_elimination(n2_matched(omega1), HilbertSpec(2, 3, 1), [0.0, 0.5])
        assert rep.validity.worst == worst
        assert rep.in_validity_regime == (worst == "pass")

    def test_excited_population_bounded(self, quarter_pair_report):
        p, rep = quarter_pair_report
        v = check_validity(p)
        bound = p.n_atoms * (v.ratio_excited_1 + v.ratio_excited_2)
        assert rep.excited_population.max() <= 2.0 * bound

    def test_photon_number_bounded(self, quarter_pair_report):
        # kappa' = 0 here, so the cavity transient never damps and can beat
        # against the adiabatic part: amplitude interference caps the photon
        # number at 4x the eliminated-mode estimate instead of 2x
        p, rep = quarter_pair_report
        est = rep.metadata["photon_estimate_trace"]
        assert est[0] == pytest.approx(rep.metadata["photon_estimate"], rel=5e-3)
        for level in ("intermediate", "full"):
            ratio = rep.photons[level][1:] / np.maximum(est[1:], 1e-300)
            assert np.all(ratio < 4.0)
            assert rep.photons[level].max() < 1e-2   # still far below one photon

    def test_regime_exit_grows_deviations(self, quarter_pair_report):
        _, rep_w = quarter_pair_report
        strong = n2_matched(omega1=40.0)        # tenfold drive leaves validity
        grid_s = strobed_grid(strong, coherent_pair_transfer_time(strong) / 4.0, 5)
        rep_s = validate_elimination(strong, HilbertSpec(2, 3, 2), grid_s)
        assert not rep_s.in_validity_regime or rep_s.validity.worst != "pass"
        assert rep_s.max_dev("fi", "jpp") > rep_w.max_dev("fi", "jpp")

    def test_dissipative_three_way_short_horizon(self, dissipative_report):
        rep, _, _ = dissipative_report
        assert rep.in_validity_regime
        for mom in ("jz", "jpm", "nab"):
            assert rep.max_dev("fi", mom) < 0.05
            assert rep.max_dev("il", mom) < 0.05
        # the pair coherences need the full model's clock to run through
        # every output time
        for mom in ("jpp", "jmm", "jmp"):
            assert rep.max_dev("fi", mom) < 0.05
        # cavity transient interference keeps photons within the 4x envelope
        # of the eliminated-mode estimate and far below a single photon
        est = rep.metadata["photon_estimate_trace"]
        for level in ("intermediate", "full"):
            assert rep.photons[level].max() <= 4.0 * est.max()
            assert rep.photons[level].max() < 1e-2

    def test_one_master_call_per_dissipative_model(self, dissipative_report):
        rep, calls, builds = dissipative_report
        p, spec = dissipative_params(), HilbertSpec(2, 4, 1)
        models = [build_full_model(p, spec, compensate_stark=True),
                  build_intermediate_model(p, spec, compensate_stark=True)]
        assert len(calls) == len(builds) == 2
        for res, liou in zip(calls, models):
            # one pass in equal blocks of x = rate h <= 8 over [0, 6]
            rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a()).entries
            rate = _taylor_rate(*_lindblad_generator(liou, rho0)[:2])   # the real fold's
            assert res.steps == math.ceil(6.0 * rate / 8.0)
            assert res.dt == 6.0 / res.steps
            assert len(res.states) == len(rep.times)
            assert res.trace_drift <= 1e-8

    def test_full_model_matches_single_span_runs(self):
        # 0.25 is 2.39 periods of the omega_ab couplings: a clock restarted at
        # every output time would put them out of phase
        p, spec = dissipative_params(), HilbertSpec(2, 4, 1)
        rep = validate_elimination(p, spec, [0.0, 0.25, 0.5])
        full = build_full_model(p, spec, compensate_stark=True)
        rho0 = DensityMatrix.from_pure(full.basis.vacuum_all_a())
        spans = np.array([extract_moments(integrate_master(full, rho0, t).rho,
                                          full.basis)[0].as_array() for t in rep.times])
        ref = oracle._frame_aligned(spans, rep.times, p.omega_ab)
        dev = np.abs(rep.moments["full"] - ref).max(axis=0)
        assert (dev <= 1e-7 * np.abs(ref).max(axis=0)).all()

    def test_linear_level_is_propagate_at_each_time(self, quarter_pair_report):
        p, rep = quarter_pair_report
        gen, v0 = assemble_generator(p), initial_state(p.n_atoms)
        ref = np.array([propagate(gen, v0, t).as_array() for t in rep.times])
        lin = rep.moments["linear"]
        assert np.abs(lin - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_linear_level_raises(self, monkeypatch):
        # a generator that overflows exp(M t) at the second output time
        growing = MomentGenerator(m=1e4 * np.eye(6, dtype=complex))
        monkeypatch.setattr(oracle, "assemble_generator", lambda params: growing)
        with pytest.raises(PropagationError, match="propagation to t=0.5"):
            validate_elimination(n2_matched(), HilbertSpec(2, 3, 1), [0.0, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"finite nonnegative times, got \[{bad}\]"):
            validate_elimination(n2_matched(), HilbertSpec(2, 3, 1), [0.0, bad, 0.5])

    def test_report_records_shape(self):
        p = n2_matched()
        rep = validate_elimination(p, HilbertSpec(2, 3, 1), [0.0, 0.5])
        doc = rep.to_json_dict()
        assert len(doc["records"]) == 2 * 6
        rec = doc["records"][0]
        assert set(rec) == {"t", "moment", "full", "intermediate", "linear",
                            "rel_dev_fi", "rel_dev_il"}


class TestPairTransferTime:
    def test_two_atom_value(self):
        p = n2_matched()
        co = effective_coeffs(p)
        expected = math.pi / (2.0 * abs(co.c_pp) * 2.0)
        assert coherent_pair_transfer_time(p) == pytest.approx(expected, rel=1e-12)

    def test_undefined_without_pair_coupling(self):
        p = PhysicalParams(n_atoms=2, omega_1=1.0, omega_2=0.0, delta_1=100.0,
                           omega_ab=120.0, delta=1.0)
        with pytest.raises(ValueError):
            coherent_pair_transfer_time(p)
