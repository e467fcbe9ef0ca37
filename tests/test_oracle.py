import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cavspin import oracle
from cavspin.dicke import effective_coeffs
from cavspin.moments import (MomentGenerator, PropagationError, assemble_generator,
                             initial_state, propagate)
from cavspin.oracle import (Basis, DensityMatrix, HilbertSpec, IntegrationError,
                            Liouvillian, ModelError, _lindblad_rhs, _rk4, _step_count,
                            _unitary_states, build_full_model, build_intermediate_model,
                            coherent_pair_transfer_time, extract_moments,
                            integrate_master, photon_estimate, recommended_dt,
                            validate_elimination)
from cavspin.params import PhysicalParams, check_validity, match_raman, stark_shifts


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


@pytest.fixture(scope="module")
def dissipative_report():
    """Short dissipative three-way run, recording every master-equation call.

    The benchmark's oracle check wraps ``cavspin.oracle.integrate_master`` the
    same way and fails a dissipative run that records no trace drift.
    """
    p = PhysicalParams(n_atoms=2, omega_1=1.2, omega_2=0.0, delta_1=30.0,
                       omega_ab=60.0, delta=0.5, kappa=0.5, gamma_a=0.1,
                       gamma_b=0.1, gamma_o=0.1)
    p = p.with_drives(p.omega_1, match_raman(p))
    calls = []

    def recording(*args, **kwargs):
        result = integrate_master(*args, **kwargs)
        calls.append(result)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "integrate_master", recording)
        rep = validate_elimination(p, HilbertSpec(2, 4, 1), np.linspace(0.0, 6.0, 3))
    return rep, calls


@pytest.fixture(scope="module")
def quarter_pair_report():
    p = n2_matched()
    horizon = coherent_pair_transfer_time(p) / 4.0
    rep = validate_elimination(p, HilbertSpec(2, 3, 2), strobed_grid(p, horizon))
    return p, rep


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


class TestFullModel:
    def test_frame_refusals(self):
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=0.0)
        with pytest.raises(ModelError):
            build_full_model(p, HilbertSpec(1, 3, 1))
        p = PhysicalParams(n_atoms=1, delta_1=5.0, omega_ab=2.0, gamma_o=0.3)
        with pytest.raises(ModelError):
            build_full_model(p, HilbertSpec(1, 3, 1))

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

    def test_fourth_order_convergence(self):
        p = PhysicalParams(n_atoms=1, omega_1=4.0, omega_2=5.0, delta_1=12.0,
                           omega_ab=9.0, delta=0.7, kappa=0.4, gamma_a=0.5,
                           gamma_b=0.3, gamma_o=0.2)
        liou = build_full_model(p, HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        t = 0.8
        dt0 = recommended_dt(liou)
        results = [integrate_master(liou, rho0, t, dt0 / k).rho.entries
                   for k in (1, 2, 4)]
        first = np.abs(results[0] - results[1]).max()
        second = np.abs(results[1] - results[2]).max()
        assert first < 16.0 * second * 1.25
        assert first > 8.0 * second

    @pytest.mark.parametrize("name,value", [
        ("dt", -1.0), ("dt", 0.0), ("dt", math.nan), ("dt", math.inf),
        ("t", -1.0), ("t", math.nan), ("t", math.inf)])
    def test_bad_time_or_step_refused(self, name, value, monkeypatch):
        liou = build_full_model(lossy_params(1, 4), HilbertSpec(1, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        args = {"t": 0.8, "dt": recommended_dt(liou)}
        args[name] = value
        monkeypatch.setattr(oracle, "_rk4", None)       # refused before any step
        with pytest.raises(ValueError, match=rf"\b{name} must be finite"):
            integrate_master(liou, rho0, **args)

    def test_coarse_step_rejected(self):
        p = n2_matched()
        liou = build_full_model(p, HilbertSpec(2, 3, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        with pytest.raises(ValueError):
            integrate_master(liou, rho0, 1.0, dt=10.0 / p.omega_ab)

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


class TestSparseLindblad:
    @pytest.mark.parametrize("kind,n_atoms,levels,cutoff", [
        ("full", 1, 3, 1), ("full", 1, 4, 2), ("full", 2, 3, 2), ("full", 2, 4, 1),
        ("intermediate", 2, 4, 1), ("frame-shifted", 2, 4, 1)])
    def test_matches_dense_rhs(self, kind, n_atoms, levels, cutoff):
        liou = lossy_model(kind, n_atoms, levels, cutoff)
        assert liou.has_dissipation
        sparse_rhs, dense_rhs = _lindblad_rhs(liou), dense_lindblad_rhs(liou)
        rng = np.random.default_rng(7)
        dim = liou.basis.dim
        for t in (0.0, 0.37, 2.1, 11.3):
            x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = x @ x.conj().T
            rho /= np.trace(rho)
            ref = dense_rhs(t, rho)
            assert np.abs(sparse_rhs(t, rho) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_integration_matches_dense_stepping(self):
        liou = build_full_model(n2_matched(dissipation=0.3), HilbertSpec(2, 4, 1))
        rho0 = DensityMatrix.from_pure(liou.basis.vacuum_all_a())
        t, dt = 0.7, recommended_dt(liou)
        res = integrate_master(liou, rho0, t)
        n_steps, h = _step_count(t, dt)
        ref = _rk4(dense_lindblad_rhs(liou), rho0.entries, 0.0, h, n_steps, hermitian=True)
        assert (res.steps, res.dt) == (n_steps, h)
        assert np.abs(res.rho.entries - ref).max() <= 1e-10


class TestUnitaryStates:
    @staticmethod
    def schroedinger(liou, psi, t0, t1, dt):
        """Plain fixed-step RK4 of the Schroedinger equation over [t0, t1]."""
        n_steps, h = _step_count(t1 - t0, dt)
        return _rk4(lambda t, y: -1j * (liou.hamiltonian_at(t) @ y), psi, t0, h, n_steps)

    def test_periodic_model_matches_plain_stepping(self):
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        dt = recommended_dt(liou, 0.005)
        psi0 = liou.basis.vacuum_all_a()
        times = np.array([0.0, 2.5, 7.25]) * period
        states = _unitary_states(liou, psi0, times)
        for t, psi in zip(times, states):
            ref = psi0
            n_periods = int(t // period)
            for k in range(n_periods):
                ref = self.schroedinger(liou, ref, k * period, (k + 1) * period, dt)
            if t > n_periods * period:
                ref = self.schroedinger(liou, ref, n_periods * period, t, dt)
            assert np.abs(psi - ref).max() <= 1e-10

    def test_period_edge_cases_match_plain_stepping(self):
        p = PhysicalParams(n_atoms=1, omega_1=2.0, omega_2=3.0, delta_1=12.0,
                           omega_ab=6.5, delta=0.7)
        liou = build_full_model(p, HilbertSpec(1, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        dt = recommended_dt(liou, 0.005)
        n_steps, h = _step_count(period, dt)
        # 6 periods leave a remainder that rounds up past the last step boundary
        assert int(6.0 * period // period) == 5
        assert (6.0 * period - 5.0 * period) // h >= n_steps
        times = np.array([
            1.0 * period, 2.0 * period,                   # exact multiples
            2.0 * period + 0.3 * h,                       # inside the first step
            period + 5.2 * h, period + 5.7 * h,           # one shared step boundary
            np.nextafter(3.0 * period, 0.0), 6.0 * period,  # round to whole periods
        ])
        psi0 = liou.basis.vacuum_all_a()
        states = _unitary_states(liou, psi0, times)
        whole = [psi0]
        for k in range(int(times.max() // period)):
            whole.append(self.schroedinger(liou, whole[-1], k * period, (k + 1) * period, dt))
        for t, psi in zip(times, states):
            n_periods = int(t // period)
            ref = whole[n_periods]
            if t > n_periods * period:
                ref = self.schroedinger(liou, ref, n_periods * period, t, dt)
            assert np.abs(psi - ref).max() <= 1e-10

    def test_period_is_stepped_once(self, monkeypatch):
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        n_steps, _ = _step_count(period, recommended_dt(liou, 0.005))
        steps = []

        def counting(rhs, y, t0, h, n, hermitian=False):
            steps.append(n)
            return _rk4(rhs, y, t0, h, n, hermitian)

        monkeypatch.setattr(oracle, "_rk4", counting)
        times = np.array([0.0, 0.4, 2.5, 7.25, 12.0]) * period
        _unitary_states(liou, liou.basis.vacuum_all_a(), times)
        assert sum(steps) <= n_steps + len(times)

    def test_hamiltonian_built_once_per_stage_time(self, monkeypatch):
        # an RK4 step meets H at t, t + h/2 (twice) and t + h, and the next
        # step starts at t + h: two builds per step, plus one per _rk4 call
        liou = build_full_model(n2_matched(), HilbertSpec(2, 3, 1))
        period = 2.0 * math.pi / liou.max_frequency
        steps, builds = [], []

        def counting_rk4(rhs, y, t0, h, n, hermitian=False):
            steps.append(n)
            return _rk4(rhs, y, t0, h, n, hermitian)

        build = Liouvillian.hamiltonian_at

        def counting_build(self, t):
            builds.append(t)
            return build(self, t)

        monkeypatch.setattr(oracle, "_rk4", counting_rk4)
        monkeypatch.setattr(Liouvillian, "hamiltonian_at", counting_build)
        times = np.array([0.0, 0.4, 2.5, 7.25, 12.0]) * period
        _unitary_states(liou, liou.basis.vacuum_all_a(), times)
        assert sum(steps) > 0
        assert len(builds) <= 2 * sum(steps) + len(steps)

    def test_static_model_matches_expm(self):
        liou = build_intermediate_model(n2_matched(), HilbertSpec(2, 3, 1))
        assert not liou.hamiltonian_oscillating and not liou.has_dissipation
        psi0 = liou.basis.vacuum_all_a()
        times = np.array([0.0, 0.7, 3.1, 40.0])
        states = _unitary_states(liou, psi0, times)
        for t, psi in zip(times, states):
            ref = expm(-1j * liou.hamiltonian_static * t) @ psi0
            assert np.abs(psi - ref).max() <= 1e-10


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
        rep, _ = dissipative_report
        assert rep.in_validity_regime
        for mom in ("jz", "jpm", "nab"):
            assert rep.max_dev("fi", mom) < 0.05
            assert rep.max_dev("il", mom) < 0.05
        # cavity transient interference keeps photons within the 4x envelope
        # of the eliminated-mode estimate and far below a single photon
        est = rep.metadata["photon_estimate_trace"]
        for level in ("intermediate", "full"):
            assert rep.photons[level].max() <= 4.0 * est.max()
            assert rep.photons[level].max() < 1e-2

    def test_one_master_call_per_dissipative_interval(self, dissipative_report):
        _, calls = dissipative_report
        # two models, two nonzero output intervals each
        assert len(calls) == 4
        assert all(res.trace_drift <= 1e-8 for res in calls)

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
