import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavspin import dicke as dicke_mod
from cavspin.dicke import (DickePropagator, DickeState, EffectiveCoeffs,
                           _hamiltonian_bands, _moment_array, dicke_evolve,
                           dicke_moments, effective_coeffs, ideal_trace,
                           oat_min_squeezing, oat_moments, stretched_state)
from cavspin.moments import _xi2, squeezing_parameter
from cavspin.params import PhysicalParams, demo_params, derive, match_raman


def _dense_hamiltonian(coeffs: EffectiveCoeffs, n_atoms: int) -> np.ndarray:
    """Dense reference matrix of the banded ladder Hamiltonian."""
    diag, off2 = _hamiltonian_bands(coeffs, n_atoms)
    h = np.diag(diag.astype(complex))
    idx = np.arange(n_atoms - 1)
    h[idx + 2, idx] = off2
    h[idx, idx + 2] = np.conj(off2)
    return h


def matched_params(n_atoms=100, omega1=10.0):
    p = PhysicalParams(n_atoms=n_atoms, omega_1=omega1, omega_2=0.0,
                       delta_1=2000.0, omega_ab=300.0, delta=4.0)
    return p.with_drives(p.omega_1, match_raman(p))


class TestEffectiveCoeffs:
    def test_matched_drive_collapses_to_twisting(self):
        p = matched_params()
        co = effective_coeffs(p)
        chi = derive(p).chi
        assert chi == pytest.approx(abs(p.omega_1 * p.g_b / p.delta_1) ** 2 / p.delta,
                                    rel=1e-12)
        for c in (co.c_pm, co.c_mp, co.c_pp, co.c_mm):
            assert complex(c) == pytest.approx(chi / 4.0, rel=1e-12)

    def test_single_drive_keeps_only_dispersive_term(self):
        p = PhysicalParams(n_atoms=10, omega_1=3.0, omega_2=0.0, delta_1=50.0,
                           omega_ab=5.0, delta=2.0)
        co = effective_coeffs(p)
        assert co.c_pp == 0 and co.c_mm == 0 and co.c_mp == 0
        assert co.c_pm == pytest.approx(9.0 / (4 * 2500 * 2.0), rel=1e-12)

    def test_demo_coefficients(self):
        p = demo_params()
        co = effective_coeffs(p)
        assert co.c_pm == pytest.approx(1e8 / (4 * 1e10 * 500), rel=1e-12)
        assert co.c_mp == pytest.approx(1e8 / (4 * 1.1e5 ** 2 * 500), rel=1e-12)
        assert complex(co.c_pp) == pytest.approx(1e8 / (4 * 1e5 * 1.1e5 * 500),
                                                 rel=1e-12)

    def test_zero_cavity_detuning_refused(self):
        p = PhysicalParams(n_atoms=2, omega_1=1.0, omega_2=1.0, delta_1=10.0,
                           omega_ab=1.0, delta=0.0)
        with pytest.raises(ValueError):
            effective_coeffs(p)

    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            EffectiveCoeffs(c_pm=1.0, c_mp=1.0, c_pp=1.0, c_mm=2.0)
        with pytest.raises(ValueError):
            EffectiveCoeffs(c_pm=1j, c_mp=1.0, c_pp=0.0, c_mm=0.0)


def random_state(rng, n):
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return amps / np.linalg.norm(amps)


class TestDickeEvolve:
    def test_time_zero(self):
        co = EffectiveCoeffs(0.1, 0.1, 0.1, 0.1)
        state = dicke_evolve(co, 6, 0.0)
        assert state.amplitudes == pytest.approx(stretched_state(6).amplitudes)

    def test_two_atom_pair_oscillation(self):
        # H = chi Jx^2 on |m=+1>: P(m=-1) = sin^2(chi t / 2), m=0 stays empty
        chi = 0.8
        co = EffectiveCoeffs(chi / 4, chi / 4, chi / 4, chi / 4)
        for t in (0.3, 1.1, 2.9):
            amps = dicke_evolve(co, 2, t).amplitudes
            assert abs(amps[0]) ** 2 == pytest.approx(math.sin(chi * t / 2) ** 2,
                                                      abs=1e-12)
            assert abs(amps[1]) ** 2 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 40])
    def test_against_dense_matrix_exponential(self, n):
        co = EffectiveCoeffs(0.013, 0.008, complex(0.004, 0.003),
                             complex(0.004, -0.003))
        t = 3.7
        direct = expm(-1j * t * _dense_hamiltonian(co, n)) @ \
            stretched_state(n).amplitudes
        state = dicke_evolve(co, n, t)
        assert np.abs(state.amplitudes - direct).max() < 1e-10

    def test_unitarity_long_run(self):
        co = EffectiveCoeffs(0.02, 0.01, complex(0.005, 0.001),
                             complex(0.005, -0.001))
        prop = DickePropagator(co, 60)
        amps = prop.evolve_amplitudes(stretched_state(60).amplitudes, [1e3])[0]
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-9

    @pytest.mark.parametrize("coeffs", [
        EffectiveCoeffs(0.01, 0.02, complex(0.005, -0.002), complex(0.005, 0.002)),
        EffectiveCoeffs(0.013, -0.004, 0.0, 0.0),
    ], ids=["complex-pair-term", "diagonal-sectors"])
    @pytest.mark.parametrize("n", [1, 2, 3, 30, 31])
    def test_mixed_parity_states_match_dense_expm(self, n, coeffs):
        rng = np.random.default_rng(n)
        amps = random_state(rng, n)
        times = [0.0, 0.7, 5.0, 42.0]
        got = DickePropagator(coeffs, n).evolve_amplitudes(amps, times)
        h = _dense_hamiltonian(coeffs, n)
        for t, row in zip(times, got):
            assert np.abs(row - expm(-1j * t * h) @ amps).max() <= 1e-10

    @staticmethod
    def _check_twisting_closed_form(n):
        c = 0.37
        co = EffectiveCoeffs(c, c, c, c)
        times = [f * n ** (-2.0 / 3.0) / (4.0 * c) for f in (0.6, 1.2, 1.8)]
        amps = DickePropagator(co, n).evolve_amplitudes(stretched_state(n).amplitudes,
                                                        times)
        for t, vec in zip(times, amps):
            exact = dicke_moments(DickeState(n, vec / np.linalg.norm(vec))).as_array()
            closed = oat_moments(n, 4.0 * c * t)[0]
            scale = np.maximum(np.abs(closed), float(n))
            assert np.max(np.abs(exact - closed) / scale) <= 1e-10

    def test_stretched_state_matches_twisting_closed_form_at_3001(self):
        self._check_twisting_closed_form(3001)      # odd sector

    def test_stretched_state_matches_twisting_closed_form_at_3002(self):
        self._check_twisting_closed_form(3002)      # even sector

    def test_sector_workspace_stays_near_its_eigenvectors(self):
        # MRRR keeps the extra workspace O(n); divide and conquer (stevd)
        # allocates a second n x n matrix and reads about 2x here
        n, c = 1001, 0.37
        prop = DickePropagator(EffectiveCoeffs(c, c, c, c), n)
        start = stretched_state(n).amplitudes
        times = [f * n ** (-2.0 / 3.0) / (4.0 * c) for f in (0.6, 1.2, 1.8)]
        prop.evolve_amplitudes(start, times)        # the first call imports scipy
        tracemalloc.start()
        try:
            prop.evolve_amplitudes(start, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sector = (n + 1) // 2
        assert peak <= 1.25 * sector * sector * 8

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_refused(self, t):
        coeffs = EffectiveCoeffs(0.1, 0.1, 0.1, 0.1)
        prop = DickePropagator(coeffs, 4)
        refusal = rf" must hold finite nonnegative times, got \[{t}\]$"
        with pytest.raises(ValueError, match="^times" + refusal):
            prop.evolve_amplitudes(stretched_state(4).amplitudes, [0.5, t])
        with pytest.raises(ValueError, match="^t" + refusal):
            dicke_evolve(coeffs, 4, t)
        with pytest.raises(ValueError, match="^times" + refusal):
            ideal_trace(coeffs, 4, [0.0, t])

    def test_amplitude_length_checked(self):
        # an odd-sector-only vector one entry short fits that sector's length
        prop = DickePropagator(EffectiveCoeffs(0.1, 0.1, 0.1, 0.1), 4)
        with pytest.raises(ValueError):
            prop.evolve_amplitudes(np.array([0.0, 1.0, 0.0, 0.0]), [1.0])

    def test_refuses_oversized_systems(self):
        with pytest.raises(ValueError):
            dicke_evolve(EffectiveCoeffs(0.1, 0.1, 0.1, 0.1), 10 ** 4 + 1, 1.0)

    @pytest.mark.parametrize("n", [-1, 0])
    def test_refuses_empty_systems(self, n):
        coeffs = EffectiveCoeffs(0.1, 0.1, 0.1, 0.1)
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            DickePropagator(coeffs, n)
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            stretched_state(n)
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            dicke_evolve(coeffs, n, 1.0)

    def test_integral_float_count_works_like_the_int(self):
        coeffs = EffectiveCoeffs(0.1, 0.1, 0.1, 0.1)
        state, twin = dicke_evolve(coeffs, 10.0, 0.7), dicke_evolve(coeffs, 10, 0.7)
        assert type(state.n_atoms) is int and state.n_atoms == 10
        assert np.array_equal(state.amplitudes, twin.amplitudes)

    def test_empty_times_refused(self):
        with pytest.raises(ValueError, match="times must be one time or a non-empty 1-D sequence"):
            ideal_trace(EffectiveCoeffs(0.1, 0.1, 0.1, 0.1), 4, [])

    def test_state_counts_its_atoms(self):
        amps = np.array([0.0, 0.0, 1.0], dtype=complex)
        state = DickeState(2.0, amps)
        assert type(state.n_atoms) is int and state.n_atoms == 2
        assert dicke_moments(state) == dicke_moments(DickeState(2, amps))
        with pytest.raises(ValueError, match="n_atoms must be >= 1"):
            DickeState(0, [1])
        with pytest.raises(ValueError, match="n_atoms must be an integer"):
            DickeState(1.5, amps)

    def test_state_normalization_checked(self):
        with pytest.raises(ValueError):
            DickeState(3, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))
        with pytest.raises(ValueError, match="not normalized"):
            DickeState(3, np.array([math.nan, 0.0, 0.0, 0.0], dtype=complex))


class TestDickeMoments:
    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_stretched_state(self, n):
        m = dicke_moments(stretched_state(n))
        assert m.as_array() == pytest.approx(
            np.array([n / 2, n, 0, 0, n, 0], dtype=complex))

    def test_two_atom_edge_superposition(self):
        # (|m=+1> + |m=-1>)/sqrt(2): three-level ladder algebra gives
        # <J+J+> = <1|J+J+|-1>/2 = 1 and <J+J-> = <J-J+> = 1
        amps = np.array([1.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)
        m = dicke_moments(DickeState(2, amps))
        assert m.jz == pytest.approx(0.0)
        assert m.jpp == pytest.approx(1.0)
        assert m.jpm + m.jmp == pytest.approx(2.0)

    def test_adjointness(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        amps /= np.linalg.norm(amps)
        m = dicke_moments(DickeState(8, amps))
        assert m.jmm == pytest.approx(np.conj(m.jpp), rel=1e-14)

    def test_xi2_matches_direct_angle_minimization(self):
        p = matched_params(n_atoms=40)
        co = effective_coeffs(p)
        state = dicke_evolve(co, 40, 0.3 / (40 * derive(p).chi) * 40 ** (1 / 3))
        m = dicke_moments(state)
        xi2, _ = squeezing_parameter(m, 40)
        thetas = np.linspace(0, np.pi, 40001, endpoint=False)
        var = ((m.jpm.real + m.jmp.real) / 4.0
               + 0.5 * np.real(m.jpp * np.exp(-2j * thetas)))
        direct = 40 * var.min() / m.jz.real ** 2
        assert xi2 == pytest.approx(direct, rel=1e-8)


def kitagawa_ueda_xi2(n, mu):
    """Closed-form N min Var(J_perp) / <J_z>^2 of exp(-i mu J_x^2) |all a>.

    With A = 1 - cos^(N-2) 2mu and B = 4 sin mu cos^(N-2) mu the minimal
    transverse variance is N/4 [1 + (N-1)(A - sqrt(A^2 + B^2))/4] and
    <J_z> = N/2 cos^(N-1) mu (Kitagawa & Ueda, PRA 47, 5138, 1993).  Evaluated
    at 40 digits with mpmath for each mu, then rounded to float64: in float64
    the powers alone are off by about N ulps.
    """
    out = []
    with mpmath.workdps(40):
        for m in np.atleast_1d(mu).tolist():
            m = mpmath.mpf(m)
            c = mpmath.cos(m)
            a = 1 - mpmath.cos(2 * m) ** (n - 2)
            b = 4 * mpmath.sin(m) * c ** (n - 2)
            out.append(float((1 + (n - 1) * (a - mpmath.sqrt(a * a + b * b)) / 4)
                             / c ** (2 * (n - 1))))
    return np.array(out)


#: atom numbers of the twisting accuracy checks, up to MAX_ATOMS, with the five
#: at which float64 powers taken directly miss the 1e-10 scan margin
TWISTING_CORPUS = (2, 3, 5, 10, 30, 100, 300, 1000, 3000, 4319, 5620, 7200, 8230,
                   9487, 10_000)


class TestTwisting:
    @pytest.mark.parametrize("n", [2, 7, 24])
    def test_closed_form_matches_ladder_evolution(self, n):
        c = 0.003
        co = EffectiveCoeffs(c, c, c, c)
        for t in (0.5, 4.0, 11.0):
            via_ladder = dicke_moments(dicke_evolve(co, n, t)).as_array()
            closed = oat_moments(n, 4 * c * t)[0]
            assert np.abs(via_ladder - closed).max() < 1e-11 * max(1.0, n * n / 4)

    @pytest.mark.parametrize("n,match", [(2.5, "an integer"), (-3, ">= 1"), (0, ">= 1")])
    def test_closed_form_checks_its_count(self, n, match):
        with pytest.raises(ValueError, match=f"n_atoms must be {match}"):
            oat_moments(n, [0.1])

    def test_closed_form_takes_an_integral_float_count(self):
        assert np.array_equal(oat_moments(7.0, [0.1, 0.2]), oat_moments(7, [0.1, 0.2]))

    def test_two_atoms_exact_half(self):
        xi2, t_min = oat_min_squeezing(2)
        assert xi2 == pytest.approx(0.5, abs=1e-4)
        assert t_min == pytest.approx(math.pi / 2, rel=5e-2)

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_scaling_band(self, n):
        xi2, _ = oat_min_squeezing(n)
        assert 0.5 <= xi2 * n ** (2.0 / 3.0) <= 2.0

    def test_monotone_improvement(self):
        assert oat_min_squeezing(1000)[0] < oat_min_squeezing(100)[0]

    def test_no_overflow_warning_where_jz_underflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(63, 67):
                xi2, _ = oat_min_squeezing(n)
                assert 0.0 < xi2 < 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 10 ** 4))
    @example(4319)
    @example(5620)
    @example(7200)
    @example(8230)
    @example(9487)
    def test_refinement_stays_in_the_bracket_and_beats_the_closed_form(self, n):
        seen = {}
        refine = dicke_mod._refined_min

        def spy(times, xi2, probe):
            seen.update(times=times, xi2=xi2)
            return refine(times, xi2, probe)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dicke_mod, "_refined_min", spy)
            xi2_min, t_min = oat_min_squeezing(n)
        grid, xi2 = seen["times"], seen["xi2"]
        assert xi2_min <= xi2.min()
        i = int(np.argmin(xi2))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        assert lo <= t_min <= hi
        scan = np.nanmin(kitagawa_ueda_xi2(n, np.linspace(lo, hi, 201)))
        assert xi2_min <= scan * (1.0 + 1e-10)

    @pytest.mark.parametrize("n", TWISTING_CORPUS)
    def test_closed_form_within_1e10_of_40_digits(self, n):
        guess = n ** (-2.0 / 3.0)
        mu = np.geomspace(guess / 30.0, min(30.0 * guess, 0.499 * math.pi), 60)
        got = _xi2(oat_moments(n, mu), n)
        ref = kitagawa_ueda_xi2(n, mu)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref)
        xi2_min, t_min = oat_min_squeezing(n)
        assert xi2_min == pytest.approx(kitagawa_ueda_xi2(n, t_min)[0], rel=1e-10)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            oat_min_squeezing(1)
        with pytest.raises(ValueError):
            oat_min_squeezing(10 ** 4 + 1)

    def test_moments_feed_shared_squeezing_formula(self):
        n = 200
        mom = oat_moments(n, 0.02)[0]
        from cavspin.moments import MomentState
        xi2, theta = squeezing_parameter(MomentState.from_array(mom), n)
        assert 0.0 < xi2 < 1.0
        assert 0.0 <= theta < np.pi


@st.composite
def propagators_and_states(draw):
    n = draw(st.integers(1, 60))
    rate = st.floats(-1.0, 1.0, allow_nan=False)
    c_pp = complex(draw(rate), draw(rate))
    coeffs = EffectiveCoeffs(draw(rate), draw(rate), c_pp, c_pp.conjugate())
    amps = random_state(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n)
    return DickePropagator(coeffs, n), amps


class TestPropagatorProperties:
    times = st.floats(0.0, 5.0, allow_nan=False)

    @settings(max_examples=60, deadline=None)
    @given(propagators_and_states(), times)
    def test_norm_preserved(self, case, t):
        prop, amps = case
        out = prop.evolve_amplitudes(amps, [t])[0]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(propagators_and_states(), times, times)
    def test_semigroup(self, case, t1, t2):
        prop, amps = case
        stepped = prop.evolve_amplitudes(prop.evolve_amplitudes(amps, [t2])[0], [t1])[0]
        direct = prop.evolve_amplitudes(amps, [t1 + t2])[0]
        assert np.abs(stepped - direct).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(propagators_and_states(), times)
    def test_evolved_jmm_is_conjugate_of_jpp(self, case, t):
        prop, amps = case
        out = prop.evolve_amplitudes(amps, [t])[0]
        m = dicke_moments(DickeState(prop.n_atoms, out / np.linalg.norm(out)))
        n = prop.n_atoms
        assert abs(m.jmm - np.conj(m.jpp)) <= 1e-12 * max(1.0, n * n / 4)


def _linear_vs_exact(n_atoms):
    from scipy.linalg import expm
    from cavspin.moments import assemble_generator, default_t_max, evolve_squeezing, \
        initial_state
    p = matched_params(n_atoms=n_atoms, omega1=10.0)
    trace = evolve_squeezing(p)
    co = effective_coeffs(p)
    gen = assemble_generator(p)
    v0 = initial_state(n_atoms).as_array()
    prop = DickePropagator(co, n_atoms)
    times = np.linspace(trace.t_min / 8.0, trace.t_min, 8)
    amps = prop.evolve_amplitudes(stretched_state(n_atoms).amplitudes, times)
    dev_jz = dev_jpp = 0.0
    for t, vec in zip(times, amps):
        exact = dicke_moments(DickeState(n_atoms, vec / np.linalg.norm(vec)))
        lin = expm(gen.m * t) @ v0
        dev_jz = max(dev_jz, abs(lin[0].real - exact.jz) / abs(exact.jz))
        dev_jpp = max(dev_jpp, abs(lin[2] - exact.jpp) / abs(exact.jpp))
    wide = np.linspace(1e-9, 2.5 * trace.times[-1], 300)
    exact_min = ideal_trace(co, n_atoms, wide).xi2.min()
    min_dev = abs(trace.min_xi2 - exact_min) / exact_min
    return dev_jz, dev_jpp, min_dev


class TestMomentEquationCrossOracle:
    """Linearized moment dynamics against the exact ladder evolution.

    The thousand-atom case sits inside the documented accuracy bands; at a
    hundred atoms the Jz ~ N/2 linearization error is an order-one effect on
    this horizon (measured: jpp trajectory ~2x off, minimum ~80% off), so the
    same bands are asserted as a strict expected failure there.
    """

    def test_thousand_atoms_within_bands(self):
        dev_jz, dev_jpp, min_dev = _linear_vs_exact(1000)
        assert dev_jz <= 0.05
        assert dev_jpp <= 0.25
        assert min_dev <= 0.25

    @pytest.mark.xfail(
        strict=True,
        reason="Jz ~ N/2 linearization is an O(1) error at N = 100 on the "
               "squeezing-minimum horizon")
    def test_hundred_atoms_literal_bands(self):
        dev_jz, dev_jpp, min_dev = _linear_vs_exact(100)
        assert dev_jz <= 0.05
        assert dev_jpp <= 0.25
        assert min_dev <= 0.25


class TestMomentArray:
    @settings(max_examples=40, deadline=None)
    @given(propagators_and_states(),
           st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=6))
    def test_stacked_rows_match_per_state_moments(self, case, times):
        prop, amps = case
        n = prop.n_atoms
        rows = prop.evolve_amplitudes(amps, times)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        stacked = _moment_array(rows, n)
        assert stacked.shape == (len(times), 6)
        for vec, got in zip(rows, stacked):
            one = dicke_moments(DickeState(n, vec)).as_array()
            assert np.abs(got - one).max() <= 1e-13 * max(1.0, n * n / 4)


class TestIdealTrace:
    def test_export_format_and_exact_commutator(self):
        from cavspin.moments import trace_csv_rows
        p = matched_params(n_atoms=30)
        co = effective_coeffs(p)
        times = np.linspace(0.0, 0.5 / (30 * derive(p).chi), 20)
        trace = ideal_trace(co, 30, times)
        rows = list(trace_csv_rows(trace))
        assert rows[0].startswith("t,xi2,theta_min,")
        assert len(rows) == 21
        assert trace.xi2[0] == pytest.approx(1.0, abs=1e-12)
        # exact evolution preserves the ladder commutator identity
        assert np.abs(trace.commutator_residual).max() < 1e-9 * 30

    def test_quarter_turn_truncates_before_undefined_jz(self):
        # <J_z> = (N/2) cos^(N-1)(chi t) vanishes at chi t = pi/2
        n = 30
        p = matched_params(n_atoms=n)
        co = effective_coeffs(p)
        chi = derive(p).chi
        times = np.linspace(0.0, 0.5 * np.pi / chi, 60)
        trace = ideal_trace(co, n, times)
        assert trace.truncated
        assert trace.truncation_reason.startswith("<J_z> below 1e-12 N")
        k = len(trace.times)
        assert 0 < k < len(times)
        assert np.all(np.abs(trace.moments[:, 0].real) >= 1e-12 * n)
        assert np.isfinite(trace.xi2).all()
        assert abs(oat_moments(n, chi * times[k])[0, 0].real) < 1e-12 * n
        assert trace.min_xi2 == pytest.approx(oat_min_squeezing(n)[0], rel=1e-2)

    def test_undefined_earliest_time_refused(self):
        n = 30
        p = matched_params(n_atoms=n)
        chi = derive(p).chi
        # chi t starts at pi/2, where <J_z> vanishes
        times = np.linspace(0.5 * np.pi, 0.6 * np.pi, 5) / chi
        assert abs(oat_moments(n, chi * times[0])[0, 0].real) < 1e-12 * n
        with pytest.raises(ValueError, match="earliest time"):
            ideal_trace(effective_coeffs(p), n, times)

    def test_trace_matches_per_state_squeezing(self):
        n = 40
        p = matched_params(n_atoms=n)
        co = effective_coeffs(p)
        times = np.linspace(0.0, 0.3 / derive(p).chi, 7)
        xi2 = ideal_trace(co, n, times).xi2
        for t, got in zip(times, xi2):
            ref = squeezing_parameter(dicke_moments(dicke_evolve(co, n, t)), n)[0]
            assert got == pytest.approx(ref, rel=1e-12)
