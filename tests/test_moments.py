import decimal
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

import cavspin.moments as moments_mod
from cavspin.dicke import effective_coeffs, oat_min_squeezing, oat_moments
from cavspin.moments import (MomentState, PropagationError, assemble_generator,
                             default_t_max, evolve_squeezing, initial_state,
                             propagate, squeezing_parameter, trace_csv_rows)
from cavspin.params import PhysicalParams, demo_params, kappa_prime, match_raman


# ---------------------------------------------------------------------------
# independent second construction of the moment derivatives, organized
# equation by equation instead of entry by entry, for the generator cross-check
# ---------------------------------------------------------------------------

def reference_generator(p: PhysicalParams) -> np.ndarray:
    n = p.n_atoms
    d1, d2, de = p.delta_1, p.delta_2, p.delta
    ga, gb, go = p.gamma_a, p.gamma_b, p.gamma_o
    gam = ga + gb + go
    kp = kappa_prime(p)
    q1 = d1 ** 2 + gam ** 2 / 4
    q2 = d2 ** 2 + gam ** 2 / 4
    qc = de ** 2 + kp ** 2 / 4
    o1sq = abs(p.omega_1) ** 2
    o2sq = abs(p.omega_2) ** 2
    cross = p.omega_1 * np.conj(p.omega_2) * p.g_a * np.conj(p.g_b) / (4 * q2 * q1)
    crossc = np.conj(cross)
    gbsq = abs(p.g_b) ** 2
    gasq = abs(p.g_a) ** 2

    # rows act on v = (jz, nab, jpp, jmm, jpm, jmp); number operators expand as
    # <N_a> = nab/2 + jz and <N_b> = nab/2 - jz
    def na(row, coeff):
        row[1] += coeff / 2
        row[0] += coeff

    def nb(row, coeff):
        row[1] += coeff / 2
        row[0] -= coeff

    m = np.zeros((6, 6), dtype=complex)

    # d<J_z>/dt
    row = m[0]
    na(row, -(gb + go / 2) / q1 * o1sq / 4)
    nb(row, (ga + go / 2) / q2 * o2sq / 4)
    row[4] += -(o1sq * gbsq / (4 * q1 ** 2)
                * (-de * d1 * (2 * gb + go) + kp * d1 ** 2
                   + kp * gam * (ga - gb) / 4)) / qc
    row[5] += -(o2sq * gasq / (4 * q2 ** 2)
                * (de * d2 * (2 * ga + go) - kp * d2 ** 2
                   + kp * gam * (ga - gb) / 4)) / qc
    row[3] += -(cross * (-2j * de * d1 * d2
                         - 1j * kp * d1 * (ga + go / 2) / 2
                         - 1j * kp * d2 * (gb + go / 2) / 2
                         - de * d1 * (gb + go / 2) + de * d2 * (ga + go / 2)
                         + kp * gam * (ga - gb) / 4)) / qc
    row[2] += -(crossc * (2j * de * d1 * d2
                          + 1j * kp * d1 * (ga + go / 2) / 2
                          + 1j * kp * d2 * (gb + go / 2) / 2
                          - de * d1 * (gb + go / 2) + de * d2 * (ga + go / 2)
                          + kp * gam * (ga - gb) / 4)) / qc

    # d<N_a + N_b>/dt
    row = m[1]
    na(row, -go / q1 * o1sq / 4)
    nb(row, -go / q2 * o2sq / 4)
    row[4] += go / qc * o1sq * gbsq / (4 * q1 ** 2) * (2 * de * d1 + kp * gam / 2)
    row[5] += go / qc * o2sq * gasq / (4 * q2 ** 2) * (2 * de * d2 + kp * gam / 2)
    row[3] += go / qc * cross * (de * (d1 + d2) + kp * gam / 2
                                 - 1j * (d1 - d2) * kp / 2)
    row[2] += go / qc * crossc * (de * (d1 + d2) + kp * gam / 2
                                  + 1j * (d1 - d2) * kp / 2)

    # d<J+J+>/dt
    row = m[2]
    row[2] += -gam / q1 * o1sq / 4 - gam / q2 * o2sq / 4
    row[2] += -2j * n / qc * (o1sq * gbsq / (4 * q1 ** 2) * q1 * (de + 1j * kp / 2))
    row[2] += -2j * n / qc * (o2sq * gasq / (4 * q2 ** 2)
                              * (d2 + 1j * gam / 2) ** 2 * (de - 1j * kp / 2))
    row[5] += -2j * n / qc * cross * ((d1 + 1j * gam / 2) * (d2 - 1j * gam / 2)
                                      * (de + 1j * kp / 2))
    row[4] += -2j * n / qc * cross * ((d1 + 1j * gam / 2) * (d2 + 1j * gam / 2)
                                      * (de - 1j * kp / 2))

    # d<J-J->/dt by reality: conjugate row with the pair columns exchanged
    m[3, 0] = np.conj(m[2, 0])
    m[3, 1] = np.conj(m[2, 1])
    m[3, 2] = np.conj(m[2, 3])
    m[3, 3] = np.conj(m[2, 2])
    m[3, 4] = np.conj(m[2, 4])
    m[3, 5] = np.conj(m[2, 5])

    # shared cavity-mediated combination of the last two equations
    a_row = np.zeros(6, dtype=complex)
    a_row[4] = o1sq * gbsq / (4 * q1 ** 2) * (-kp) * q1
    a_row[5] = o2sq * gasq / (4 * q2 ** 2) * (d2 ** 2 * kp - 2 * d2 * de * gam
                                              - kp * gam ** 2 / 4)
    a_row[3] = cross * (2j * de * d1 * d2 - de * d2 * gam
                        + 1j * d1 * gam * kp / 2 - kp * gam ** 2 / 4)
    a_row[2] = crossc * (-2j * de * d1 * d2 - de * d2 * gam
                         - 1j * d1 * gam * kp / 2 - kp * gam ** 2 / 4)

    # d<J+J->/dt
    row = m[4]
    na(row, o1sq / (4 * q1) * ga)
    row[4] += -o1sq / (4 * q1) * gam
    nb(row, o2sq / (4 * q2) * ga)
    na(row, o2sq / (4 * q2) * gam)
    row[4] += -o2sq / (4 * q2) * gam
    row -= n / qc * a_row

    # d<J-J+>/dt
    row = m[5]
    na(row, o1sq / (4 * q1) * gb)
    nb(row, o1sq / (4 * q1) * gam)
    row[5] += -o1sq / (4 * q1) * gam
    nb(row, o2sq / (4 * q2) * gb)
    row[5] += -o2sq / (4 * q2) * gam
    row -= n / qc * a_row

    return m


COMPLEX_PARAMS = PhysicalParams(
    n_atoms=400, g_a=complex(0.9, 0.3), g_b=complex(1.1, -0.2),
    omega_1=complex(40.0, 13.0), omega_2=complex(-25.0, 36.0),
    delta_1=900.0, omega_ab=140.0, delta=-6.0,
    kappa=2.0, gamma_a=0.7, gamma_b=0.4, gamma_o=0.9)


class TestGenerator:
    @pytest.mark.parametrize("params", [demo_params(), COMPLEX_PARAMS],
                             ids=["demo", "complex"])
    def test_matches_independent_construction(self, params):
        m = assemble_generator(params).m
        ref = reference_generator(params)
        scale = np.abs(ref).max()
        assert np.abs(m - ref).max() <= 1e-12 * scale

    def test_zero_drive_gives_zero_generator(self):
        p = PhysicalParams(n_atoms=10, delta_1=10.0, omega_ab=1.0, delta=0.5,
                           kappa=1.0, gamma_a=0.1)
        assert np.all(assemble_generator(p).m == 0.0)

    def test_dissipation_free_reduces_to_coherent_terms(self):
        p = PhysicalParams(n_atoms=50, omega_1=2.0, omega_2=0.0, delta_1=100.0,
                           omega_ab=20.0, delta=1.0)
        p = p.with_drives(p.omega_1, match_raman(p))
        m = assemble_generator(p).m
        co = effective_coeffs(p)
        n = p.n_atoms
        # population row carries only the coherent pair back-action
        assert np.allclose(m[1], 0.0, atol=1e-18)
        expected_jz = np.zeros(6, dtype=complex)
        expected_jz[3] = 2j * co.c_mm
        expected_jz[2] = -2j * co.c_pp
        assert np.allclose(m[0], expected_jz, rtol=1e-12, atol=1e-18)
        # pair-coherence row: the four quadratic coefficients
        expected_jpp = np.zeros(6, dtype=complex)
        expected_jpp[2] = -2j * n * (co.c_pm + co.c_mp)
        expected_jpp[4] = expected_jpp[5] = -2j * n * co.c_mm
        assert np.allclose(m[2], expected_jpp, rtol=1e-12, atol=1e-18)

    def test_conjugation_row_structure(self):
        swap = (0, 1, 3, 2, 4, 5)
        for params in (COMPLEX_PARAMS, demo_params(), demo_params(dissipation=False)):
            m = assemble_generator(params).m
            for col in range(6):
                assert m[3, col] == np.conj(m[2, swap[col]])
            # the rows of the real moments (jz, nab, jpm, jmp) are real on the
            # real columns and conjugate on the jpp/jmm pair
            for row in (0, 1, 4, 5):
                for col in (0, 1, 4, 5):
                    assert m[row, col].imag == 0.0
                assert m[row, 2] == np.conj(m[row, 3])

    def test_drive_scaling_is_exactly_quadratic(self):
        p = demo_params()
        p2 = p.with_drives(2.0 * p.omega_1, 2.0 * p.omega_2)
        assert np.array_equal(assemble_generator(p2).m, 4.0 * assemble_generator(p).m)

    def test_rejects_degenerate_cavity(self):
        p = PhysicalParams(n_atoms=2, omega_1=1.0, omega_2=1.0, delta_1=10.0,
                           omega_ab=1.0, delta=0.0)
        with pytest.raises(ValueError):
            assemble_generator(p)


class TestInitialState:
    @pytest.mark.parametrize("n,expect", [
        (10 ** 6, (5e5, 1e6, 0, 0, 1e6, 0)),
        (1, (0.5, 1, 0, 0, 1, 0)),
        (2, (1, 2, 0, 0, 2, 0)),
    ])
    def test_values(self, n, expect):
        assert tuple(initial_state(n).as_array()) == tuple(complex(x) for x in expect)

    def test_commutator_identity_exact(self):
        v = initial_state(123)
        assert v.jpm - v.jmp - 2.0 * v.jz == 0.0

    @pytest.mark.parametrize("n", [1, 2, 17, 10 ** 6])
    def test_unsqueezed(self, n):
        xi2, _ = squeezing_parameter(initial_state(n), n)
        assert xi2 == pytest.approx(1.0, abs=1e-12)


class TestPropagate:
    def test_time_zero_identity(self):
        gen = assemble_generator(demo_params())
        v0 = initial_state(10 ** 6)
        assert np.allclose(propagate(gen, v0, 0.0).as_array(), v0.as_array(),
                           rtol=1e-14)

    def test_zero_generator(self):
        p = PhysicalParams(n_atoms=4, delta_1=10.0, omega_ab=1.0, delta=0.5)
        gen = assemble_generator(p)
        v0 = initial_state(4)
        assert propagate(gen, v0, 7.3).as_array() == pytest.approx(v0.as_array())

    def test_semigroup_property(self):
        gen = assemble_generator(demo_params())
        v0 = initial_state(10 ** 6)
        direct = propagate(gen, v0, 0.3).as_array()
        composed = propagate(gen, propagate(gen, v0, 0.15), 0.15).as_array()
        assert np.abs(composed - direct).max() <= 1e-9 * np.abs(direct).max()

    def test_short_time_derivative(self):
        gen = assemble_generator(demo_params())
        v0 = initial_state(10 ** 6).as_array()
        h = 1e-6 / np.linalg.norm(gen.m, 2)
        forward = expm(gen.m * h) @ v0
        backward = expm(-gen.m * h) @ v0
        numeric = (forward - backward) / (2 * h)
        analytic = gen.m @ v0
        scale = np.abs(analytic).max()
        assert np.abs(numeric - analytic).max() <= 1e-6 * scale

    def test_negative_time_rejected(self):
        gen = assemble_generator(demo_params())
        with pytest.raises(ValueError):
            propagate(gen, initial_state(10 ** 6), -1.0)

    def test_nonfinite_reported(self):
        gen = assemble_generator(demo_params())
        huge = type(gen)(m=gen.m * 1e305)
        with pytest.raises(PropagationError), np.errstate(over="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            propagate(huge, initial_state(10 ** 6), 1e6)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_nonfinite_time_rejected(self, t):
        # bad input, not a numerical failure: ValueError, not PropagationError
        gen = assemble_generator(demo_params())
        refusal = rf"^t must hold finite nonnegative times, got \[{t}\]$"
        with pytest.raises(ValueError, match=refusal):
            propagate(gen, initial_state(10 ** 6), t)

    def test_cost_is_bounded_at_a_huge_horizon(self):
        # ||M - mu||_1 t = 0.3 t is 2.9e23 Taylor blocks, refused before the first
        decaying = -np.eye(6, dtype=complex)
        decaying[0, 1] = 0.3
        v0, t = initial_state(1000), 1e25 / 1.3
        for m in (decaying, -decaying):
            with pytest.raises(ValueError, match=r"needs \d+ blocks, more than the 1000000"):
                propagate(moments_mod.MomentGenerator(m=m), v0, t)


def physical_moment_states(n_atoms=100):
    amp = st.floats(-50.0, 50.0, allow_nan=False)

    def build(jz, nab, re, im, jpm, jmp):
        return MomentState(jz=jz + 10.0, nab=nab + 100.0, jpp=complex(re, im),
                           jmm=complex(re, -im), jpm=jpm + 60.0, jmp=jmp + 55.0)

    return st.builds(build, amp, amp, amp, amp, amp, amp)


class TestSqueezingParameter:
    @settings(max_examples=80, deadline=None)
    @given(physical_moment_states())
    @example(MomentState(jz=10.0, nab=100.0, jpp=37.75 + 17.0j,
                         jmm=37.75 - 17.0j, jpm=60.0, jmp=23.0))
    @example(MomentState(jz=10.0, nab=100.0, jpp=complex(2.0, 5e-324),
                         jmm=complex(2.0, -5e-324), jpm=60.0, jmp=55.0))
    def test_closed_form_matches_angle_scan(self, v):
        assume(abs(v.jz.real) > 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            xi2, theta = squeezing_parameter(v, 100)

        def variance(th):
            return ((v.jpm.real + v.jmp.real) / 4.0
                    + 0.5 * np.real(v.jpp * np.exp(-2j * th)))

        thetas = np.linspace(0.0, np.pi, 20001, endpoint=False)
        var = variance(thetas)
        # The grid alone misses the minimum by up to |J++| (pi / 40002)^2,
        # more than the tolerance below; polish it within one grid step.
        step = thetas[1] - thetas[0]
        t0 = thetas[var.argmin()]
        polished = minimize_scalar(variance, bounds=(t0 - step, t0 + step),
                                   method="bounded",
                                   options={"xatol": 1e-12}).fun
        var_min = min(var.min(), polished)
        brute = 100 * max(var_min, 0.0) / v.jz.real ** 2
        assert xi2 == pytest.approx(brute, rel=1e-6, abs=1e-9)
        var_at_theta = ((v.jpm.real + v.jmp.real) / 4.0
                        + 0.5 * (v.jpp * np.exp(-2j * theta)).real)
        assert var_at_theta <= var_min + 1e-9 * abs(var_min)

    def test_symmetric_pair_coherence(self):
        n, r = 100, 7.0
        v = MomentState(jz=40.0, nab=n, jpp=r, jmm=r, jpm=n / 2, jmp=n / 2)
        xi2, theta = squeezing_parameter(v, n)
        assert xi2 == pytest.approx(n * (n / 4 - r / 2) / 40.0 ** 2, rel=1e-12)
        assert theta == pytest.approx(np.pi / 2)

    def test_negative_variance_clamped_with_warning(self):
        v = MomentState(jz=50.0, nab=100, jpp=60.0, jmm=60.0, jpm=50.0, jmp=50.0)
        with pytest.warns(RuntimeWarning):
            xi2, _ = squeezing_parameter(v, 100)
        assert xi2 == 0.0

    def test_zero_mean_spin_rejected(self):
        v = MomentState(jz=0.0, nab=100, jpp=0, jmm=0, jpm=50, jmp=50)
        with pytest.raises(ValueError):
            squeezing_parameter(v, 100)


def circular_gap(a, b):
    """Distance of two transverse angles on the circle of period pi."""
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


class TestSharedFormula:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(physical_moment_states(), min_size=1, max_size=12))
    def test_stacked_rows_match_squeezing_parameter(self, states):
        assume(all(abs(v.jz.real) > 1e-3 for v in states))
        rows = np.array([v.as_array() for v in states])
        xi2 = moments_mod._xi2(rows, 100)
        theta = moments_mod._theta(rows)
        assert xi2.shape == theta.shape == (len(states),)
        for k, v in enumerate(states):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref_xi2, ref_theta = squeezing_parameter(v, 100)
            # the absolute term is the rounding scale of the variance itself,
            # which matters only where (jpm + jmp)/4 and |jpp|/2 cancel
            scale = 100 * (abs(v.jpm) + abs(v.jmp) + abs(v.jpp)) / v.jz.real ** 2
            assert xi2[k] == pytest.approx(ref_xi2, rel=1e-14, abs=1e-15 * scale)
            assert circular_gap(theta[k], ref_theta) <= 1e-14

    def test_domain_rule_boundary(self):
        n = 1000
        below = MomentState(jz=0.99e-9, nab=n, jpp=0, jmm=0, jpm=n / 2, jmp=n / 2)
        at = MomentState(jz=-1e-9, nab=n, jpp=0, jmm=0, jpm=n / 2, jmp=n / 2)
        with pytest.raises(ValueError, match="undefined"):
            squeezing_parameter(below, n)
        xi2, _ = squeezing_parameter(at, n)
        assert xi2 == pytest.approx(n * (n / 4) / 1e-18)
        rows = np.array([below.as_array(), at.as_array()])
        assert moments_mod._jz_undefined(rows, n).tolist() == [True, False]


#: the dissipative N = 156 point at which the decayed tail of the default
#: horizon used to reach <J_z>^2 = 0 and write xi2 = inf rows to trace.csv
DECAYED_PARAMS = replace(demo_params(n_atoms=156), omega_1=14485.0, omega_2=6982.0,
                         delta_1=79304.0, omega_ab=11158.0, delta=996.0, kappa=75.8,
                         gamma_a=31.9, gamma_b=39.8, gamma_o=42.9)


class TestUndefinedTruncation:
    def test_decayed_trace_ends_before_undefined_jz(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = evolve_squeezing(DECAYED_PARAMS)
        # row 28 is the first with |<J_z>| < 1e-12 N
        assert len(trace.times) == 28
        assert trace.truncated
        assert trace.truncation_reason.startswith("<J_z> below 1e-12 N")
        assert np.isfinite(trace.xi2).all()
        assert np.all(np.abs(trace.moments[:, 0].real) >= 1e-12 * 156)
        gen = assemble_generator(DECAYED_PARAMS)
        dropped = expm(gen.m * len(trace.times) * trace.times[1]) @ trace.moments[0]
        assert abs(dropped[0].real) < 1e-12 * 156

    def test_decaying_jz_truncates_on_both_kernel_paths(self, kernel_path, monkeypatch):
        # <J_z> = (N/2) e^{-t} drops below 1e-12 N after t = ln(5e11) = 26.9
        n = 100
        inject_generator(monkeypatch, np.diag([-1.0, 0, 0, 0, 0, 0]))
        trace = evolve_squeezing(demo_params(n_atoms=n), t_max=40.0, n_steps=41)
        assert trace.truncated
        assert len(trace.times) == 27
        assert trace.truncation_reason == (
            "<J_z> below 1e-12 N (squeezing parameter undefined) at t=27")

    def test_physicality_reason_wins_on_the_same_row(self, monkeypatch):
        # both rules first fail at k = 27
        n = 100
        inject_generator(monkeypatch, np.diag([-1.0, 0, 0, 0, 0, 0]))
        monkeypatch.setattr(moments_mod, "_physicality_violation",
                            lambda mom, n_atoms: (np.arange(len(mom)) >= 27) * 1.0)
        trace = evolve_squeezing(demo_params(n_atoms=n), t_max=40.0, n_steps=41)
        assert len(trace.times) == 27
        assert trace.truncation_reason == "physicality tolerance exceeded at t=27"

    def test_one_rule_cuts_every_curve(self):
        # rows: initial, defined, undefined, non-finite
        n = 10
        rows = np.array([initial_state(n).as_array()] * 4)
        rows[1, 0], rows[2, 0], rows[3, 1] = 2.0, 1e-12, np.nan
        times = np.array([0.0, 0.5, 1.0, 1.5])
        trace = moments_mod._squeezing_trace(times, rows, n)
        assert trace.times.tolist() == [0.0, 0.5]
        assert trace.truncation_reason == (
            "<J_z> below 1e-12 N (squeezing parameter undefined) at t=1")
        assert (trace.min_xi2, trace.t_min) == (1.0, 0.0)
        tie = moments_mod._squeezing_trace(times, rows, n, np.array([0, 0, 1, 0], bool))
        assert tie.truncation_reason == "physicality tolerance exceeded at t=1"
        with pytest.raises(PropagationError, match=r"^non-finite moments at t=1.5$"):
            moments_mod._squeezing_trace(times[[0, 1, 3]], rows[[0, 1, 3]], n)
        with pytest.raises(ValueError, match="undefined at the earliest time"):
            moments_mod._squeezing_trace(times[2:], rows[2:], n)
        # the twisting scan's grid at N = 1000 runs past <J_z> = 0 and is cut
        grid = np.geomspace(1e-3, 0.3, 220)
        cut = moments_mod._squeezing_trace(grid, oat_moments(1000, grid), 1000)
        assert cut.truncated and np.isfinite(cut.xi2).all()
        assert oat_min_squeezing(1000)[0] <= cut.min_xi2


@st.composite
def trace_params(draw):
    n = draw(st.sampled_from([100, 3000, 10 ** 5]))
    omega1 = draw(st.floats(5.0, 50.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    return PhysicalParams(
        n_atoms=n, g_a=1.0, g_b=complex(math.cos(phase), math.sin(phase)),
        omega_1=omega1, omega_2=draw(st.floats(5.0, 80.0)),
        delta_1=draw(st.floats(500.0, 5000.0)), omega_ab=draw(st.floats(50.0, 500.0)),
        delta=draw(st.floats(0.5, 20.0)), kappa=draw(st.floats(0.0, 5.0)),
        gamma_a=draw(st.floats(0.0, 2.0)), gamma_b=draw(st.floats(0.0, 2.0)),
        gamma_o=draw(st.floats(0.0, 2.0)))


class TestEvolveSqueezing:
    def test_demo_band(self):
        trace = evolve_squeezing(demo_params())
        assert 0.05 <= trace.min_xi2 <= 0.15
        assert not trace.truncated
        assert trace.xi2[0] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(trace.times) > 0)

    def test_dissipation_free_is_stronger(self):
        dissipative = evolve_squeezing(demo_params())
        ideal = evolve_squeezing(demo_params(dissipation=False))
        assert ideal.min_xi2 < dissipative.min_xi2

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, 0.0, -1.0])
    def test_t_max_must_be_positive_and_finite(self, t_max):
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            evolve_squeezing(demo_params(), t_max=t_max)

    @pytest.mark.parametrize("name,value", [("n_steps", 10.5), ("max_extensions", 1.5),
                                            ("n_steps", math.nan)])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            evolve_squeezing(demo_params(), t_max=1.0, **{name: value})
        with pytest.raises(ValueError, match="max_extensions must be >= 0"):
            evolve_squeezing(demo_params(), t_max=1.0, max_extensions=-1)
        trace = evolve_squeezing(demo_params(), t_max=1.0, n_steps=np.int64(10),
                                 max_extensions=np.int64(0))
        assert len(trace.times) == 10 and trace.times[-1] == 1.0

    def test_infinite_default_horizon_is_refused(self, monkeypatch):
        monkeypatch.setattr(moments_mod, "default_t_max", lambda params: math.inf)
        with pytest.raises(ValueError, match="t_max must be finite and positive"):
            evolve_squeezing(demo_params())

    def test_short_horizon_returns_unsqueezed(self):
        trace = evolve_squeezing(demo_params(), t_max=1e-9, n_steps=16)
        assert trace.min_xi2 == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(trace_params())
    def test_conjugation_symmetry_along_trace(self, p):
        trace = evolve_squeezing(p, n_steps=60)
        mom = trace.moments
        tol = 1e-8 * p.n_atoms
        assert np.abs(mom[:, 3] - np.conj(mom[:, 2])).max() <= tol
        for col in (0, 1, 4, 5):
            assert np.abs(mom[:, col].imag).max() <= tol

    def test_field_scaling_invariance(self):
        p = demo_params()
        strong = p.with_drives(2.0 * p.omega_1, 2.0 * p.omega_2)
        t1 = evolve_squeezing(p)
        t2 = evolve_squeezing(strong)
        assert t2.min_xi2 == pytest.approx(t1.min_xi2, rel=1e-9)
        assert t2.t_min == pytest.approx(t1.t_min / 4.0, rel=1e-9)

    def test_mirror_symmetry_under_detuning_flip(self):
        p = COMPLEX_PARAMS
        mirrored = PhysicalParams(
            n_atoms=p.n_atoms, g_a=np.conj(p.g_a), g_b=np.conj(p.g_b),
            omega_1=np.conj(p.omega_1), omega_2=np.conj(p.omega_2),
            delta_1=-p.delta_1, omega_ab=-p.omega_ab, delta=-p.delta,
            kappa=p.kappa, gamma_a=p.gamma_a, gamma_b=p.gamma_b, gamma_o=p.gamma_o)
        t_max = 3.0 / np.linalg.norm(assemble_generator(p).m, 2)
        t1 = evolve_squeezing(p, t_max=t_max, n_steps=80)
        t2 = evolve_squeezing(mirrored, t_max=t_max, n_steps=80)
        assert t2.xi2 == pytest.approx(t1.xi2, rel=1e-6)

    def test_horizon_extension_finds_interior_minimum(self):
        p = demo_params()
        clipped = evolve_squeezing(p, t_max=0.2, n_steps=200)
        extended = evolve_squeezing(p, t_max=0.2, n_steps=200, max_extensions=4)
        assert clipped.t_min == pytest.approx(0.2, rel=1e-3)
        assert extended.min_xi2 < clipped.min_xi2
        assert extended.t_min < extended.times[-1]

    def test_default_horizon_requires_drive(self):
        with pytest.raises(ValueError):
            default_t_max(PhysicalParams(n_atoms=2, delta_1=10.0, omega_ab=1.0,
                                         delta=1.0))

    @pytest.mark.parametrize("delta_1", [0.0, -1e4], ids=["delta_1", "delta_2"])
    def test_default_horizon_refuses_zero_detuning(self, delta_1):
        # demo_params has omega_ab = 1e4, so delta_1 = -1e4 makes delta_2 vanish;
        # the horizon heuristic divides by both detunings
        p = replace(demo_params(), delta_1=delta_1)
        with pytest.raises(ValueError, match="delta_1 and delta_2 must be nonzero"):
            evolve_squeezing(p)

    def test_csv_rows(self):
        trace = evolve_squeezing(demo_params(), n_steps=5)
        rows = list(trace_csv_rows(trace))
        assert rows[0] == ("t,xi2,theta_min,jz_re,nab_re,jpp_re,jpp_im,"
                           "jpm_re,jmp_re,commutator_residual")
        assert len(rows) == 6
        first = rows[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[9]) == 0.0


def expm_xi2(m, v0, n_atoms, t):
    """xi^2 of expm(M t) v0."""
    v = expm(m * t) @ v0
    var = (v[4].real + v[5].real) / 4.0 - abs(v[2]) / 2.0
    return n_atoms * max(var, 0.0) / v[0].real ** 2


#: clustered eigenvalues: an eigenbasis would miss the slope M v by ~1e-9
CLUSTERED_A = PhysicalParams(n_atoms=100, omega_1=5.0, omega_2=5.0, delta_1=500.0,
                             omega_ab=50.0, delta=1.0, gamma_o=7.020420401379482e-14)
#: ... and by ~1e-6
CLUSTERED_B = PhysicalParams(n_atoms=100, omega_1=5.0, omega_2=5.0, delta_1=533.0,
                             omega_ab=50.0, delta=1.0, kappa=1.0,
                             gamma_a=1.3563898877668613e-19)
#: a trace still falling at its last grid point, read by the probe there
FALLING_AT_END = PhysicalParams(n_atoms=3000, omega_1=16.0, omega_2=5.0, delta_1=500.0,
                                omega_ab=51.0, delta=0.5, kappa=3.0,
                                gamma_o=5.960464477539063e-08)
REFINEMENT_EXAMPLES = [CLUSTERED_A, CLUSTERED_B, FALLING_AT_END]


class TestRefinedMinimum:
    @settings(max_examples=25, deadline=None)
    @given(trace_params())
    @example(CLUSTERED_A)
    @example(CLUSTERED_B)
    @example(FALLING_AT_END)
    def test_refinement_stays_in_the_bracket_and_beats_a_scan(self, p):
        trace = evolve_squeezing(p)
        assert trace.min_xi2 <= trace.xi2.min()
        assume(len(trace.times) > 1)
        i = int(np.argmin(trace.xi2))
        dt = trace.times[1]
        assert abs(trace.t_min - trace.times[i]) <= dt * (1.0 + 1e-12)
        # the scan starts from the grid's own moments at the left end of the
        # bracket, as the refinement does: the grid itself may sit ~1e-12 of
        # the moment scale off expm(M t) v0, which the cancellation in the
        # minimal variance magnifies far beyond 1e-10 of xi^2 at small N
        lo, hi = max(i - 1, 0), min(i + 1, len(trace.times) - 1)
        m = assemble_generator(p).m
        scan = min(expm_xi2(m, trace.moments[lo], p.n_atoms, s)
                   for s in np.linspace(0.0, trace.times[hi] - trace.times[lo], 201))
        assert trace.min_xi2 <= scan * (1.0 + 1e-10)

    @pytest.mark.parametrize("dissipation", [True, False])
    @pytest.mark.parametrize("n_steps", [3, 5, 8])
    def test_coarse_grid_beats_a_scan(self, dissipation, n_steps):
        # ||M||_1 times the probe width is 19.9, 9.9 and 5.7 with dissipation
        # (10.0, 5.0 and 2.9 without): Taylor blocks and a single table
        p = demo_params(dissipation=dissipation)
        trace = evolve_squeezing(p, n_steps=n_steps)
        i = int(np.argmin(trace.xi2))
        lo, hi = max(i - 1, 0), min(i + 1, n_steps - 1)
        m = assemble_generator(p).m
        scan = min(expm_xi2(m, trace.moments[lo], p.n_atoms, s)
                   for s in np.linspace(0.0, trace.times[hi] - trace.times[lo], 201))
        assert trace.min_xi2 <= scan * (1.0 + 1e-10)

    def test_demo_probe_budget(self, monkeypatch):
        # one grid evaluation, one array read per zoom level and the vertex read
        calls = []
        xi2 = moments_mod._xi2
        monkeypatch.setattr(moments_mod, "_xi2", lambda *a: calls.append(1) or xi2(*a))
        evolve_squeezing(demo_params())
        assert len(calls) <= 20

    def test_refines_a_parabola_from_the_left_neighbour(self):
        times = np.linspace(0.0, 1.0, 11)
        curve = (times - 0.537) ** 2 + 0.1
        anchors = []

        def probe(lo):
            anchors.append(lo)
            return lambda t: (t - 0.537) ** 2 + 0.1

        t_min, xi2_min = moments_mod._refined_min(times, curve, probe)
        assert anchors == [4]
        assert t_min == pytest.approx(0.537, abs=1e-9)
        assert xi2_min <= curve.min()

    def test_grid_value_kept_when_strictly_lower(self):
        times, curve = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.8])
        probe = lambda lo: lambda t: np.full_like(t, 0.6)
        assert moments_mod._refined_min(times, curve, probe) == (1.0, 0.5)

    def test_plateau_gives_its_centre(self):
        # among equal best readings the middle one is taken
        times, curve = np.arange(4.0), np.array([1.0, 0.5, 0.6, 1.0])
        probe = lambda lo: lambda t: np.maximum(abs(t - 1.5) - 0.25, 0.0)
        assert moments_mod._refined_min(times, curve, probe) == (1.5, 0.0)

    def test_single_point_grid_is_not_probed(self):
        def probe(lo):
            raise AssertionError("no bracket to refine")

        assert moments_mod._refined_min(np.array([0.0]), np.array([1.0]), probe) == \
            (0.0, 1.0)

    def test_nan_probe_keeps_the_grid_value(self):
        times = np.linspace(0.0, 1.0, 5)
        probe = lambda lo: lambda t: np.full_like(t, math.nan)
        curve = np.array([1.0, 0.7, 0.4, 0.6, 0.9])
        assert moments_mod._refined_min(times, curve, probe) == (0.5, 0.4)
        # ... also where the bracket ends at the last grid point
        curve = np.array([1.0, 0.9, 0.7, 0.6, 0.4])
        assert moments_mod._refined_min(times, curve, probe) == (1.0, 0.4)


def stepped_moments(m, v0, dt, n_steps):
    """Reference grid by repeated multiplication with expm(M dt)."""
    step = expm(m * dt)
    rows = [v0]
    for _ in range(n_steps - 1):
        rows.append(step @ rows[-1])
    return np.array(rows)


@st.composite
def demo_perturbations(draw):
    """demo_params() with N in [1e5, 1e7] and every rate moved by up to ~25%."""
    base = demo_params(dissipation=draw(st.booleans()))

    def nudge(x):
        return x * 10.0 ** draw(st.floats(-0.1, 0.1))

    return PhysicalParams(
        n_atoms=int(10.0 ** draw(st.floats(5.0, 7.0))), g_a=base.g_a, g_b=base.g_b,
        omega_1=nudge(base.omega_1), omega_2=nudge(base.omega_2),
        delta_1=nudge(base.delta_1), omega_ab=nudge(base.omega_ab),
        delta=nudge(base.delta), kappa=nudge(base.kappa),
        gamma_a=nudge(base.gamma_a), gamma_b=nudge(base.gamma_b),
        gamma_o=nudge(base.gamma_o))


def inject_generator(monkeypatch, m):
    """Make evolve_squeezing use the generator m instead of the assembled one."""
    gen = moments_mod.MomentGenerator(m=np.asarray(m, dtype=complex))
    monkeypatch.setattr(moments_mod, "assemble_generator", lambda params: gen)


def mpmath_expm_apply(m, v, s):
    """exp(M s) v with a 40-digit mpmath expm, rounded to complex128."""
    with mpmath.workdps(40):
        out = mpmath.expm(mpmath.matrix(m.tolist()) * s) * mpmath.matrix(v.tolist())
        return np.array([complex(x) for x in out])


def mpmath_grid(m, v, dt, n_steps):
    """exp(M k dt) v for k < n_steps by 40-digit steps of an mpmath expm(M dt)."""
    with mpmath.workdps(40):
        step = mpmath.expm(mpmath.matrix(m.tolist()) * dt)
        row, rows = mpmath.matrix(v.tolist()), []
        for _ in range(n_steps):
            rows.append([complex(x) for x in row])
            row = step * row
        return np.array(rows)


def max_row_error(got, ref):
    """Largest deviation of a row from its reference, over the reference row's scale."""
    return (np.abs(got - ref).max(axis=-1) / np.abs(ref).max(axis=-1)).max()


def record_kernel(monkeypatch):
    """x = ||M||_1 width of every ``_exp_action`` call, in call order."""
    xs = []
    kernel = moments_mod._exp_action

    def spy(m, v, width):
        xs.append(float(np.abs(m).sum(axis=0).max()) * width)
        return kernel(m, v, width)

    monkeypatch.setattr(moments_mod, "_exp_action", spy)
    return xs


@pytest.fixture(params=["spectral", "fallback"])
def kernel_path(request, monkeypatch):
    """Run a test on the eigenbasis path and, with no basis trusted, on the fallback."""
    if request.param == "fallback":
        monkeypatch.setattr(moments_mod, "_COND_LIMIT", 0.0)
    return request.param


class TestSpectralKernel:
    @settings(max_examples=40, deadline=None)
    @given(demo_perturbations())
    def test_matches_expm_stepping(self, p):
        trace = evolve_squeezing(p)
        ref = stepped_moments(assemble_generator(p).m, trace.moments[0],
                              trace.times[1], len(trace.times))
        row_err = np.abs(trace.moments - ref).max(axis=1)
        assert np.all(row_err <= 1e-12 * np.abs(ref).max(axis=1))

    @settings(max_examples=20, deadline=None)
    @given(demo_perturbations(), st.integers(0, 398), st.integers(1, 399))
    def test_semigroup(self, p, j, span):
        # exp(M (t_k - t_j)) v(t_j) = v(t_k): the refinement's probe from a
        # grid row continues the grid, by one Taylor table or, over spans too
        # long for one, by Taylor blocks
        gen = assemble_generator(p)
        n_steps = 400
        k = min(j + span, n_steps - 1)
        assume(k > j)
        dt = default_t_max(p) / (n_steps - 1)
        v0 = initial_state(p.n_atoms).as_array()
        grid = moments_mod._moment_kernel(gen.m, v0, np.arange(n_steps) * dt)
        s = (k - j) * dt
        continued = moments_mod._exp_action(gen.m, grid[j], s)(s)
        assert np.abs(continued - grid[k]).max() <= 1e-12 * np.abs(grid[k]).max()

    @settings(max_examples=20, deadline=None)
    @given(demo_perturbations())
    def test_jmm_is_conjugate_of_jpp(self, p):
        mom = evolve_squeezing(p).moments
        scale = np.abs(mom).max(axis=1)
        assert np.all(np.abs(mom[:, 3] - np.conj(mom[:, 2])) <= 1e-12 * scale)

    @settings(max_examples=20, deadline=None)
    @given(demo_perturbations(), st.floats(0.1, 10.0))
    def test_drive_scale_invariance(self, p, s):
        # M scales as s^2 and the default horizon as 1/s^2
        scaled = p.with_drives(s * p.omega_1, s * p.omega_2)
        assert evolve_squeezing(scaled).min_xi2 == pytest.approx(
            evolve_squeezing(p).min_xi2, rel=1e-9)

    def test_demo_takes_the_eigenbasis_path(self, monkeypatch):
        # the grid never falls back to the kernel, also where the eigenvalues
        # cluster, and each refinement reads one Taylor table: one kernel call
        # per trace, within the bound
        xs = record_kernel(monkeypatch)
        evolve_squeezing(demo_params(), max_extensions=2)
        for p in REFINEMENT_EXAMPLES:
            evolve_squeezing(p)
        assert len(xs) == 1 + len(REFINEMENT_EXAMPLES)
        assert max(xs) <= moments_mod._TAYLOR_BOUND

    @pytest.mark.parametrize("t_max", [2.0, 20.0], ids=["one_table", "blocks"])
    def test_defective_generator_falls_back_to_the_kernel(self, t_max, monkeypatch):
        # a Jordan block in (jz, nab): eig returns two (nearly) parallel vectors
        n = 1000
        m = -np.eye(6)
        m[0, 1] = 0.3
        inject_generator(monkeypatch, m)
        xs = record_kernel(monkeypatch)
        trace = evolve_squeezing(demo_params(n_atoms=n), t_max=t_max, n_steps=50)
        # the grid over the whole horizon, then the probe over one bracket
        assert xs == pytest.approx([1.3 * t_max, 1.3 * 2.0 * t_max / 49], rel=1e-12)
        assert not trace.truncated
        ref = mpmath_grid(m, initial_state(n).as_array(), trace.times[1], 50)
        assert max_row_error(trace.moments, ref) <= 1e-13

    @pytest.mark.parametrize("n_steps", [240, 400])
    @pytest.mark.parametrize("p", [demo_params(), demo_params(dissipation=False),
                                   demo_params(n_atoms=1000)],
                             ids=["fig2", "fig2_nodissipation", "n1000"])
    def test_fallback_grid_matches_a_40_digit_reference(self, p, n_steps, monkeypatch):
        # ||M||_1 t_max is 19.8, 20.0 and 385 (3, 3 and 49 Taylor blocks)
        monkeypatch.setattr(moments_mod, "_COND_LIMIT", 0.0)
        m = assemble_generator(p).m
        v0 = initial_state(p.n_atoms).as_array()
        dt = default_t_max(p) / (n_steps - 1)
        grid = moments_mod._moment_kernel(m, v0, np.arange(n_steps) * dt)
        assert max_row_error(grid, mpmath_grid(m, v0, dt, n_steps)) <= 1e-13

    @pytest.mark.parametrize("p", [demo_params(), demo_params(dissipation=False)],
                             ids=["fig2", "fig2_nodissipation"])
    def test_long_fallback_grid_matches_a_40_digit_reference(self, p, monkeypatch):
        # 400 rows over 10 default horizons at N = 10^6, where ||exp(M t)||
        # has a hump: blocks stepped one after the other stay within 1.3e-12
        # of the row scale, where walking anchors by squares of one block
        # step was 2.8e-10 off without dissipation
        monkeypatch.setattr(moments_mod, "_COND_LIMIT", 0.0)
        m = assemble_generator(p).m
        v0 = initial_state(p.n_atoms).as_array()
        dt = 10.0 * default_t_max(p) / 399
        grid = moments_mod._moment_kernel(m, v0, np.arange(400) * dt)
        assert max_row_error(grid, mpmath_grid(m, v0, dt, 400)) <= 5e-12

    @pytest.mark.parametrize("factor, tol_1e6", [(0.999, 1e-13), (1.001, 1e-13),
                                                 (10.0, 1e-13), (100.0, 1e-10)])
    def test_probe_widths_match_a_40_digit_reference(self, factor, tol_1e6):
        # one Taylor table below the bound, blocks above it; a probe reads 65
        # points across its width.  At N = 10^6 the non-normal hump of exp(M t)
        # amplifies the rounding of the block steps: at 10 and 100 times the
        # bound the reads reach 2.0e-14 and 1.5e-11 of the row scale
        for p, tol in ((demo_params(n_atoms=1000), 1e-13), (demo_params(), tol_1e6),
                       (demo_params(dissipation=False), tol_1e6)):
            m = assemble_generator(p).m
            v = initial_state(p.n_atoms).as_array()
            width = factor * moments_mod._TAYLOR_BOUND / np.abs(m).sum(axis=0).max()
            s = np.linspace(0.0, width, 65)
            got = moments_mod._exp_action(m, v, width)(s)[::16]
            ref = np.array([mpmath_expm_apply(m, v, t) for t in s[::16]])
            assert max_row_error(got, ref) <= tol

    def test_non_finite_reads_give_non_finite_rows(self):
        m = assemble_generator(demo_params()).m
        v = initial_state(10 ** 6).as_array()
        for width in (1e-3, 1.0, math.inf):     # one table, blocks, non-finite x
            rows = moments_mod._exp_action(m, v, width)(np.array([math.nan]))
            assert rows.shape == (1, 6) and np.isnan(rows).all()

    @pytest.mark.parametrize("p", [demo_params()] + REFINEMENT_EXAMPLES,
                             ids=["demo", "clustered_a", "clustered_b", "falling_at_end"])
    def test_probe_matches_a_40_digit_reference(self, p):
        # from the left end of the refinement bracket, across its width
        trace = evolve_squeezing(p)
        m = assemble_generator(p).m
        dt, lo = trace.times[1], max(int(np.argmin(trace.xi2)) - 1, 0)
        v = trace.moments[lo]
        probe = moments_mod._exp_action(m, v, 2.0 * dt)
        for f in (0.3, 1.0, 1.7, 2.0):
            ref = mpmath_expm_apply(m, v, f * dt)
            assert np.abs(probe(f * dt) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_physicality_violation_before_overflow_truncates(self, kernel_path,
                                                             monkeypatch):
        # Im <J_z> / N = 7.5e-9 t leaves the tolerance at k = 2; <N_a + N_b>
        # overflows at k = 8
        n = 100
        inject_generator(monkeypatch, np.diag([1.5e-8j, 100.0, 0, 0, 0, 0]))
        trace = evolve_squeezing(demo_params(n_atoms=n), t_max=9.0, n_steps=10)
        assert trace.truncated
        assert len(trace.times) == 2
        assert trace.truncation_reason == "physicality tolerance exceeded at t=2"

    def test_overflow_first_raises(self, kernel_path, monkeypatch):
        # <N_a + N_b> overflows at k = 2, before Im <J_z> / N = 3.75e-9 t
        # leaves the tolerance at k = 3
        n = 100
        inject_generator(monkeypatch, np.diag([0.75e-8j, 400.0, 0, 0, 0, 0]))
        with pytest.raises(PropagationError, match="non-finite moments at t=2"):
            evolve_squeezing(demo_params(n_atoms=n), t_max=9.0, n_steps=10)


# ---------------------------------------------------------------------------
# the CSV table writer
# ---------------------------------------------------------------------------

def per_cell_lines(header, table):
    """The per-cell "%.17g" join that the table writer must reproduce."""
    return [header] + [",".join("%.17g" % c for c in row) for row in np.asarray(table)]


def header_of(ncols):
    return ",".join(f"c{k}" for k in range(ncols))


def table_of(values, ncols=7):
    """``values`` in rows of ``ncols``, the last row padded with 1.0."""
    values = list(values) + [1.0] * (-len(values) % ncols)
    return np.array(values, dtype=float).reshape(-1, ncols)


def with_neighbours(x, k=1):
    """x, its k float64 neighbours on each side, and the negatives of all."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out + [-v for v in out]


def exact_ties():
    """Numbers whose decimal digits end in a 5 right after the 17th.

    x = r / 2^(j+1) with r odd has x 10^j = r 5^j / 2, a half-integer, so it is
    an exact 17-digit tie wherever that lies in [1e16, 1e17).
    """
    ties = []
    for j in range(1, 24):
        lo = -(-2 * 10 ** 16 // 5 ** j) | 1             # smallest odd r in range
        hi = min(2 * 10 ** 17 // 5 ** j, 2 ** 53)
        for r in range(lo, hi, max(2, (hi - lo) // 40 // 2 * 2)):
            ties.append(r / 2 ** (j + 1))
    return ties


def carried(x):
    """Whether the 17 digits of x round up to the next power of ten."""
    exact = decimal.Decimal(float(x))
    written = decimal.Decimal("%.17g" % x)
    return written.adjusted() > exact.adjusted()


class TestCsvTable:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.floats(), max_size=8 * ncols))))
    def test_floats_match_per_cell_formatting(self, drawn):
        ncols, values = drawn
        table = np.array(values[:len(values) // ncols * ncols]).reshape(-1, ncols)
        assert moments_mod._csv_table(header_of(ncols), table) == \
            per_cell_lines(header_of(ncols), table)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=70))
    def test_bit_patterns_match_per_cell_formatting(self, bits):
        table = table_of(np.array(bits, dtype=np.uint64).view(np.float64))
        assert moments_mod._csv_table(header_of(7), table) == \
            per_cell_lines(header_of(7), table)

    def test_corpus_matches_per_cell_formatting(self):
        corpus = [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf]
        for edge in (1e-280, 1e280):
            corpus += with_neighbours(edge, 3)
        for k in range(-323, 309):
            corpus += with_neighbours(float(f"1e{k}"))
        corpus += [t for tie in exact_ties() for t in (tie, -tie)]
        corpus += [float(2 ** b + d) for b in range(54, 63) for d in (-1, 0, 5, 2 ** (b - 52))]
        assert sum(map(carried, corpus)) >= 10        # the corpus holds carries to 10^17
        table = table_of(corpus)
        assert moments_mod._csv_table(header_of(7), table) == \
            per_cell_lines(header_of(7), table)

    def test_random_magnitudes_match_per_cell_formatting(self):
        rng = np.random.default_rng(5)
        values = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300, 300, 20_000)
        table = table_of(values, 10)
        assert moments_mod._csv_table(header_of(10), table) == \
            per_cell_lines(header_of(10), table)

    def test_empty_table_is_the_header(self):
        assert moments_mod._csv_table("a,b", np.empty((0, 2))) == ["a,b"]
        assert moments_mod._csv_table("a,b", []) == ["a,b"]

    def test_ties_zeros_and_the_range_ends_take_the_per_cell_path(self, monkeypatch):
        # an exact tie rounds to even in the C library, which the error bound
        # of the vector path cannot tell from a near-tie
        per_cell = []
        monkeypatch.setattr(moments_mod, "_g17",
                            lambda x: per_cell.append(x) or "%.17g" % x)
        slow = exact_ties() + [0.0, -0.0, math.nan, -math.inf, 5e-324, 9.9e-281, 1.1e280]
        table = table_of(slow + [1.5, 0.1, -2.5e-7, 1e280, 1e-280])
        assert moments_mod._csv_table(header_of(7), table) == \
            per_cell_lines(header_of(7), table)
        assert len(per_cell) == len(slow)

    def test_demo_trace_writes_only_its_zeros_per_cell(self, monkeypatch):
        trace = evolve_squeezing(demo_params())
        per_cell = []
        monkeypatch.setattr(moments_mod, "_g17",
                            lambda x: per_cell.append(x) or "%.17g" % x)
        rows = trace_csv_rows(trace)
        cells = [c for row in rows[1:] for c in row.split(",")]
        assert len(cells) == 10 * len(trace.times)
        assert per_cell == [0.0] * cells.count("0")
