import importlib
import math
import warnings

import numpy as np
import pytest

from cavspin.moments import evolve_squeezing
from cavspin.optimize import (OptimizationProblem, delta_zero_check, optimize,
                              problem_for_cooperativity, scaling_sweep)

warnings.filterwarnings("ignore", message="The balance properties of Sobol")

# the package re-exports the function optimize under the module's own name
optimize_mod = importlib.import_module("cavspin.optimize")


def quick_problem(**overrides):
    base = dict(n_atoms=10 ** 6, omega_ab=1e5, restarts=2, max_evals=60,
                n_steps=160, seed=7)
    base.update(overrides)
    return OptimizationProblem(**base)


@pytest.fixture(scope="module")
def cheap_optimum():
    prob = problem_for_cooperativity(quick_problem(), 100.0, 1.0)
    return prob, optimize(prob)


class TestProblem:
    def test_cooperativity_targeting(self):
        prob = problem_for_cooperativity(quick_problem(), 250.0, 4.0)
        assert prob.n_atoms / (prob.kappa * prob.gamma_total) == pytest.approx(250.0)
        assert prob.kappa / prob.gamma_total == pytest.approx(4.0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan, math.inf])
    def test_bad_loss_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="kappa_over_gamma"):
            problem_for_cooperativity(quick_problem(), 100.0, ratio)

    def test_gamma_split(self):
        prob = quick_problem(kappa=1.0, gamma_total=9.0, gamma_split=(1, 2, 0))
        assert prob.gammas() == pytest.approx((3.0, 6.0, 0.0))

    def test_drive_pinned_inside_validity(self, cheap_optimum):
        prob, rep = cheap_optimum
        assert rep.validity_ratios["ratio_cavity"] == pytest.approx(1e-3, rel=1e-6)
        assert all(r < 1e-1 for r in rep.validity_ratios.values())

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            quick_problem(r_bounds=(-1.0, 2.0))

    @pytest.mark.parametrize("setting,value", [("restarts", 0), ("restarts", -1),
                                               ("max_evals", 0), ("n_steps", 1),
                                               ("n_steps", 0), ("n_atoms", 0),
                                               ("kappa", -1.0), ("kappa", math.nan),
                                               ("gamma_total", -1.0),
                                               ("gamma_split", (2.0, -1.0, 0.0)),
                                               ("g_a", 0.0), ("g_b", 0.0),
                                               ("seed", -1)])
    def test_invalid_search_settings_rejected(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            quick_problem(**{setting: value})

    def test_unordered_delta_bounds_rejected(self):
        with pytest.raises(ValueError, match="delta_bounds"):
            quick_problem(delta_bounds=(10.0, -10.0))

    def test_smallest_search_settings_accepted(self):
        prob = quick_problem(restarts=1, max_evals=1, n_steps=2)
        assert (prob.restarts, prob.max_evals, prob.n_steps) == (1, 1, 2)

    def test_start_points_fill_the_search_box(self):
        prob = quick_problem(restarts=16)
        lo, hi = optimize_mod._search_box(prob)
        assert lo == pytest.approx([math.log(0.2), -4000.0, math.log(1e4)])
        assert hi == pytest.approx([math.log(30.0), 4000.0, math.log(3e6)])
        starts = optimize_mod._start_points(prob)
        assert starts.shape == (16, 3)
        assert np.all((starts >= lo) & (starts <= hi))


class TestOptimize:
    def test_finds_paper_scale_minimum(self, cheap_optimum):
        _, rep = cheap_optimum
        assert 0.7 / math.sqrt(100.0) * 0.7 <= rep.xi2_min <= 0.7 / math.sqrt(100.0) * 1.3

    def test_determinism(self, cheap_optimum):
        prob, rep = cheap_optimum
        again = optimize(prob)
        assert again.xi2_min == rep.xi2_min
        assert again.r_opt == rep.r_opt
        assert again.delta_opt == rep.delta_opt
        assert again.delta1_opt == rep.delta1_opt
        assert again.n_evaluations == rep.n_evaluations

    def test_reported_minimum_reproducible(self, cheap_optimum):
        prob, rep = cheap_optimum
        fresh = evolve_squeezing(rep.params(), n_steps=prob.n_steps,
                                 max_extensions=5)
        assert fresh.min_xi2 == pytest.approx(rep.xi2_min, rel=1e-6)

    def test_overall_drive_scale_is_immaterial(self, cheap_optimum):
        prob, rep = cheap_optimum
        p = rep.params()
        doubled = p.with_drives(2.0 * p.omega_1, 2.0 * p.omega_2)
        t1 = evolve_squeezing(p, n_steps=240, max_extensions=5)
        t2 = evolve_squeezing(doubled, n_steps=240, max_extensions=5)
        assert t2.min_xi2 == pytest.approx(t1.min_xi2, rel=1e-6)
        assert t2.t_min == pytest.approx(t1.t_min / 4.0, rel=1e-6)

    def test_vanishing_drive_ratio_gives_no_squeezing(self):
        # lossless at delta = 0: the pinned |Omega_1| is 0, so every
        # candidate drives nothing and scores exactly 1
        prob = quick_problem(fixed_delta=0.0, restarts=1, max_evals=20)
        rep = optimize(prob)
        assert rep.xi2_min == 1.0
        assert rep.omega_1 == 0.0

    def test_infeasible_box_raises(self):
        prob = quick_problem(kappa=100.0, gamma_total=100.0, omega_ab=5.0,
                             restarts=1, max_evals=15)
        with pytest.raises(RuntimeError, match="validity region"):
            optimize(prob)

    def test_emission_dominated_corner_truncates_not_crashes(self):
        # r < 1 makes photon emission beat absorption: the linearized moments
        # blow up, the trace is truncated by the physicality guard, and the
        # surviving prefix scores as "no squeezing"
        prob = problem_for_cooperativity(quick_problem(), 100.0, 1.0)
        p = prob.params_at(0.2, 0.0, 1e5)
        trace = evolve_squeezing(p, n_steps=160, max_extensions=5)
        assert trace.truncated
        assert "physicality" in trace.truncation_reason
        assert trace.min_xi2 == pytest.approx(1.0)


class TestSweep:
    def test_single_point_prefactor(self, cheap_optimum):
        _, rep = cheap_optimum
        result = scaling_sweep([100.0], quick_problem())
        assert result.prefactor_fixed_slope == pytest.approx(
            result.points[0].report.xi2_min * 10.0, rel=1e-12)

    def test_below_range_point_recorded(self):
        result = scaling_sweep([0.01, 100.0], quick_problem())
        assert result.points[0].report is None
        assert "below sweep range" in result.points[0].error
        assert result.points[1].report is not None

    def test_numerical_failure_recorded_and_sweep_continues(self, monkeypatch,
                                                              cheap_optimum):
        _, rep = cheap_optimum

        def flaky(prob):
            if prob.cooperativity < 50.0:
                raise RuntimeError("stand-in numerical failure")
            return rep

        monkeypatch.setattr(optimize_mod, "optimize", flaky)
        result = scaling_sweep([10.0, 100.0], quick_problem())
        assert result.points[0].report is None
        assert result.points[0].error == "stand-in numerical failure"
        assert result.points[1].report is rep

    def test_programming_errors_surface(self, monkeypatch):
        def broken(prob):
            raise TypeError("stand-in bug")

        monkeypatch.setattr(optimize_mod, "optimize", broken)
        with pytest.raises(TypeError, match="stand-in bug"):
            scaling_sweep([100.0], quick_problem())

    def test_no_usable_points(self):
        with pytest.raises(RuntimeError):
            scaling_sweep([0.01], quick_problem())


class TestDeltaZero:
    def test_skip_when_absorption_cannot_dominate(self):
        # capping r below Delta2^2/Delta1^2 forces emission to dominate
        prob = problem_for_cooperativity(
            quick_problem(r_bounds=(0.2, 0.5), restarts=1, max_evals=30),
            100.0, 1.0)
        rep = delta_zero_check(prob)
        assert not rep.applicable
        assert "absorption" in rep.reason
