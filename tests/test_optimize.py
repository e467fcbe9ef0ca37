import functools
import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import qmc

from cavspin.moments import evolve_squeezing
from cavspin.optimize import (OptimizationProblem, delta_zero_check, optimize,
                              problem_for_cooperativity, scaling_sweep)

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


# ---------------------------------------------------------------------------
# the plain-float Nelder-Mead and Sobol' ports against scipy, compared with ==
# ---------------------------------------------------------------------------

#: the simplex tolerances ``optimize`` uses
XATOL, FATOL = 1e-4, 1e-7


#: numpy's argsort with a stable order of equal values; the default kind's
#: order of equal values depends on the CPU (not stable on AVX-512)
stable_argsort = functools.partial(np.argsort, kind="stable")


def tie_reversing_argsort(a, *args, **kwargs):
    """An argsort that puts equal values in reverse order of position."""
    a = np.asarray(a)
    return np.lexsort((-np.arange(len(a)), a))


def scipy_nelder_mead(f, x0, lo, hi, max_evals, argsort=stable_argsort):
    """Evaluation points, x, fun and evaluation count of scipy's bounded search.

    scipy orders the simplex with ``np.argsort``, here a stable one unless
    ``argsort`` says otherwise.
    """
    points = []

    def read(x):
        points.append(x.tolist())
        return f(x.tolist())

    with mock.patch.object(np, "argsort", argsort):
        res = minimize(read, np.array(x0, dtype=float), method="Nelder-Mead",
                       bounds=list(zip(lo, hi)),
                       options={"maxfev": max_evals, "xatol": XATOL, "fatol": FATOL})
    return points, res.x.tolist(), float(res.fun), int(res.nfev)


def ported_nelder_mead(f, x0, lo, hi, max_evals):
    """The same four results from ``optimize._nelder_mead``."""
    points = []

    def read(x):
        points.append(list(x))
        return f(list(x))

    x, fun, n_evals = optimize_mod._nelder_mead(read, list(x0), list(lo), list(hi),
                                                max_evals, xatol=XATOL, fatol=FATOL)
    return points, list(x), fun, n_evals


def box_objective(kind, centre, weights, cut):
    """A quadratic, a kink, or a quadratic walled off by the failure penalty."""
    def f(x):
        if kind == "kink":
            return sum(w * abs(c - m) for c, m, w in zip(x, centre, weights))
        if kind == "plateau" and x[0] > cut:
            return optimize_mod._Objective.PENALTY_FAILURE
        return sum(w * (c - m) ** 2 for c, m, w in zip(x, centre, weights))
    return f


@st.composite
def box_searches(draw):
    lo = [draw(st.floats(-5.0, 5.0)) for _ in range(3)]
    hi = [low + draw(st.floats(0.01, 6.0)) for low in lo]
    x0 = [draw(st.floats(low - 1.0, high + 1.0)) for low, high in zip(lo, hi)]
    centre = [draw(st.floats(low - 1.0, high + 1.0)) for low, high in zip(lo, hi)]
    weights = [draw(st.floats(0.1, 10.0)) for _ in range(3)]
    kind = draw(st.sampled_from(["quadratic", "kink", "plateau"]))
    cut = draw(st.floats(lo[0], hi[0]))
    # 1 to 4 evaluations stop the search inside the initial simplex
    max_evals = draw(st.sampled_from([1, 2, 3, 4, 20, 200]))
    return box_objective(kind, centre, weights, cut), x0, lo, hi, max_evals


@pytest.mark.filterwarnings("ignore:Initial guess is not within the specified bounds")
class TestNelderMead:
    @settings(max_examples=150, deadline=None)
    @given(box_searches())
    def test_matches_scipy(self, search):
        assert ported_nelder_mead(*search) == scipy_nelder_mead(*search)

    @pytest.mark.parametrize("max_evals", [1, 4, 200])
    @pytest.mark.parametrize("x0,lo,hi", [
        ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),     # on the upper bound
        ([0.0, 0.4, -0.3], [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),  # a zero coordinate
        ([0.5, 0.5, 0.5], [0.5, -2.0, 3.0], [0.5, -2.0, 3.0]),    # all three bounds equal
        ([0.3, 2.0, 0.1], [0.0, 2.0, 0.0], [1.0, 2.0, 1.0]),      # one fixed coordinate
    ], ids=["upper_bound", "zero", "all_fixed", "one_fixed"])
    @pytest.mark.parametrize("kind", ["quadratic", "plateau"])
    def test_edge_cases_match_scipy(self, kind, x0, lo, hi, max_evals):
        f = box_objective(kind, [0.2, -0.1, 0.0], [1.0, 2.0, 3.0], 0.25)
        ported = ported_nelder_mead(f, x0, lo, hi, max_evals)
        assert ported == scipy_nelder_mead(f, x0, lo, hi, max_evals)
        if lo == hi:    # no fixed variable is dropped: four reads, then xatol stops
            assert ported[3] == min(max_evals, 4)

    def test_tied_values_keep_a_stable_order(self):
        # a staircase ties most reads, so the order of equal values steers the
        # search: scipy under a tie-reversing argsort reads other points
        def staircase(x):
            return float(sum(math.floor(4.0 * abs(c - 0.3)) for c in x))

        search = (staircase, [0.9, -0.7, 0.5], [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 200)
        ported = ported_nelder_mead(*search)
        assert ported == scipy_nelder_mead(*search)
        assert scipy_nelder_mead(*search, argsort=tie_reversing_argsort)[0] != ported[0]
        with mock.patch.object(np, "argsort", tie_reversing_argsort):
            assert ported_nelder_mead(*search) == ported

    @pytest.mark.parametrize("cooperativity", [1.0, 100.0, 1000.0])
    def test_matches_scipy_on_the_squeezing_objective(self, cooperativity):
        # the configs/fig3.cfg template at three of its cooperativities
        template = OptimizationProblem(n_atoms=10 ** 6, omega_ab=1e5, seed=2024)
        prob = problem_for_cooperativity(template, cooperativity)
        lo, hi = optimize_mod._search_box(prob)
        x0 = optimize_mod._start_points(prob)[0].tolist()
        objective = optimize_mod._Objective(prob)
        assert (ported_nelder_mead(objective, x0, lo, hi, 30)
                == scipy_nelder_mead(objective, x0, lo, hi, 30))


@pytest.mark.filterwarnings("ignore:The balance properties of Sobol")
def test_start_points_match_scipy_sobol():
    for seed in (0, 1, 7, 99, 2024, 12345):
        for restarts in (1, 2, 3, 5, 6, 8, 13, 64):
            prob = quick_problem(seed=seed, restarts=restarts)
            lo, hi = optimize_mod._search_box(prob)
            unit = qmc.Sobol(d=3, scramble=True, seed=seed).random(restarts)
            assert (optimize_mod._start_points(prob) == lo + unit * (hi - lo)).all()


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
