"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The companion check that holds the linearized moment equations to the
exact two-atom models at the 10% level is a strict expected failure: at N = 2
the J_z ~ N/2 linearization mis-weights the pair-transfer rate by (N-1)/N =
1/2 from t = 0, independent of drive strength, so no implementation of the
linearized description can meet that band.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from cavspin.cli import main
from cavspin.dicke import effective_coeffs, ideal_trace, oat_min_squeezing
from cavspin.moments import (assemble_generator, evolve_squeezing, initial_state,
                             propagate, squeezing_parameter)
from cavspin.oracle import (DensityMatrix, HilbertSpec, build_full_model,
                            coherent_pair_transfer_time, integrate_master,
                            validate_elimination)
from cavspin.optimize import (OptimizationProblem, delta_zero_check, optimize,
                              problem_for_cooperativity)
from cavspin.params import PhysicalParams, demo_params, match_raman

warnings.filterwarnings("ignore", message="The balance properties of Sobol")

CONFIGS = "configs"


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def evolve_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("evolve")
    t0 = time.perf_counter()
    code = main(["evolve", "--config", f"{CONFIGS}/fig2.cfg",
                 "--out", str(out / "loss"), "--ref-rate-hz", "1e5"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert main(["evolve", "--config", f"{CONFIGS}/fig2_nodissipation.cfg",
                 "--out", str(out / "ideal")]) == 0
    with_loss = json.loads((out / "loss" / "summary.json").read_text())["summary"]
    ideal = json.loads((out / "ideal" / "summary.json").read_text())["summary"]
    return with_loss, ideal, elapsed


def test_criterion_1_evolution_band(evolve_outputs):
    summary, _, elapsed = evolve_outputs
    ok = (0.05 <= summary["min_xi2"] <= 0.15
          and summary["t_min_seconds"] < 1e-6
          and elapsed < 5.0)
    report(1, "bad-cavity squeezing band", ok,
           f"min_xi2={summary['min_xi2']:.4f} in [0.05, 0.15], "
           f"t_min={summary['t_min_seconds']:.3e} s < 1e-6, "
           f"runtime={elapsed:.2f} s < 5")


def test_criterion_2_dissipation_free_comparison(evolve_outputs):
    with_loss, ideal, _ = evolve_outputs
    ok = ideal["min_xi2"] < with_loss["min_xi2"]
    report(2, "lossless run squeezes harder", ok,
           f"{ideal['min_xi2']:.4g} < {with_loss['min_xi2']:.4g}")


@pytest.fixture(scope="module")
def sweep_fit(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    code = main(["sweep", "--config", f"{CONFIGS}/fig3.cfg", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    return json.loads((out / "fit.json").read_text())["fit"], elapsed


def test_criterion_3_scaling_law(sweep_fit):
    fit, elapsed = sweep_fit
    prefactor = fit["prefactor_fixed_slope"]
    points_ok = all(abs(p["xi2_min"] * math.sqrt(p["cooperativity"]) / 0.7 - 1.0)
                    <= 0.30 for p in fit["points"])
    minima = [p["xi2_min"] for p in fit["points"]]
    monotone_ok = all(b <= a * 1.02 for a, b in zip(minima, minima[1:]))
    ok = 0.5 <= prefactor <= 0.9 and points_ok and monotone_ok and elapsed < 600.0
    detail = (f"prefactor={prefactor:.3f} in [0.5, 0.9]; points/0.7: "
              + ", ".join(f"{p['xi2_min'] * math.sqrt(p['cooperativity']) / 0.7:.3f}"
                          for p in fit["points"])
              + f"; monotone in cooperativity: {monotone_ok}"
              + f"; free slope={fit['free_slope']:.3f}; runtime={elapsed:.0f} s")
    report(3, "inverse-sqrt cooperativity law", ok, detail)


def test_criterion_4_loss_ratio_invariance():
    template = OptimizationProblem(n_atoms=10 ** 6, omega_ab=1e5, restarts=4,
                                   max_evals=150, seed=2024)
    minima = {}
    for ratio in (1e-2, 1.0, 1e2):
        prob = problem_for_cooperativity(template, 100.0, ratio)
        minima[ratio] = optimize(prob).xi2_min
    spread = max(minima.values()) / min(minima.values()) - 1.0
    ok = spread <= 0.10
    report(4, "kappa/Gamma invariance at fixed cooperativity", ok,
           f"minima={ {k: round(v, 5) for k, v in minima.items()} } "
           f"spread={spread:.3%} <= 10%")


def test_criterion_5_zero_detuning_optimal():
    template = OptimizationProblem(n_atoms=10 ** 6, omega_ab=1e5, restarts=4,
                                   max_evals=120, seed=2024)
    prob = problem_for_cooperativity(template, 100.0, 1.0)
    res = delta_zero_check(prob)
    ok = res.applicable and res.within is not None and res.within <= 0.02
    report(5, "zero two-photon detuning optimal", ok,
           f"applicable={res.applicable} ({res.reason}); "
           f"xi2(0)={res.xi2_at_zero and round(res.xi2_at_zero, 5)}, "
           f"excess over probe best={res.within if res.within is None else f'{res.within:.3%}'}")


def test_criterion_6_ideal_twisting_scaling():
    ratios = {}
    for n in (10 ** 2, 10 ** 3, 10 ** 4):
        xi2, _ = oat_min_squeezing(n)
        ratios[n] = xi2 * n ** (2.0 / 3.0)
    ok = all(0.5 <= r <= 2.0 for r in ratios.values())
    report(6, "ideal-limit N^(-2/3) scaling", ok,
           f"xi2 * N^(2/3) = { {k: round(v, 3) for k, v in ratios.items()} } "
           "in [0.5, 2.0]")


def _oracle_setup(omega1):
    p = PhysicalParams(n_atoms=2, omega_1=omega1, omega_2=0.0, delta_1=100.0,
                       omega_ab=120.0, delta=1.0)
    p = p.with_drives(p.omega_1, match_raman(p))
    horizon = coherent_pair_transfer_time(p) / 4.0
    period = 2.0 * math.pi / p.omega_ab
    stride = max(1, round(horizon / 8.0 / period))
    grid = [k * stride * period for k in range(9)]
    return p, validate_elimination(p, HilbertSpec(2, 3, 2), grid)


@pytest.fixture(scope="module")
def oracle_reports():
    return _oracle_setup(4.0), _oracle_setup(0.4)


def test_criterion_7_elimination_chain(oracle_reports):
    (p, rep), (_, rep_weak) = oracle_reports
    devs = {m: rep.max_dev("fi", m) for m in ("jz", "jpp")}
    devs_weak = {m: rep_weak.max_dev("fi", m) for m in ("jz", "jpp")}
    validity_ok = rep.validity.worst == "pass"
    chain_ok = all(v < 0.10 for v in devs.values())
    shrink_ok = all(devs_weak[m] < devs[m] for m in devs)
    ok = validity_ok and chain_ok and shrink_ok
    report(7, "brute-force oracle agreement (elimination chain)", ok,
           f"full-vs-intermediate jz={devs['jz']:.3g}, jpp={devs['jpp']:.3g} "
           f"< 0.10 at a quarter pair-transfer time; tenfold weaker drive -> "
           f"jz={devs_weak['jz']:.3g}, jpp={devs_weak['jpp']:.3g} (shrinks)")


@pytest.mark.xfail(
    strict=True,
    reason="linearized moment equations cannot match exact N=2 dynamics at "
           "10%: the Jz ~ N/2 linearization mis-weights the pair rate by "
           "(N-1)/N = 1/2 from t = 0, a drive-independent structural error "
           "of the linearized description itself")
def test_criterion_7_linear_level_literal(oracle_reports):
    (_, rep), _ = oracle_reports
    devs = {m: rep.max_dev("il", m) for m in ("jz", "jpp")}
    print(f"\nACCEPTANCE 7b linear-level literal clause: measured "
          f"intermediate-vs-linear jz={devs['jz']:.3g}, jpp={devs['jpp']:.3g} "
          "(spec asks < 0.10)")
    assert all(v < 0.10 for v in devs.values())


def test_criterion_8_invariant_suite():
    checks = {}

    xi2_0, _ = squeezing_parameter(initial_state(10 ** 6), 10 ** 6)
    checks["xi2(0) = 1"] = abs(xi2_0 - 1.0) <= 1e-10

    trace = evolve_squeezing(demo_params())
    mom = trace.moments
    checks["jmm = conj(jpp)"] = \
        np.abs(mom[:, 3] - np.conj(mom[:, 2])).max() <= 1e-8 * 10 ** 6

    p = demo_params()
    strong = p.with_drives(2.0 * p.omega_1, 2.0 * p.omega_2)
    t2 = evolve_squeezing(strong)
    checks["field-scaling invariance"] = \
        abs(t2.min_xi2 / trace.min_xi2 - 1.0) <= 1e-9

    gen = assemble_generator(p)
    v0 = initial_state(10 ** 6)
    direct = propagate(gen, v0, 0.3).as_array()
    composed = propagate(gen, propagate(gen, v0, 0.18), 0.12).as_array()
    checks["semigroup property"] = \
        np.abs(composed - direct).max() <= 1e-9 * np.abs(direct).max()

    po = PhysicalParams(n_atoms=2, omega_1=4.0, omega_2=8.8, delta_1=100.0,
                        omega_ab=120.0, delta=1.0, kappa=0.3, gamma_a=0.1,
                        gamma_b=0.1, gamma_o=0.1)
    liou = build_full_model(po, HilbertSpec(2, 4, 1))
    res = integrate_master(liou, DensityMatrix.from_pure(liou.basis.vacuum_all_a()),
                           1.5)
    checks["Lindblad trace preservation"] = res.trace_drift <= 1e-8

    co = effective_coeffs(po)
    from cavspin.dicke import DickePropagator, stretched_state
    prop = DickePropagator(co, 60)
    amps = prop.evolve_amplitudes(stretched_state(60).amplitudes, [1e3])[0]
    checks["Dicke unitarity"] = abs(np.linalg.norm(amps) - 1.0) <= 1e-9

    ok = all(checks.values())
    report(8, "invariant suite", ok,
           "; ".join(f"{k}: {'ok' if v else 'VIOLATED'}" for k, v in checks.items()))


def test_criterion_9_dissipation_free_cross_oracle():
    p = PhysicalParams(n_atoms=1000, omega_1=100.0, omega_2=0.0, delta_1=1e4,
                       omega_ab=1000.0, delta=50.0)
    p = p.with_drives(p.omega_1, match_raman(p))
    trace = evolve_squeezing(p)
    co = effective_coeffs(p)
    times = np.linspace(1e-9, 2.5 * trace.times[-1], 320)
    exact = ideal_trace(co, 1000, times).xi2.min()
    rel = abs(trace.min_xi2 - exact) / exact
    ok = rel <= 0.25
    report(9, "moment equations vs exact ladder evolution", ok,
           f"linear min={trace.min_xi2:.5f}, exact min={exact:.5f}, "
           f"relative deviation={rel:.1%} <= 25%")
