"""Correctness checks on what each workload operation produced.

Every check returns a list of problems; an empty list means the output is
correct.  The recomputations use ``scipy.linalg.expm`` on the moment
generator and the closed-form one-axis-twisting moments, not the stepping
and refinement code under test.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.linalg import expm

from cavspin.dicke import oat_moments
from cavspin.moments import assemble_generator
from cavspin.optimize import OptimizationProblem, problem_for_cooperativity
from cavspin.params import params_from_mapping, read_config

#: relative tolerance of a recomputed squeezing value or moment
RECOMPUTE_RTOL = 1e-7
#: full-vs-intermediate acceptance bands of the oracle (as in the test suite)
ORACLE_BAND_UNITARY = {"jz": 0.10, "jpp": 0.10}
ORACLE_BAND_DISSIPATIVE = {"jz": 0.05, "jpm": 0.05, "nab": 0.05}
MAX_TRACE_DRIFT = 1e-8
#: exact Dicke moments against the closed form, relative to max(|ref|, N)
DICKE_RTOL = 1e-10
#: relative tolerance against the recorded sweep reference (reference_sweep.json)
SWEEP_REFERENCE_RTOL = 1e-9


def _close(value: float, expected: float, rtol: float, atol: float = 1e-12) -> bool:
    return math.isfinite(value) and abs(value - expected) <= atol + rtol * abs(expected)


def _xi2(v: np.ndarray, n_atoms: int) -> float:
    """Squeezing parameter of a moment vector, negative variance clamped to 0."""
    var = max((v[4].real + v[5].real) / 4.0 - abs(v[2]) / 2.0, 0.0)
    return n_atoms * var / v[0].real ** 2


def _initial(n_atoms: int) -> np.ndarray:
    n = float(n_atoms)
    return np.array([n / 2.0, n, 0.0, 0.0, n, 0.0], dtype=complex)


def read_csv_rows(path: str) -> list[dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_evolve(config_path: str, summary: dict, rows: list[dict]) -> list[str]:
    """``evolve``: xi2(0) = 1 and the minimum and grid agree with expm."""
    problems = []
    params = params_from_mapping(read_config(config_path))
    n = params.n_atoms
    m = assemble_generator(params).m
    v0 = _initial(n)
    if not rows or rows[0]["xi2"] != 1.0 or summary["xi2_initial"] != 1.0:
        problems.append("xi2 at t = 0 is not exactly 1")
    if len(rows) != summary["n_steps"]:
        problems.append("row count differs from n_steps")
    if not rows:
        return problems
    expected = _xi2(expm(m * summary["t_min"]) @ v0, n)
    if not _close(summary["min_xi2"], expected, RECOMPUTE_RTOL):
        problems.append(f"min_xi2 {summary['min_xi2']!r} != expm value {expected!r} "
                        f"at t_min {summary['t_min']!r}")
    grid_min = min(r["xi2"] for r in rows)
    if summary["min_xi2"] > grid_min * (1.0 + 1e-12):
        problems.append("refined minimum lies above the grid minimum")
    i_min = min(range(len(rows)), key=lambda i: rows[i]["xi2"])
    for i in sorted({1, len(rows) // 2, len(rows) - 1, i_min} & set(range(len(rows)))):
        v = expm(m * rows[i]["t"]) @ v0
        if not (_close(rows[i]["xi2"], _xi2(v, n), RECOMPUTE_RTOL)
                and _close(rows[i]["jz_re"], v[0].real, RECOMPUTE_RTOL, 1e-9 * n)
                and _close(rows[i]["jpp_re"], v[2].real, RECOMPUTE_RTOL, 1e-9 * n)):
            problems.append(f"grid row {i} (t = {rows[i]['t']!r}) differs from expm")
    return problems


def evolve_outputs(out_dir: str) -> tuple[dict, list[dict]]:
    summary = read_json(os.path.join(out_dir, "summary.json"))["summary"]
    return summary, read_csv_rows(os.path.join(out_dir, "trace.csv"))


def check_sweep(config_path: str, fit: dict, rows: list[dict],
                reference: dict | None) -> list[str]:
    """``sweep``: every point succeeded, each reported optimum reproduces its
    xi2_min under expm, the prefactor follows from the points, and at the
    reference seed the results equal the recorded ones."""
    problems = []
    config = read_config(config_path)
    coops = [float(c) for c in config["cooperativities"].split(",")]
    points = fit["points"]
    if len(points) != len(coops) or any(p["xi2_min"] is None for p in points):
        problems.append(f"failed sweep points: {[p['error'] for p in points]}")
        return problems
    if len(rows) != len(coops):
        problems.append("sweep.csv row count differs from the cooperativity list")
        return problems
    template = OptimizationProblem(n_atoms=int(config["n_atoms"]),
                                   omega_ab=float(config["omega_ab"]))
    ratio = float(config["kappa_over_gamma"])
    for row in rows:
        if not 0.0 < row["xi2_min"] <= 1.0:
            problems.append(f"xi2_min {row['xi2_min']!r} outside (0, 1]")
            continue
        prob = problem_for_cooperativity(template, row["cooperativity"], ratio)
        params = prob.params_at(row["r_opt"], row["delta_opt"], row["delta1_opt"])
        v = expm(assemble_generator(params).m * row["t_min"]) @ _initial(params.n_atoms)
        expected = _xi2(v, params.n_atoms)
        if not _close(row["xi2_min"], expected, RECOMPUTE_RTOL):
            problems.append(f"C = {row['cooperativity']:g}: xi2_min {row['xi2_min']!r} "
                            f"!= expm value {expected!r} at the reported optimum")
    fitted = [(r["cooperativity"], r["xi2_min"]) for r in rows if r["cooperativity"] >= 1]
    prefactor = math.exp(sum(math.log(x) + 0.5 * math.log(c) for c, x in fitted)
                         / len(fitted))
    for reported in [fit["prefactor_fixed_slope"]] + [r["C_fixed_slope"] for r in rows]:
        if not _close(reported, prefactor, 1e-12):
            problems.append(f"prefactor {reported!r} != {prefactor!r} from the points")
            break
    if reference is not None:
        for row in rows:
            ref = reference["xi2_min"][f"{row['cooperativity']:g}"]
            if not _close(row["xi2_min"], ref, SWEEP_REFERENCE_RTOL):
                problems.append(f"C = {row['cooperativity']:g}: xi2_min {row['xi2_min']!r} "
                                f"!= reference {ref!r}")
        ref = reference["prefactor_fixed_slope"]
        if not _close(fit["prefactor_fixed_slope"], ref, SWEEP_REFERENCE_RTOL):
            problems.append(f"prefactor {fit['prefactor_fixed_slope']!r} != reference {ref!r}")
    return problems


def sweep_outputs(out_dir: str) -> tuple[dict, list[dict]]:
    fit = read_json(os.path.join(out_dir, "fit.json"))["fit"]
    return fit, read_csv_rows(os.path.join(out_dir, "sweep.csv"))


def check_oracle(validation: dict, dissipative: bool, drifts: list[float]) -> list[str]:
    """``oracle``: full vs intermediate inside the acceptance band, and the
    master equation kept its trace."""
    problems = []
    band = ORACLE_BAND_DISSIPATIVE if dissipative else ORACLE_BAND_UNITARY
    for moment, limit in band.items():
        dev = validation["max_rel_dev_fi"][moment]
        if not dev < limit:
            problems.append(f"full vs intermediate {moment} deviation {dev:.3g} >= {limit}")
    if not validation["in_validity_regime"]:
        problems.append("run left the validity regime")
    if dissipative and not drifts:
        problems.append("dissipative run integrated no master equation")
    if any(not d <= MAX_TRACE_DRIFT for d in drifts):
        problems.append(f"trace drift {max(drifts):.3g} > {MAX_TRACE_DRIFT}")
    return problems


def check_dicke_point(n_atoms: int, chi_t: float, moments: np.ndarray) -> list[str]:
    """Exact Dicke moments (standard ordering) against the closed form."""
    ref = oat_moments(n_atoms, chi_t)[0]
    scale = np.maximum(np.abs(ref), float(n_atoms))
    err = float(np.max(np.abs(moments - ref) / scale))
    if not err <= DICKE_RTOL:
        return [f"N = {n_atoms}, chi t = {chi_t!r}: moments off the closed form "
                f"by {err:.3g} relative"]
    return []


def check_oat_scan(results: list[tuple[int, float, float]]) -> list[str]:
    """One-axis-twisting minima: each reproduces from the closed form, and
    the minima fall as N^(-2/3) (log-log slope within [-0.75, -0.55])."""
    problems = []
    for n, xi2_min, chi_t in results:
        v = oat_moments(n, chi_t)[0]
        if not _close(xi2_min, _xi2(v, n), 1e-12):
            problems.append(f"N = {n}: xi2_min {xi2_min!r} does not reproduce")
    logs = np.log([[n, x] for n, x, _ in results])
    slope = float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])
    if not -0.75 <= slope <= -0.55:
        problems.append(f"one-axis-twisting slope {slope:.3f} outside [-0.75, -0.55]")
    return problems
