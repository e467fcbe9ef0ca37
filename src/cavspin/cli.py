"""Batch command-line front end.

Subcommands: evolve, optimize, sweep, oracle, budget, validate.  Every
command reads a ``key = value`` config file, rejects unknown keys, and
echoes the fully resolved configuration into each output file.  Exit codes:
0 success, 2 configuration error, 3 numerical/feasibility failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from . import __version__
from .moments import (_csv_table, _g17, assemble_generator, default_t_max,
                      evolve_squeezing, trace_csv_rows)
from .optimize import (OptimizationProblem, SweepResult, optimize,
                       problem_for_cooperativity, scaling_sweep)
from .oracle import HilbertSpec, _check_model, validate_elimination
from .params import (CONFIG_KEYS, ConfigError, _float, _float_list, _int,
                     check_validity, decoherence_budget, params_from_mapping,
                     read_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_COMMON_OPTIONAL = ("command", "label")
_GRID_OPTIONAL = frozenset({"t_max", "n_steps", "max_extensions", "ref_rate_hz"})
_SEARCH_OPTIONAL = frozenset({"g_a", "g_b", "gamma_split", "r_min", "r_max", "delta_min",
                              "delta_max", "delta1_min", "delta1_max", "restarts",
                              "max_evals", "seed", "n_steps"})

#: accepted config keys per subcommand (besides the common optional ones)
COMMAND_KEYS = {
    "evolve": {
        "required": set(CONFIG_KEYS),
        "optional": _GRID_OPTIONAL,
    },
    "budget": {
        # grid keys tolerated so evolve configs can be re-used for budgeting
        "required": set(CONFIG_KEYS),
        "optional": _GRID_OPTIONAL,
    },
    "oracle": {
        "required": set(CONFIG_KEYS) | {"atom_levels", "cavity_cutoff",
                                        "t_final", "n_times"},
        "optional": {"dt_full", "dt_intermediate", "compensate_stark"},
    },
    "optimize": {
        "required": {"n_atoms", "omega_ab", "kappa", "gamma_total"},
        "optional": _SEARCH_OPTIONAL | {"fixed_delta"},
    },
    "sweep": {
        "required": {"n_atoms", "omega_ab", "cooperativities", "kappa_over_gamma"},
        "optional": _SEARCH_OPTIONAL,
    },
}


def _check_keys(command: str, mapping: dict) -> None:
    spec = COMMAND_KEYS[command]
    allowed = spec["required"] | spec["optional"] | set(_COMMON_OPTIONAL)
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys for '{command}': {', '.join(unknown)}")
    missing = sorted(spec["required"] - set(mapping))
    if missing:
        raise ConfigError(f"missing keys for '{command}': {', '.join(missing)}")
    declared = mapping.get("command")
    accepted = {command, "evolve"} if command == "budget" else {command}
    if declared is not None and declared not in accepted:
        raise ConfigError(f"config declares command = {declared!r}, invoked as {command!r}")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_payload(config: dict, payload: dict) -> str:
    doc = {"artifact": {"name": "cavspin", "version": __version__},
           "config": dict(sorted(config.items()))}
    doc.update(payload)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(config: dict, rows) -> str:
    lines = [f"# cavspin {__version__}"]
    lines += [f"# {k} = {v}" for k, v in sorted(config.items())]
    lines += list(rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _read_evolve(config: dict, args: argparse.Namespace) -> tuple:
    params = params_from_mapping(config)
    n_steps = _int(config, "n_steps", 400)
    if n_steps < 2:
        raise ConfigError("n_steps must be >= 2 (empty grid)")
    t_max = _float(config, "t_max")
    if t_max is not None and t_max <= 0:
        raise ConfigError(f"t_max must be positive: {t_max!r}")
    max_ext = _int(config, "max_extensions", 0)
    if max_ext < 0:
        raise ConfigError(f"max_extensions must be >= 0: {max_ext!r}")
    ref_rate_hz = args.ref_rate_hz
    if ref_rate_hz is None:
        ref_rate_hz = _float(config, "ref_rate_hz")
    if ref_rate_hz is not None and not 0 < ref_rate_hz < math.inf:
        raise ConfigError(f"ref_rate_hz must be positive and finite: {ref_rate_hz!r}")
    # the model's own refusals, in the order evolve_squeezing meets them
    if t_max is None:
        default_t_max(params)
    assemble_generator(params)
    return params, dict(t_max=t_max, n_steps=n_steps, max_extensions=max_ext), ref_rate_hz


def _run_evolve(config: dict, settings: tuple, out_dir: str) -> int:
    params, grid, ref_rate_hz = settings
    report = check_validity(params)
    for name, verdict in report.verdicts.items():
        if verdict != "pass":
            print(f"validity {verdict}: {name} = {getattr(report, name):.3g}",
                  file=sys.stderr)

    trace = evolve_squeezing(params, **grid)
    _atomic_write(os.path.join(out_dir, "trace.csv"),
                  _csv_text(config, trace_csv_rows(trace)))
    summary = {
        "min_xi2": trace.min_xi2,
        "t_min": trace.t_min,
        "xi2_initial": float(trace.xi2[0]),
        "t_max": float(trace.times[-1]),
        "n_steps": int(len(trace.times)),
        "truncated": trace.truncated,
        "truncation_reason": trace.truncation_reason,
        "validity_ratios": report.ratios(),
        "validity_verdicts": report.verdicts,
    }
    if ref_rate_hz is not None:
        summary["ref_rate_hz"] = ref_rate_hz
        summary["t_min_seconds"] = trace.t_min / (2.0 * math.pi * ref_rate_hz)
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  _json_payload(config, {"summary": summary}))
    print(f"min xi^2 = {trace.min_xi2:.6g} at t = {trace.t_min:.6g}"
          + (f" ({summary['t_min_seconds']:.3e} s)" if ref_rate_hz is not None else ""))
    return EXIT_OK


def _read_budget(config: dict, args: argparse.Namespace):
    params = params_from_mapping(config)
    decoherence_budget(params)
    return params


def _run_budget(config: dict, params, out_dir: str) -> int:
    n_gamma, n_kappa = decoherence_budget(params)
    rows = ["quantity,value",
            f"decayed_atoms,{_g17(n_gamma)}",
            "lost_photons," + ("unbounded" if math.isinf(n_kappa) else _g17(n_kappa))]
    print("\n".join(rows))
    payload = {"budget": {
        "decayed_atoms": n_gamma,
        "lost_photons": "unbounded" if math.isinf(n_kappa) else n_kappa,
        "n_atoms": params.n_atoms,
    }}
    _atomic_write(os.path.join(out_dir, "budget.json"), _json_payload(config, payload))
    return EXIT_OK


def _read_oracle(config: dict, args: argparse.Namespace) -> tuple:
    params = params_from_mapping(config)
    spec = HilbertSpec(n_atoms=params.n_atoms,
                       atom_levels=_int(config, "atom_levels"),
                       cavity_cutoff=_int(config, "cavity_cutoff"))
    t_final = _float(config, "t_final")
    n_times = _int(config, "n_times")
    if n_times < 2 or t_final <= 0:
        raise ConfigError("need t_final > 0 and n_times >= 2")
    comp = _int(config, "compensate_stark", 1)
    if comp not in (0, 1):
        raise ConfigError(f"compensate_stark must be 0 or 1: {comp!r}")
    steps = {key: _float(config, key) for key in ("dt_full", "dt_intermediate")}
    for key, dt in steps.items():
        if dt is not None and dt <= 0:
            raise ConfigError(f"{key} must be positive: {dt!r}")
    # the refusals of the models validate_elimination builds
    _check_model(params, spec)
    assemble_generator(params)
    return params, spec, t_final, n_times, steps, bool(comp)


def _run_oracle(config: dict, settings: tuple, out_dir: str) -> int:
    params, spec, t_final, n_times, steps, comp = settings
    times = np.linspace(0.0, t_final, n_times)
    report = validate_elimination(params, spec, times, **steps, compensate_stark=comp)
    _atomic_write(os.path.join(out_dir, "validation.json"),
                  _json_payload(config, {"validation": report.to_json_dict()}))
    worst_fi = max(report.max_dev("fi", m) for m in ("jz", "jpp"))
    print(f"max deviation full vs intermediate (jz, jpp): {worst_fi:.3e}; "
          f"in validity regime: {report.in_validity_regime}")
    return EXIT_OK


#: config key pairs of each search box, as (lower key, upper key, problem field)
_BOUND_KEYS = (("r_min", "r_max", "r_bounds"),
               ("delta_min", "delta_max", "delta_bounds"),
               ("delta1_min", "delta1_max", "delta1_bounds"))


def _problem_from_config(config: dict, seed_override: int | None) -> OptimizationProblem:
    defaults = {f.name: f.default for f in fields(OptimizationProblem)}
    kwargs = dict(
        n_atoms=_int(config, "n_atoms"),
        omega_ab=_float(config, "omega_ab"),
        g_a=_float(config, "g_a", defaults["g_a"]),
        g_b=_float(config, "g_b", defaults["g_b"]),
    )
    if "gamma_split" in config:
        split = _float_list(config, "gamma_split")
        if len(split) != 3:
            raise ConfigError("gamma_split needs exactly three weights")
        kwargs["gamma_split"] = tuple(split)
    for lo_key, hi_key, name in _BOUND_KEYS:
        if lo_key in config or hi_key in config:
            lo, hi = defaults[name]
            kwargs[name] = (_float(config, lo_key, lo), _float(config, hi_key, hi))
    for key in ("restarts", "max_evals", "n_steps"):
        if key in config:
            kwargs[key] = _int(config, key)
    for key in ("kappa", "gamma_total", "fixed_delta"):
        if key in config:
            kwargs[key] = _float(config, key)
    seed = seed_override if seed_override is not None else _int(config, "seed",
                                                                defaults["seed"])
    kwargs["seed"] = seed
    try:
        return OptimizationProblem(**kwargs)
    except ValueError as exc:   # bounds and search settings are config input
        raise ConfigError(str(exc)) from exc


def _report_dict(rep) -> dict:
    return {
        "xi2_min": rep.xi2_min,
        "r_opt": rep.r_opt,
        "delta_opt": rep.delta_opt,
        "delta1_opt": rep.delta1_opt,
        "t_min": rep.t_min,
        "omega_1": rep.omega_1,
        "n_evaluations": rep.n_evaluations,
        "validity_ratios": rep.validity_ratios,
    }


def _run_optimize(config: dict, problem: OptimizationProblem, out_dir: str) -> int:
    rep = optimize(problem)
    _atomic_write(os.path.join(out_dir, "optimum.json"),
                  _json_payload(config, {"optimum": _report_dict(rep),
                                         "seed": problem.seed}))
    print(f"xi^2_min = {rep.xi2_min:.6g} at r = {rep.r_opt:.4g}, "
          f"delta = {rep.delta_opt:.4g}, delta_1 = {rep.delta1_opt:.6g}")
    return EXIT_OK


def _sweep_rows(result: SweepResult):
    c_fixed = result.prefactor_fixed_slope
    table = [(pt.cooperativity, r.xi2_min, r.r_opt, r.delta_opt, r.delta1_opt, r.t_min,
              c_fixed)
             for pt in result.points if (r := pt.report) is not None]
    return _csv_table("cooperativity,xi2_min,r_opt,delta_opt,delta1_opt,t_min,"
                      "C_fixed_slope", table)


def _read_sweep(config: dict, args: argparse.Namespace) -> tuple:
    template = _problem_from_config(config, args.seed)
    coops = _float_list(config, "cooperativities")
    if not coops or min(coops) <= 0:
        raise ConfigError("cooperativities must be a non-empty list of positive numbers: "
                          f"{config['cooperativities']!r}")
    if max(coops) < 1.0:
        raise ConfigError("cooperativities must include a value >= 1, as the scaling "
                          f"fit uses only those: {config['cooperativities']!r}")
    ratio = _float(config, "kappa_over_gamma")
    if ratio <= 0:
        raise ConfigError("kappa_over_gamma must be positive")
    return template, coops, ratio


def _run_sweep(config: dict, settings: tuple, out_dir: str) -> int:
    template, coops, ratio = settings
    result = scaling_sweep(coops, template, kappa_over_gamma=ratio)
    _atomic_write(os.path.join(out_dir, "sweep.csv"),
                  _csv_text(config, _sweep_rows(result)))
    failures = {f"{p.cooperativity:g}": p.error for p in result.points
                if p.report is None}
    payload = {"fit": {
        "prefactor_fixed_slope": result.prefactor_fixed_slope,
        "free_slope": result.free_slope,
        "free_intercept": result.free_intercept,
        "points": [{"cooperativity": p.cooperativity,
                    "xi2_min": None if p.report is None else p.report.xi2_min,
                    "error": p.error}
                   for p in result.points],
    }, "seed": template.seed}
    _atomic_write(os.path.join(out_dir, "fit.json"), _json_payload(config, payload))
    print(f"fixed-slope prefactor = {result.prefactor_fixed_slope:.4g}, "
          f"free slope = {result.free_slope:.4g}")
    if failures:
        print(f"failed points: {failures}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


#: settings reader and runner of each subcommand; the reader makes every check
#: that needs no computed state (raising ConfigError, or the model's own error
#: for what the model refuses), so ``validate`` refuses what the command refuses
_COMMANDS = {
    "evolve": (_read_evolve, _run_evolve),
    "budget": (_read_budget, _run_budget),
    "oracle": (_read_oracle, _run_oracle),
    "optimize": (lambda config, args: _problem_from_config(config, args.seed),
                 _run_optimize),
    "sweep": (_read_sweep, _run_sweep),
}


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavspin",
        description="Spin squeezing of driven atoms in a lossy cavity: "
                    "moment dynamics, oracles and optimization.")
    parser.add_argument("--version", action="version", version=f"cavspin {__version__}")
    parser.add_argument("subcommand", choices=("evolve", "optimize", "sweep", "oracle",
                                               "budget", "validate"))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="optimizer seed override (optimize, sweep)")
    parser.add_argument("--ref-rate-hz", type=float, default=None,
                        help="reference rate nu in Hz, unit rate = 2*pi*nu (evolve)")
    return parser


#: the subcommands that read each subcommand-specific flag
_FLAG_COMMANDS = {"seed": ("optimize", "sweep"), "ref_rate_hz": ("evolve",)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, commands in _FLAG_COMMANDS.items():
            if getattr(args, dest) is not None and args.subcommand not in commands:
                raise ConfigError(f"--{dest.replace('_', '-')} is taken only by "
                                  f"{' and '.join(commands)}, not {args.subcommand}")
        config = read_config(args.config)
        command = args.subcommand
        if command == "validate":
            command = config.get("command")
            if command is None:
                raise ConfigError("config has no 'command' key to validate against")
            if command not in _COMMANDS:
                raise ConfigError(f"unknown command {command!r}")
        _check_keys(command, config)
        read, run = _COMMANDS[command]
        settings = read(config, args)
        if args.subcommand != "validate":
            return run(config, settings, args.out)
        print(f"config OK for command '{command}':")
        for key, value in sorted(config.items()):
            print(f"  {key} = {value}")
        return EXIT_OK
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
