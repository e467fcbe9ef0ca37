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
from .params import (CONFIG_KEYS, ConfigError, _count, _finite, _float_list, _number, _positive,
                     _splitting, check_validity, decoherence_budget, params_from_mapping,
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


def _config_rule(rule, value, name: str, *args):
    """``rule(value, name, *args)`` by a rule of ``params``, whose refusal is a
    ``ConfigError`` with the rule's text; ``None``, an absent key, passes."""
    try:
        return None if value is None else rule(value, name, *args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _key_rule(rule, config: dict, key: str, default=None):
    """The number under ``key`` (else ``default``) by ``rule``, under the key's name:
    nan and inf get the rule's text, as in the library."""
    return _config_rule(rule, _number(config, key, float, default), key)


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
    _config_rule(_splitting, params.omega_ab, "omega_ab")
    n_steps = _config_rule(_count, _number(config, "n_steps", int, 400), "n_steps", 2)
    t_max = _key_rule(_positive, config, "t_max")
    max_ext = _config_rule(_count, _number(config, "max_extensions", int, 0),
                           "max_extensions", 0)
    ref_rate_hz = (_key_rule(_positive, config, "ref_rate_hz") if args.ref_rate_hz is None
                   else _config_rule(_positive, args.ref_rate_hz, "ref_rate_hz"))
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
    """The oracle settings: ``omega_ab`` by the splitting rule, as in ``evolve``,
    ``atom_levels`` and ``cavity_cutoff`` by the count rule, then the grid and
    the refusals of the models ``validate_elimination`` builds."""
    params = params_from_mapping(config)
    _config_rule(_splitting, params.omega_ab, "omega_ab")
    levels, cutoff = (_config_rule(_count, _number(config, key, int), key)
                      for key in ("atom_levels", "cavity_cutoff"))
    spec = HilbertSpec(n_atoms=params.n_atoms, atom_levels=levels, cavity_cutoff=cutoff)
    t_final = _key_rule(_positive, config, "t_final")
    n_times = _config_rule(_count, _number(config, "n_times", int), "n_times", 2)
    comp = _number(config, "compensate_stark", int, 1)
    if comp not in (0, 1):
        raise ConfigError(f"compensate_stark must be 0 or 1: {comp!r}")
    steps = {key: _key_rule(_positive, config, key) for key in ("dt_full", "dt_intermediate")}
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
    kwargs = {key: _key_rule(_finite, config, key)
              for key in ("omega_ab", "g_a", "g_b", "kappa", "gamma_total", "fixed_delta")
              if key in config}
    kwargs.update({key: _number(config, key, int)
                   for key in ("n_atoms", "restarts", "max_evals", "n_steps") if key in config})
    if "gamma_split" in config:
        kwargs["gamma_split"] = tuple(_config_rule(_finite, w, "gamma_split")
                                      for w in _float_list(config, "gamma_split"))
    for lo_key, hi_key, name in _BOUND_KEYS:
        if lo_key in config or hi_key in config:
            lo, hi = defaults[name]
            kwargs[name] = (_key_rule(_finite, config, lo_key, lo),
                            _key_rule(_finite, config, hi_key, hi))
    kwargs["seed"] = (seed_override if seed_override is not None
                      else _number(config, "seed", int, defaults["seed"]))
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
    coops = [_config_rule(_positive, c, "cooperativities")
             for c in _float_list(config, "cooperativities")]
    if max(coops, default=0.0) < 1.0:
        raise ConfigError("cooperativities must include a value >= 1, as the scaling "
                          f"fit uses only those: {config['cooperativities']!r}")
    ratio = _key_rule(_positive, config, "kappa_over_gamma")
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
