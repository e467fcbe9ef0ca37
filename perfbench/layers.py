"""Which cavspin functions the traced pass wraps, and the per-layer metrics.

Every function is patched where it is looked up: ``from .moments import
evolve_squeezing`` gives ``cavspin.cli`` and ``cavspin.optimize`` their own
bindings, so each binding is wrapped separately and tagged with the module it
lives in.  The recursive horizon re-runs of ``evolve_squeezing`` go through
``cavspin.moments.evolve_squeezing`` and nothing else calls that binding, so
the tag tells top-level traces from re-runs.

All metrics are per pass, i.e. per repetition of the workload's fixed work.
A layer a workload does not reach reads 0.
"""

from __future__ import annotations

import importlib
import statistics

from spans import self_times


def _trace_record(args, result) -> dict:
    return {"n_steps": int(args["n_steps"]), "points": len(result.times),
            "truncated": bool(result.truncated)}


def _optimize_record(args, result) -> dict:
    return {"evals": int(result.n_evaluations),
            "restarts": len(result.restarts),
            "successes": sum(1 for r in result.restarts if r.success),
            # optimize() re-runs one trace at the argmin unless a drive is zero
            "final_trace": bool(result.omega_1 != 0 and result.r_opt != 0)}


def _master_record(args, result) -> dict:
    liou = args["liou"]
    return {"steps": int(result.steps), "dim": int(liou.basis.dim),
            "jumps": len(liou.jump_operators)}


def install(tracer) -> None:
    """Wrap every traced binding of the cavspin modules."""
    mod = {name: importlib.import_module(f"cavspin.{name}")
           for name in ("cli", "moments", "optimize", "oracle", "params", "dicke")}
    for binding in ("cli", "optimize", "moments"):
        tracer.patch(mod[binding], "evolve_squeezing", "moments.evolve_squeezing",
                     _trace_record, binding=binding)
    for binding in ("cli", "optimize", "oracle", "params"):
        tracer.patch(mod[binding], "check_validity", "params.check_validity",
                     binding=binding)
    for binding in ("cli", "optimize"):
        tracer.patch(mod[binding], "optimize", "optimize.optimize", _optimize_record,
                     binding=binding)
    tracer.patch(mod["cli"], "scaling_sweep", "optimize.scaling_sweep")
    tracer.patch(mod["cli"], "validate_elimination", "oracle.validate_elimination")
    tracer.patch(mod["oracle"], "integrate_master", "oracle.integrate_master",
                 _master_record)
    tracer.patch(mod["oracle"], "extract_moments", "oracle.extract_moments")
    for attr in ("build_full_model", "build_intermediate_model"):
        tracer.patch(mod["oracle"], attr, "oracle.build")
    for attr in ("dicke_moments", "oat_min_squeezing"):
        tracer.patch(mod["dicke"], attr, f"dicke.{attr}")


def rk4_flops_per_step(dim: int, jumps: int) -> int:
    """Real flops of one RK4 step of the dense master equation (computed).

    Each right-hand side does the two products of the commutator and, with
    jumps, two anticommutator products plus two per jump operator; one
    complex dim x dim product costs 8 dim^3 real flops.  The elementwise work
    of the time-dependent Hamiltonian is left out.
    """
    products = 2 + (2 + 2 * jumps if jumps else 0)
    return 4 * products * 8 * dim ** 3


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans (import.* and bench.* excluded)."""
    own = self_times(spans)
    named: dict[str, list] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def get(name):
        return named.get(name, [])

    def self_sum(name):
        return sum(own[s.id] for s in get(name))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    traces = [s for s in get("moments.evolve_squeezing") if "points" in s.info]
    top = [s for s in traces if s.info["binding"] != "moments"]
    rerun_parents = {s.parent for s in traces if s.info["binding"] == "moments"}
    trace_self = [own[s.id] for s in get("moments.evolve_squeezing")]
    out["moments.evolve_squeezing.calls"] = len(trace_self)
    out["moments.evolve_squeezing.self_s"] = sum(trace_self)
    out["moments.evolve_squeezing.p50_ms"] = (
        1e3 * statistics.median(trace_self) if trace_self else 0.0)
    out["moments.grid_points"] = sum(
        s.info["n_steps"] if s.id in rerun_parents else s.info["points"] for s in traces)
    out["moments.extension_ratio"] = ratio(len(traces) - len(top), len(top))
    out["moments.truncated_ratio"] = ratio(sum(s.info["truncated"] for s in top), len(top))

    opts = [s for s in get("optimize.optimize") if "evals" in s.info]
    opt_ids = {s.id for s in opts}
    evals = sum(s.info["evals"] for s in opts)
    eval_traces = sum(1 for s in top if s.info["binding"] == "optimize"
                      and s.parent in opt_ids) - sum(s.info["final_trace"] for s in opts)
    out["optimize.optimize.self_s"] = self_sum("optimize.optimize")
    out["optimize.evals"] = evals
    out["optimize.eval_ms"] = ratio(1e3 * sum(s.duration for s in opts), evals)
    out["optimize.trace_eval_ratio"] = ratio(eval_traces, evals)
    out["optimize.restart_success_ratio"] = ratio(
        sum(s.info["successes"] for s in opts), sum(s.info["restarts"] for s in opts))

    out["params.check_validity.calls"] = len(get("params.check_validity"))
    out["params.check_validity.self_s"] = self_sum("params.check_validity")

    masters = [s for s in get("oracle.integrate_master") if "steps" in s.info]
    steps = sum(s.info["steps"] for s in masters)
    out["oracle.integrate_master.calls"] = len(get("oracle.integrate_master"))
    out["oracle.integrate_master.self_s"] = self_sum("oracle.integrate_master")
    out["oracle.integrate_master.steps"] = steps
    out["oracle.integrate_master.us_per_step"] = ratio(
        1e6 * out["oracle.integrate_master.self_s"], steps)
    out["oracle.rk4_flops_per_step"] = ratio(sum(
        s.info["steps"] * rk4_flops_per_step(s.info["dim"], s.info["jumps"])
        for s in masters), steps)
    out["oracle.build.self_s"] = self_sum("oracle.build")
    out["oracle.extract_moments.calls"] = len(get("oracle.extract_moments"))
    out["oracle.extract_moments.self_s"] = self_sum("oracle.extract_moments")
    out["oracle.validate_elimination.self_s"] = self_sum("oracle.validate_elimination")

    out["dicke.build_s"] = sum(s.duration for s in get("dicke.DickePropagator"))
    for kind in ("dense", "krylov"):
        points = [s for s in get("dicke.evolve_amplitudes") if s.info["kind"] == kind]
        out[f"dicke.point_ms.{kind}"] = ratio(
            1e3 * sum(s.duration for s in points), sum(s.info["points"] for s in points))
    out["dicke.dicke_moments.self_s"] = self_sum("dicke.dicke_moments")
    out["dicke.oat_min_squeezing.self_s"] = self_sum("dicke.oat_min_squeezing")

    out["cli.main.self_s"] = self_sum("cli.main")
    out["cli.bytes_written"] = sum(s.info.get("bytes", 0) for s in get("cli.main"))
    return out


def import_metrics(importtime_stderr: str) -> dict[str, float]:
    """import.* metrics from the output of ``python -X importtime -c 'import cavspin'``.

    Each value is the cumulative import time of that module in seconds; a
    module that was not imported (for example a lazy ``scipy.stats``) reads 0.
    """
    cumulative = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative.setdefault(fields[2].strip(), int(fields[1]) * 1e-6)
    names = {"import.cavspin_s": "cavspin",
             "import.cavspin.moments_s": "cavspin.moments",
             "import.cavspin.optimize_s": "cavspin.optimize",
             "import.cavspin.oracle_s": "cavspin.oracle",
             "import.cavspin.dicke_s": "cavspin.dicke",
             "import.scipy.stats_s": "scipy.stats",
             "import.scipy.linalg_s": "scipy.linalg"}
    return {metric: cumulative.get(module, 0.0) for metric, module in names.items()}
