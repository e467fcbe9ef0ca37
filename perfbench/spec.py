"""What the benchmark measures: workloads, metrics and predictions.

Standard library only, so run.py can read it without importing cavspin.
BENCHMARK.json at the repository root repeats the names and units.
"""

WORKLOADS = ("evolve", "sweep", "oracle", "dicke")

#: why each workload exists (one sentence each)
WHY = {
    "evolve": "Hundreds of short evolve commands through cli.main: moments and "
              "cli do the work, and it is the only workload with enough "
              "operations for a tail latency.",
    "sweep": "A cut-down fig3 cooperativity sweep: the optimizer drives "
             "hundreds of short traces with horizon doubling and validity "
             "penalties, so batching or screening gains show here.",
    "oracle": "The bundled unitary N=2 oracle plus a dissipative four-level "
              "N=2 oracle: dense RK4 master-equation steps do the work "
              "(sparse Liouvillian and merged RK4 kernels show here).",
    "dicke": "Exact matched-drive Dicke evolution on both sides of the "
             "dense/Krylov switch plus a one-axis-twisting scan: the dicke "
             "layer does all the work and peak memory sees the eigenbasis.",
}

#: (name, unit) of every end-to-end metric, measured with tracing off
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("moments.evolve_squeezing.calls", "count"),
    ("moments.evolve_squeezing.self_s", "s"),
    ("moments.evolve_squeezing.p50_ms", "ms"),
    ("moments.grid_points", "count"),
    ("moments.extension_ratio", "ratio"),
    ("moments.truncated_ratio", "ratio"),
    ("optimize.optimize.self_s", "s"),
    ("optimize.evals", "count"),
    ("optimize.eval_ms", "ms"),
    ("optimize.trace_eval_ratio", "ratio"),
    ("optimize.restart_success_ratio", "ratio"),
    ("params.check_validity.calls", "count"),
    ("params.check_validity.self_s", "s"),
    ("oracle.integrate_master.calls", "count"),
    ("oracle.integrate_master.self_s", "s"),
    ("oracle.integrate_master.steps", "count"),
    ("oracle.integrate_master.us_per_step", "us"),
    ("oracle.rk4_flops_per_step", "flop-computed"),
    ("oracle.build.self_s", "s"),
    ("oracle.extract_moments.calls", "count"),
    ("oracle.extract_moments.self_s", "s"),
    ("oracle.validate_elimination.self_s", "s"),
    ("dicke.build_s", "s"),
    ("dicke.point_ms.dense", "ms"),
    ("dicke.point_ms.krylov", "ms"),
    ("dicke.dicke_moments.self_s", "s"),
    ("dicke.oat_min_squeezing.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("import.cavspin_s", "s"),
    ("import.cavspin.moments_s", "s"),
    ("import.cavspin.optimize_s", "s"),
    ("import.cavspin.oracle_s", "s"),
    ("import.cavspin.dicke_s", "s"),
    ("import.scipy.stats_s", "s"),
    ("import.scipy.linalg_s", "s"),
    ("bench.tracing_overhead", "ratio"),
)

#: counts that must repeat exactly between passes and runs at a fixed seed
EXACT_COUNTS = ("optimize.evals", "moments.evolve_squeezing.calls",
                "oracle.integrate_master.steps", "cli.bytes_written")

#: layer metric -> end-to-end metrics it should move, and on which workloads
PREDICTIONS = (
    ("moments.evolve_squeezing.{calls,self_s,p50_ms}, moments.grid_points",
     "op_p50_ms, op_p90_ms, wall_s", "evolve, sweep (none on oracle or dicke)"),
    ("moments.extension_ratio, moments.truncated_ratio", "wall_s", "sweep"),
    ("optimize.optimize.self_s, optimize.evals, optimize.eval_ms, "
     "optimize.trace_eval_ratio, optimize.restart_success_ratio",
     "wall_s", "sweep only"),
    ("params.check_validity.{calls,self_s}", "wall_s", "sweep"),
    ("oracle.integrate_master.{calls,self_s,steps,us_per_step}, "
     "oracle.rk4_flops_per_step (computed)", "wall_s", "oracle (dissipative half)"),
    ("oracle.build.self_s, oracle.extract_moments.{calls,self_s}, "
     "oracle.validate_elimination.self_s", "wall_s", "oracle"),
    ("dicke.build_s, dicke.point_ms.{dense,krylov}, dicke.dicke_moments.self_s, "
     "dicke.oat_min_squeezing.self_s", "wall_s, peak_rss_mb", "dicke"),
    ("cli.main.self_s, cli.bytes_written", "op_p50_ms", "evolve"),
    ("import.*", "setup_s", "all four"),
    ("bench.tracing_overhead", "n/a", "all four"),
)
