"""cavspin benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 15 --trace 0

Workloads: evolve, sweep, oracle, dicke (see README.md in this directory).
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A result
file with the provenance of the run is written to ``perfbench/results/``.

Set-up time is measured in fresh interpreters that import cavspin and build
the workload's inputs; the workload itself runs in one more fresh process.
BLAS/OpenMP threads of every child process are pinned to ``THREADS``.
Every reported time is calibrated to a nominal machine speed
(see calibrate.py); the result file also keeps the wall times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from layers import import_metrics  # layers and spec import no cavspin
from spec import END_TO_END, PER_LAYER, PREDICTIONS, WHY, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUNDLED = ("fig2.cfg", "fig2_nodissipation.cfg", "fig3.cfg", "oracle_n2.cfg")

#: BLAS/OpenMP threads per child process (no larger than nproc)
THREADS = 1
#: fresh interpreters whose median is setup_s
SETUP_REPEATS = 5
#: fresh ``-X importtime`` interpreters whose median gives each import.* metric
IMPORT_REPEATS = 3
#: a run that is not done this long after it started is stopped and fails
DEADLINE_S = 170

SETUP_CODE = """
import sys, time
import calibrate
sampler = calibrate.Sampler(calibrate.python_block, calibrate.PYTHON_NOMINAL_S)
sampler.start()
t0 = time.perf_counter()
import cavspin
import inputs
inputs.build(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4])
t1 = time.perf_counter()
sampler.stop()
print(repr(sampler.calibrated(t0, t1)), repr(sampler.net(t0, t1)))
"""


class BenchError(RuntimeError):
    """The benchmark could not run; reported without a result line."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], what: str, deadline: float) -> subprocess.CompletedProcess:
    """Run ``python argv`` to completion; kill it at ``deadline`` (monotonic)."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish within {DEADLINE_S} s of the start") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def setup_once(workload: str, seed: int, out_dir: str,
               deadline: float) -> tuple[float, float]:
    """One fresh set-up: (calibrated, wall) seconds."""
    proc = run_child(["-c", SETUP_CODE, workload, str(seed), ROOT, out_dir], "set-up",
                     deadline)
    calibrated, wall = proc.stdout.strip().splitlines()[-1].split()
    return float(calibrated), float(wall)


def import_breakdown(deadline: float) -> dict[str, float]:
    runs = [import_metrics(run_child(["-X", "importtime", "-c", "import cavspin"],
                                     "import breakdown", deadline).stderr)
            for _ in range(IMPORT_REPEATS)]
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def percentile(values: list[float], pct: int) -> float:
    """Inclusive linear-interpolation percentile (the value itself for one sample)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def previous_counts(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get("exact_counts")
    except (OSError, ValueError):
        return None


def determinism(counts: dict, before: dict | None) -> dict:
    """Exact counts must repeat between the traced passes of a run, and
    between runs of one workload and seed (``before``: the previous run's)."""
    def values(c):
        return {name: sorted(set(v)) for name, v in c.items()}

    return {"between_passes": "match" if all(len(v) == 1 for v in values(counts).values())
            else "mismatch",
            "previous_run": "none" if before is None
            else "match" if values(before) == values(counts) else "mismatch"}


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (record for the result file, final line)."""
    deadline = time.monotonic() + DEADLINE_S
    missing = [p for p in [os.path.join(SRC, "cavspin", "__init__.py")]
               + [os.path.join(ROOT, "configs", c) for c in BUNDLED] if not os.path.isfile(p)]
    if missing:
        raise BenchError(f"program sources not found: {', '.join(missing)}")
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(BENCH, "work"))
    stem = os.path.join(BENCH, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        inputs_dir = os.path.join(work, "inputs")
        setups = [setup_once(args.workload, args.seed, inputs_dir, deadline)]
        if not args.trace:
            setups += [setup_once(args.workload, args.seed, os.path.join(work, f"setup{k}"),
                                  deadline) for k in range(1, SETUP_REPEATS)]
        setups, setup_walls = [s[0] for s in setups], [s[1] for s in setups]
        imports = import_breakdown(deadline) if args.trace else {}
        result_file = os.path.join(work, "worker.json")
        run_child([os.path.join(BENCH, "worker.py"), "--workload", args.workload,
                   "--inputs", inputs_dir, "--work", os.path.join(work, "out"),
                   "--src", SRC, "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--result", result_file,
                   "--spans", stem + ".spans.jsonl"], "workload", deadline)
        with open(result_file, encoding="utf-8") as fh:
            worker = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = worker["untraced_pass_s"]
    latencies = worker["op_latency_s"]
    p90 = percentile(latencies, 90)
    record = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(), "threads_pinned": THREADS,
        "versions": worker["versions"],
        "load_model": "closed loop, one client, one process",
        "why_all": WHY,
        "predictions": [{"layer_metrics": a, "moves": b, "on": c} for a, b, c in PREDICTIONS],
        "attempted": worker["attempted"], "failed": worker["failed"],
        "fail_ratio": worker["failed"] / worker["attempted"],
        "fail_ratio_base": "operations failed / operations attempted, traced passes included",
        "problems": worker["problems"],
        "untraced_pass_s": untraced,
        "untraced_pass_wall_s": worker["untraced_pass_wall_s"],
        "slowdown_median": worker["slowdown_median"],
        "slowdown_samples": worker["slowdown_samples"],
        "time_base": "calibrated seconds (see calibrate.py); *_wall_s are wall seconds",
        "op_samples": len(latencies),
        "op_samples_beyond_p90": sum(1 for x in latencies if x > p90),
    }
    correct = worker["failed"] == 0
    if args.trace:
        traced = worker["traced_pass_s"]
        values = dict(worker["layers"], **imports)
        values["bench.tracing_overhead"] = (statistics.median(traced)
                                            / statistics.median(worker["untraced_pass_wall_s"])
                                            - 1.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        counts = worker["exact_counts"]
        verdict = determinism(counts, previous_counts(stem + ".json"))
        record.update(traced_pass_s=traced, exact_counts=counts, determinism=verdict)
        if verdict["between_passes"] != "match":
            correct = False
            print(f"determinism: exact counts differ between passes: {counts}", file=sys.stderr)
        if verdict["previous_run"] == "mismatch":
            print("determinism: exact counts differ from the previous run at this seed",
                  file=sys.stderr)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["setup_runs_s"] = setups
        record["setup_runs_wall_s"] = setup_walls
    record["metrics"] = metrics
    record["correct"] = correct
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    line = {"correct": correct, "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics}
    return record, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record, line = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['why']}")
    print(f"# nproc {record['nproc']}, threads pinned to {record['threads_pinned']}, "
          f"cpu {record['cpu_model']}, versions {record['versions']}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} "
          f"({record['failed']} failed / {record['attempted']} attempted operations)")
    print(f"op latency samples = {record['op_samples']} "
          f"({record['op_samples_beyond_p90']} beyond p90)")
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
