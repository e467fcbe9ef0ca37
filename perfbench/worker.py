"""Run one workload in a fresh process and report what it measured.

The worker repeats the workload's fixed work (a pass) in a closed loop, each
operation starting when the previous one ends, one client, for the requested
time: untraced passes only, or with ``--trace 1`` untraced and traced passes
alternately.  Untraced passes run with the calibration sampler on and
report calibrated times (see calibrate.py); traced passes run without it and
report wall times.  Every output of the first pass gets the full correctness
checks; every later output must be byte-identical to the checked output of
the same operation.  Findings go to ``--result``
as JSON and, when tracing, the spans to ``--spans`` as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import calibrate
import cavspin
import checks
import layers
import spans
from spec import EXACT_COUNTS

#: minimum number of timed passes (per kind) however long a pass takes
MIN_PASSES = 2


class OpFailure(Exception):
    """An operation exited nonzero."""


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class CliWorkload:
    """Operations that are ``cavspin <command> --config C --out D`` via cli.main."""

    command = ""
    #: reference block (and its nominal time) that calibrates this workload
    reference = (calibrate.small_block, calibrate.SMALL_NOMINAL_S)

    def __init__(self, manifest: dict, input_dir: str, work_dir: str):
        self.ops = manifest["ops"]
        self.seed = manifest["seed"]
        self.input_dir = input_dir
        self.out_dirs = [os.path.join(work_dir, f"op{i:03d}") for i in range(len(self.ops))]
        self.cli = importlib.import_module("cavspin.cli")
        self._sink = open(os.devnull, "w")

    def config(self, i: int) -> str:
        return os.path.join(self.input_dir, self.ops[i]["config"])

    def run(self, i: int, tracer):
        argv = [self.command, "--config", self.config(i), "--out", self.out_dirs[i]]
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            with tracer.span("cli.main") as info:
                code = self.cli.main(argv)
        if code != 0:
            raise OpFailure(f"exit code {code}")
        if tracer.enabled:
            info["bytes"] = _dir_bytes(self.out_dirs[i])
        return None

    def fingerprint(self, i: int, result) -> str:
        out = self.out_dirs[i]
        chunks = []
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                chunks += [name.encode(), fh.read()]
        return _digest(*chunks)


class EvolveWorkload(CliWorkload):
    command = "evolve"

    def check(self, i: int, result) -> list[str]:
        summary, rows = checks.evolve_outputs(self.out_dirs[i])
        return checks.check_evolve(self.config(i), summary, rows)


class SweepWorkload(CliWorkload):
    command = "sweep"
    reference_file = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "reference_sweep.json")

    def check(self, i: int, result) -> list[str]:
        fit, rows = checks.sweep_outputs(self.out_dirs[i])
        reference = None
        if self.seed == 0:
            reference = checks.read_json(self.reference_file)
        return checks.check_sweep(self.config(i), fit, rows, reference)


class OracleWorkload(CliWorkload):
    """Records the trace drift of every master-equation integration.

    The recorder wraps ``cavspin.oracle.integrate_master`` in every pass, as
    a correctness probe; it adds one Python call per integration interval.
    """

    command = "oracle"

    def __init__(self, manifest: dict, input_dir: str, work_dir: str):
        super().__init__(manifest, input_dir, work_dir)
        oracle = importlib.import_module("cavspin.oracle")
        integrate = oracle.integrate_master
        self._drifts: list[float] = []

        @functools.wraps(integrate)
        def recording(*args, **kwargs):
            result = integrate(*args, **kwargs)
            self._drifts.append(float(result.trace_drift))
            return result

        oracle.integrate_master = recording

    def run(self, i: int, tracer):
        self._drifts = []
        super().run(i, tracer)
        return list(self._drifts)

    def fingerprint(self, i: int, result) -> str:
        return _digest(super().fingerprint(i, result).encode(), repr(result).encode())

    def check(self, i: int, result) -> list[str]:
        validation = checks.read_json(os.path.join(self.out_dirs[i], "validation.json"))
        return checks.check_oracle(validation["validation"],
                                   self.ops[i]["dissipative"], result)


class DickeWorkload:
    """Exact evolution at matched drive, and one-axis-twisting minima."""

    reference = (calibrate.large_block, calibrate.LARGE_NOMINAL_S)

    def __init__(self, manifest: dict, input_dir: str, work_dir: str):
        self.ops = manifest["ops"]
        self.dicke = importlib.import_module("cavspin.dicke")

    def run(self, i: int, tracer):
        op = self.ops[i]
        dicke = self.dicke
        if op["kind"] == "scan":
            return [(n, *dicke.oat_min_squeezing(n)) for n in op["n_atoms"]]
        n, c, kind = op["n_atoms"], op["c"], op["kind"]
        coeffs = dicke.EffectiveCoeffs(c_pm=c, c_mp=c, c_pp=complex(c), c_mm=complex(c))
        with tracer.span("dicke.DickePropagator", kind=kind):
            prop = dicke.DickePropagator(coeffs, n)
        start = dicke.stretched_state(n).amplitudes
        with tracer.span("dicke.evolve_amplitudes", kind=kind, points=len(op["times"])):
            amps = prop.evolve_amplitudes(start, op["times"])
        return np.array([
            dicke.dicke_moments(dicke.DickeState(n, a / np.linalg.norm(a))).as_array()
            for a in amps])

    def fingerprint(self, i: int, result) -> str:
        if self.ops[i]["kind"] == "scan":
            return _digest(repr(result).encode())
        return _digest(result.tobytes())

    def check(self, i: int, result) -> list[str]:
        op = self.ops[i]
        if op["kind"] == "scan":
            return checks.check_oat_scan(result)
        problems = []
        for t, moments in zip(op["times"], result):
            problems += checks.check_dicke_point(op["n_atoms"], 4.0 * op["c"] * t, moments)
        return problems


WORKLOADS = {"evolve": EvolveWorkload, "sweep": SweepWorkload,
             "oracle": OracleWorkload, "dicke": DickeWorkload}


class Tally:
    """Attempted and failed operations, and the checked output of each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: dict[int, str] = {}

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i}: {problem}")


def timed_pass(workload, tracer):
    """Run every operation once, back to back; return (wall, intervals, outcomes).

    ``intervals`` holds the ``perf_counter`` start and end of each operation.
    """
    intervals, outcomes = [], []
    t_pass = time.perf_counter()
    for i in range(len(workload.ops)):
        t0 = time.perf_counter()
        try:
            outcomes.append((workload.run(i, tracer), None))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        intervals.append((t0, time.perf_counter()))
    return time.perf_counter() - t_pass, intervals, outcomes


def check_pass(workload, outcomes, tally: Tally, full: bool) -> None:
    """Full checks on the first pass; byte-identity with it afterwards."""
    for i, (result, error) in enumerate(outcomes):
        tally.attempted += 1
        if error is not None:
            tally.fail(i, error)
            continue
        digest = workload.fingerprint(i, result)
        if full:
            problems = workload.check(i, result)
            if problems:
                tally.fail(i, "; ".join(problems))
            else:
                tally.checked[i] = digest
        elif tally.checked.get(i) != digest:
            tally.fail(i, "output differs from the checked first-pass output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, help="directory with manifest.json")
    parser.add_argument("--work", required=True, help="scratch directory for outputs")
    parser.add_argument("--src", required=True, help="directory holding the cavspin package")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    if not os.path.abspath(cavspin.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"cavspin imported from {cavspin.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    with open(os.path.join(args.inputs, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    workload = WORKLOADS[args.workload](manifest, args.inputs, args.work)
    tally = Tally()
    null = spans.NullTracer()
    sampler = calibrate.Sampler(*workload.reference)
    untraced, untraced_net, traced, latencies, per_pass = [], [], [], [], []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        sampler.start()
        try:
            _, intervals, outcomes = timed_pass(workload, null)
        finally:
            sampler.stop()
        check_pass(workload, outcomes, tally, full=not untraced)
        op_cal = [sampler.calibrated(a, b) for a, b in intervals]
        untraced.append(sum(op_cal))
        untraced_net.append(sum(sampler.net(a, b) for a, b in intervals))
        latencies += op_cal
        if tracer is not None:
            layers.install(tracer)
            first = len(tracer.spans)
            try:
                wall, _, outcomes = timed_pass(workload, tracer)
            finally:
                tracer.restore()
            check_pass(workload, outcomes, tally, full=False)
            traced.append(wall)
            per_pass.append(layers.layer_metrics(tracer.spans[first:]))
        done = len(traced if tracer is not None else untraced) >= MIN_PASSES
        if done and time.perf_counter() - start >= args.seconds:
            break

    result = {
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "cavspin": cavspin.__version__},
        "untraced_pass_s": untraced,
        "untraced_pass_wall_s": untraced_net,
        "op_latency_s": latencies,
        "slowdown_samples": len(sampler.starts),
        "slowdown_median": sampler.median_slowdown(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["traced_pass_s"] = traced
        result["layers"] = {name: statistics.median(p[name] for p in per_pass)
                            for name in per_pass[0]}
        result["exact_counts"] = {name: [p[name] for p in per_pass]
                                  for name in EXACT_COUNTS}
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
