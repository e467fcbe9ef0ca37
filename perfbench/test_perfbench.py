"""Tests of the benchmark's own machinery: checks, spans, counts, inputs."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from cavspin import dicke  # noqa: E402


def _evolve_workload(tmp_path, n_ops=2):
    manifest = inputs.build("evolve", 0, ROOT, str(tmp_path / "in"))
    manifest["ops"] = manifest["ops"][:n_ops]
    return worker.EvolveWorkload(manifest, str(tmp_path / "in"), str(tmp_path / "out"))


def _perturb_summary(path, key, factor):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["summary"][key] *= factor
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def test_perturbed_evolve_output_counts_as_failure(tmp_path):
    wl = _evolve_workload(tmp_path)
    _, _, outcomes = worker.timed_pass(wl, spans.NullTracer())
    tally = worker.Tally()
    worker.check_pass(wl, outcomes, tally, full=True)
    assert (tally.attempted, tally.failed) == (2, 0)

    _perturb_summary(os.path.join(wl.out_dirs[1], "summary.json"), "min_xi2", 1.0 + 1e-6)
    worker.check_pass(wl, outcomes, tally, full=False)      # later pass: bytes differ
    assert (tally.attempted, tally.failed) == (4, 1)
    fresh = worker.Tally()
    worker.check_pass(wl, outcomes, fresh, full=True)       # first pass: recomputation
    assert fresh.failed == 1 and "expm value" in fresh.problems[0]


def test_evolve_grid_and_initial_value_checks(tmp_path):
    wl = _evolve_workload(tmp_path, n_ops=1)
    worker.timed_pass(wl, spans.NullTracer())
    summary, rows = checks.evolve_outputs(wl.out_dirs[0])
    assert checks.check_evolve(wl.config(0), summary, rows) == []
    rows[0]["xi2"] = 1.0 + 1e-15
    rows[len(rows) // 2]["jz_re"] *= 1.0 + 1e-5
    problems = checks.check_evolve(wl.config(0), summary, rows)
    assert any("t = 0" in p for p in problems)
    assert any("grid row" in p for p in problems)


def test_failed_operation_counts_as_failure(tmp_path):
    wl = _evolve_workload(tmp_path, n_ops=1)
    with open(wl.config(0), "a", encoding="utf-8") as fh:
        fh.write("n_steps = 1\n")                           # duplicate key: exit code 2
    _, _, outcomes = worker.timed_pass(wl, spans.NullTracer())
    tally = worker.Tally()
    worker.check_pass(wl, outcomes, tally, full=True)
    assert tally.failed == 1 and "exit code 2" in tally.problems[0]


def test_perturbed_sweep_output_counts_as_failure(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("command = sweep\nn_atoms = 1000000\nomega_ab = 100000\n"
                   "cooperativities = 10,100\nkappa_over_gamma = 1\nrestarts = 1\n"
                   "max_evals = 6\nseed = 3\n")
    manifest = {"seed": 3, "ops": [{"config": "sweep.cfg"}]}
    wl = worker.SweepWorkload(manifest, str(tmp_path), str(tmp_path / "out"))
    worker.timed_pass(wl, spans.NullTracer())
    fit, rows = checks.sweep_outputs(wl.out_dirs[0])
    assert checks.check_sweep(str(cfg), fit, rows, None) == []
    reference = {"xi2_min": {"10": rows[0]["xi2_min"], "100": rows[1]["xi2_min"]},
                 "prefactor_fixed_slope": fit["prefactor_fixed_slope"]}
    assert checks.check_sweep(str(cfg), fit, rows, reference) == []
    reference["xi2_min"]["100"] *= 1.0 + 1e-6
    assert len(checks.check_sweep(str(cfg), fit, rows, reference)) == 1
    rows[0]["xi2_min"] *= 1.0 + 1e-5
    problems = checks.check_sweep(str(cfg), fit, rows, None)
    assert any("expm value" in p for p in problems)
    assert any("prefactor" in p for p in problems)


def test_perturbed_oracle_output_counts_as_failure():
    good = {"max_rel_dev_fi": {"jz": 0.01, "jpp": 0.02, "jpm": 0.01, "nab": 0.001},
            "in_validity_regime": True}
    assert checks.check_oracle(good, False, []) == []
    assert checks.check_oracle(good, True, [1e-15, 2e-15]) == []
    assert checks.check_oracle(good, True, [1e-15, 2e-8])        # trace drift
    assert checks.check_oracle(good, True, [])                   # no integration ran
    bad = dict(good, max_rel_dev_fi=dict(good["max_rel_dev_fi"], jz=0.2))
    assert checks.check_oracle(bad, False, [])


def test_perturbed_dicke_output_counts_as_failure():
    n, c, t = 200, 0.3, 0.02
    coeffs = dicke.EffectiveCoeffs(c_pm=c, c_mp=c, c_pp=complex(c), c_mm=complex(c))
    state = dicke.dicke_evolve(coeffs, n, t)
    moments = dicke.dicke_moments(state).as_array()
    assert checks.check_dicke_point(n, 4.0 * c * t, moments) == []
    moments[2] *= 1.0 + 1e-8
    assert checks.check_dicke_point(n, 4.0 * c * t, moments)
    scan = [(m, *dicke.oat_min_squeezing(m)) for m in (10, 100, 1000)]
    assert checks.check_oat_scan(scan) == []
    scan[1] = (scan[1][0], scan[1][1] * (1.0 + 1e-9), scan[1][2])
    assert checks.check_oat_scan(scan)


def test_calibrated_time_drops_the_samples_and_divides_by_slowdown():
    sampler = calibrate.Sampler(calibrate.python_block, nominal_s=0.5)
    # three samples of 1.0 s (slowdown 2): one before, one inside, one after [10, 20]
    sampler.starts, sampler.ends = [9.0, 14.0, 20.05], [10.0, 15.0, 21.05]
    assert sampler.paused(10.0, 20.0) == 1.0
    assert sampler.net(10.0, 20.0) == 9.0
    assert sampler.slowdown(10.0, 20.0) == 2.0            # 9.0 lies outside the window
    assert sampler.calibrated(10.0, 20.0) == 4.5
    with pytest.raises(ValueError):
        sampler.slowdown(30.0, 31.0)


def test_sampler_samples_while_on_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = calibrate.Sampler(calibrate.python_block, calibrate.PYTHON_NOMINAL_S)
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    t1 = time.perf_counter()
    sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.starts) >= 4
    assert 0.0 < sampler.net(t0, t1) < t1 - t0
    assert sampler.calibrated(t0, t1) > 0.0


def _fake_spans():
    """parent(0..10) -> child(1..4), child(5..6) -> grandchild(5.5..5.75)."""
    out = []
    for i, (name, parent, start, end) in enumerate([
            ("a", None, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("b", 0, 5.0, 6.0),
            ("c", 2, 5.5, 5.75)]):
        s = spans.Span(i, parent, name, {})
        s.start, s.end = start, end
        out.append(s)
    return out


def test_self_time_is_span_time_minus_child_time():
    own = spans.self_times(_fake_spans())
    assert own == {0: 6.0, 1: 3.0, 2: 0.75, 3: 0.25}


def test_tracer_spans_nest_and_restore(tmp_path):
    import cavspin.cli
    import cavspin.moments
    original = cavspin.moments.evolve_squeezing
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        p = cavspin.params.demo_params(n_atoms=10 ** 5, dissipation=False)
        cavspin.cli.evolve_squeezing(p, n_steps=50, max_extensions=2)
    finally:
        tracer.restore()
    assert cavspin.moments.evolve_squeezing is original
    metrics = layers.layer_metrics(tracer.spans)
    # dissipation-free traces keep falling, so both extensions are taken
    assert metrics["moments.evolve_squeezing.calls"] == 3
    assert metrics["moments.extension_ratio"] == 2.0
    assert metrics["moments.grid_points"] == 150
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    tracer.write(str(tmp_path / "spans.jsonl"))
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 3


def test_determinism_mismatch_is_flagged():
    same = {"optimize.evals": [640, 640], "cli.bytes_written": [10, 10]}
    assert run.determinism(same, None) == {"between_passes": "match", "previous_run": "none"}
    assert run.determinism(same, {"optimize.evals": [640], "cli.bytes_written": [10]}) == {
        "between_passes": "match", "previous_run": "match"}
    drift = {"optimize.evals": [640, 641], "cli.bytes_written": [10, 10]}
    assert run.determinism(drift, same)["between_passes"] == "mismatch"
    assert run.determinism(same, drift)["previous_run"] == "mismatch"


def test_import_metrics_read_importtime_output():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |     250000 |     scipy.linalg\n"
            "import time:       300 |     400000 |   cavspin.moments\n"
            "import time:       100 |    1000000 | cavspin\n")
    got = layers.import_metrics(text)
    assert got["import.cavspin_s"] == pytest.approx(1.0)
    assert got["import.cavspin.moments_s"] == pytest.approx(0.4)
    assert got["import.scipy.linalg_s"] == pytest.approx(0.25)
    assert got["import.scipy.stats_s"] == 0.0          # not imported: lazy


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    def files(seed, name):
        inputs.build("evolve", seed, ROOT, str(tmp_path / name))
        return {f: (tmp_path / name / f).read_bytes() for f in os.listdir(tmp_path / name)}
    assert files(4, "a") == files(4, "b")
    assert files(4, "a") != files(5, "c")


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(spec.WHY.items())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spec.PER_LAYER)
    assert np.isclose(max(m["bound"] for m in bench["end_to_end"]),
                      next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"))
