"""Seeded inputs of the four benchmark workloads.

``build(workload, seed, root, out_dir)`` writes the config files one pass of
the workload runs into ``out_dir`` and returns its manifest (also saved as
``manifest.json`` there); config names in the manifest are relative to
``out_dir``.  The same seed always gives byte-identical inputs.  The seed
changes the physical inputs but hardly the amount of work a pass does, so
the cost of a pass stays comparable across seeds.
"""

from __future__ import annotations

import json
import os
import random

from cavspin.params import (PhysicalParams, match_raman, params_to_mapping,
                            read_config)
from spec import WORKLOADS

#: evolve commands per pass
N_EVOLVE = 100
#: sweep settings, cut so that one pass takes seconds instead of a minute
SWEEP_RESTARTS = 8          # a power of two keeps the Sobol starts balanced
SWEEP_MAX_EVALS = 20
SWEEP_COOPERATIVITIES = "1,10,100,1000"
#: Dicke sizes: below and above the dense/Krylov switch at N + 1 = 3001
DICKE_DENSE_N = 1000
DICKE_KRYLOV_N = 3001
#: evolution times in units of the one-axis-twisting scale N^(-2/3) / chi
DICKE_DENSE_TIMES = (0.6, 1.2, 1.8)
DICKE_KRYLOV_TIMES = (0.6,)
DICKE_SCAN_POINTS = 24


def _write_config(path: str, mapping: dict, comment: str) -> None:
    lines = [f"# {comment}"] + [f"{k} = {v}" for k, v in mapping.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _evolve(rng: random.Random, root: str, out_dir: str) -> list[dict]:
    """Bundled fig2 configs plus seeded variants.

    Four classes of equal size (dissipation on/off times horizon doubling
    off/on); within each class log10 N is Latin-hypercube sampled over
    [3, 7], so every seed covers the same mix of costs.
    """
    fig2 = read_config(os.path.join(root, "configs", "fig2.cfg"))
    plain = read_config(os.path.join(root, "configs", "fig2_nodissipation.cfg"))
    ops = []
    for name, mapping in (("fig2", fig2), ("fig2_nodissipation", plain)):
        path = os.path.join(out_dir, f"{name}.cfg")
        _write_config(path, mapping, f"bundled configs/{name}.cfg")
        ops.append({"config": os.path.basename(path)})
    n_variants = N_EVOLVE - len(ops)
    classes = [[i for i in range(n_variants) if i % 4 == c] for c in range(4)]
    log_n = [0.0] * n_variants
    for members in classes:
        slots = list(range(len(members)))
        rng.shuffle(slots)
        for i, slot in zip(members, slots):
            log_n[i] = 3.0 + 4.0 * (slot + rng.random()) / len(members)
    for i in range(n_variants):
        base = fig2 if i % 2 == 0 else plain
        mapping = dict(base)
        mapping["n_atoms"] = str(int(round(10.0 ** log_n[i])))
        mapping["delta"] = "%.17g" % (float(base["delta"]) * 10.0 ** rng.uniform(-0.1, 0.1))
        if i % 4 >= 2:
            mapping["max_extensions"] = "2"
        if i % 5 == 0:
            mapping["ref_rate_hz"] = "100000"
        path = os.path.join(out_dir, f"variant_{i:03d}.cfg")
        _write_config(path, mapping, "seeded fig2 variant")
        ops.append({"config": os.path.basename(path)})
    return ops


def _sweep(rng: random.Random, seed: int, root: str, out_dir: str) -> list[dict]:
    """fig3 with restarts and evaluations cut and a seeded loss ratio.

    The seed moves kappa/Gamma over about 0.8-1.25 at fixed cooperativity,
    a change the optimum should not depend on.  The optimizer seed stays at
    the bundled 2024, so the restarts start from the same points and the
    work per pass barely moves; seed 0 keeps the bundled ratio 1.
    """
    mapping = read_config(os.path.join(root, "configs", "fig3.cfg"))
    ratio = 1.0 if seed == 0 else 10.0 ** rng.uniform(-0.1, 0.1)
    mapping.update(cooperativities=SWEEP_COOPERATIVITIES,
                   restarts=str(SWEEP_RESTARTS), max_evals=str(SWEEP_MAX_EVALS),
                   kappa_over_gamma="%.17g" % ratio)
    path = os.path.join(out_dir, "sweep.cfg")
    _write_config(path, mapping, "fig3 sweep with restarts and evaluations cut")
    return [{"config": os.path.basename(path)}]


def _oracle(rng: random.Random, root: str, out_dir: str) -> list[dict]:
    """Bundled unitary run plus a seeded dissipative four-level run.

    The seed moves drive and loss rates by +-20%; the step size is set by
    delta_1 and omega_ab, which stay fixed, so the step count barely moves.
    """
    unitary = os.path.join(out_dir, "oracle_n2.cfg")
    _write_config(unitary, read_config(os.path.join(root, "configs", "oracle_n2.cfg")),
                  "bundled configs/oracle_n2.cfg")

    def u() -> float:
        return 10.0 ** rng.uniform(-0.08, 0.08)

    p = PhysicalParams(n_atoms=2, omega_1=1.2 * u(), delta_1=30.0, omega_ab=60.0,
                       delta=0.5 * u(), kappa=0.5 * u(), gamma_a=0.1 * u(),
                       gamma_b=0.1 * u(), gamma_o=0.1 * u())
    p = p.with_drives(p.omega_1, match_raman(p))
    mapping = params_to_mapping(p)
    mapping.update(command="oracle", atom_levels="4", cavity_cutoff="1",
                   t_final="0.5", n_times="3")
    dissipative = os.path.join(out_dir, "oracle_n2_dissipative.cfg")
    _write_config(dissipative, mapping, "seeded dissipative N=2 four-level oracle")
    return [{"config": os.path.basename(unitary), "dissipative": False},
            {"config": os.path.basename(dissipative), "dissipative": True}]


def _dicke(rng: random.Random) -> list[dict]:
    """Matched drive (all four coefficients equal to c, chi = 4c).

    The seed sets c and nudges N; times scale as 1/chi, so the work per
    time point does not depend on c.
    """
    c = 10.0 ** rng.uniform(-1.0, 1.0)
    ops = []
    for kind, n_base, fracs in (("dense", DICKE_DENSE_N, DICKE_DENSE_TIMES),
                                ("krylov", DICKE_KRYLOV_N, DICKE_KRYLOV_TIMES)):
        n = n_base + rng.randrange(9)
        times = [f * n ** (-2.0 / 3.0) / (4.0 * c) for f in fracs]
        ops.append({"kind": kind, "n_atoms": n, "c": c, "times": times})
    scan = sorted({int(round(10.0 ** (1.0 + 3.0 * (k + rng.random()) / DICKE_SCAN_POINTS)))
                   for k in range(DICKE_SCAN_POINTS)})
    ops.append({"kind": "scan", "n_atoms": scan})
    return ops


def build(workload: str, seed: int, root: str, out_dir: str) -> dict:
    """Write the inputs of ``workload`` for ``seed`` and return the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "evolve":
        ops = _evolve(rng, root, out_dir)
    elif workload == "sweep":
        ops = _sweep(rng, seed, root, out_dir)
    elif workload == "oracle":
        ops = _oracle(rng, root, out_dir)
    else:
        ops = _dicke(rng)
    manifest = {"workload": workload, "seed": seed, "ops": ops}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest

