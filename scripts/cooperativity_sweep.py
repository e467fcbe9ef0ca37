#!/usr/bin/env python3
"""Optimize the squeezing minimum across cooperativities and fit the scaling.

Runs the bundled sweep configuration (about 4 s on one core) and prints the
fitted inverse-square-root prefactor next to each optimized point.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cavspin.cli import main  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parents[1]
OUT = REPO / "results" / "sweep"

code = main(["sweep", "--config", str(REPO / "configs" / "fig3.cfg"),
             "--out", str(OUT)])
if code != 0:
    sys.exit(code)

fit = json.loads((OUT / "fit.json").read_text())["fit"]
print(f"fixed-slope prefactor: {fit['prefactor_fixed_slope']:.3f}"
      f"   free slope: {fit['free_slope']:.3f}")
for point in fit["points"]:
    c, xi2 = point["cooperativity"], point["xi2_min"]
    print(f"  N g^2/(kappa Gamma) = {c:7.0f}: xi^2_min = {xi2:.5f}"
          f"   (law: {fit['prefactor_fixed_slope'] / c ** 0.5:.5f})")
print(f"outputs in {OUT}")
