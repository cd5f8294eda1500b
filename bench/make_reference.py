"""Remake the evolve workload's reference trajectory.

    python3 bench/make_reference.py

Integrates the base profile of ``workloads.EVOLVE`` to t_end with classical
RK4 at a step a quarter of RK4's default (0.5/N, about its stability limit),
repeats the run at half that step, and writes ``reference_evolve.json`` only
if the two final states agree within 1/100 of the accuracy target.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from stokes2p import EvolutionState, InterfaceProfile, PeriodicGrid, StepperConfig, integrate  # noqa: E402

EVOLVE = workloads.EVOLVE


def rk4_final(f0, params, dt):
    config = StepperConfig(scheme="rk4-explicit", dt=dt, t_end=EVOLVE["t_end"])
    return integrate(EvolutionState(0.0, f0, params), config).profile.values


def main() -> int:
    grid = PeriodicGrid(EVOLVE["n"])
    params = workloads.evolve_params()
    initial = workloads.evolve_base_profile(grid.nodes)
    f0 = InterfaceProfile(grid, initial)
    dt = 0.25 * StepperConfig(scheme="rk4-explicit").effective_dt(grid)
    t0 = time.perf_counter()
    final = rk4_final(f0, params, dt)
    half = rk4_final(f0, params, dt / 2.0)
    gap = float(np.max(np.abs(final - half)))
    limit = EVOLVE["target"] / 100.0
    print(f"RK4 dt={dt:g} vs dt/2: max difference {gap:.3e} (limit {limit:.1e}), "
          f"{time.perf_counter() - t0:.1f}s")
    if not gap <= limit:
        print("refusing to write the reference: the half-step run disagrees", file=sys.stderr)
        return 1
    ref = dict(EVOLVE)
    ref.update({
        "scheme": "rk4-explicit", "dt": dt, "half_step_gap": gap,
        "command": "python3 bench/make_reference.py",
        "initial": [float(x) for x in initial],
        "final": [float(x) for x in final],
    })
    path = HERE / "reference_evolve.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
