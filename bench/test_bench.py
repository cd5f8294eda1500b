"""Self-tests of the benchmark: python3 -m pytest bench -q

They check that the tracer sees calls made through every name that binds a
traced function, that each workload's correctness check rejects a
deliberately corrupted output, and that the metric lists agree with
BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from stokes2p import InterfaceProfile, PeriodicGrid, PhysParams, analysis, evolution  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_tracer_counts_calls_through_imported_names():
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.5)
    k_max = 3
    original = evolution.eval_Psi
    tracer = Tracer()
    with tracer:
        assert analysis.eval_Psi is not original
        analysis.numeric_jacobian_at_zero(params, PeriodicGrid(32), k_max)
    assert tracer.stat("evolution.eval_Psi").calls == 2 * k_max
    assert tracer.stat("analysis.numeric_jacobian_at_zero").calls == 1
    assert analysis.eval_Psi is original and evolution.eval_Psi is original


def test_spans_nest_and_self_time_excludes_children():
    grid = PeriodicGrid(32)
    f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
    tracer = Tracer()
    with tracer:
        evolution.eval_Psi(f, PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.5))
    names = tracer.names
    top = [s for s in tracer.spans if s[3] == -1]
    assert [names[s[0]] for s in top] == ["evolution.eval_Psi"]
    composites = [s for s in tracer.spans if names[s[0]] == "operators.DiagonalOps.composite"]
    assert len(composites) == 14
    assert all(tracer.spans[s[3]][0] == top[0][0] for s in composites)
    psi = tracer.stat("evolution.eval_Psi")
    assert 0.0 < psi.self_s < psi.total_s


@pytest.fixture(scope="module")
def evolve_run():
    w = workloads.Evolve(seed=3)
    w.prepare()
    return w, w.run_round()


def test_evolve_check_rejects_corruption(evolve_run):
    w, (state, records) = evolve_run
    assert w.check((state, records)) == []
    target = workloads.EVOLVE["target"]

    def with_values(values):
        return dataclasses.replace(state, profile=InterfaceProfile(w.grid, values))

    off = state.profile.values.copy()
    off[7] += 2.0 * target
    assert any("error" in p for p in w.check((with_values(off), records)))
    drifted = state.profile.values + 1e-11
    assert any("mean drifted" in p for p in w.check((with_values(drifted), records)))
    bumped = [dict(r) for r in records]
    mid = len(bumped) // 2
    bumped[mid]["values"] = list(1.01 * (np.asarray(bumped[mid]["values"]) - state.profile.mean)
                                 + state.profile.mean)
    assert any("energy rose" in p for p in w.check((state, bumped)))


def test_spectrum_check_rejects_corruption():
    w = workloads.Spectrum(seed=5)
    w.grid = PeriodicGrid(64)       # the same check on a cheap grid
    reports = w.run_round()
    assert w.check(reports) == []
    rep = reports[1]
    modes = list(rep.modes)
    modes[4] = dataclasses.replace(modes[4], lam_numeric=modes[4].lam_numeric * (1 + 1e-5))
    bad = list(reports)
    bad[1] = dataclasses.replace(rep, modes=tuple(modes))
    assert any("relative error" in p for p in w.check(bad))
    bad[1] = dataclasses.replace(rep, leakage=1e-7)
    assert any("leakage" in p for p in w.check(bad))
    flipped = "unstable" if rep.regime == "stable" else "stable"
    bad[1] = dataclasses.replace(rep, regime=flipped)
    assert any("regime" in p for p in w.check(bad))


def test_fields_check_rejects_corruption():
    w = workloads.Fields(seed=2)
    samples, far = w.run_round()
    assert w.check((samples, far)) == []
    i = w.n_window + 3              # a stencil point
    bad = list(samples)
    s = bad[i]
    bad[i] = dataclasses.replace(s, velocity=(s.velocity[0] * (1 + 1e-5), s.velocity[1]))
    assert any("Stokes residuals" in p for p in w.check((bad, far)))
    bad = list(samples)
    bad[0] = dataclasses.replace(samples[0], side="minus" if samples[0].side == "plus" else "plus")
    assert any("wrong side" in p for p in w.check((bad, far)))
    far_bad = json.loads(json.dumps(far))
    far_bad["plus"]["q_residual"] = 1e-5
    assert any("far-field" in p for p in w.check((samples, far_bad)))


def test_verify_check_rejects_a_failing_pass():
    w = workloads.Verify(seed=0)
    code, text = w.run_round()
    assert w.check((code, text)) == []
    w.argv = w.argv + ["--inject-fault", "quadrature"]
    assert w.check(w.run_round()) != []
    assert w.check((0, text.replace("PASS ", "FAIL ", 1))) != []


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fields",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
