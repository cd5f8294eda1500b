"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np
import pytest

from stokes2p import (
    EvolutionState,
    InterfaceProfile,
    OperatorSpec,
    PeriodicGrid,
    PhysParams,
    StepperConfig,
    decay_rate_fit,
    eval_A,
    eval_B,
    eval_B0,
    eval_C,
    eval_Psi,
    frechet_B,
    frechet_B0,
    integrate,
    interface_jump_checks,
    numeric_jacobian_at_zero,
    pressure_field,
    trace_velocity,
    velocity_field,
)
from stokes2p.cli import main as cli_main
from stokes2p.fields import far_field_residuals, min_interface_distance


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_smooth_profile(grid, seed, amplitude=0.25, modes=12):
    rng = np.random.default_rng(seed)
    values = np.zeros(grid.n_points)
    for k in range(1, modes + 1):
        values += amplitude * np.exp(-0.4 * k) * (
            rng.normal() * np.cos(k * grid.nodes) + rng.normal() * np.sin(k * grid.nodes))
    return InterfaceProfile(grid, values)


def test_criterion_01_spectrum_match():
    t0 = time.time()
    grid = PeriodicGrid(256)
    worst_rel, worst_leak = 0.0, 0.0
    for theta in (0.0, 3.0, -0.5):
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=theta)
        rep = numeric_jacobian_at_zero(params, grid, 32)
        worst_rel = max(worst_rel, rep.worst_rel_error)
        worst_leak = max(worst_leak, rep.leakage)
    elapsed = time.time() - t0
    ok = worst_rel < 1e-6 and worst_leak < 1e-8 and elapsed < 60.0
    report(1, ok, f"spectrum: rel err {worst_rel:.3e} (tol 1e-6), "
                  f"leakage {worst_leak:.3e} (tol 1e-8), {elapsed:.1f}s (< 60s)")


def test_criterion_02_operator_identities():
    t0 = time.time()
    grid = PeriodicGrid(256)
    f = InterfaceProfile(grid, 0.3 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    density = InterfaceProfile(grid, np.cos(grid.nodes) + 0.4 * np.sin(3 * grid.nodes))
    worst_dec, worst_rec = 0.0, 0.0
    for n in range(0, 5):
        for m in range(1, 4):
            for q in (0, 1):
                B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f), density)
                A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f), 1, density)
                C = eval_C(OperatorSpec.diagonal(n + q, m, 0, 0, f), density)
                worst_dec = max(worst_dec, float(np.max(np.abs(B - A - C))))
            lhs = eval_C(OperatorSpec.diagonal(n, m, 0, 0, f), density) \
                + eval_C(OperatorSpec.diagonal(n + 2, m, 0, 0, f), density)
            rhs = eval_C(OperatorSpec.diagonal(n, m - 1, 0, 0, f), density)
            worst_rec = max(worst_rec, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.time() - t0
    ok = worst_dec < 1e-9 and worst_rec < 1e-9 and elapsed < 30.0
    report(2, ok, f"identities: decomposition {worst_dec:.3e}, "
                  f"recursion {worst_rec:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_03_frechet_derivatives():
    t0 = time.time()
    grid = PeriodicGrid(128)
    f0 = InterfaceProfile(grid, 0.25 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    direction = np.cos(2 * grid.nodes) + 0.5 * np.sin(grid.nodes)
    density = np.cos(grid.nodes) + 0.2 * np.sin(3 * grid.nodes)
    eps = 1e-5
    worst = 0.0

    def fd_rel_error(analytic, evaluate):
        plus = evaluate(InterfaceProfile(grid, f0.values + eps * direction))
        minus = evaluate(InterfaceProfile(grid, f0.values - eps * direction))
        fd = (plus - minus) / (2 * eps)
        return float(np.max(np.abs(analytic - fd)) / (np.max(np.abs(fd)) + 1e-30))

    for nmpq in [(0, 1, 0, 0), (1, 1, 2, 0), (2, 2, 0, 1), (1, 2, 2, 1), (3, 1, 3, 1)]:
        spec = OperatorSpec.diagonal(*nmpq, f0)
        got = frechet_B(spec, f0, direction)(density)
        worst = max(worst, fd_rel_error(
            got, lambda f, nmpq=nmpq: eval_B(OperatorSpec.diagonal(*nmpq, f), density)))
    got0 = frechet_B0(f0, direction)(density)
    worst = max(worst, fd_rel_error(got0, lambda f: eval_B0(f, density)))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(3, ok, f"derivatives vs central differences: rel err {worst:.3e} "
                  f"(tol 1e-6), {elapsed:.1f}s (< 30s)")


def test_criterion_04_conservation_and_equilibria():
    grid = PeriodicGrid(128)
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    worst_mean = 0.0
    for seed in range(20):
        f = random_smooth_profile(grid, seed)
        worst_mean = max(worst_mean, abs(float(np.mean(eval_Psi(f, params)))))
    worst_const = float(np.max(np.abs(eval_Psi(
        InterfaceProfile(grid, np.full(grid.n_points, 0.8)), params))))
    f = random_smooth_profile(grid, 99)
    worst_shift = float(np.max(np.abs(
        eval_Psi(InterfaceProfile(grid, f.values + 0.5), params) - eval_Psi(f, params))))
    ok = worst_mean < 1e-10 and worst_const < 1e-10 and worst_shift < 1e-9
    report(4, ok, f"conservation: mean {worst_mean:.3e} (tol 1e-10), "
                  f"constants {worst_const:.3e} (tol 1e-10), "
                  f"shift invariance {worst_shift:.3e} (tol 1e-9)")


def test_criterion_05_nonlinear_decay():
    t0 = time.time()
    grid = PeriodicGrid(64)
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.0)
    state = EvolutionState(0.0, InterfaceProfile(grid, 1e-4 * np.cos(grid.nodes)), params)
    records = []
    integrate(state, StepperConfig(scheme="exp-euler", dt=0.02, t_end=8.0),
              sink=records.append)
    fit = decay_rate_fit(records)
    elapsed = time.time() - t0
    ok = fit.reliable and abs(fit.rate - 0.25) / 0.25 < 0.02 and elapsed < 60.0
    report(5, ok, f"decay rate {fit.rate:.5f} vs 0.25 "
                  f"({abs(fit.rate - 0.25) / 0.25:.2%}, tol 2%), {elapsed:.1f}s (< 60s)")


def test_criterion_06_instability_growth():
    grid = PeriodicGrid(64)
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=-2.0)
    assert params.regime == "unstable"
    state = EvolutionState(0.0, InterfaceProfile(grid, 1e-8 * np.cos(grid.nodes)), params)
    records = []
    # a 1e-8 seed legitimately grows five decades; raise the runaway guard
    integrate(state, StepperConfig(scheme="exp-euler", dt=0.02, t_end=43.0,
                                   blowup_factor=1e6),
              sink=records.append)
    # fit the mode-1 amplitude in the window where the dynamics stay linear
    fit = decay_rate_fit(records, kind=("mode", 1), amp_window=(1e-7, 1e-3))
    growth = -fit.rate
    ok = fit.reliable and abs(growth - 0.25) / 0.25 < 0.05
    max_amp = max(r["linf"] for r in records)
    report(6, ok, f"growth rate {growth:.5f} vs 0.25 "
                  f"({abs(growth - 0.25) / 0.25:.2%}, tol 5%), peak amp {max_amp:.2e}")


def test_criterion_07_trace_equivalence():
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
    worst = 0.0
    for theta in (0.0, 1.0):
        params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=theta)
        a = trace_velocity(f, params, "direct-g")
        b = trace_velocity(f, params, "parts-z")
        worst = max(worst, float(np.max(np.abs(a - b))))
    ok = worst < 1e-8
    report(7, ok, f"trace variants agree to {worst:.3e} (tol 1e-8)")


@pytest.mark.slow
def test_criterion_08_jump_relations():
    grid = PeriodicGrid(64)
    f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=0.5)
    rep = interface_jump_checks(f, params, probe_count=4,
                                eps_factors=(1e-1, 1e-2, 1e-3, 1e-4))
    converging = all(res[-1] < res[0] for res in rep.z_residuals.values())
    orders_ok = all(o > 0.8 for o in rep.z_orders.values())
    final = rep.final_z_residual
    q_final = float(rep.pressure_residuals[-1])
    q_conv = rep.pressure_residuals[-1] < rep.pressure_residuals[0]
    ok = converging and orders_ok and final < 1e-4 and q_final < 1e-4 and q_conv
    report(8, ok, f"jumps: final layer residual {final:.3e} (tol 1e-4), "
                  f"orders {sorted(round(o, 2) for o in rep.z_orders.values())}, "
                  f"pressure residual {q_final:.3e} (tol 1e-4)")


def test_criterion_09_far_field():
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    res = far_field_residuals(f, params, height=20.0)
    worst = max(v for side in res.values() for v in side.values())
    ok = worst < 1e-6
    report(9, ok, f"far-field residuals at x2 = +/-20: max {worst:.3e} (tol 1e-6)")


def test_criterion_10_pde_residuals():
    grid = PeriodicGrid(128)
    f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
    params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)
    rng = np.random.default_rng(42)
    base = []
    while len(base) < 50:
        p = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(-2.5, 2.5)])
        if min_interface_distance(f, p[None, :])[0] >= 0.5:
            base.append(p)
    base = np.array(base)

    h = 1e-3
    offsets = np.array([-2 * h, -h, 0.0, h, 2 * h])
    c_lap = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    c_grad = np.array([-1.0, 8.0, 0.0, -8.0, 1.0]) / (-12 * h)
    # stencil points along both axes, batched through one field call each
    pts = np.concatenate([
        base[:, None, :] + np.stack([offsets, np.zeros(5)], axis=1)[None, :, :],
        base[:, None, :] + np.stack([np.zeros(5), offsets], axis=1)[None, :, :],
    ], axis=1).reshape(-1, 2)
    v = velocity_field(f, params, pts, collar=0.45).reshape(len(base), 10, 2)
    q = pressure_field(f, params, pts, collar=0.45).reshape(len(base), 10)

    vx, vy = v[:, :5, :], v[:, 5:, :]
    qx, qy = q[:, :5], q[:, 5:]
    lap_v = np.einsum("s,psi->pi", c_lap, vx) + np.einsum("s,psi->pi", c_lap, vy)
    grad_q = np.stack([qx @ c_grad, qy @ c_grad], axis=1)
    momentum = float(np.max(np.abs(params.mu * lap_v - grad_q)))
    div_v = float(np.max(np.abs(vx[:, :, 0] @ c_grad + vy[:, :, 1] @ c_grad)))
    lap_q = float(np.max(np.abs(qx @ c_lap + qy @ c_lap)))
    ok = momentum < 1e-5 and div_v < 1e-5 and lap_q < 1e-5
    report(10, ok, f"Stokes residuals at 50 interior points: momentum {momentum:.3e}, "
                   f"divergence {div_v:.3e}, pressure Laplacian {lap_q:.3e} (tol 1e-5)")


def test_criterion_11_determinism(tmp_path):
    args = ["simulate", "--n", "64", "--sigma", "1", "--mu", "1",
            "--g", "1", "--rho-minus", "0.5",
            "--init", "cos:1:0.01,sin:2:0.005", "--dt", "0.01",
            "--t-end", "0.5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out-dir", str(a)]) == 0
    assert cli_main(args + ["--out-dir", str(b)]) == 0
    same = (a / "snapshots.jsonl").read_bytes() == (b / "snapshots.jsonl").read_bytes()
    report(11, same, "identical-config reruns give bitwise-identical snapshots")
