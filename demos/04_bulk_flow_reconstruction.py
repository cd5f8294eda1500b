"""Reconstructing the bulk flow from the interface alone.

The velocity and pressure everywhere off the interface are single-layer
integrals of the interface forcing against the periodic Stokeslet.  This
script samples them, confirms they solve the viscous flow equations, and
inspects the behavior near the interface and far away.
Run directly: python demos/04_bulk_flow_reconstruction.py
"""

import numpy as np

from stokes2p import (
    InterfaceProfile,
    PeriodicGrid,
    PhysParams,
    far_field_residuals,
    interface_jump_checks,
    pressure_field,
    sample_flow,
    stokeslet_eval,
    trace_velocity,
    velocity_field,
)

grid = PeriodicGrid(128)
f = InterfaceProfile(grid, 0.2 * np.cos(grid.nodes) + 0.1 * np.sin(2 * grid.nodes))
params = PhysParams.from_theta(mu=1.0, sigma=1.0, theta=1.5)

print("=" * 70)
print("1. The periodic Stokeslet, assembled from the layer kernels")
print("=" * 70)
x = (1.3, 0.8)
U, P = stokeslet_eval(*x)
h = 1e-4
div = [(stokeslet_eval(x[0] + h, x[1])[0][0, k] - stokeslet_eval(x[0] - h, x[1])[0][0, k]
        + stokeslet_eval(x[0], x[1] + h)[0][1, k] - stokeslet_eval(x[0], x[1] - h)[0][1, k])
       / (2 * h) for k in (0, 1)]
print(f"   velocity tensor at {x}:\n{U}")
print(f"   divergence of its columns (central differences): {np.max(np.abs(div)):.2e}")

print()
print("=" * 70)
print("2. Sampled flow field")
print("=" * 70)
pts = np.array([[0.5, 1.2], [0.5, -1.2], [3.0, 2.0], [3.0, -2.0]])
for s in sample_flow(f, params, pts):
    print(f"   x=({s.point[0]:5.2f},{s.point[1]:6.2f}) side={s.side:5s} "
          f"v=({s.velocity[0]:+.5f},{s.velocity[1]:+.5f}) q={s.pressure:+.5f}")

print()
print("=" * 70)
print("3. The reconstruction solves the viscous flow equations")
print("=" * 70)
h = 1e-3
p0 = np.array([2.2, 1.4])
off = np.array([-2 * h, -h, 0.0, h, 2 * h])
c_lap = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
c_grad = np.array([-1.0, 8.0, 0.0, -8.0, 1.0]) / (-12 * h)
stencil = np.concatenate([np.stack([p0[0] + off, np.full(5, p0[1])], axis=1),
                          np.stack([np.full(5, p0[0]), p0[1] + off], axis=1)])
v = velocity_field(f, params, stencil)
q = pressure_field(f, params, stencil)
lap_v = c_lap @ v[:5] + c_lap @ v[5:]
grad_q = np.array([c_grad @ q[:5], c_grad @ q[5:]])
div_v = c_grad @ v[:5, 0] + c_grad @ v[5:, 1]
print(f"   momentum residual |mu lap v - grad q| = {np.max(np.abs(lap_v - grad_q)):.2e}")
print(f"   divergence                             = {abs(div_v):.2e}")

print()
print("=" * 70)
print("4. Far field: horizontal drift and pressure offsets")
print("=" * 70)
res = far_field_residuals(f, params, height=20.0)
for side, r in res.items():
    print(f"   x2 -> {'+' if side == 'plus' else '-'}20: "
          f"v1 residual {r['v1_residual']:.2e}, v2 residual {r['v2_residual']:.2e}, "
          f"q residual {r['q_residual']:.2e}")

print()
print("=" * 70)
print("5. Interface limits: jumps match the forcing")
print("=" * 70)
small = InterfaceProfile(PeriodicGrid(64), 0.1 * np.cos(PeriodicGrid(64).nodes))
rep = interface_jump_checks(small, params, probe_count=2,
                            eps_factors=(1e-2, 1e-3))
print(f"   layer one-sided limits: residuals at eps = {rep.eps_values[-1]:.1e} "
      f"are {rep.final_z_residual:.2e}, fitted orders "
      f"{sorted(round(o, 2) for o in rep.z_orders.values())}")
print(f"   pressure jump vs normal forcing: {rep.pressure_residuals[-1]:.2e}")
print(f"   viscous stress jump vs tangential forcing: "
      f"{rep.stress_tangential_residual:.2e}")
print(f"   full traction vs curvature+buoyancy forcing: "
      f"{rep.stress_normal_residual:.2e}")

print()
print("=" * 70)
print("6. Two routes to the interface velocity trace")
print("=" * 70)
small_f = InterfaceProfile(grid, 0.1 * np.cos(grid.nodes))
a = trace_velocity(small_f, params, "direct-g")
b = trace_velocity(small_f, params, "parts-z")
print(f"   direct vs integrated-by-parts: {np.max(np.abs(a - b)):.2e}")
print("   (the vertical component of this trace is what moves the interface)")
