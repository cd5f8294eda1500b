"""Tour of the singular-operator calculus on the periodic interface.

Walks through the three kernel families, the identities tying them
together, and the quadrature behavior that makes the package tick.
Run directly: python demos/01_operator_calculus.py
"""

import numpy as np

from stokes2p import (
    InterfaceProfile,
    OperatorSpec,
    PeriodicGrid,
    eval_A,
    eval_B,
    eval_B0,
    eval_C,
    hilbert_transform,
)

grid = PeriodicGrid(256)
xi = grid.nodes
f = InterfaceProfile(grid, 0.3 * np.cos(xi) + 0.1 * np.sin(2 * xi))
phi = InterfaceProfile(grid, np.cos(xi) + 0.4 * np.sin(3 * xi))

print("=" * 70)
print("1. The (0,0,0,0) member of the tangent family IS the Hilbert transform")
print("=" * 70)
# Quadrature: midpoint nodes half a spacing off the grid straddle the
# principal-value singularity symmetrically, so the odd part cancels and
# the rule is spectrally accurate for the periodic kernel.
quad_version = eval_B(OperatorSpec(0, 0), phi)
mult_version = hilbert_transform(phi)
print(f"   quadrature vs multiplier: {np.max(np.abs(quad_version - mult_version)):.2e}")
print(f"   cos -> sin:               "
      f"{np.max(np.abs(hilbert_transform(np.cos(3 * xi)) - np.sin(3 * xi))):.2e}")

print()
print("=" * 70)
print("2. Kernel identity: tangent member = regularized member + 1/s member")
print("=" * 70)
# Sharing nodes makes the identity exact at the discrete level.
for (n, m, q) in [(0, 1, 0), (2, 2, 1), (4, 3, 1)]:
    B = eval_B(OperatorSpec.diagonal(n, m, 0, q, f), phi)
    A = eval_A(OperatorSpec.diagonal(n, m, 0, q, f), 1, phi)
    C = eval_C(OperatorSpec.diagonal(n + q, m, 0, 0, f), phi)
    print(f"   (n,m,q)=({n},{m},{q}):  max|B - A - C| = {np.max(np.abs(B - A - C)):.2e}")

print()
print("=" * 70)
print("3. Recursion inside the 1/s family: C[n,m] + C[n+2,m] = C[n,m-1]")
print("=" * 70)
for (n, m) in [(0, 1), (1, 2), (3, 3)]:
    lhs = eval_C(OperatorSpec.diagonal(n, m, 0, 0, f), phi) \
        + eval_C(OperatorSpec.diagonal(n + 2, m, 0, 0, f), phi)
    rhs = eval_C(OperatorSpec.diagonal(n, m - 1, 0, 0, f), phi)
    print(f"   (n,m)=({n},{m}):  max residual = {np.max(np.abs(lhs - rhs)):.2e}")

print()
print("=" * 70)
print("4. Quadrature rules: the 1/s kernel is not periodic")
print("=" * 70)
# The midpoint rule is spectral for the periodic tangent kernels but only
# second order for the 1/s family; a symmetrized Gauss-Legendre rule
# recovers converged values there.
spec = OperatorSpec.diagonal(2, 1, 0, 0, f)
ref = eval_C(spec, phi, rule="gauss", m_quad=512)
for rule, m in [("midpoint", 256), ("midpoint", 2048), ("gauss", 128)]:
    got = eval_C(spec, phi, rule=rule, m_quad=m)
    print(f"   {rule:9s} m={m:5d}:  error vs converged = {np.max(np.abs(got - ref)):.2e}")

print()
print("=" * 70)
print("5. The log-kernel operator: exact multiplier plus smooth remainder")
print("=" * 70)
zero = InterfaceProfile.zero(grid)
for k in (1, 2, 5):
    out = eval_B0(zero, np.cos(k * xi))
    print(f"   flat profile, cos({k} xi) -> -cos({k} xi)/{k}:  "
          f"error {np.max(np.abs(out + np.cos(k * xi) / k)):.2e}")
out = eval_B0(zero, np.ones(grid.n_points))
print(f"   flat profile, constant -> -ln 4:  error {np.max(np.abs(out + np.log(4))):.2e}")
